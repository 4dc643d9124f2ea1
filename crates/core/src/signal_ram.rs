//! Signal RAM and the attack-scheme file (§III-D-2).
//!
//! The attack plan is "denoted as binary vectors and each bit represents
//! the action of DeepStrike during a separate clock cycle. We use '1' to
//! enable and '0' to disable the power striker" — *attack delay* is a run
//! of `0`s, *attack period* a run of `1`s, and the *number of attacks* is
//! however many `1`-runs the vector holds. The vector lives in on-chip
//! BRAM (one RAMB36 = 36,864 bits) and is played back at `f_sRAM`, one bit
//! per clock, after the DNN start detector fires.

use crate::error::{DeepStrikeError, Result};

/// Bit capacity of one RAMB36.
pub const BRAM36_BITS: usize = 36_864;

/// High-level description of a strike pattern, compiled to the bit vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackScheme {
    /// Cycles to wait after the trigger before the first strike
    /// (the paper's *attack delay*).
    pub delay_cycles: u32,
    /// Number of strikes (*number of attacks*).
    pub strikes: u32,
    /// Cycles the striker stays on per strike (*attack period*) — one
    /// cycle = 10 ns at the paper's 100 MHz `f_sRAM`.
    pub strike_cycles: u32,
    /// Idle cycles between consecutive strikes.
    pub gap_cycles: u32,
}

impl AttackScheme {
    /// A single 10 ns strike after `delay` cycles.
    pub fn single(delay_cycles: u32) -> Self {
        AttackScheme { delay_cycles, strikes: 1, strike_cycles: 1, gap_cycles: 0 }
    }

    /// Total length of the compiled bit vector.
    pub fn total_bits(&self) -> usize {
        self.delay_cycles as usize
            + self.strikes as usize * (self.strike_cycles as usize + self.gap_cycles as usize)
    }

    /// Compiles to the per-cycle enable bits.
    pub fn to_bits(&self) -> Vec<bool> {
        let mut bits = Vec::with_capacity(self.total_bits());
        bits.extend(std::iter::repeat_n(false, self.delay_cycles as usize));
        for _ in 0..self.strikes {
            bits.extend(std::iter::repeat_n(true, self.strike_cycles as usize));
            bits.extend(std::iter::repeat_n(false, self.gap_cycles as usize));
        }
        bits
    }

    /// Serialises the scheme for the UART scheme upload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(16);
        v.extend_from_slice(&self.delay_cycles.to_le_bytes());
        v.extend_from_slice(&self.strikes.to_le_bytes());
        v.extend_from_slice(&self.strike_cycles.to_le_bytes());
        v.extend_from_slice(&self.gap_cycles.to_le_bytes());
        v
    }

    /// Parses a scheme from uploaded bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DeepStrikeError::MalformedScheme`] unless exactly 16 bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() != 16 {
            return Err(DeepStrikeError::MalformedScheme(format!(
                "expected 16 bytes, got {}",
                bytes.len()
            )));
        }
        let word = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().expect("len 4"));
        Ok(AttackScheme {
            delay_cycles: word(0),
            strikes: word(4),
            strike_cycles: word(8),
            gap_cycles: word(12),
        })
    }
}

/// A multi-phase attack program: several schemes concatenated into one bit
/// vector, so a single trigger can strike *several* layers in one inference
/// ("the attacker \[has\] high flexibility to load different attack
/// strategies at run-time, i.e., dynamically target at different DNN
/// layers", §III-D).
///
/// # Example
///
/// ```
/// use deepstrike::signal_ram::{AttackScheme, SchemeProgram};
///
/// let program = SchemeProgram::new(vec![
///     AttackScheme { delay_cycles: 2, strikes: 1, strike_cycles: 1, gap_cycles: 0 },
///     AttackScheme { delay_cycles: 3, strikes: 1, strike_cycles: 1, gap_cycles: 0 },
/// ]);
/// let bits = program.to_bits();
/// assert_eq!(bits, [false, false, true, false, false, false, true]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SchemeProgram {
    phases: Vec<AttackScheme>,
}

impl SchemeProgram {
    /// Creates a program from its phases, in playback order. Each phase's
    /// `delay_cycles` counts from the end of the previous phase.
    pub fn new(phases: Vec<AttackScheme>) -> Self {
        SchemeProgram { phases }
    }

    /// The phases in playback order.
    pub fn phases(&self) -> &[AttackScheme] {
        &self.phases
    }

    /// Total compiled length in bits.
    pub fn total_bits(&self) -> usize {
        self.phases.iter().map(AttackScheme::total_bits).sum()
    }

    /// Total strikes across all phases.
    pub fn total_strikes(&self) -> u32 {
        self.phases.iter().map(|p| p.strikes).sum()
    }

    /// Compiles to the per-cycle enable bits.
    pub fn to_bits(&self) -> Vec<bool> {
        let mut bits = Vec::with_capacity(self.total_bits());
        for phase in &self.phases {
            bits.extend(phase.to_bits());
        }
        bits
    }

    /// Serialises the program for the UART scheme upload
    /// (16 bytes per phase).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(16 * self.phases.len());
        for phase in &self.phases {
            v.extend_from_slice(&phase.to_bytes());
        }
        v
    }

    /// Parses a program from uploaded bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DeepStrikeError::MalformedScheme`] unless the length is a
    /// positive multiple of 16.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.is_empty() || !bytes.len().is_multiple_of(16) {
            return Err(DeepStrikeError::MalformedScheme(format!(
                "program length {} is not a positive multiple of 16",
                bytes.len()
            )));
        }
        Ok(SchemeProgram {
            phases: bytes
                .chunks_exact(16)
                .map(AttackScheme::from_bytes)
                .collect::<Result<Vec<_>>>()?,
        })
    }
}

impl From<AttackScheme> for SchemeProgram {
    fn from(scheme: AttackScheme) -> Self {
        SchemeProgram { phases: vec![scheme] }
    }
}

/// The BRAM-backed playback engine.
///
/// # Example
///
/// ```
/// use deepstrike::signal_ram::{AttackScheme, SignalRam};
///
/// let mut ram = SignalRam::new(1)?;
/// ram.load(&AttackScheme { delay_cycles: 2, strikes: 2, strike_cycles: 1, gap_cycles: 1 })?;
/// ram.start();
/// let played: Vec<bool> = (0..6).map(|_| ram.next_bit()).collect();
/// assert_eq!(played, [false, false, true, false, true, false]);
/// # Ok::<(), deepstrike::DeepStrikeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalRam {
    capacity_bits: usize,
    bits: Vec<bool>,
    cursor: usize,
    running: bool,
}

impl SignalRam {
    /// Creates an empty signal RAM backed by `brams` RAMB36 primitives.
    ///
    /// # Errors
    ///
    /// Returns [`DeepStrikeError::InvalidConfig`] if `brams == 0`.
    pub fn new(brams: usize) -> Result<Self> {
        if brams == 0 {
            return Err(DeepStrikeError::InvalidConfig("at least one BRAM required".into()));
        }
        Ok(SignalRam {
            capacity_bits: brams * BRAM36_BITS,
            bits: Vec::new(),
            cursor: 0,
            running: false,
        })
    }

    /// Bit capacity.
    pub fn capacity_bits(&self) -> usize {
        self.capacity_bits
    }

    /// Bits currently loaded.
    pub fn len_bits(&self) -> usize {
        self.bits.len()
    }

    /// Whether a scheme is loaded.
    pub fn is_loaded(&self) -> bool {
        !self.bits.is_empty()
    }

    /// Whether playback is active.
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Playback position: bits consumed since the last [`start`](Self::start).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Snapshot-fork support (`crate::snapshot`): installs `bits` as if
    /// they had been loaded *before* playback began, positioned mid-flight.
    /// The cursor clamps to the vector length and playback self-stops when
    /// the position is already at (or past) the end — exactly the state a
    /// naive run reaches after consuming `cursor` bits of this vector.
    /// Emits no trace events: forked suffix runs only execute when trace
    /// collection is off.
    pub(crate) fn fork_install(&mut self, bits: Vec<bool>, cursor: usize, started: bool) {
        debug_assert!(bits.len() <= self.capacity_bits, "fork caller checks capacity");
        self.cursor = cursor.min(bits.len());
        self.running = started && self.cursor < bits.len();
        self.bits = bits;
    }

    /// Compiles and loads a scheme, replacing any previous one and
    /// stopping playback.
    ///
    /// # Errors
    ///
    /// Returns [`DeepStrikeError::SchemeTooLarge`] if the compiled vector
    /// exceeds capacity.
    pub fn load(&mut self, scheme: &AttackScheme) -> Result<()> {
        self.load_program(&SchemeProgram::from(*scheme))
    }

    /// Compiles and loads a multi-phase program.
    ///
    /// # Errors
    ///
    /// Returns [`DeepStrikeError::SchemeTooLarge`] if the compiled vector
    /// exceeds capacity.
    pub fn load_program(&mut self, program: &SchemeProgram) -> Result<()> {
        let bits = program.total_bits();
        if bits > self.capacity_bits {
            return Err(DeepStrikeError::SchemeTooLarge { bits, capacity: self.capacity_bits });
        }
        self.bits = program.to_bits();
        self.cursor = 0;
        self.running = false;
        trace::emit(|| trace::Event::SchemeLoaded {
            bits: bits as u64,
            strikes: program.total_strikes(),
            phases: program.phases().len() as u32,
        });
        Ok(())
    }

    /// Starts (or restarts) playback from bit 0.
    pub fn start(&mut self) {
        self.cursor = 0;
        self.running = self.is_loaded();
        if self.running {
            trace::emit(|| trace::Event::PlaybackStart { len_bits: self.bits.len() as u64 });
        }
    }

    /// Stops playback.
    pub fn stop(&mut self) {
        self.running = false;
    }

    /// Reads the next enable bit at `f_sRAM`; `false` when idle or the
    /// vector is exhausted (playback self-stops at the end).
    pub fn next_bit(&mut self) -> bool {
        if !self.running {
            return false;
        }
        match self.bits.get(self.cursor) {
            Some(&b) => {
                self.cursor += 1;
                if self.cursor >= self.bits.len() {
                    self.running = false;
                    trace::emit(|| trace::Event::PlaybackDone { bits_played: self.cursor as u64 });
                }
                b
            }
            None => {
                self.running = false;
                false
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn scheme_compiles_delay_then_strike_runs() {
        let s = AttackScheme { delay_cycles: 3, strikes: 2, strike_cycles: 2, gap_cycles: 1 };
        assert_eq!(s.total_bits(), 3 + 2 * 3);
        let bits = s.to_bits();
        assert_eq!(bits, vec![false, false, false, true, true, false, true, true, false]);
        assert_eq!(bits.len(), s.total_bits());
    }

    #[test]
    fn scheme_bytes_round_trip() {
        let s = AttackScheme { delay_cycles: 1000, strikes: 4500, strike_cycles: 1, gap_cycles: 1 };
        assert_eq!(AttackScheme::from_bytes(&s.to_bytes()).unwrap(), s);
        assert!(AttackScheme::from_bytes(&[0; 15]).is_err());
        assert!(AttackScheme::from_bytes(&[0; 17]).is_err());
    }

    #[test]
    fn ram_enforces_capacity() {
        let mut ram = SignalRam::new(1).unwrap();
        let too_big =
            AttackScheme { delay_cycles: 40_000, strikes: 1, strike_cycles: 1, gap_cycles: 0 };
        let err = ram.load(&too_big).unwrap_err();
        assert!(matches!(err, DeepStrikeError::SchemeTooLarge { .. }));
        // The paper's biggest campaign fits in one BRAM: 4500 strikes at
        // 1 on + 1 off.
        let paper =
            AttackScheme { delay_cycles: 600, strikes: 4500, strike_cycles: 1, gap_cycles: 1 };
        assert!(paper.total_bits() <= BRAM36_BITS);
        ram.load(&paper).unwrap();
        assert_eq!(ram.len_bits(), paper.total_bits());
    }

    #[test]
    fn playback_self_stops_and_restarts() {
        let mut ram = SignalRam::new(1).unwrap();
        ram.load(&AttackScheme::single(1)).unwrap();
        assert!(!ram.next_bit(), "not started yet");
        ram.start();
        assert!(!ram.next_bit());
        assert!(ram.next_bit());
        assert!(!ram.is_running(), "exhausted");
        assert!(!ram.next_bit());
        ram.start();
        assert!(!ram.next_bit());
        assert!(ram.next_bit(), "restart replays");
    }

    #[test]
    fn loading_stops_playback() {
        let mut ram = SignalRam::new(1).unwrap();
        ram.load(&AttackScheme::single(0)).unwrap();
        ram.start();
        ram.load(&AttackScheme::single(5)).unwrap();
        assert!(!ram.is_running());
    }

    #[test]
    fn strike_count_matches_played_ones() {
        let scheme = AttackScheme { delay_cycles: 10, strikes: 7, strike_cycles: 3, gap_cycles: 2 };
        let ones = scheme.to_bits().iter().filter(|&&b| b).count();
        assert_eq!(ones, 21);
        // Rising edges = number of strikes.
        let bits = scheme.to_bits();
        let rises = bits.windows(2).filter(|w| !w[0] && w[1]).count() + usize::from(bits[0]);
        assert_eq!(rises, 7);
    }

    #[test]
    fn zero_bram_rejected() {
        assert!(SignalRam::new(0).is_err());
    }
}
