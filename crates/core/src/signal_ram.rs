//! Signal RAM and the attack-scheme file (§III-D-2).
//!
//! The attack plan is "denoted as binary vectors and each bit represents
//! the action of DeepStrike during a separate clock cycle. We use '1' to
//! enable and '0' to disable the power striker" — *attack delay* is a run
//! of `0`s, *attack period* a run of `1`s, and the *number of attacks* is
//! however many `1`-runs the vector holds. The vector lives in on-chip
//! BRAM ([`BRAMS`] RAMB36s, [`CAPACITY_BITS`] bits) and is played back at
//! `f_sRAM`, one bit per clock, after the DNN start detector fires.
//!
//! The model stores the loaded [`SchemeProgram`], not its bits: the bit at
//! any playback position follows from the phase arithmetic (a delay run,
//! then `strikes` periods of `strike_cycles` ones and `gap_cycles` zeros),
//! so a RAM is a few words whatever the scheme's length and a platform
//! clone never copies a bit vector. [`AttackScheme::to_bits`] spells the
//! vector out; it is the reference that playback is tested against.

use ckpt::wire::{self, Reader};

use crate::error::{DeepStrikeError, Result};

/// Bit capacity of one RAMB36.
pub const BRAM36_BITS: usize = 36_864;

/// RAMB36 primitives backing the signal RAM. Two, because campaigns that
/// target late layers (e.g. 4,500 strikes into FC1 behind a ~17k-cycle
/// delay) compile to ~48k bits.
pub const BRAMS: usize = 2;

/// Bit capacity of the signal RAM.
pub const CAPACITY_BITS: usize = BRAMS * BRAM36_BITS;

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

    /// Total length of the compiled bit vector, saturating at `usize::MAX`
    /// (any field values may arrive over the UART).
    pub fn total_bits(&self) -> usize {
        let period = self.strike_cycles as usize + self.gap_cycles as usize;
        (self.strikes as usize).saturating_mul(period).saturating_add(self.delay_cycles as usize)
    }

    /// Compiles to the per-cycle enable bits: the reference for playback.
    pub fn to_bits(&self) -> Vec<bool> {
        let mut bits = Vec::with_capacity(self.total_bits());
        bits.extend(std::iter::repeat_n(false, self.delay_cycles as usize));
        for _ in 0..self.strikes {
            bits.extend(std::iter::repeat_n(true, self.strike_cycles as usize));
            bits.extend(std::iter::repeat_n(false, self.gap_cycles as usize));
        }
        bits
    }

    /// Position of the first `1` bit, if the scheme strikes at all.
    pub(crate) fn first_strike(&self) -> Option<usize> {
        (self.strikes > 0 && self.strike_cycles > 0).then_some(self.delay_cycles as usize)
    }

    /// Bit `pos` of [`to_bits`](Self::to_bits), for `pos < total_bits()`.
    fn bit_at(&self, pos: usize) -> bool {
        let period = self.strike_cycles as usize + self.gap_cycles as usize;
        pos.checked_sub(self.delay_cycles as usize)
            .and_then(|k| k.checked_rem(period))
            .is_some_and(|k| k < self.strike_cycles as usize)
    }

    /// Serialises the scheme for the UART scheme upload: the four fields
    /// as little-endian `u32`s in declaration order, 16 bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(16);
        for field in [self.delay_cycles, self.strikes, self.strike_cycles, self.gap_cycles] {
            wire::put_u32(&mut v, field);
        }
        v
    }

    /// Parses a scheme from uploaded bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DeepStrikeError::MalformedScheme`] unless exactly 16 bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        match [(); 4].map(|()| r.take_u32()) {
            [Some(delay_cycles), Some(strikes), Some(strike_cycles), Some(gap_cycles)]
                if r.is_empty() =>
            {
                Ok(AttackScheme { delay_cycles, strikes, strike_cycles, gap_cycles })
            }
            _ => Err(DeepStrikeError::MalformedScheme(format!(
                "expected 16 bytes, got {}",
                bytes.len()
            ))),
        }
    }
}

/// A multi-phase attack program: several schemes played back to back, so
/// a single trigger can strike *several* layers in one inference ("the
/// attacker \[has\] high flexibility to load different attack strategies
/// at run-time, i.e., dynamically target at different DNN layers",
/// §III-D).
///
/// # Example
///
/// ```
/// use deepstrike::signal_ram::{AttackScheme, SchemeProgram, SignalRam};
///
/// let program = SchemeProgram::new(vec![
///     AttackScheme { delay_cycles: 2, strikes: 1, strike_cycles: 1, gap_cycles: 0 },
///     AttackScheme { delay_cycles: 3, strikes: 1, strike_cycles: 1, gap_cycles: 0 },
/// ]);
/// let mut ram = SignalRam::new();
/// ram.load(program)?;
/// ram.start();
/// let played: Vec<bool> = (0..8).map(|_| ram.next_bit()).collect();
/// assert_eq!(played, [false, false, true, false, false, false, true, false]);
/// # Ok::<(), deepstrike::DeepStrikeError>(())
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

    /// Total compiled length in bits, saturating at `usize::MAX`.
    pub fn total_bits(&self) -> usize {
        self.phases.iter().fold(0, |sum, phase| sum.saturating_add(phase.total_bits()))
    }

    /// Total strikes across all phases, saturating at `u32::MAX`.
    pub fn total_strikes(&self) -> u32 {
        self.phases.iter().fold(0, |sum, phase| sum.saturating_add(phase.strikes))
    }

    /// Bit `pos` of the phases' concatenated [`AttackScheme::to_bits`];
    /// `false` past the end.
    fn bit_at(&self, mut pos: usize) -> bool {
        for phase in &self.phases {
            let len = phase.total_bits();
            if pos < len {
                return phase.bit_at(pos);
            }
            pos -= len;
        }
        false
    }
}

impl From<AttackScheme> for SchemeProgram {
    fn from(scheme: AttackScheme) -> Self {
        SchemeProgram { phases: vec![scheme] }
    }
}

/// The BRAM-backed playback engine: the loaded program and a cursor.
///
/// # Example
///
/// ```
/// use deepstrike::signal_ram::{AttackScheme, SignalRam};
///
/// let mut ram = SignalRam::new();
/// ram.load(AttackScheme { delay_cycles: 2, strikes: 2, strike_cycles: 1, gap_cycles: 1 }.into())?;
/// ram.start();
/// let played: Vec<bool> = (0..6).map(|_| ram.next_bit()).collect();
/// assert_eq!(played, [false, false, true, false, true, false]);
/// # Ok::<(), deepstrike::DeepStrikeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SignalRam {
    program: SchemeProgram,
    cursor: usize,
    running: bool,
}

impl SignalRam {
    /// Creates an empty signal RAM of [`CAPACITY_BITS`] bits.
    pub fn new() -> Self {
        SignalRam::default()
    }

    /// Bits currently loaded.
    pub fn len_bits(&self) -> usize {
        self.program.total_bits()
    }

    /// Whether a scheme is loaded.
    pub fn is_loaded(&self) -> bool {
        self.len_bits() > 0
    }

    /// Whether playback is active.
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Playback position: bits consumed since the last [`start`](Self::start).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Snapshot-fork support (`crate::snapshot`): installs `program` as if
    /// it had been loaded *before* playback began, positioned mid-flight.
    /// The cursor clamps to the program length and playback self-stops
    /// when the position is already at (or past) the end — exactly the
    /// state a naive run reaches after consuming `cursor` bits of this
    /// program. Emits no trace events: forked suffix runs only execute
    /// when trace collection is off.
    pub(crate) fn fork_install(&mut self, program: SchemeProgram, cursor: usize, started: bool) {
        let len = program.total_bits();
        debug_assert!(len <= CAPACITY_BITS, "fork caller checks capacity");
        self.cursor = cursor.min(len);
        self.running = started && self.cursor < len;
        self.program = program;
    }

    /// Loads a program, replacing any previous one and stopping playback.
    ///
    /// # Errors
    ///
    /// Returns [`DeepStrikeError::SchemeTooLarge`] if the compiled vector
    /// exceeds [`CAPACITY_BITS`].
    pub fn load(&mut self, program: SchemeProgram) -> Result<()> {
        let bits = program.total_bits();
        if bits > CAPACITY_BITS {
            return Err(DeepStrikeError::SchemeTooLarge { bits, capacity: CAPACITY_BITS });
        }
        trace::emit(|| trace::Event::SchemeLoaded {
            bits: bits as u64,
            strikes: program.total_strikes(),
            phases: program.phases().len() as u32,
        });
        self.program = program;
        self.cursor = 0;
        self.running = false;
        Ok(())
    }

    /// Starts (or restarts) playback from bit 0.
    pub fn start(&mut self) {
        self.cursor = 0;
        self.running = self.is_loaded();
        if self.running {
            trace::emit(|| trace::Event::PlaybackStart { len_bits: self.len_bits() as u64 });
        }
    }

    /// Stops playback.
    pub fn stop(&mut self) {
        self.running = false;
    }

    /// Reads the next enable bit at `f_sRAM`; `false` when idle or the
    /// program is exhausted (playback self-stops at the end).
    pub fn next_bit(&mut self) -> bool {
        if !self.running {
            return false;
        }
        // Playback only runs with the cursor inside the program.
        let bit = self.program.bit_at(self.cursor);
        self.cursor += 1;
        if self.cursor >= self.len_bits() {
            self.running = false;
            trace::emit(|| trace::Event::PlaybackDone { bits_played: self.cursor as u64 });
        }
        bit
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
        let mut ram = SignalRam::new();
        let full = AttackScheme { delay_cycles: CAPACITY_BITS as u32, ..AttackScheme::single(0) };
        let too_big = AttackScheme { strikes: 1, ..full };
        let full = AttackScheme { strikes: 0, ..full };
        assert_eq!(too_big.total_bits(), CAPACITY_BITS + 1);
        let err = ram.load(too_big.into()).unwrap_err();
        assert!(matches!(err, DeepStrikeError::SchemeTooLarge { .. }));
        ram.load(full.into()).unwrap();
        assert_eq!(ram.len_bits(), CAPACITY_BITS);
        // The paper's biggest campaign fits in one BRAM: 4500 strikes at
        // 1 on + 1 off.
        let paper =
            AttackScheme { delay_cycles: 600, strikes: 4500, strike_cycles: 1, gap_cycles: 1 };
        assert!(paper.total_bits() <= BRAM36_BITS);
        ram.load(paper.into()).unwrap();
        assert_eq!(ram.len_bits(), paper.total_bits());
    }

    #[test]
    fn extreme_uploads_are_refused_or_play_without_panicking() {
        let mut ram = SignalRam::new();
        // Every field at u32::MAX: the length saturates instead of
        // overflowing, and the RAM refuses it.
        let max = AttackScheme::from_bytes(&[0xFF; 16]).unwrap();
        assert_eq!(max.total_bits(), usize::MAX);
        assert!(matches!(ram.load(max.into()), Err(DeepStrikeError::SchemeTooLarge { .. })));
        // Strikes with a zero period: all delay, no division by zero.
        let hollow =
            AttackScheme { delay_cycles: 3, strikes: 1_000, strike_cycles: 0, gap_cycles: 0 };
        ram.load(hollow.into()).unwrap();
        ram.start();
        let played: Vec<bool> = (0..5).map(|_| ram.next_bit()).collect();
        assert_eq!(played, [false; 5]);
        assert_eq!(hollow.first_strike(), None);
    }

    #[test]
    fn fork_install_plays_the_reference_suffix_at_every_cursor() {
        let program = SchemeProgram::new(vec![
            AttackScheme { delay_cycles: 2, strikes: 2, strike_cycles: 2, gap_cycles: 1 },
            AttackScheme { delay_cycles: 1, strikes: 3, strike_cycles: 1, gap_cycles: 0 },
        ]);
        let reference: Vec<bool> =
            program.phases().iter().flat_map(AttackScheme::to_bits).collect();
        assert_eq!(reference.len(), program.total_bits());
        // Cursors cover both phase boundaries (8 and 12) and run past the end.
        for cursor in 0..reference.len() + 3 {
            let mut ram = SignalRam::new();
            ram.fork_install(program.clone(), cursor, true);
            let suffix = reference.get(cursor..).unwrap_or_default();
            let played: Vec<bool> = suffix.iter().map(|_| ram.next_bit()).collect();
            assert_eq!(played, suffix, "cursor {cursor}");
            assert!(!ram.is_running(), "cursor {cursor}: playback must stop at the end");
            assert!(!ram.next_bit());
            assert_eq!(ram.cursor(), reference.len());

            let mut idle = SignalRam::new();
            idle.fork_install(program.clone(), cursor, false);
            assert!(!idle.next_bit(), "cursor {cursor}: an unstarted fork stays low");
        }
    }

    #[test]
    fn first_strike_is_the_first_one_bit() {
        for strikes in 0..3 {
            for strike_cycles in 0..3 {
                let s = AttackScheme { delay_cycles: 4, strikes, strike_cycles, gap_cycles: 1 };
                assert_eq!(s.first_strike(), s.to_bits().iter().position(|&b| b), "{s:?}");
            }
        }
    }

    #[test]
    fn playback_self_stops_and_restarts() {
        let mut ram = SignalRam::new();
        ram.load(AttackScheme::single(1).into()).unwrap();
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
        let mut ram = SignalRam::new();
        ram.load(AttackScheme::single(0).into()).unwrap();
        ram.start();
        ram.load(AttackScheme::single(5).into()).unwrap();
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
}
