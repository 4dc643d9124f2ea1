//! The attack scheduler: detector + signal RAM → striker `Start` signal.
//!
//! §III-D ties the pieces together: once armed, the scheduler watches the
//! DNN start detector; when it fires, the signal RAM begins playing the
//! attack-scheme bit vector at `f_sRAM`, and each `1` bit asserts the
//! power striker's `Start` for that cycle.

use uart::proto::StatusInfo;

use crate::detector::StartDetector;
use crate::error::{DeepStrikeError, Result};
use crate::signal_ram::{AttackScheme, SchemeProgram, SignalRam};

/// The scheduler FSM.
///
/// # Example
///
/// ```
/// use deepstrike::detector::StartDetector;
/// use deepstrike::scheduler::AttackScheduler;
/// use deepstrike::signal_ram::{AttackScheme, SignalRam};
///
/// let det = StartDetector::new();
/// let ram = SignalRam::new();
/// let mut sched = AttackScheduler::new(det, ram);
/// sched.load_scheme(&AttackScheme::single(0))?;
/// sched.arm(true)?;
/// // Idle readouts: no strikes.
/// assert!(!sched.clock(Some((1u128 << 90) - 1)));
/// # Ok::<(), deepstrike::DeepStrikeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AttackScheduler {
    detector: StartDetector,
    ram: SignalRam,
    armed: bool,
    forced: bool,
    strikes_fired: u64,
    last_enable: bool,
}

impl AttackScheduler {
    /// Wires a detector and a signal RAM together.
    pub fn new(detector: StartDetector, ram: SignalRam) -> Self {
        AttackScheduler {
            detector,
            ram,
            armed: false,
            forced: false,
            strikes_fired: 0,
            last_enable: false,
        }
    }

    /// The underlying detector.
    pub fn detector(&self) -> &StartDetector {
        &self.detector
    }

    /// The underlying signal RAM.
    pub fn ram(&self) -> &SignalRam {
        &self.ram
    }

    /// Snapshot-fork support (`crate::snapshot`): mutable RAM access for
    /// installing a candidate program mid-flight.
    pub(crate) fn ram_mut(&mut self) -> &mut SignalRam {
        &mut self.ram
    }

    /// Loads an attack scheme into the signal RAM (disarms first).
    ///
    /// # Errors
    ///
    /// Returns [`DeepStrikeError::SchemeTooLarge`] if it does not fit.
    pub fn load_scheme(&mut self, scheme: &AttackScheme) -> Result<()> {
        self.armed = false;
        self.ram.load(SchemeProgram::from(*scheme))
    }

    /// Loads a multi-phase program (disarms first).
    ///
    /// # Errors
    ///
    /// Returns [`DeepStrikeError::SchemeTooLarge`] if it does not fit.
    pub fn load_program(&mut self, program: &SchemeProgram) -> Result<()> {
        self.armed = false;
        self.ram.load(program.clone())
    }

    /// Arms or disarms.
    ///
    /// # Errors
    ///
    /// Returns [`DeepStrikeError::InvalidConfig`] when arming without a
    /// loaded scheme.
    pub fn arm(&mut self, enabled: bool) -> Result<()> {
        if enabled && !self.ram.is_loaded() {
            return Err(DeepStrikeError::InvalidConfig("no scheme loaded".into()));
        }
        self.armed = enabled;
        trace::emit(|| trace::Event::SchedulerArmed { armed: enabled });
        if enabled {
            self.detector.reset();
            self.strikes_fired = 0;
            self.last_enable = false;
            self.forced = false;
        } else {
            self.ram.stop();
        }
        Ok(())
    }

    /// Whether the scheduler is armed.
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Strikes fired (rising enable edges) since arming.
    pub fn strikes_fired(&self) -> u64 {
        self.strikes_fired
    }

    /// Advances one `f_sRAM` cycle. `tdc_raw` is the latest raw TDC vector
    /// (if a new sample landed this cycle). Returns the striker `Start`
    /// level for this cycle.
    pub fn clock(&mut self, tdc_raw: Option<u128>) -> bool {
        if let Some(raw) = tdc_raw {
            // In forced (blind) mode playback already runs; a detector
            // trigger must not restart the scheme mid-flight.
            if self.armed && self.detector.push(raw) && !self.forced {
                self.ram.start();
            }
        }
        let enable = self.armed && self.ram.next_bit();
        if enable && !self.last_enable {
            self.strikes_fired += 1;
        }
        self.last_enable = enable;
        enable
    }

    /// Status snapshot for the UART protocol.
    pub fn status(&self) -> StatusInfo {
        StatusInfo {
            armed: self.armed,
            triggered: self.detector.is_triggered(),
            strikes_fired: self.strikes_fired.min(u64::from(u32::MAX)) as u32,
            scheme_bits: self.ram.len_bits().min(u32::MAX as usize) as u32,
        }
    }

    /// Starts scheme playback immediately, bypassing the detector — the
    /// paper's *blind attack* baseline, "where the fault injections happen
    /// randomly along with the model execution". No-op unless armed.
    pub fn force_start(&mut self) {
        if self.armed {
            self.forced = true;
            self.ram.start();
        }
    }

    /// Re-arms detector and playback for the next inference without
    /// clearing the scheme.
    pub fn rearm(&mut self) {
        self.detector.reset();
        if self.forced {
            // Blind mode replays from the top of the scheme each run.
            self.ram.start();
        } else {
            self.ram.stop();
        }
        self.last_enable = false;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn thermometer(count: usize) -> u128 {
        if count >= 128 {
            u128::MAX
        } else {
            (1u128 << count) - 1
        }
    }

    fn scheduler() -> AttackScheduler {
        let det = StartDetector::new();
        let ram = SignalRam::new();
        AttackScheduler::new(det, ram)
    }

    #[test]
    fn arming_requires_a_scheme() {
        let mut s = scheduler();
        assert!(s.arm(true).is_err());
        s.load_scheme(&AttackScheme::single(0)).unwrap();
        s.arm(true).unwrap();
        assert!(s.is_armed());
    }

    #[test]
    fn trigger_starts_playback_with_delay() {
        let mut s = scheduler();
        s.load_scheme(&AttackScheme {
            delay_cycles: 2,
            strikes: 2,
            strike_cycles: 1,
            gap_cycles: 1,
        })
        .unwrap();
        s.arm(true).unwrap();
        // Idle samples: nothing.
        for _ in 0..10 {
            assert!(!s.clock(Some(thermometer(90))));
        }
        // Droop for the debounce length (3 samples): trigger on the third.
        assert!(!s.clock(Some(thermometer(65))));
        assert!(!s.clock(Some(thermometer(65))));
        // Trigger cycle: playback starts this cycle with delay bit 0.
        let mut enables = vec![s.clock(Some(thermometer(65)))];
        for _ in 0..5 {
            enables.push(s.clock(None));
        }
        assert_eq!(enables, vec![false, false, true, false, true, false]);
        assert_eq!(s.strikes_fired(), 2);
    }

    #[test]
    fn disarmed_scheduler_never_strikes() {
        let mut s = scheduler();
        s.load_scheme(&AttackScheme::single(0)).unwrap();
        for _ in 0..20 {
            assert!(!s.clock(Some(thermometer(40))));
        }
        assert_eq!(s.strikes_fired(), 0);
    }

    #[test]
    fn status_reflects_state() {
        let mut s = scheduler();
        s.load_scheme(&AttackScheme::single(1)).unwrap();
        s.arm(true).unwrap();
        let st = s.status();
        assert!(st.armed && !st.triggered);
        assert_eq!(st.scheme_bits, 2);
        for _ in 0..5 {
            s.clock(Some(thermometer(50)));
        }
        let st = s.status();
        assert!(st.triggered);
        assert_eq!(st.strikes_fired, 1);
    }

    #[test]
    fn rearm_resets_detector_and_playback() {
        let mut s = scheduler();
        s.load_scheme(&AttackScheme::single(0)).unwrap();
        s.arm(true).unwrap();
        for _ in 0..5 {
            s.clock(Some(thermometer(50)));
        }
        assert!(s.detector().is_triggered());
        s.rearm();
        assert!(!s.detector().is_triggered());
        assert!(s.is_armed(), "rearm keeps the scheduler armed");
        // Triggers again on the next inference.
        for _ in 0..5 {
            s.clock(Some(thermometer(50)));
        }
        assert!(s.detector().is_triggered());
    }

    #[test]
    fn long_strike_counts_once() {
        let mut s = scheduler();
        s.load_scheme(&AttackScheme {
            delay_cycles: 0,
            strikes: 1,
            strike_cycles: 5,
            gap_cycles: 0,
        })
        .unwrap();
        s.arm(true).unwrap();
        for _ in 0..3 {
            s.clock(Some(thermometer(50)));
        }
        for _ in 0..6 {
            s.clock(None);
        }
        assert_eq!(s.strikes_fired(), 1, "one rising edge despite 5 on-cycles");
    }
}
