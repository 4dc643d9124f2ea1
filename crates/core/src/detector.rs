//! DNN start detector (§III-D-1).
//!
//! Raw TDC readings wobble even when the victim is idle, so the paper
//! "purifies" them: the 128-bit TDC output is partitioned into five zones,
//! one bit is tapped from each zone, and a small FSM watches the Hamming
//! weight of those five bits. At idle (readout ≈ 90) four taps sit inside
//! the thermometer run (HW = 4); when a layer's execution droops the rail,
//! the run shortens past tap positions and the HW falls — the paper arms
//! its scheduler "when the DNN start detector gets an input Hamming weight
//! (HW) equals to 3, indicating the first layer just starts". A debounce
//! requirement filters the residual idle wobble.

/// Tap positions: one bit from each of the five ~25-bit zones of the
/// 128-bit TDC vector. They bracket the idle readout
/// [`TARGET_COUNT`](crate::tdc::TARGET_COUNT) = 90: the first four sit
/// below it (idle HW = 4), the fifth above.
const TAPS: [usize; 5] = [12, 38, 64, 85, 110];
/// Trigger when the tap Hamming weight falls to this value or below…
const TRIGGER_HW: u8 = 3;
/// …for this many consecutive samples.
pub const DEBOUNCE: u8 = 3;

/// Detector state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetectorState {
    /// Watching for the HW to fall.
    #[default]
    Idle,
    /// HW at/below the trigger for `n` consecutive samples.
    Candidate(u8),
    /// Execution start confirmed.
    Triggered,
}

/// The start-detector FSM.
///
/// # Example
///
/// ```
/// use deepstrike::detector::StartDetector;
///
/// let mut det = StartDetector::new();
/// let idle = (1u128 << 90) - 1;    // readout 90
/// let active = (1u128 << 60) - 1;  // readout 60 (conv droop)
/// assert!(!det.push(idle));
/// for _ in 0..3 {
///     det.push(active);
/// }
/// assert!(det.is_triggered());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StartDetector {
    state: DetectorState,
    samples_seen: u64,
    triggered_at: Option<u64>,
    last_hw: Option<u8>,
}

impl StartDetector {
    /// Creates an idle detector.
    pub fn new() -> Self {
        StartDetector::default()
    }

    /// Current FSM state.
    pub fn state(&self) -> DetectorState {
        self.state
    }

    /// Whether the detector has latched a trigger.
    pub fn is_triggered(&self) -> bool {
        self.state == DetectorState::Triggered
    }

    /// Sample index at which the trigger latched, if any.
    pub fn triggered_at(&self) -> Option<u64> {
        self.triggered_at
    }

    /// Hamming weight of the five tapped bits of a raw TDC vector.
    pub fn hamming_weight(&self, raw: u128) -> u8 {
        TAPS.iter().filter(|&&t| raw >> t & 1 == 1).count() as u8
    }

    /// Feeds one raw TDC sample; returns `true` exactly once, on the
    /// sample that latches the trigger.
    pub fn push(&mut self, raw: u128) -> bool {
        self.samples_seen += 1;
        let hw = self.hamming_weight(raw);
        if self.last_hw != Some(hw) {
            self.last_hw = Some(hw);
            trace::emit(|| trace::Event::DetectorHw { sample: self.samples_seen - 1, hw });
        }
        let low = hw <= TRIGGER_HW;
        self.state = match self.state {
            DetectorState::Triggered => DetectorState::Triggered,
            DetectorState::Idle if low => DetectorState::Candidate(1),
            DetectorState::Idle => DetectorState::Idle,
            DetectorState::Candidate(n) if low => {
                if n + 1 >= DEBOUNCE {
                    self.triggered_at = Some(self.samples_seen - 1);
                    trace::emit(|| trace::Event::DetectorLatch { sample: self.samples_seen - 1 });
                    DetectorState::Triggered
                } else {
                    DetectorState::Candidate(n + 1)
                }
            }
            DetectorState::Candidate(_) => DetectorState::Idle,
        };
        self.is_triggered() && self.triggered_at == Some(self.samples_seen - 1)
    }

    /// Re-arms the detector for the next inference.
    pub fn reset(&mut self) {
        *self = StartDetector::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thermometer(count: usize) -> u128 {
        if count >= 128 {
            u128::MAX
        } else {
            (1u128 << count) - 1
        }
    }

    #[test]
    fn idle_readout_has_hw_4_and_never_triggers() {
        let mut det = StartDetector::new();
        let idle = thermometer(usize::from(crate::tdc::TARGET_COUNT));
        for _ in 0..1000 {
            assert!(!det.push(idle));
        }
        assert_eq!(det.hamming_weight(idle), 4);
        assert_eq!(det.state(), DetectorState::Idle);
    }

    #[test]
    fn idle_wobble_of_two_counts_is_ignored() {
        let mut det = StartDetector::new();
        // Dither between 88 and 92: all taps below 85 stay set.
        for k in 0..500usize {
            let count = 88 + (k % 5);
            assert!(!det.push(thermometer(count)), "wobble must not trigger");
        }
        assert!(!det.is_triggered());
    }

    #[test]
    fn sustained_droop_triggers_after_debounce() {
        let mut det = StartDetector::new();
        det.push(thermometer(90));
        assert!(!det.push(thermometer(70))); // HW 3: candidate 1
        assert!(!det.push(thermometer(70))); // candidate 2
        assert!(det.push(thermometer(70))); // debounce 3: trigger, exactly once
        assert!(det.is_triggered());
        assert_eq!(det.triggered_at(), Some(3));
        // Further pushes do not re-report.
        assert!(!det.push(thermometer(50)));
    }

    #[test]
    fn single_sample_glitch_is_debounced_away() {
        let mut det = StartDetector::new();
        det.push(thermometer(90));
        det.push(thermometer(70)); // candidate
        det.push(thermometer(90)); // back to idle
        det.push(thermometer(70));
        det.push(thermometer(90));
        assert!(!det.is_triggered());
        assert_eq!(det.state(), DetectorState::Idle);
    }

    #[test]
    fn deeper_droop_lowers_hamming_weight_progressively() {
        let det = StartDetector::new();
        assert_eq!(det.hamming_weight(thermometer(120)), 5);
        assert_eq!(det.hamming_weight(thermometer(90)), 4);
        assert_eq!(det.hamming_weight(thermometer(70)), 3);
        assert_eq!(det.hamming_weight(thermometer(50)), 2);
        assert_eq!(det.hamming_weight(thermometer(20)), 1);
        assert_eq!(det.hamming_weight(0), 0);
    }

    #[test]
    fn reset_rearms() {
        let mut det = StartDetector::new();
        for _ in 0..5 {
            det.push(thermometer(60));
        }
        assert!(det.is_triggered());
        det.reset();
        assert!(!det.is_triggered());
        assert_eq!(det.state(), DetectorState::Idle);
        for _ in 0..5 {
            det.push(thermometer(60));
        }
        assert!(det.is_triggered(), "triggers again after reset");
    }
}
