//! Defender-side countermeasures.
//!
//! The paper's related work (§II-B) notes that "the TDC-based delay-sensor
//! is also constructively used as a sensor for defending the FPGA against
//! power side-channel attacks" and cites bitstream-scanning checkers. This
//! module implements both directions of that arms race:
//!
//! * [`GlitchWatchdog`] — a victim-side TDC monitor that flags strike-like
//!   voltage transients at run time (fast, deep droops distinct from the
//!   victim's own gradual activity);
//! * the strict DRC policy in [`fpga_fabric::drc`] (enabled through
//!   [`crate::hypervisor`]'s strict deployment path) rejects the latch-loop
//!   striker at compile time, the FPGADefender-style scanner the paper
//!   lists as the countermeasure that would break its DRC evasion.

/// Alarm when the readout falls at least this many counts below the
/// rolling baseline within [`WINDOW`] samples.
const DROOP_COUNTS: u8 = 12;
/// Transient window in samples: the victim's own layer activity ramps
/// over hundreds of samples, a striker glitch within a handful.
const WINDOW: usize = 4;
/// Samples of the rolling baseline.
const BASELINE_WINDOW: usize = 64;
/// Consecutive alarm-worthy samples required (debounce).
const DEBOUNCE: u8 = 1;

/// A detected glitch event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlitchEvent {
    /// Sample index at which the alarm latched.
    pub sample: u64,
    /// Readout at the alarm sample.
    pub readout: u8,
    /// Rolling baseline the drop was measured against.
    pub baseline: u8,
}

/// Victim-side strike detector over the TDC stream.
///
/// The discriminator is *slew rate*: the victim's own layers depress the
/// rail over many microseconds (hundreds of samples), while a power strike
/// collapses it within tens of nanoseconds (a few samples). The watchdog
/// keeps a lagged rolling baseline and alarms on fast, deep drops below it.
///
/// # Example
///
/// ```
/// use deepstrike::defense::GlitchWatchdog;
///
/// let mut dog = GlitchWatchdog::new();
/// for _ in 0..100 { dog.push(88); }      // quiet baseline
/// assert!(dog.events().is_empty());
/// dog.push(70);                          // 18-count collapse in one sample
/// assert_eq!(dog.events().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GlitchWatchdog {
    history: Vec<u8>,
    samples_seen: u64,
    consecutive: u8,
    events: Vec<GlitchEvent>,
    /// Alarm cooldown so one multi-sample glitch logs one event.
    cooldown: usize,
}

impl GlitchWatchdog {
    /// Creates an idle watchdog.
    pub fn new() -> Self {
        GlitchWatchdog::default()
    }

    /// Detected events so far.
    pub fn events(&self) -> &[GlitchEvent] {
        &self.events
    }

    /// Rolling baseline: the median of the lagged window (robust to the
    /// glitch samples themselves).
    fn baseline(&self) -> Option<u8> {
        let n = self.history.len();
        if n < BASELINE_WINDOW {
            return None;
        }
        // Lag the window by the transient width so an in-progress glitch
        // does not drag its own baseline down.
        let end = n - WINDOW;
        let start = end.saturating_sub(BASELINE_WINDOW - WINDOW);
        let mut window: Vec<u8> = self.history[start..end].to_vec();
        window.sort_unstable();
        Some(window[window.len() / 2])
    }

    /// Feeds one TDC readout; returns `true` if this sample latched a new
    /// alarm event.
    pub fn push(&mut self, readout: u8) -> bool {
        self.samples_seen += 1;
        let baseline = self.baseline();
        self.history.push(readout);
        if self.history.len() > 4 * BASELINE_WINDOW {
            self.history.drain(..2 * BASELINE_WINDOW);
        }
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return false;
        }
        let Some(baseline) = baseline else {
            return false;
        };
        let dropped = baseline.saturating_sub(readout) >= DROOP_COUNTS;
        if dropped {
            self.consecutive += 1;
            if self.consecutive >= DEBOUNCE {
                self.events.push(GlitchEvent { sample: self.samples_seen - 1, readout, baseline });
                self.consecutive = 0;
                self.cooldown = WINDOW * 2;
                return true;
            }
        } else {
            self.consecutive = 0;
        }
        false
    }

    /// Runs the watchdog over a whole recorded trace and returns the
    /// detected events.
    pub fn scan(trace: &[u8]) -> Vec<GlitchEvent> {
        let mut dog = GlitchWatchdog::new();
        for &s in trace {
            dog.push(s);
        }
        dog.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_then_glitch(glitch_at: usize, depth: u8) -> Vec<u8> {
        let mut t = vec![88u8; 400];
        // A slow, victim-like ramp (2 counts per 40 samples).
        for (i, s) in t.iter_mut().enumerate().skip(150).take(200) {
            *s = 88 - ((i - 150) / 40).min(5) as u8;
        }
        for s in t.iter_mut().skip(glitch_at).take(3) {
            *s = s.saturating_sub(depth);
        }
        t
    }

    #[test]
    fn detects_a_strike_glitch() {
        let events = GlitchWatchdog::scan(&quiet_then_glitch(300, 18));
        assert_eq!(events.len(), 1, "{events:?}");
        assert!((298..=303).contains(&events[0].sample));
        assert!(events[0].baseline > events[0].readout);
    }

    #[test]
    fn ignores_slow_victim_activity() {
        // The ramp alone (no glitch) must not alarm: it moves 2 counts per
        // 40 samples, far under the slew threshold.
        let mut t = vec![88u8; 400];
        for (i, s) in t.iter_mut().enumerate().skip(150).take(200) {
            *s = 88 - ((i - 150) / 40).min(5) as u8;
        }
        let events = GlitchWatchdog::scan(&t);
        assert!(events.is_empty(), "{events:?}");
    }

    #[test]
    fn shallow_glitches_below_threshold_pass() {
        let events = GlitchWatchdog::scan(&quiet_then_glitch(300, 8));
        assert!(events.is_empty());
    }

    #[test]
    fn repeated_strikes_each_log_once() {
        let mut t = vec![88u8; 600];
        for start in [200usize, 300, 400] {
            for s in t.iter_mut().skip(start).take(2) {
                *s = 70;
            }
        }
        let events = GlitchWatchdog::scan(&t);
        assert_eq!(events.len(), 3, "{events:?}");
    }

    #[test]
    fn needs_a_baseline_before_alarming() {
        let mut dog = GlitchWatchdog::new();
        // Immediate glitch in the warm-up phase: no baseline yet, no alarm.
        for _ in 0..10 {
            assert!(!dog.push(60));
        }
        assert!(dog.events().is_empty());
    }
}
