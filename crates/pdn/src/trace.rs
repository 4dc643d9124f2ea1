//! Voltage-trace recording.
//!
//! The TDC sensor, the profiler and the figure harnesses all consume
//! sampled voltage (or sensor-readout) series; [`Trace`] is the shared
//! container with the statistics they need.

use crate::error::{PdnError, Result};

/// A uniformly sampled series with its sample interval.
///
/// # Example
///
/// ```
/// use pdn::trace::Trace;
///
/// let mut t = Trace::new(1e-9)?;
/// for k in 0..100 { t.push(1.0 - 0.001 * k as f64); }
/// assert_eq!(t.len(), 100);
/// assert!((t.duration() - 100e-9).abs() < 1e-15);
/// assert!(t.min() < t.max());
/// # Ok::<(), pdn::PdnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    dt: f64,
    samples: Vec<f64>,
}

impl Trace {
    /// Creates an empty trace with sample interval `dt` seconds.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] if `dt` is not positive.
    pub fn new(dt: f64) -> Result<Self> {
        if !(dt.is_finite() && dt > 0.0) {
            return Err(PdnError::InvalidParameter { name: "dt", value: dt });
        }
        Ok(Trace { dt, samples: Vec::new() })
    }

    /// Creates a trace from existing samples.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] if `dt` is not positive.
    pub fn from_samples(dt: f64, samples: Vec<f64>) -> Result<Self> {
        let mut t = Trace::new(dt)?;
        t.samples = samples;
        Ok(t)
    }

    /// Sample interval in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Appends one sample.
    pub fn push(&mut self, value: f64) {
        self.samples.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Recorded duration in seconds.
    pub fn duration(&self) -> f64 {
        self.dt * self.samples.len() as f64
    }

    /// Underlying samples.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Smallest sample (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Largest sample (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Population variance (0 when empty).
    pub fn variance(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        self.samples.iter().map(|s| (s - m).powi(2)).sum::<f64>() / self.samples.len() as f64
    }

    /// A sub-trace covering samples `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::OutOfRange`] for an invalid window.
    pub fn window(&self, start: usize, end: usize) -> Result<Trace> {
        if start > end || end > self.samples.len() {
            return Err(PdnError::OutOfRange(format!("window {start}..{end}")));
        }
        Ok(Trace { dt: self.dt, samples: self.samples[start..end].to_vec() })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Trace {
        let mut t = Trace::new(1e-9).unwrap();
        for k in 0..n {
            t.push(k as f64);
        }
        t
    }

    #[test]
    fn stats_on_known_series() {
        let t = Trace::from_samples(1.0, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(t.min(), 1.0);
        assert_eq!(t.max(), 4.0);
        assert!((t.mean() - 2.5).abs() < 1e-12);
        assert!((t.variance() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_stats_are_defined() {
        let t = Trace::new(1e-9).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
        assert_eq!(t.min(), f64::INFINITY);
        assert_eq!(t.max(), f64::NEG_INFINITY);
    }

    #[test]
    fn window_selects_a_sub_range() {
        let t = ramp(100);
        let w = t.window(10, 20).unwrap();
        assert_eq!(w.len(), 10);
        assert_eq!(w.samples()[0], 10.0);
    }

    #[test]
    fn invalid_windows_rejected() {
        let t = ramp(10);
        assert!(t.window(5, 3).is_err());
        assert!(t.window(0, 11).is_err());
        assert!(Trace::new(0.0).is_err());
        assert!(Trace::new(-1.0).is_err());
    }

    #[test]
    fn duration_tracks_pushes() {
        let mut t = Trace::new(2e-9).unwrap();
        assert_eq!(t.duration(), 0.0);
        t.push(1.0);
        t.push(1.0);
        assert!((t.duration() - 4e-9).abs() < 1e-20);
    }
}
