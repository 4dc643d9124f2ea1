//! Droop and glitch analysis over voltage traces.

use crate::trace::Trace;

/// Summary of supply behaviour over a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DroopStats {
    /// Nominal voltage the droops are measured against.
    pub v_nom: f64,
    /// Deepest excursion below nominal, in volts (≥ 0).
    pub worst_droop: f64,
    /// Index of the deepest sample.
    pub worst_index: usize,
    /// Mean voltage over the trace.
    pub mean: f64,
    /// Fraction of samples more than `threshold` below nominal.
    pub glitch_fraction: f64,
}

/// Computes droop statistics for `trace` against `v_nom`, counting samples
/// below `v_nom - threshold` as glitched.
///
/// Returns `None` for an empty trace.
///
/// # Example
///
/// ```
/// use pdn::trace::Trace;
/// use pdn::analysis::droop_stats;
///
/// let t = Trace::from_samples(1e-9, vec![1.0, 0.99, 0.80, 0.98])?;
/// let s = droop_stats(&t, 1.0, 0.05).unwrap();
/// assert!((s.worst_droop - 0.20).abs() < 1e-12);
/// assert_eq!(s.worst_index, 2);
/// assert!((s.glitch_fraction - 0.25).abs() < 1e-12);
/// # Ok::<(), pdn::PdnError>(())
/// ```
pub fn droop_stats(trace: &Trace, v_nom: f64, threshold: f64) -> Option<DroopStats> {
    if trace.is_empty() {
        return None;
    }
    let samples = trace.samples();
    let mut worst = f64::NEG_INFINITY;
    let mut worst_index = 0;
    let mut glitched = 0usize;
    for (i, &v) in samples.iter().enumerate() {
        let droop = v_nom - v;
        if droop > worst {
            worst = droop;
            worst_index = i;
        }
        if droop > threshold {
            glitched += 1;
        }
    }
    Some(DroopStats {
        v_nom,
        worst_droop: worst.max(0.0),
        worst_index,
        mean: trace.mean(),
        glitch_fraction: glitched as f64 / samples.len() as f64,
    })
}

/// A contiguous run of samples below a voltage threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlitchWindow {
    /// First sample index at or below threshold.
    pub start: usize,
    /// One past the last glitched sample.
    pub end: usize,
}

impl GlitchWindow {
    /// Window length in samples.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the window is empty (never produced by the detector).
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }
}

/// Finds all maximal contiguous windows where the trace is below
/// `v_threshold`.
///
/// When a [`trace`] session is recording, each window is also
/// emitted as a `PdnGlitch` event carrying its nadir voltage in integer
/// microvolts (rounded), so golden traces stay float-format independent.
pub fn glitch_windows(trace: &Trace, v_threshold: f64) -> Vec<GlitchWindow> {
    let mut out = Vec::new();
    let mut start: Option<usize> = None;
    let mut nadir = f64::INFINITY;
    let close = |s: usize, end: usize, nadir: f64| {
        ::trace::emit(|| ::trace::Event::PdnGlitch {
            start: s as u64,
            len: (end - s) as u64,
            nadir_uv: (nadir.max(0.0) * 1e6).round() as u64,
        });
        GlitchWindow { start: s, end }
    };
    for (i, &v) in trace.samples().iter().enumerate() {
        if v < v_threshold {
            if start.is_none() {
                start = Some(i);
                nadir = f64::INFINITY;
            }
            nadir = nadir.min(v);
        } else if let Some(s) = start.take() {
            out.push(close(s, i, nadir));
        }
    }
    if let Some(s) = start {
        out.push(close(s, trace.len(), nadir));
    }
    out
}

/// Number of samples after `from` until the trace stays within `band` of
/// `v_nom` for the rest of the trace (settling time in samples), or `None`
/// if it never settles.
pub fn settling_samples(trace: &Trace, from: usize, v_nom: f64, band: f64) -> Option<usize> {
    let samples = trace.samples();
    if from >= samples.len() {
        return None;
    }
    let mut settled_at = None;
    for (i, &v) in samples.iter().enumerate().skip(from) {
        if (v - v_nom).abs() <= band {
            if settled_at.is_none() {
                settled_at = Some(i);
            }
        } else {
            settled_at = None;
        }
    }
    settled_at.map(|i| i - from)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn trace(vals: &[f64]) -> Trace {
        Trace::from_samples(1e-9, vals.to_vec()).unwrap()
    }

    #[test]
    fn empty_trace_yields_none() {
        let t = Trace::new(1e-9).unwrap();
        assert!(droop_stats(&t, 1.0, 0.1).is_none());
    }

    #[test]
    fn worst_droop_never_negative() {
        let t = trace(&[1.05, 1.02, 1.1]);
        let s = droop_stats(&t, 1.0, 0.1).unwrap();
        assert_eq!(s.worst_droop, 0.0, "overshoot is not droop");
    }

    #[test]
    fn glitch_windows_found_and_maximal() {
        let t = trace(&[1.0, 0.8, 0.7, 1.0, 0.9, 0.6, 0.6]);
        let w = glitch_windows(&t, 0.85);
        assert_eq!(w, vec![GlitchWindow { start: 1, end: 3 }, GlitchWindow { start: 5, end: 7 }]);
        assert_eq!(w[0].len(), 2);
        assert!(!w[0].is_empty());
    }

    #[test]
    fn trailing_glitch_is_closed_at_end() {
        let t = trace(&[1.0, 0.5]);
        let w = glitch_windows(&t, 0.9);
        assert_eq!(w, vec![GlitchWindow { start: 1, end: 2 }]);
    }

    #[test]
    fn settling_detection() {
        let t = trace(&[0.7, 0.8, 0.97, 0.99, 1.0, 1.0]);
        assert_eq!(settling_samples(&t, 0, 1.0, 0.05), Some(2));
        let t = trace(&[0.7, 0.99, 0.7]);
        assert_eq!(settling_samples(&t, 0, 1.0, 0.05), None, "relapses never settle");
        assert_eq!(settling_samples(&t, 10, 1.0, 0.05), None, "from beyond end");
    }
}
