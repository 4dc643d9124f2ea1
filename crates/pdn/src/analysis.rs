//! Glitch analysis over per-cycle voltage series.

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

/// Finds all maximal contiguous windows where `samples` (one voltage per
/// victim cycle) are below `v_threshold`.
///
/// When a [`trace`] session is recording, each window is also
/// emitted as a `PdnGlitch` event carrying its nadir voltage in integer
/// microvolts (rounded), so golden traces stay float-format independent.
pub fn glitch_windows(samples: &[f64], v_threshold: f64) -> Vec<GlitchWindow> {
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
    for (i, &v) in samples.iter().enumerate() {
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
        out.push(close(s, samples.len(), nadir));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glitch_windows_found_and_maximal() {
        let w = glitch_windows(&[1.0, 0.8, 0.7, 1.0, 0.9, 0.6, 0.6], 0.85);
        assert_eq!(w, vec![GlitchWindow { start: 1, end: 3 }, GlitchWindow { start: 5, end: 7 }]);
        assert_eq!(w[0].len(), 2);
        assert!(!w[0].is_empty());
    }

    #[test]
    fn trailing_glitch_is_closed_at_end() {
        let w = glitch_windows(&[1.0, 0.5], 0.9);
        assert_eq!(w, vec![GlitchWindow { start: 1, end: 2 }]);
    }
}
