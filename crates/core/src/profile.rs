//! Victim profiling: trace segmentation and the layer-signature library.
//!
//! §III-B: the attacker watches the TDC stream while the victim classifies
//! images and "build\[s\] a library of sensor readout patterns for different
//! types of DNN layers at different sizes for future attack use". The
//! observables per execution phase are its duration, its mean readout
//! depression and its fluctuation — Fig. 1b shows exactly these three
//! separating max-pool from convolution phases, with near-90 "stalls"
//! between layers.

use crate::error::{DeepStrikeError, Result};
use crate::tdc::TARGET_COUNT;

/// One active execution phase found in a TDC trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// First sample index of the phase.
    pub start: usize,
    /// Phase length in samples.
    pub len: usize,
    /// Mean readout inside the phase.
    pub mean: f64,
    /// Readout variance inside the phase (the "fluctuation").
    pub variance: f64,
    /// Deepest readout inside the phase.
    pub min: u8,
}

impl Segment {
    /// One past the last sample.
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// A sample is "active" when it reads more than this many counts below
/// the idle readout [`TARGET_COUNT`].
const DROOP_THRESHOLD: f64 = 4.0;
/// Active runs shorter than this many samples are discarded (noise
/// blips).
const MIN_SEGMENT_LEN: usize = 20;
/// Active runs separated by gaps of at most this many samples are merged
/// (brief within-layer returns toward idle).
const MERGE_GAP: usize = 120;

/// Splits a TDC readout trace into execution segments.
///
/// # Example
///
/// ```
/// use deepstrike::profile::segment_trace;
///
/// let mut trace = vec![90u8; 100];
/// for s in trace.iter_mut().skip(30).take(40) { *s = 70; }
/// let segs = segment_trace(&trace);
/// assert_eq!(segs.len(), 1);
/// assert_eq!(segs[0].start, 30);
/// assert_eq!(segs[0].len, 40);
/// ```
pub fn segment_trace(samples: &[u8]) -> Vec<Segment> {
    let threshold = f64::from(TARGET_COUNT) - DROOP_THRESHOLD;
    // Raw active runs.
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let mut start: Option<usize> = None;
    for (i, &s) in samples.iter().enumerate() {
        if f64::from(s) < threshold {
            if start.is_none() {
                start = Some(i);
            }
        } else if let Some(s0) = start.take() {
            runs.push((s0, i));
        }
    }
    if let Some(s0) = start {
        runs.push((s0, samples.len()));
    }
    // Merge nearby runs.
    let mut merged: Vec<(usize, usize)> = Vec::new();
    for (s, e) in runs {
        match merged.last_mut() {
            Some((_, prev_end)) if s - *prev_end <= MERGE_GAP => *prev_end = e,
            _ => merged.push((s, e)),
        }
    }
    merged
        .into_iter()
        .filter(|(s, e)| e - s >= MIN_SEGMENT_LEN)
        .map(|(s, e)| {
            let window = &samples[s..e];
            let mean = window.iter().map(|&v| f64::from(v)).sum::<f64>() / window.len() as f64;
            let variance = window.iter().map(|&v| (f64::from(v) - mean).powi(2)).sum::<f64>()
                / window.len() as f64;
            let min = window.iter().copied().min().expect("non-empty window");
            Segment { start: s, len: e - s, mean, variance, min }
        })
        .collect()
}

/// Averaged signature of one layer, learned over profiling runs.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSignature {
    /// Layer name.
    pub name: String,
    /// Mean duration in samples.
    pub duration: f64,
    /// Mean readout.
    pub mean: f64,
    /// Mean variance (fluctuation).
    pub variance: f64,
    /// Observations averaged in.
    pub observations: usize,
}

/// The attacker's pattern library.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SignatureLibrary {
    signatures: Vec<LayerSignature>,
}

impl SignatureLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        SignatureLibrary::default()
    }

    /// Signatures learned so far.
    pub fn signatures(&self) -> &[LayerSignature] {
        &self.signatures
    }

    /// Looks up a signature by layer name.
    pub fn signature(&self, name: &str) -> Option<&LayerSignature> {
        self.signatures.iter().find(|s| s.name == name)
    }

    /// Folds one labelled observation into the library (running average).
    pub fn learn(&mut self, name: &str, segment: &Segment) {
        match self.signatures.iter_mut().find(|s| s.name == name) {
            Some(sig) => {
                let n = sig.observations as f64;
                sig.duration = (sig.duration * n + segment.len as f64) / (n + 1.0);
                sig.mean = (sig.mean * n + segment.mean) / (n + 1.0);
                sig.variance = (sig.variance * n + segment.variance) / (n + 1.0);
                sig.observations += 1;
            }
            None => self.signatures.push(LayerSignature {
                name: name.to_string(),
                duration: segment.len as f64,
                mean: segment.mean,
                variance: segment.variance,
                observations: 1,
            }),
        }
    }

    /// Classifies a segment: returns the best-matching layer name and the
    /// normalised distance (smaller = closer).
    ///
    /// # Errors
    ///
    /// Returns [`DeepStrikeError::LayerNotFound`] if the library is empty.
    pub fn classify(&self, segment: &Segment) -> Result<(&str, f64)> {
        if self.signatures.is_empty() {
            return Err(DeepStrikeError::LayerNotFound("<empty library>".into()));
        }
        let mut best: Option<(&str, f64)> = None;
        for sig in &self.signatures {
            // Relative distances keep the three features comparable.
            let d_dur = ((segment.len as f64) - sig.duration) / sig.duration.max(1.0);
            let d_mean = (segment.mean - sig.mean) / sig.mean.max(1.0);
            let d_var =
                ((segment.variance.sqrt()) - sig.variance.sqrt()) / sig.variance.sqrt().max(0.5);
            let dist = (d_dur.powi(2) + (4.0 * d_mean).powi(2) + d_var.powi(2)).sqrt();
            if best.is_none_or(|(_, b)| dist < b) {
                best = Some((sig.name.as_str(), dist));
            }
        }
        Ok(best.expect("library non-empty"))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn synth_trace(segments: &[(usize, usize, u8, f64)]) -> Vec<u8> {
        // (start, len, level, wobble_amplitude)
        let total = segments.iter().map(|&(s, l, _, _)| s + l).max().unwrap_or(0) + 50;
        let mut trace = vec![90u8; total];
        for &(start, len, level, amp) in segments {
            for k in 0..len {
                let wobble = ((k as f64 * 0.7).sin() * amp).round() as i16;
                trace[start + k] = (i16::from(level) + wobble).clamp(0, 127) as u8;
            }
        }
        trace
    }

    #[test]
    fn finds_multiple_segments_with_stats() {
        let trace = synth_trace(&[(100, 300, 70, 6.0), (600, 150, 80, 1.0)]);
        let segs = segment_trace(&trace);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].start, 100);
        assert!((295..=305).contains(&segs[0].len));
        assert!(segs[0].variance > segs[1].variance, "wobbly segment fluctuates more");
        assert!(segs[0].mean < segs[1].mean);
    }

    #[test]
    fn short_blips_are_dropped_and_gaps_merged() {
        let mut trace = vec![90u8; 500];
        // 5-sample blip: dropped.
        for s in trace.iter_mut().skip(50).take(5) {
            *s = 60;
        }
        // Two 60-sample runs with a 40-sample near-idle gap: merged.
        for s in trace.iter_mut().skip(200).take(60) {
            *s = 70;
        }
        for s in trace.iter_mut().skip(300).take(60) {
            *s = 72;
        }
        let segs = segment_trace(&trace);
        assert_eq!(segs.len(), 1, "{segs:?}");
        assert_eq!(segs[0].start, 200);
        assert_eq!(segs[0].end(), 360);
    }

    #[test]
    fn empty_and_idle_traces_yield_nothing() {
        assert!(segment_trace(&[]).is_empty());
        assert!(segment_trace(&[TARGET_COUNT; 1000]).is_empty());
    }

    #[test]
    fn trailing_active_region_is_closed() {
        let mut trace = vec![90u8; 100];
        for s in trace.iter_mut().skip(60) {
            *s = 70;
        }
        let segs = segment_trace(&trace);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].end(), 100);
    }

    #[test]
    fn library_learns_running_averages() {
        let mut lib = SignatureLibrary::new();
        let a = Segment { start: 0, len: 100, mean: 70.0, variance: 9.0, min: 60 };
        let b = Segment { start: 0, len: 140, mean: 74.0, variance: 5.0, min: 65 };
        lib.learn("conv1", &a);
        lib.learn("conv1", &b);
        let sig = lib.signature("conv1").unwrap();
        assert_eq!(sig.observations, 2);
        assert!((sig.duration - 120.0).abs() < 1e-9);
        assert!((sig.mean - 72.0).abs() < 1e-9);
    }

    #[test]
    fn classification_separates_conv_from_pool() {
        let mut lib = SignatureLibrary::new();
        lib.learn("conv", &Segment { start: 0, len: 300, mean: 70.0, variance: 10.0, min: 58 });
        lib.learn("pool", &Segment { start: 0, len: 100, mean: 82.0, variance: 1.0, min: 79 });
        let probe = Segment { start: 500, len: 280, mean: 71.0, variance: 8.0, min: 60 };
        let (name, dist) = lib.classify(&probe).unwrap();
        assert_eq!(name, "conv");
        assert!(dist < 0.5, "distance {dist}");
        let probe = Segment { start: 0, len: 110, mean: 81.0, variance: 1.5, min: 78 };
        assert_eq!(lib.classify(&probe).unwrap().0, "pool");
    }

    #[test]
    fn empty_library_errors() {
        let lib = SignatureLibrary::new();
        let seg = Segment { start: 0, len: 10, mean: 80.0, variance: 1.0, min: 70 };
        assert!(matches!(lib.classify(&seg), Err(DeepStrikeError::LayerNotFound(_))));
    }
}
