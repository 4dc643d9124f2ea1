//! Cycle-level DSP48E1-like slice model.
//!
//! The paper's victim configures its DSPs "to add two inputs and multiply
//! with the third input" — `P = (A + D) × B` — "which is the configuration
//! for convolution computation", and fetches the result after five clock
//! cycles (the DSPs have no result-ready signal). This module models that
//! pipeline behaviourally: ops flow through a fixed-latency pipe, each op
//! remembers the worst rail voltage it saw in flight, and at the capture
//! cycle the [`FaultModel`] decides whether the
//! output register got the right value, the previous value (duplication) or
//! garbage (random fault).

use std::collections::VecDeque;

use rand::Rng;

use crate::fault::{FaultModel, MacFault};

/// Inputs of one `(A + D) × B` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DspOp {
    /// Pre-adder input A.
    pub a: i32,
    /// Multiplier input B.
    pub b: i32,
    /// Pre-adder input D.
    pub d: i32,
}

impl DspOp {
    /// The mathematically correct result.
    pub fn correct(&self) -> i64 {
        (i64::from(self.a) + i64::from(self.d)) * i64::from(self.b)
    }
}

/// A completed DSP operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DspResult {
    /// The op as issued.
    pub op: DspOp,
    /// The value captured in the P register.
    pub value: i64,
    /// What the glitch did to it.
    pub fault: MacFault,
}

impl DspResult {
    /// Whether the captured value equals the correct product.
    ///
    /// A duplication fault can coincidentally capture the right value when
    /// two consecutive ops have equal products; this checks the value, not
    /// the fault label.
    pub fn is_correct(&self) -> bool {
        self.value == self.op.correct()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct InFlight {
    op: DspOp,
    age: usize,
    min_voltage: f64,
}

/// One DSP slice with a five-stage result pipeline.
///
/// # Example
///
/// ```
/// use accel::dsp::{DspOp, DspSlice};
/// use accel::fault::FaultModel;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut dsp = DspSlice::new(FaultModel::paper());
/// dsp.issue(DspOp { a: 3, b: 5, d: 2 });
/// let mut result = None;
/// for _ in 0..DspSlice::LATENCY {
///     result = dsp.tick(1.0, &mut rng);
/// }
/// assert_eq!(result.unwrap().value, 25);
/// ```
#[derive(Debug, Clone)]
pub struct DspSlice {
    fault_model: FaultModel,
    pipe: VecDeque<InFlight>,
    last_p: i64,
    issued: u64,
    completed: u64,
}

impl DspSlice {
    /// Result latency in cycles (issue to capture), as in the paper's
    /// fetch-after-five-cycles harness.
    pub const LATENCY: usize = 5;

    /// Creates an idle slice.
    pub fn new(fault_model: FaultModel) -> Self {
        DspSlice { fault_model, pipe: VecDeque::new(), last_p: 0, issued: 0, completed: 0 }
    }

    /// The fault model in use.
    pub fn fault_model(&self) -> &FaultModel {
        &self.fault_model
    }

    /// Issues one op into the pipeline (one issue per cycle is the
    /// caller's responsibility; the model does not enforce initiation
    /// intervals).
    pub fn issue(&mut self, op: DspOp) {
        self.pipe.push_back(InFlight { op, age: 0, min_voltage: f64::INFINITY });
        self.issued += 1;
    }

    /// Number of ops currently in flight.
    pub fn in_flight(&self) -> usize {
        self.pipe.len()
    }

    /// Total ops issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Total ops completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Advances one clock cycle at the given rail voltage. Returns the op
    /// captured this cycle, if any.
    pub fn tick(&mut self, voltage: f64, rng: &mut impl Rng) -> Option<DspResult> {
        for op in &mut self.pipe {
            op.age += 1;
            op.min_voltage = op.min_voltage.min(voltage);
        }
        if self.pipe.front().is_some_and(|f| f.age >= Self::LATENCY) {
            let f = self.pipe.pop_front().expect("front just checked");
            // The capture stage (this cycle's voltage) is the critical
            // path; the earlier stages carry extra slack and only corrupt
            // under much deeper in-flight droop. Small products exercise
            // less of the multiplier array (shorter carry chains).
            let correct = f.op.correct();
            let scale = FaultModel::path_scale(
                correct.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32,
            );
            let fault =
                self.fault_model.sample_pipelined_scaled(voltage, f.min_voltage, scale, rng);
            let value = match fault {
                MacFault::None => correct,
                MacFault::Duplicate => self.last_p,
                MacFault::Random => {
                    // Garbage capture: corrupt product-magnitude bits (the
                    // multiplier array output) — patternless from the
                    // observer's point of view.
                    let mask = i64::from(rng.gen_range(1u32..(1 << 14)));
                    correct ^ mask
                }
            };
            // The correct product settles in P one cycle later regardless
            // (what the paper calls the duplicated result being "absorbed
            // by more serial summations" downstream).
            self.last_p = correct;
            self.completed += 1;
            return Some(DspResult { op: f.op, value, fault });
        }
        None
    }

    /// Drains the pipeline at a constant voltage, returning remaining ops.
    pub fn drain(&mut self, voltage: f64, rng: &mut impl Rng) -> Vec<DspResult> {
        let mut out = Vec::with_capacity(self.pipe.len());
        while !self.pipe.is_empty() {
            if let Some(r) = self.tick(voltage, rng) {
                out.push(r);
            }
        }
        out
    }
}

/// Aggregated fault statistics over a batch of DSP results.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultTally {
    /// Ops that captured correctly.
    pub correct: u64,
    /// Duplication faults.
    pub duplicate: u64,
    /// Random faults.
    pub random: u64,
}

impl FaultTally {
    /// Accumulates one result.
    pub fn record(&mut self, r: &DspResult) {
        match r.fault {
            MacFault::None => self.correct += 1,
            MacFault::Duplicate => self.duplicate += 1,
            MacFault::Random => self.random += 1,
        }
    }

    /// Total ops recorded.
    pub fn total(&self) -> u64 {
        self.correct + self.duplicate + self.random
    }

    /// Duplication-fault rate.
    pub fn duplicate_rate(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.duplicate as f64 / self.total() as f64
    }

    /// Random-fault rate.
    pub fn random_rate(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.random as f64 / self.total() as f64
    }

    /// Combined fault rate (the paper's "total fault rate").
    pub fn total_fault_rate(&self) -> f64 {
        self.duplicate_rate() + self.random_rate()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn computes_a_plus_d_times_b() {
        let op = DspOp { a: 7, b: -3, d: 5 };
        assert_eq!(op.correct(), -36);
    }

    #[test]
    fn latency_is_five_cycles() {
        let mut dsp = DspSlice::new(FaultModel::paper());
        let mut r = rng();
        dsp.issue(DspOp { a: 1, b: 2, d: 3 });
        for _ in 0..DspSlice::LATENCY - 1 {
            assert!(dsp.tick(1.0, &mut r).is_none());
        }
        let out = dsp.tick(1.0, &mut r).expect("result after 5 ticks");
        assert_eq!(out.value, 8);
        assert_eq!(out.fault, MacFault::None);
        assert!(out.is_correct());
    }

    #[test]
    fn pipelined_back_to_back_ops() {
        let mut dsp = DspSlice::new(FaultModel::paper());
        let mut r = rng();
        let mut results = Vec::new();
        for i in 0..10i32 {
            dsp.issue(DspOp { a: i, b: 1, d: 0 });
            if let Some(out) = dsp.tick(1.0, &mut r) {
                results.push(out);
            }
        }
        results.extend(dsp.drain(1.0, &mut r));
        assert_eq!(results.len(), 10);
        for (i, res) in results.iter().enumerate() {
            assert_eq!(res.value, i as i64, "in-order completion");
        }
        assert_eq!(dsp.completed(), 10);
        assert_eq!(dsp.in_flight(), 0);
    }

    /// Runs 400 single-op trials with a one-cycle glitch of depth `v` at
    /// pipeline cycle `glitch_cycle` and returns the fault tally.
    fn glitch_trials(v: f64, glitch_cycle: usize) -> FaultTally {
        let mut tally = FaultTally::default();
        let mut r = rng();
        for trial in 0..400 {
            let mut dsp = DspSlice::new(FaultModel::paper());
            dsp.issue(DspOp { a: trial, b: 3, d: 1 });
            for cycle in 0..DspSlice::LATENCY {
                let vc = if cycle == glitch_cycle { v } else { 1.0 };
                if let Some(out) = dsp.tick(vc, &mut r) {
                    tally.record(&out);
                }
            }
        }
        tally
    }

    #[test]
    fn capture_cycle_glitch_faults_reliably() {
        // A deep glitch on the capture edge (the critical stage) faults
        // nearly every op; at nominal voltage nothing faults.
        let hit = glitch_trials(0.72, DspSlice::LATENCY - 1);
        assert!(hit.total_fault_rate() > 0.9, "glitched rate {}", hit.total_fault_rate());
        let miss = glitch_trials(1.0, 0);
        assert_eq!(miss.total_fault_rate(), 0.0);
    }

    #[test]
    fn mid_flight_glitch_needs_deeper_droop_and_randomises() {
        // The non-capture stages carry extra slack: a moderate mid-flight
        // glitch is harmless, a deep one corrupts the cone (random fault).
        let moderate = glitch_trials(0.84, 2);
        assert_eq!(
            moderate.total_fault_rate(),
            0.0,
            "moderate mid-flight glitch must be absorbed by stage slack"
        );
        let deep = glitch_trials(0.62, 2);
        assert!(deep.total_fault_rate() > 0.5, "deep rate {}", deep.total_fault_rate());
        assert_eq!(deep.duplicate, 0, "mid-cone corruption is always random");
    }

    #[test]
    fn duplication_fault_outputs_previous_result() {
        // Force duplication by choosing a voltage where duplication
        // dominates, and verify the stale-value semantics.
        let model = FaultModel::paper();
        // Find the voltage with the highest duplication probability (the
        // jitter-vs-window geometry caps it near 0.5).
        let mut v = 1.0;
        let mut best = (1.0, 0.0f64);
        while v > 0.7 {
            let p = model.probabilities(v).duplicate;
            if p > best.1 {
                best = (v, p);
            }
            v -= 0.001;
        }
        let v = best.0;
        assert!(best.1 > 0.15, "no duplication-prone voltage found (peak {})", best.1);
        let mut r = rng();
        let mut dsp = DspSlice::new(FaultModel::paper());
        let mut outs = Vec::new();
        // Full-width operands so the ops exercise the whole critical path
        // (the closed-form voltage search above assumes scale = 1).
        for i in 1..=40i32 {
            dsp.issue(DspOp { a: 100 + i, b: 120, d: 7 });
            if let Some(out) = dsp.tick(v, &mut r) {
                outs.push(out);
            }
        }
        outs.extend(dsp.drain(v, &mut r));
        let dups: Vec<&DspResult> =
            outs.iter().filter(|o| o.fault == MacFault::Duplicate).collect();
        assert!(!dups.is_empty(), "expected duplication faults at v = {v}");
        for d in dups {
            let idx = (d.op.a - 101) as usize;
            if idx > 0 {
                assert_eq!(d.value, outs[idx - 1].op.correct(), "stale previous result");
            }
        }
    }

    #[test]
    fn random_faults_corrupt_value() {
        let mut r = rng();
        let mut dsp = DspSlice::new(FaultModel::paper());
        let mut corrupted = 0;
        let mut total = 0;
        for i in 0..200i32 {
            dsp.issue(DspOp { a: i, b: 7, d: 2 });
            if let Some(out) = dsp.tick(0.70, &mut r) {
                total += 1;
                assert_eq!(out.fault, MacFault::Random, "deep droop randomises");
                if !out.is_correct() {
                    corrupted += 1;
                }
            }
        }
        let _ = total;
        assert!(corrupted > 150, "random faults must corrupt values: {corrupted}");
    }

    #[test]
    fn tally_rates() {
        let mut t = FaultTally::default();
        assert_eq!(t.total_fault_rate(), 0.0);
        let op = DspOp { a: 1, b: 1, d: 0 };
        t.record(&DspResult { op, value: 1, fault: MacFault::None });
        t.record(&DspResult { op, value: 0, fault: MacFault::Duplicate });
        t.record(&DspResult { op, value: 9, fault: MacFault::Random });
        t.record(&DspResult { op, value: 9, fault: MacFault::Random });
        assert_eq!(t.total(), 4);
        assert!((t.duplicate_rate() - 0.25).abs() < 1e-12);
        assert!((t.random_rate() - 0.5).abs() < 1e-12);
        assert!((t.total_fault_rate() - 0.75).abs() < 1e-12);
    }
}
