//! DSP fault characterisation (the paper's Fig. 6b harness).
//!
//! The paper's victim configures its DSPs "to add two inputs and multiply
//! with the third input" — `P = (A + D) × B` — "which is the configuration
//! for convolution computation", and fetches the result after [`LATENCY`]
//! clock cycles (the DSPs have no result-ready signal). Fig. 6b feeds
//! "10,000 randomly generated inputs" through the PE array while striking
//! and counts what the P registers captured.
//!
//! [`characterize`] runs that harness at a constant rail voltage, op by
//! op: ops issue round-robin over the [`PE_COUNT`] DSPs, the
//! [`FaultModel`] samples each op's fate at capture, and a duplication
//! fault captures the same PE's previous product from the [`DupRing`] —
//! the semantics the executor ([`crate::executor`]) applies as accumulator
//! corrections during inference under strikes.

use pdn::delay;
use rand::Rng;

use crate::executor::AppliedFaults;
use crate::fault::{FaultModel, MacFault};
use crate::schedule::PE_COUNT;

/// Result latency in cycles (issue to capture), as in the paper's
/// fetch-after-five-cycles harness.
pub const LATENCY: usize = 5;

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

/// Aggregated fault statistics over a batch of DSP ops.
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
    /// Total ops recorded.
    pub fn total(&self) -> u64 {
        self.correct + self.duplicate + self.random
    }

    fn share(&self, count: u64) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        count as f64 / self.total() as f64
    }

    /// Duplication-fault rate.
    pub fn duplicate_rate(&self) -> f64 {
        self.share(self.duplicate)
    }

    /// Random-fault rate.
    pub fn random_rate(&self) -> f64 {
        self.share(self.random)
    }

    /// Combined fault rate (the paper's "total fault rate").
    pub fn total_fault_rate(&self) -> f64 {
        self.duplicate_rate() + self.random_rate()
    }
}

/// Runs `ops` in issue order with the rail held at `voltage` and tallies
/// what the P registers captured.
///
/// At a constant rail an op sees the same voltage at its capture edge and
/// over its whole flight, so the delay law is priced once. Each op's fate
/// is sampled with the operand-dependent path scale of its product
/// ([`FaultModel::path_scale`]; products wider than the executor's `i32`
/// datapath saturate) and applied exactly as inference applies it.
pub fn characterize(
    model: &FaultModel,
    ops: impl IntoIterator<Item = DspOp>,
    voltage: f64,
    rng: &mut impl Rng,
) -> FaultTally {
    let factor = delay::factor(voltage);
    let mut ring = DupRing::default();
    let mut applied = AppliedFaults::default();
    let mut issued = 0u64;
    for op in ops {
        let product = op.correct().clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32;
        let scale = FaultModel::path_scale(product);
        let fault = model.sample_pipelined_factors(factor, factor, scale, rng);
        apply_fault(product, fault, &mut ring, rng, &mut applied);
        issued += 1;
    }
    FaultTally {
        correct: issued - applied.total(),
        duplicate: applied.duplicate,
        random: applied.random,
    }
}

/// Ring of the last product each PE produced (round-robin issue over
/// [`PE_COUNT`] DSPs): the P registers a duplication fault re-captures.
#[derive(Debug, Clone, Default)]
pub struct DupRing {
    ring: [i32; PE_COUNT],
    pos: usize,
}

impl DupRing {
    /// Returns the issuing PE's previous product (0 before its first) and
    /// records the new one.
    pub fn exchange(&mut self, product: i32) -> i32 {
        let stale = self.ring[self.pos];
        self.ring[self.pos] = product;
        self.pos = (self.pos + 1) % PE_COUNT;
        stale
    }
}

/// Applies one sampled fault to a product: what the DSP hands the
/// accumulator. A duplication captures the same PE's previous product, a
/// random fault XORs a mask drawn from `rng` into the low 16 bits.
fn apply_fault(
    product: i32,
    fault: MacFault,
    last_products: &mut DupRing,
    rng: &mut impl Rng,
    tally: &mut AppliedFaults,
) -> i32 {
    let stale = last_products.exchange(product);
    match fault {
        MacFault::None => product,
        MacFault::Duplicate => {
            tally.duplicate += 1;
            stale
        }
        MacFault::Random => {
            tally.random += 1;
            product ^ rng.gen_range(1i32..(1 << 16))
        }
    }
}

#[cfg(test)]
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
    fn characterize_clean_batch() {
        let ops = (0..1000).map(|i| DspOp { a: i, b: 3, d: 1 });
        let tally = characterize(&FaultModel::paper(), ops, 1.0, &mut rng());
        assert_eq!(tally.total(), 1000);
        assert_eq!(tally.total_fault_rate(), 0.0);
    }

    #[test]
    fn characterize_glitched_batch_faults() {
        let ops = (0..1000).map(|i| DspOp { a: i, b: 3, d: 1 });
        let tally = characterize(&FaultModel::paper(), ops, 0.72, &mut rng());
        assert_eq!(tally.total(), 1000);
        assert!(tally.total_fault_rate() > 0.95, "rate {}", tally.total_fault_rate());
    }

    #[test]
    fn duplication_fault_captures_the_same_pes_previous_product() {
        // Characterisation's datapath: op j issues on PE j % PE_COUNT, so a
        // duplication captures op j - PE_COUNT's product (0 before any).
        let products: Vec<i32> = (1..=40).map(|i| (100 + i + 7) * 120).collect();
        let mut ring = DupRing::default();
        let mut applied = AppliedFaults::default();
        for (j, &p) in products.iter().enumerate() {
            let captured = apply_fault(p, MacFault::Duplicate, &mut ring, &mut rng(), &mut applied);
            let stale = j.checked_sub(PE_COUNT).map_or(0, |k| products[k]);
            assert_eq!(captured, stale, "op {j}");
        }
        assert_eq!(applied.duplicate, 40);
    }

    #[test]
    fn random_faults_corrupt_the_captured_product() {
        let mut r = rng();
        let mut ring = DupRing::default();
        let mut applied = AppliedFaults::default();
        for p in (0..200).map(|i| (i + 2) * 7) {
            let captured = apply_fault(p, MacFault::Random, &mut ring, &mut r, &mut applied);
            assert_ne!(captured, p, "a random fault must corrupt the product");
        }
        assert_eq!(applied.random, 200);
    }

    #[test]
    fn tally_rates() {
        let t = FaultTally::default();
        assert_eq!(t.total_fault_rate(), 0.0);
        let t = FaultTally { correct: 1, duplicate: 1, random: 2 };
        assert_eq!(t.total(), 4);
        assert!((t.duplicate_rate() - 0.25).abs() < 1e-12);
        assert!((t.random_rate() - 0.5).abs() < 1e-12);
        assert!((t.total_fault_rate() - 0.75).abs() < 1e-12);
    }
}
