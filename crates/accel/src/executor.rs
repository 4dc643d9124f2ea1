//! Fault-aware integer inference.
//!
//! This executor runs [`dnn::quant::QuantizedNetwork`]'s datapath under
//! the faults a [`FaultHook`] lists. Every stage is summed by `dnn::quant`'s
//! own clean kernels ([`QConv::accumulators`], [`QDense::accumulators`]);
//! the hook then names, per stage, the ops whose DSP captured a stale
//! product (duplication fault) or garbage (random fault), and each such
//! [`FaultEvent`] becomes one correction to its output's accumulator. The
//! i32 accumulators wrap, so a corrected sum equals the sum of the faulted
//! products bit for bit, and a run's cost follows its faults, not its ops.
//! The attack crate supplies hooks driven by its strike schedule; tests use
//! [`FixedRateHook`].
//!
//! Fault semantics follow §IV-A of the paper:
//!
//! * **Duplication** — the accumulator receives the *previous* product the
//!   PE computed: op `j`'s PE last issued op `j − 8` on the 8-PE array, so
//!   the correction is `product(j − 8) − product(j)`, with no product
//!   before the stage's first op. In a dense stage the correct product
//!   lands next cycle and is "absorbed by more serial summations", so only
//!   a duplication at the fetch deadline (the chain's last op) changes the
//!   sum — which is why FC1 suffers much less than CONV2. Conv engines sum
//!   through adder trees: a late product misses its slot, so every conv
//!   duplication counts.
//! * **Random** — the product is XOR-corrupted in its low 16 bits by the
//!   event's mask, which after `tanh` saturation ruins that output element.
//!
//! Both species are tallied wherever they land, absorbed or not. The Fig. 6b
//! characterisation ([`crate::dsp::characterize`]) applies the same two
//! species op by op through its ring of per-PE P registers.
//!
//! Pooling runs in fabric LUTs with large timing slack; it only faults at
//! droops far deeper than the striker produces (see
//! [`pool_fault_model`]), so strikes timed into `pool1` mostly waste
//! themselves — visible in the reproduced Fig. 5b.

use dnn::quant::{CodeMap, QConv, QDense, QLayer, QuantizedNetwork};
use dnn::tensor::Tensor;
use rand::Rng;

use crate::fault::{DspTiming, FaultModel, MacFault};
use crate::schedule::PE_COUNT;

/// One fault in a stage: what the DSP captured for op `op` (0-based within
/// the stage, in the executor's order: output element by output element,
/// each element's taps in `(ic, ky, kx)` order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The faulted op.
    pub op: u64,
    /// [`MacFault::Duplicate`] or [`MacFault::Random`].
    pub kind: MacFault,
    /// The XOR mask a random fault applies to the product, in
    /// `1..1 << 16`; 0 for a duplication.
    pub mask: i32,
}

/// Lists the faults of each DSP stage of one inference.
pub trait FaultHook {
    /// Appends the faults of stage `stage.index` to `events`, at most one
    /// per op and in ascending op order. The stage's operands are readable
    /// through `stage`, since small products exercise less of the DSP's
    /// critical path (see
    /// [`FaultModel::path_scale`](crate::fault::FaultModel::path_scale)).
    fn stage_faults(&mut self, stage: &StageOps<'_>, events: &mut Vec<FaultEvent>);
}

/// The ops of one DSP stage over its input, as a [`FaultHook`] sees them.
#[derive(Debug)]
pub struct StageOps<'a> {
    /// Stage index within the network (pooling stages count too).
    pub index: usize,
    /// MAC ops in the stage.
    pub ops: u64,
    /// Ops per output element: the length of each accumulation chain.
    pub chain: u64,
    /// Splits an op into (output element, tap).
    by_chain: Divisor,
    macs: Macs<'a>,
}

#[derive(Debug)]
enum Macs<'a> {
    Conv {
        conv: &'a QConv,
        input: &'a [i8],
        /// Input offset of each tap relative to its output pixel's corner.
        taps: Vec<usize>,
        /// Input offset of each output pixel's corner.
        corners: Vec<usize>,
        /// Splits an output element into (channel, pixel).
        by_plane: Divisor,
    },
    Dense {
        dense: &'a QDense,
        input: &'a [i8],
    },
}

impl<'a> StageOps<'a> {
    /// The ops of stage `index`, `layer`, over its input map; `None` for a
    /// pooling stage, which has no DSP ops.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match the stage's input geometry.
    pub fn new(index: usize, layer: &'a QLayer, input: &'a CodeMap) -> Option<Self> {
        let (macs, outputs, chain) = match layer {
            QLayer::MaxPool { .. } => return None,
            QLayer::Conv(conv) => {
                let [_, oh, ow] = conv.output_shape(input);
                let (h, w, k) = (input.shape[1], input.shape[2], conv.kernel);
                let taps: Vec<usize> = (0..conv.in_channels * k * k)
                    .map(|tap| (tap / (k * k) * h + (tap / k) % k) * w + tap % k)
                    .collect();
                let corners = (0..oh * ow).map(|pixel| pixel / ow * w + pixel % ow).collect();
                let chain = taps.len() as u64;
                let by_plane = Divisor::new((oh * ow) as u64);
                let macs = Macs::Conv { conv, input: &input.codes, taps, corners, by_plane };
                (macs, (conv.out_channels * oh * ow) as u64, chain)
            }
            QLayer::Dense(dense) => {
                assert_eq!(input.codes.len(), dense.inputs, "dense input size");
                (
                    Macs::Dense { dense, input: &input.codes },
                    dense.outputs as u64,
                    dense.inputs as u64,
                )
            }
        };
        Some(StageOps { index, ops: outputs * chain, chain, by_chain: Divisor::new(chain), macs })
    }

    /// The clean product of op `op`: weight code × activation code.
    ///
    /// # Panics
    ///
    /// Panics if `op >= self.ops`.
    #[inline]
    pub fn product(&self, op: u64) -> i32 {
        let (element, tap) = self.by_chain.div_rem(op);
        let tap = tap as usize;
        match &self.macs {
            Macs::Conv { conv, input, taps, corners, by_plane } => {
                let (oc, pixel) = by_plane.div_rem(element);
                let weight = conv.weights[oc as usize * taps.len() + tap];
                i32::from(weight) * i32::from(input[corners[pixel as usize] + taps[tap]])
            }
            Macs::Dense { dense, input } => {
                i32::from(dense.weights[op as usize]) * i32::from(input[tap])
            }
        }
    }

    /// Whether a late product of op `op` is absorbed: it is mid-chain in a
    /// serial (dense) accumulation, so it still lands next cycle.
    fn absorbs_duplicate(&self, op: u64) -> bool {
        matches!(self.macs, Macs::Dense { .. }) && !(op + 1).is_multiple_of(self.chain)
    }

    /// What `event` changes in its output's accumulator, and its tally.
    fn correction(&self, event: &FaultEvent, tally: &mut AppliedFaults) -> i32 {
        let product = self.product(event.op);
        match event.kind {
            MacFault::None => 0,
            MacFault::Duplicate => {
                tally.duplicate += 1;
                if self.absorbs_duplicate(event.op) {
                    return 0;
                }
                let pe = PE_COUNT as u64;
                let stale = if event.op >= pe { self.product(event.op - pe) } else { 0 };
                stale.wrapping_sub(product)
            }
            MacFault::Random => {
                tally.random += 1;
                (product ^ event.mask).wrapping_sub(product)
            }
        }
    }
}

/// Division by one fixed divisor through a 128-bit multiply, exact for
/// divisors and numerators below 2³² (Lemire, Kaser and Kurz, "Faster
/// remainder by direct computation", 2019); larger ones divide.
#[derive(Debug, Clone, Copy)]
struct Divisor {
    d: u64,
    /// `⌈2⁶⁴ / d⌉`, or 0 when `d` is 0, 1 or at least 2³².
    m: u64,
}

impl Divisor {
    fn new(d: u64) -> Self {
        let m = if (2..1 << 32).contains(&d) { u64::MAX / d + 1 } else { 0 };
        Divisor { d, m }
    }

    /// `(n / d, n % d)`.
    #[inline]
    fn div_rem(self, n: u64) -> (u64, u64) {
        if self.m == 0 || n >> 32 != 0 {
            return (n / self.d, n % self.d);
        }
        let fraction = self.m.wrapping_mul(n);
        let quotient = (u128::from(self.m) * u128::from(n)) >> 64;
        let remainder = (u128::from(fraction) * u128::from(self.d)) >> 64;
        (quotient as u64, remainder as u64)
    }
}

/// A hook that never faults (reference behaviour).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultHook for NoFaults {
    fn stage_faults(&mut self, _stage: &StageOps<'_>, _events: &mut Vec<FaultEvent>) {}
}

/// A hook applying fixed per-op fault probabilities to every stage —
/// useful for tests and for the paper's "blind attack" baseline arithmetic.
#[derive(Debug, Clone)]
pub struct FixedRateHook<R: Rng> {
    /// Probability of a duplication fault per op.
    pub duplicate: f64,
    /// Probability of a random fault per op.
    pub random: f64,
    /// RNG for sampling: one draw per op, and one per random fault's mask.
    pub rng: R,
}

impl<R: Rng> FaultHook for FixedRateHook<R> {
    fn stage_faults(&mut self, stage: &StageOps<'_>, events: &mut Vec<FaultEvent>) {
        for op in 0..stage.ops {
            let x: f64 = self.rng.gen();
            if x < self.random {
                let mask = self.rng.gen_range(1i32..(1 << 16));
                events.push(FaultEvent { op, kind: MacFault::Random, mask });
            } else if x < self.random + self.duplicate {
                events.push(FaultEvent { op, kind: MacFault::Duplicate, mask: 0 });
            }
        }
    }
}

/// The timing of the fabric pooling comparators: single data rate with a
/// short LUT path, so slack is huge and the striker cannot realistically
/// reach its fault threshold (≈ 0.63 V).
pub fn pool_fault_model() -> FaultModel {
    FaultModel::new(DspTiming {
        stage_delay_ps: 3000.0,
        budget_ps: 10_000.0,
        window_frac: 0.12,
        jitter_frac: 0.10,
    })
}

/// Counts of faults the executor actually applied during one inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AppliedFaults {
    /// Duplication faults applied.
    pub duplicate: u64,
    /// Random faults applied.
    pub random: u64,
}

impl AppliedFaults {
    /// Total faults applied.
    pub fn total(&self) -> u64 {
        self.duplicate + self.random
    }
}

/// Runs one inference with fault injection; returns the final-stage
/// accumulators (full-precision logits) and the applied-fault tally.
///
/// # Panics
///
/// Panics if `input` does not match the network's input shape, or if the
/// hook lists an op outside its stage.
pub fn infer_with_faults(
    net: &QuantizedNetwork,
    input: &Tensor,
    hook: &mut dyn FaultHook,
) -> (Vec<i32>, AppliedFaults) {
    let mut map = net.quantize_input(input);
    let mut tally = AppliedFaults::default();
    let mut events = Vec::new();
    let last = net.layers().len() - 1;
    for (index, layer) in net.layers().iter().enumerate() {
        // Pool comparators do not share the DSP timing; strikes at
        // attack-level droop cannot fault them, so the hook is not
        // consulted (see `pool_fault_model` for the margin).
        let (shape, mut accs, activation) = match layer {
            QLayer::MaxPool { .. } => {
                map = net.run_stage(layer, &map);
                continue;
            }
            QLayer::Conv(c) => (c.output_shape(&map).to_vec(), c.accumulators(&map), c.activation),
            QLayer::Dense(d) => (vec![d.outputs], d.accumulators(&map.codes), d.activation),
        };
        if let Some(stage) = StageOps::new(index, layer, &map) {
            events.clear();
            hook.stage_faults(&stage, &mut events);
            for event in &events {
                let acc = &mut accs[(event.op / stage.chain) as usize];
                *acc = acc.wrapping_add(stage.correction(event, &mut tally));
                trace_fault(index, event);
            }
        }
        if index == last && matches!(layer, QLayer::Dense(_)) {
            return (accs, tally);
        }
        map = net.requantize_map(shape, &accs, activation);
    }
    (map.codes.iter().map(|&c| i32::from(c)).collect(), tally)
}

/// Emits the trace event of one faulted op.
fn trace_fault(stage_index: usize, event: &FaultEvent) {
    if event.kind != MacFault::None {
        trace::emit(|| trace::Event::MacFault {
            stage: stage_index as u32,
            op: event.op,
            kind: match event.kind {
                MacFault::Random => trace::FaultKind::Random,
                _ => trace::FaultKind::Duplicate,
            },
        });
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use dnn::digits::{Dataset, RenderParams};
    use dnn::fixed::QFormat;
    use dnn::lenet::lenet5;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn qnet(seed: u64) -> QuantizedNetwork {
        let net = lenet5(&mut StdRng::seed_from_u64(seed));
        QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap()
    }

    #[test]
    fn no_faults_matches_reference_bit_for_bit() {
        let q = qnet(3);
        let mut rng = StdRng::seed_from_u64(0);
        let digits = Dataset::generate(5, &RenderParams::challenging(), &mut rng);
        for (k, (x, _)) in digits.iter().enumerate() {
            let (logits, tally) = infer_with_faults(&q, x, &mut NoFaults);
            assert_eq!(logits, q.infer_logits(x), "divergence on input {k}");
            assert_eq!(tally.total(), 0);
        }
    }

    #[test]
    fn full_random_faulting_changes_logits() {
        let q = qnet(4);
        let x = Tensor::full(&[1, 28, 28], 0.4);
        let mut hook = FixedRateHook { duplicate: 0.0, random: 1.0, rng: StdRng::seed_from_u64(2) };
        let (logits, tally) = infer_with_faults(&q, &x, &mut hook);
        assert_ne!(logits, q.infer_logits(&x));
        assert!(tally.random > 100_000, "every DSP op faulted: {}", tally.random);
        assert_eq!(tally.duplicate, 0);
    }

    #[test]
    fn duplication_is_much_gentler_than_random() {
        // Same fault count, different species: random corrupts logits far
        // more than duplication — the paper's CONV2-vs-FC1 explanation.
        let q = qnet(5);
        let x = Tensor::full(&[1, 28, 28], 0.35);
        let clean = q.infer_logits(&x);
        let l1 = |a: &[i32], b: &[i32]| -> i64 {
            a.iter().zip(b).map(|(x, y)| i64::from((x - y).abs())).sum()
        };
        let mut dup_hook =
            FixedRateHook { duplicate: 0.3, random: 0.0, rng: StdRng::seed_from_u64(4) };
        let (dup_logits, dup_tally) = infer_with_faults(&q, &x, &mut dup_hook);
        let mut rnd_hook =
            FixedRateHook { duplicate: 0.0, random: 0.3, rng: StdRng::seed_from_u64(4) };
        let (rnd_logits, rnd_tally) = infer_with_faults(&q, &x, &mut rnd_hook);
        assert!(dup_tally.duplicate > 0 && rnd_tally.random > 0);
        let dup_err = l1(&dup_logits, &clean);
        let rnd_err = l1(&rnd_logits, &clean);
        assert!(
            rnd_err > dup_err * 3,
            "random error {rnd_err} must dwarf duplication error {dup_err}"
        );
    }

    #[test]
    fn hook_sees_correct_stage_indices_and_op_counts() {
        struct Recorder {
            per_stage: Vec<u64>,
        }
        impl FaultHook for Recorder {
            fn stage_faults(&mut self, stage: &StageOps<'_>, _events: &mut Vec<FaultEvent>) {
                if self.per_stage.len() <= stage.index {
                    self.per_stage.resize(stage.index + 1, 0);
                }
                self.per_stage[stage.index] += stage.ops;
            }
        }
        let q = qnet(6);
        let x = Tensor::zeros(&[1, 28, 28]);
        let mut rec = Recorder { per_stage: Vec::new() };
        infer_with_faults(&q, &x, &mut rec);
        // Stages: conv1(0), pool1(1, no hook), conv2(2), fc1(3), fc2(4).
        assert_eq!(rec.per_stage.len(), 5);
        assert_eq!(rec.per_stage[0], 6 * 24 * 24 * 25);
        assert_eq!(rec.per_stage[1], 0, "pool never consults the hook");
        assert_eq!(rec.per_stage[2], 16 * 8 * 8 * 150);
        assert_eq!(rec.per_stage[3], 1024 * 120);
        assert_eq!(rec.per_stage[4], 120 * 10);
    }

    #[test]
    fn stage_products_follow_the_kernels_op_order() {
        // Op j of output element e is tap j % chain of e's accumulation:
        // the products of each element sum, with the bias, to its clean
        // accumulator.
        let q = qnet(7);
        let digits = Dataset::generate(1, &RenderParams::default(), &mut StdRng::seed_from_u64(1));
        let (x, _) = digits.iter().next().unwrap();
        let mut map = q.quantize_input(x);
        for (index, layer) in q.layers().iter().enumerate() {
            if let Some(stage) = StageOps::new(index, layer, &map) {
                let (accs, bias) = match layer {
                    QLayer::Conv(c) => (c.accumulators(&map), &c.bias),
                    QLayer::Dense(d) => (d.accumulators(&map.codes), &d.bias),
                    QLayer::MaxPool { .. } => unreachable!("pools have no ops"),
                };
                let per_channel = accs.len() / bias.len();
                for (e, &acc) in accs.iter().enumerate() {
                    let ops = e as u64 * stage.chain..(e as u64 + 1) * stage.chain;
                    let sum = ops.map(|op| stage.product(op)).fold(0i32, i32::wrapping_add);
                    assert_eq!(bias[e / per_channel].wrapping_add(sum), acc, "stage {index} e {e}");
                }
            }
            map = q.run_stage(layer, &map);
        }
    }

    #[test]
    fn divisor_matches_hardware_division() {
        let mut rng = StdRng::seed_from_u64(9);
        for d in [1u64, 2, 3, 7, 25, 150, 576, 1024, 65_537, (1 << 32) - 1, 1 << 32, 1 << 40] {
            let divisor = Divisor::new(d);
            let edges = [0, 1, d - 1, d, d + 1, (1 << 32) - 1, 1 << 32, u64::MAX];
            let random = (0..2_000).map(|_| rng.gen::<u64>() >> rng.gen_range(0..64));
            for n in edges.into_iter().chain(random) {
                assert_eq!(divisor.div_rem(n), (n / d, n % d), "{n} / {d}");
            }
        }
    }

    #[test]
    fn pool_fault_model_needs_extreme_droop() {
        let m = pool_fault_model();
        assert_eq!(m.probabilities(0.80).total(), 0.0, "striker-level droop is harmless");
        assert!(m.probabilities(0.55).total() > 0.0, "but deep brown-out still faults");
    }
}
