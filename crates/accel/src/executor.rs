//! Fault-aware integer inference.
//!
//! This executor runs [`dnn::quant::QuantizedNetwork`]'s datapath while
//! consulting a [`MacHook`] on every multiply it may fault. The hook
//! decides, per op, whether the DSP captured the correct product, a stale
//! one (duplication fault) or garbage (random fault); the attack crate
//! supplies hooks driven by its strike schedule, and tests use
//! [`FixedRateHook`]. Outputs the hook leaves alone are summed by
//! `dnn::quant`'s own kernels ([`QConv::accumulate`],
//! [`QDense::accumulate`]); only the per-op fault loops live here.
//!
//! Fault semantics follow §IV-A of the paper:
//!
//! * **Duplication** — the accumulator receives the *previous* product the
//!   PE computed; the correct product lands next cycle and is "absorbed by
//!   more serial summations" (so long dense accumulations shrug it off,
//!   which is why FC1 suffers much less than CONV2).
//! * **Random** — the product is XOR-corrupted in its low bits, which after
//!   `tanh` saturation ruins that output element.
//!
//! Pooling runs in fabric LUTs with large timing slack; it only faults at
//! droops far deeper than the striker produces (see
//! [`pool_fault_model`]), so strikes timed into `pool1` mostly waste
//! themselves — visible in the reproduced Fig. 5b.

use dnn::quant::{CodeMap, QConv, QDense, QLayer, QuantizedNetwork};
use dnn::tensor::Tensor;
use rand::Rng;

use crate::fault::{DspTiming, FaultModel, MacFault};

/// Per-MAC fault decision callback.
pub trait MacHook {
    /// Decides the fate of op `op_index` (0-based within the stage) of
    /// stage `stage_index` (0-based within the network), given the weight
    /// and activation codes it multiplies — small products exercise less
    /// of the DSP's critical path (see
    /// [`FaultModel::path_scale`](crate::fault::FaultModel::path_scale)).
    fn fault(&mut self, stage_index: usize, op_index: u64, weight: i8, activation: i8) -> MacFault;

    /// The first op at or after `op_index` in stage `stage_index` that may
    /// fault. For every op before it, [`Self::fault`] must return
    /// [`MacFault::None`] without drawing randomness or changing state, so
    /// the executor skips the call and sums those products clean. The
    /// default, `op_index`, consults the hook on every op.
    fn active_from(&self, _stage_index: usize, op_index: u64) -> u64 {
        op_index
    }
}

/// A hook that never faults (reference behaviour).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl MacHook for NoFaults {
    fn fault(&mut self, _stage: usize, _op: u64, _w: i8, _x: i8) -> MacFault {
        MacFault::None
    }
}

/// A hook applying fixed per-op fault probabilities to every stage —
/// useful for tests and for the paper's "blind attack" baseline arithmetic.
#[derive(Debug, Clone)]
pub struct FixedRateHook<R: Rng> {
    /// Probability of a duplication fault per op.
    pub duplicate: f64,
    /// Probability of a random fault per op.
    pub random: f64,
    /// RNG for sampling.
    pub rng: R,
}

impl<R: Rng> MacHook for FixedRateHook<R> {
    fn fault(&mut self, _stage: usize, _op: u64, _w: i8, _x: i8) -> MacFault {
        let x: f64 = self.rng.gen();
        if x < self.random {
            MacFault::Random
        } else if x < self.random + self.duplicate {
            MacFault::Duplicate
        } else {
            MacFault::None
        }
    }
}

/// The timing of the fabric pooling comparators: single data rate with a
/// short LUT path, so slack is huge and the striker cannot realistically
/// reach its fault threshold (≈ 0.63 V).
pub fn pool_fault_model() -> FaultModel {
    FaultModel::new(
        DspTiming {
            stage_delay_ps: 3000.0,
            budget_ps: 10_000.0,
            window_frac: 0.12,
            jitter_frac: 0.10,
        },
        pdn::delay::DelayModel::default(),
    )
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
/// Panics if `input` does not match the network's input shape.
pub fn infer_with_faults(
    net: &QuantizedNetwork,
    input: &Tensor,
    hook: &mut dyn MacHook,
    rng: &mut impl Rng,
) -> (Vec<i32>, AppliedFaults) {
    let mut map = net.quantize_input(input);
    let mut tally = AppliedFaults::default();
    let last = net.layers().len() - 1;
    for (stage_index, stage) in net.layers().iter().enumerate() {
        match stage {
            QLayer::Conv(c) => {
                map = run_conv(net, c, &map, stage_index, hook, rng, &mut tally);
            }
            QLayer::MaxPool { .. } => {
                // Pool comparators do not share the DSP timing; strikes at
                // attack-level droop cannot fault them, so the hook is not
                // consulted (see `pool_fault_model` for the margin).
                map = net.run_stage(stage, &map);
            }
            QLayer::Dense(d) => {
                let accs = run_dense(d, &map, stage_index, hook, rng, &mut tally);
                if stage_index == last {
                    return (accs, tally);
                }
                let codes = accs.iter().map(|&acc| net.requantize(acc, d.activation)).collect();
                map = CodeMap { shape: vec![d.outputs], codes };
            }
        }
    }
    (map.codes.iter().map(|&c| i32::from(c)).collect(), tally)
}

/// Output elements whose ops all precede the hook's next active op are
/// summed clean without consulting it; the rest go op by op.
#[allow(clippy::too_many_arguments)]
fn run_conv(
    net: &QuantizedNetwork,
    c: &QConv,
    input: &CodeMap,
    stage_index: usize,
    hook: &mut dyn MacHook,
    rng: &mut impl Rng,
    tally: &mut AppliedFaults,
) -> CodeMap {
    assert_eq!(input.shape[0], c.in_channels, "conv input channels");
    let (h, w) = (input.shape[1], input.shape[2]);
    let (oh, ow) = (h - c.kernel + 1, w - c.kernel + 1);
    let k = c.kernel;
    let taps = c.in_channels * k * k;
    let clean_product = |op: u64| {
        let (element, tap) = ((op / taps as u64) as usize, (op % taps as u64) as usize);
        let (oy, ox) = ((element / ow) % oh, element % ow);
        let (ic, ky, kx) = (tap / (k * k), (tap / k) % k, tap % k);
        let xv = input.codes[(ic * h + oy + ky) * w + ox + kx];
        i32::from(c.weights[element / (oh * ow) * taps + tap]) * i32::from(xv)
    };
    let mut codes = vec![0i8; c.out_channels * oh * ow];
    let mut sparse = SparseOps::new(stage_index, &*hook);
    let mut op_index = 0u64;
    for oc in 0..c.out_channels {
        let kernels = &c.weights[oc * taps..(oc + 1) * taps];
        for oy in 0..oh {
            for ox in 0..ow {
                let acc = if sparse.is_quiet(op_index, taps as u64, &*hook) {
                    c.accumulate(input, oc, oy, ox)
                } else {
                    let last_products = sparse.ring_for(op_index, taps as u64, &clean_product);
                    let mut acc = c.bias[oc];
                    let mut op = op_index;
                    for ic in 0..c.in_channels {
                        for ky in 0..k {
                            for kx in 0..k {
                                let wv = kernels[(ic * k + ky) * k + kx];
                                let xv = input.codes[(ic * h + oy + ky) * w + ox + kx];
                                let product = i32::from(wv) * i32::from(xv);
                                // Conv engines sum through adder trees: a
                                // late product misses its slot, so
                                // duplication faults corrupt conv outputs
                                // unconditionally.
                                acc = acc.wrapping_add(apply_fault(
                                    product,
                                    hook.fault(stage_index, op, wv, xv),
                                    false,
                                    last_products,
                                    rng,
                                    tally,
                                    stage_index,
                                    op,
                                ));
                                op += 1;
                            }
                        }
                    }
                    acc
                };
                op_index += taps as u64;
                codes[(oc * oh + oy) * ow + ox] = net.requantize(acc, c.activation);
            }
        }
    }
    CodeMap { shape: vec![c.out_channels, oh, ow], codes }
}

/// Dense counterpart of [`run_conv`]: one output element per row.
fn run_dense(
    d: &QDense,
    input: &CodeMap,
    stage_index: usize,
    hook: &mut dyn MacHook,
    rng: &mut impl Rng,
    tally: &mut AppliedFaults,
) -> Vec<i32> {
    assert_eq!(input.codes.len(), d.inputs, "dense input size");
    let clean_product = |op: u64| {
        let op = op as usize;
        i32::from(d.weights[op]) * i32::from(input.codes[op % d.inputs])
    };
    let mut sparse = SparseOps::new(stage_index, &*hook);
    (0..d.outputs)
        .map(|o| {
            let op_index = (o * d.inputs) as u64;
            if sparse.is_quiet(op_index, d.inputs as u64, &*hook) {
                return d.accumulate(&input.codes, o);
            }
            let last_products = sparse.ring_for(op_index, d.inputs as u64, &clean_product);
            let row = &d.weights[o * d.inputs..(o + 1) * d.inputs];
            let mut acc = d.bias[o];
            for (k, (wv, xv)) in row.iter().zip(&input.codes).enumerate() {
                let product = i32::from(*wv) * i32::from(*xv);
                let op = op_index + k as u64;
                // Dense stages accumulate serially on one DSP: a late
                // product still lands next cycle ("absorbed by more serial
                // summations"), so only a duplication at the fetch deadline
                // (the chain's last op) leaves a stale value.
                acc = acc.wrapping_add(apply_fault(
                    product,
                    hook.fault(stage_index, op, *wv, *xv),
                    k + 1 < d.inputs,
                    last_products,
                    rng,
                    tally,
                    stage_index,
                    op,
                ));
            }
            acc
        })
        .collect()
}

/// One stage's walk over its output elements: which elements the hook
/// can fault, and the [`DupRing`] state for those it can.
struct SparseOps {
    stage_index: usize,
    /// The hook's `active_from` answer at an op no later than the
    /// current element's first.
    next_active: u64,
    /// One past the last op the ring has seen.
    ring_end: u64,
    ring: DupRing,
}

impl SparseOps {
    fn new(stage_index: usize, hook: &dyn MacHook) -> Self {
        SparseOps {
            stage_index,
            next_active: hook.active_from(stage_index, 0),
            ring_end: 0,
            ring: DupRing::default(),
        }
    }

    /// Whether the hook leaves every op in `first..first + len` alone.
    fn is_quiet(&mut self, first: u64, len: u64, hook: &dyn MacHook) -> bool {
        if self.next_active < first {
            self.next_active = hook.active_from(self.stage_index, first);
        }
        self.next_active >= first + len
    }

    /// The ring for visiting ops `first..first + len` one by one: as if
    /// every earlier op of the stage had gone through it, re-primed from
    /// `clean_product` when quiet elements were skipped.
    fn ring_for(
        &mut self,
        first: u64,
        len: u64,
        clean_product: &dyn Fn(u64) -> i32,
    ) -> &mut DupRing {
        if self.ring_end != first {
            self.ring.prime(first, clean_product);
        }
        self.ring_end = first + len;
        &mut self.ring
    }
}

/// Ring of the last product each PE produced (round-robin issue over
/// [`DupRing::PE_COUNT`] DSPs).
#[derive(Debug, Clone, Default)]
struct DupRing {
    ring: [i32; DupRing::PE_COUNT],
    pos: usize,
}

impl DupRing {
    /// Matches [`crate::schedule::AccelConfig::default`]'s `pe_count`.
    const PE_COUNT: usize = 8;

    /// Returns the issuing PE's previous product and records the new one.
    fn exchange(&mut self, product: i32) -> i32 {
        let stale = self.ring[self.pos];
        self.ring[self.pos] = product;
        self.pos = (self.pos + 1) % Self::PE_COUNT;
        stale
    }

    /// Sets the ring to its state just before op `op` of a stage whose
    /// ops all exchanged their clean products: op `j` lives in slot
    /// `j % PE_COUNT`, and slots no op has reached yet hold 0.
    fn prime(&mut self, op: u64, clean_product: &dyn Fn(u64) -> i32) {
        let pe = Self::PE_COUNT as u64;
        self.ring = [0; Self::PE_COUNT];
        for j in op.saturating_sub(pe)..op {
            self.ring[(j % pe) as usize] = clean_product(j);
        }
        self.pos = (op % pe) as usize;
    }
}

/// Applies one fault decision to a product inside an accumulation chain.
///
/// Duplication faults are the "result arrives one cycle late" species.
/// When `absorbed` is true (mid-chain op of a *serial* accumulation, i.e. a
/// dense stage), the late product still lands next cycle and the sum is
/// unharmed — the paper's "absorbed by more serial summations". Otherwise
/// (conv adder trees, or a fetch-deadline op) the stale previous product is
/// summed instead. Random faults corrupt unconditionally.
#[allow(clippy::too_many_arguments)]
fn apply_fault(
    product: i32,
    fault: MacFault,
    absorbed: bool,
    last_products: &mut DupRing,
    rng: &mut impl Rng,
    tally: &mut AppliedFaults,
    stage_index: usize,
    op_index: u64,
) -> i32 {
    let stale = last_products.exchange(product);
    if fault != MacFault::None {
        trace::emit(|| trace::Event::MacFault {
            stage: stage_index as u32,
            op: op_index,
            kind: match fault {
                MacFault::Random => trace::FaultKind::Random,
                _ => trace::FaultKind::Duplicate,
            },
        });
    }
    match fault {
        MacFault::None => product,
        MacFault::Duplicate => {
            tally.duplicate += 1;
            if absorbed {
                product
            } else {
                stale
            }
        }
        MacFault::Random => {
            tally.random += 1;
            product ^ rng.gen_range(1i32..(1 << 16))
        }
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
    use rand::SeedableRng;

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
            let (logits, tally) = infer_with_faults(&q, x, &mut NoFaults, &mut rng);
            assert_eq!(logits, q.infer_logits(x), "divergence on input {k}");
            assert_eq!(tally.total(), 0);
        }
    }

    #[test]
    fn full_random_faulting_changes_logits() {
        let q = qnet(4);
        let x = Tensor::full(&[1, 28, 28], 0.4);
        let mut rng = StdRng::seed_from_u64(1);
        let mut hook = FixedRateHook { duplicate: 0.0, random: 1.0, rng: StdRng::seed_from_u64(2) };
        let (logits, tally) = infer_with_faults(&q, &x, &mut hook, &mut rng);
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
        let mut rng = StdRng::seed_from_u64(3);
        let mut dup_hook =
            FixedRateHook { duplicate: 0.3, random: 0.0, rng: StdRng::seed_from_u64(4) };
        let (dup_logits, dup_tally) = infer_with_faults(&q, &x, &mut dup_hook, &mut rng);
        let mut rnd_hook =
            FixedRateHook { duplicate: 0.0, random: 0.3, rng: StdRng::seed_from_u64(4) };
        let (rnd_logits, rnd_tally) = infer_with_faults(&q, &x, &mut rnd_hook, &mut rng);
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
        impl MacHook for Recorder {
            fn fault(&mut self, stage_index: usize, _op: u64, _w: i8, _x: i8) -> MacFault {
                if self.per_stage.len() <= stage_index {
                    self.per_stage.resize(stage_index + 1, 0);
                }
                self.per_stage[stage_index] += 1;
                MacFault::None
            }
        }
        let q = qnet(6);
        let x = Tensor::zeros(&[1, 28, 28]);
        let mut rec = Recorder { per_stage: Vec::new() };
        let mut rng = StdRng::seed_from_u64(0);
        infer_with_faults(&q, &x, &mut rec, &mut rng);
        // Stages: conv1(0), pool1(1, no hook), conv2(2), fc1(3), fc2(4).
        assert_eq!(rec.per_stage.len(), 5);
        assert_eq!(rec.per_stage[0], 6 * 24 * 24 * 25);
        assert_eq!(rec.per_stage[1], 0, "pool never consults the hook");
        assert_eq!(rec.per_stage[2], 16 * 8 * 8 * 150);
        assert_eq!(rec.per_stage[3], 1024 * 120);
        assert_eq!(rec.per_stage[4], 120 * 10);
    }

    #[test]
    fn pool_fault_model_needs_extreme_droop() {
        let m = pool_fault_model();
        assert_eq!(m.probabilities(0.80).total(), 0.0, "striker-level droop is harmless");
        assert!(m.probabilities(0.55).total() > 0.0, "but deep brown-out still faults");
    }
}
