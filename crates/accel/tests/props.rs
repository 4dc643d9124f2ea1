//! Property-based tests for the accelerator simulator.

use accel::dsp::{characterize, DspOp};
use accel::executor::{infer_with_faults, FixedRateHook, MacHook, NoFaults};
use accel::fault::{DspTiming, FaultModel, MacFault};
use accel::schedule::{AccelConfig, Schedule};
use dnn::fixed::QFormat;
use dnn::layers::{Conv2d, Dense, MaxPool2d, Tanh};
use dnn::network::Sequential;
use dnn::quant::QuantizedNetwork;
use dnn::tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Faults at fixed rates on the ops its per-stage mask marks active and
/// leaves the rest alone without drawing; declares the masks through
/// `active_from` only when `declare` is set.
struct MaskedHook {
    active: Vec<Vec<bool>>,
    declare: bool,
    rng: StdRng,
}

impl MacHook for MaskedHook {
    fn fault(&mut self, stage: usize, op: u64, _w: i8, _x: i8) -> MacFault {
        if !self.active[stage][op as usize] {
            return MacFault::None;
        }
        match self.rng.gen_range(0u32..10) {
            0..=2 => MacFault::Duplicate,
            3 => MacFault::Random,
            _ => MacFault::None,
        }
    }

    fn active_from(&self, stage: usize, op: u64) -> u64 {
        if !self.declare {
            return op;
        }
        let mask = &self.active[stage][op as usize..];
        mask.iter().position(|&a| a).map_or(u64::MAX, |k| op + k as u64)
    }
}

/// A net whose stages have fewer taps per output than the PE ring:
/// a 1×1 conv over 3 channels (3 ops per output) and a dense stage with
/// 6 inputs, between a 2×2 conv and a 27-input dense stage.
fn narrow_net() -> QuantizedNetwork {
    let mut rng = StdRng::seed_from_u64(8);
    let mut net = Sequential::new("narrow");
    net.push(Box::new(Conv2d::new("conv1", 3, 5, 1, &mut rng)));
    net.push(Box::new(Tanh::new("t1")));
    net.push(Box::new(Conv2d::new("conv2", 5, 3, 2, &mut rng)));
    net.push(Box::new(Tanh::new("t2")));
    net.push(Box::new(Dense::new("fc1", 27, 6, &mut rng)));
    net.push(Box::new(Tanh::new("t3")));
    net.push(Box::new(Dense::new("fc2", 6, 4, &mut rng)));
    QuantizedNetwork::from_sequential(&net, &[3, 4, 4], QFormat::paper()).unwrap()
}

/// MAC count of each stage of [`narrow_net`].
const NARROW_OPS: [usize; 4] = [5 * 16 * 3, 3 * 9 * 20, 6 * 27, 4 * 6];

/// LeNet-5, the deeper CNN, the MLP and [`narrow_net`], quantised once.
fn victims() -> &'static [QuantizedNetwork] {
    static VICTIMS: OnceLock<Vec<QuantizedNetwork>> = OnceLock::new();
    VICTIMS.get_or_init(|| {
        let quantize = |net: Sequential| {
            QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap()
        };
        vec![
            quantize(dnn::lenet::lenet5(&mut StdRng::seed_from_u64(1))),
            quantize(dnn::zoo::deep_cnn(&mut StdRng::seed_from_u64(2))),
            quantize(dnn::zoo::mlp(&mut StdRng::seed_from_u64(3))),
            narrow_net(),
        ]
    })
}

/// An image of the given shape with uniform pixels in `[0, 1)`.
fn random_image(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    let pixels = (0..shape.iter().product::<usize>()).map(|_| rng.gen::<f32>()).collect();
    Tensor::from_vec(pixels, shape)
}

proptest! {
    /// Fault probabilities are a valid, voltage-monotone distribution for
    /// any physically sensible timing parameters.
    #[test]
    fn probabilities_valid_and_monotone(
        stage in 2_000.0f64..4_800.0,
        window in 0.01f64..0.3,
        jitter in 0.02f64..0.3,
        v in 0.5f64..1.1,
    ) {
        let m = FaultModel::new(
            DspTiming { stage_delay_ps: stage, budget_ps: 5_000.0, window_frac: window, jitter_frac: jitter },
        );
        let p = m.probabilities(v);
        prop_assert!(p.duplicate >= 0.0 && p.random >= 0.0);
        prop_assert!(p.total() <= 1.0 + 1e-12);
        let deeper = m.probabilities(v - 0.05);
        prop_assert!(deeper.total() >= p.total() - 1e-12);
    }

    /// Characterisation at nominal voltage never faults for any op inputs.
    #[test]
    fn nominal_ops_never_fault(a in -128i32..128, b in -128i32..128, d in -128i32..128) {
        let mut rng = StdRng::seed_from_u64(7);
        let ops = std::iter::repeat_n(DspOp { a, b, d }, 16);
        let tally = characterize(&FaultModel::paper(), ops, 1.0, &mut rng);
        prop_assert_eq!(tally.correct, 16);
        prop_assert_eq!(tally.total(), 16);
    }

    /// Schedule windows are disjoint, ordered and cover every op exactly
    /// once, for arbitrary small conv architectures.
    #[test]
    fn schedule_invariants(
        out1 in 1usize..6,
        k1 in 1usize..4,
        hidden in 1usize..40,
        stall in 1u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Sequential::new("t");
        net.push(Box::new(Conv2d::new("conv1", 1, out1, k1, &mut rng)));
        net.push(Box::new(Tanh::new("t1")));
        net.push(Box::new(MaxPool2d::new("pool1", 2)));
        let side = (12 - k1).div_ceil(2);
        net.push(Box::new(Dense::new("fc1", out1 * side * side, hidden, &mut rng)));
        net.push(Box::new(Dense::new("fc2", hidden, 10, &mut rng)));
        // Pool needs even input: only keep cases where 12-k1+1 is even.
        prop_assume!((12 - k1 + 1) % 2 == 0);
        let q = QuantizedNetwork::from_sequential(&net, &[1, 12, 12], QFormat::paper()).unwrap();
        let schedule = Schedule::for_network(
            &q,
            &AccelConfig { stall_cycles: stall, ..AccelConfig::default() },
        );
        let mut prev_end = 0u64;
        for w in schedule.windows() {
            prop_assert_eq!(w.start_cycle, prev_end + stall);
            prop_assert!(w.cycles >= 1);
            prop_assert!(w.ops >= w.outputs);
            prev_end = w.end_cycle();
        }
        prop_assert_eq!(schedule.total_cycles(), prev_end + stall);
        // cycle_of_op stays in range for boundary ops of every window.
        for w in schedule.windows() {
            for op in [0, w.ops - 1] {
                prop_assert!(w.contains(w.cycle_of_op(op)));
            }
        }
    }

    /// The executor's fault tally equals what the hook injected.
    #[test]
    fn executor_counts_what_the_hook_injects(dup in 0.0f64..0.2, rnd in 0.0f64..0.2, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::new("t");
        net.push(Box::new(Dense::new("fc1", 64, 16, &mut StdRng::seed_from_u64(2))));
        net.push(Box::new(Tanh::new("t1")));
        net.push(Box::new(Dense::new("fc2", 16, 4, &mut StdRng::seed_from_u64(3))));
        let q = QuantizedNetwork::from_sequential(&net, &[1, 8, 8], QFormat::paper()).unwrap();
        let x = Tensor::full(&[1, 8, 8], 0.3);
        let mut hook = FixedRateHook { duplicate: dup, random: rnd, rng: StdRng::seed_from_u64(seed) };
        let (_, tally) = infer_with_faults(&q, &x, &mut hook, &mut rng);
        let total_ops = (64 * 16 + 16 * 4) as f64;
        let expected = (dup + rnd) * total_ops;
        // Binomial tolerance: 5 sigma.
        let sigma = (total_ops * (dup + rnd) * (1.0 - dup - rnd).max(0.01)).sqrt();
        prop_assert!(
            (tally.total() as f64 - expected).abs() <= 5.0 * sigma + 3.0,
            "tally {} vs expected {expected}",
            tally.total()
        );
    }

    /// Fault-free execution matches the reference on seeded random pixel
    /// images, for every victim shape. `NoFaults` keeps the default
    /// `active_from`, so the executor sends every op through its per-op
    /// loops: the check does not run the clean kernels it is checking.
    #[test]
    fn clean_execution_matches_reference(victim in 0usize..4, seed in any::<u64>()) {
        let q = &victims()[victim];
        let x = random_image(q.input_shape(), seed);
        let mut rng = StdRng::seed_from_u64(0);
        let (logits, tally) = infer_with_faults(q, &x, &mut NoFaults, &mut rng);
        prop_assert_eq!(logits, q.infer_logits(&x));
        prop_assert_eq!(tally.total(), 0);
    }

    /// Declaring quiet spans through `active_from` changes nothing: the
    /// executor sums skipped outputs clean and re-primes the duplication
    /// ring across them, so logits, tally and both RNG end states match
    /// the hook consulted on every op.
    #[test]
    fn declared_quiet_spans_change_nothing(
        spans in prop::collection::vec((0usize..4, 0usize..240, 1usize..40), 0..8),
        fill in 0.0f32..1.0,
        seed in 0u64..1000,
    ) {
        let q = narrow_net();
        let mut active: Vec<Vec<bool>> = NARROW_OPS.iter().map(|&n| vec![false; n]).collect();
        for (stage, start, len) in spans {
            let mask = &mut active[stage];
            let start = start % mask.len();
            let end = (start + len).min(mask.len());
            mask[start..end].iter_mut().for_each(|a| *a = true);
        }
        let x = Tensor::full(&[3, 4, 4], fill);
        let run = |declare: bool| {
            let mut hook =
                MaskedHook { active: active.clone(), declare, rng: StdRng::seed_from_u64(seed) };
            let mut rng = StdRng::seed_from_u64(seed ^ 1);
            let (logits, tally) = infer_with_faults(&q, &x, &mut hook, &mut rng);
            (logits, tally, rng.gen::<u64>(), hook.rng.gen::<u64>())
        };
        prop_assert_eq!(run(true), run(false));
    }
}
