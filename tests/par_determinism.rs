//! Determinism contract of the parallel campaign runtime and the kernel
//! fast paths: thread count and batch boundaries must never change a
//! result, and the optimised kernels must agree with their naive oracles
//! bit-for-bit.

use accel::fault::FaultModel;
use accel::schedule::AccelConfig;
use deepstrike::attack::{evaluate_attack, plan_attack, profile_victim, AttackOutcome};
use deepstrike::cosim::{CloudFpga, CosimConfig};
use dnn::digits::{Dataset, RenderParams};
use dnn::fixed::QFormat;
use dnn::layers::{Conv2d, Layer};
use dnn::quant::QuantizedNetwork;
use dnn::tensor::Tensor;
use dnn::zoo::mlp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `DEEPSTRIKE_THREADS` is process-global, so every phase of the env
/// sweep lives in this single test (integration tests in one binary run
/// concurrently, and a second test mutating the variable would race).
#[test]
fn accuracy_series_is_identical_at_any_thread_count() {
    let net = mlp(&mut StdRng::seed_from_u64(3));
    let q = QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap();
    let mut images_rng = StdRng::seed_from_u64(9);
    let images = Dataset::generate(24, &RenderParams::default(), &mut images_rng);

    let accel = AccelConfig { weight_bandwidth: 16, stall_cycles: 150 };
    let mut fpga = CloudFpga::new(&q, &accel, 10_000, CosimConfig { pdn_substeps: 4 }).unwrap();
    fpga.settle(50);
    let profile = profile_victim(&mut fpga, &["fc1", "fc2", "fc3"], 1).unwrap();

    // A small campaign: several strike counts against fc1, each point run
    // from a clone of the profiled platform — the fig5b structure.
    let strike_counts = [10u32, 20, 30, 40, 50, 60];
    let campaign = |fpga: &CloudFpga| -> Vec<(u64, u64, u64)> {
        par::map_items(&strike_counts, |&strikes| {
            let mut fpga = fpga.clone();
            let scheme = plan_attack(&profile, "fc1", strikes).expect("plan fits");
            fpga.scheduler_mut().load_scheme(&scheme).expect("loads");
            fpga.scheduler_mut().arm(true).expect("arms");
            let run = fpga.run_inference();
            let outcome =
                evaluate_attack(&q, fpga.schedule(), &run, images.iter(), FaultModel::paper(), 5);
            (
                outcome.attacked_accuracy.to_bits(),
                outcome.clean_accuracy.to_bits(),
                outcome.mean_faults_per_image.to_bits(),
            )
        })
    };

    let prior = std::env::var(par::THREADS_ENV).ok();
    std::env::set_var(par::THREADS_ENV, "1");
    let serial = campaign(&fpga);
    for workers in ["2", "5"] {
        std::env::set_var(par::THREADS_ENV, workers);
        assert_eq!(
            campaign(&fpga),
            serial,
            "{workers}-worker campaign diverged from the 1-worker series"
        );
    }
    match prior {
        Some(v) => std::env::set_var(par::THREADS_ENV, v),
        None => std::env::remove_var(par::THREADS_ENV),
    }
}

/// An outcome's counts over `n` images: clean-correct, attacked-correct,
/// duplication faults and random faults.
fn counts(o: &AttackOutcome, n: usize) -> [u64; 4] {
    let count = |share: f64| (share * n as f64).round() as u64;
    [
        count(o.clean_accuracy),
        count(o.attacked_accuracy),
        count(o.mean_duplicate_per_image),
        count(o.mean_random_per_image),
    ]
}

/// Fault draws are keyed on `seed + i` per image, so scoring a set in
/// slices, each at `seed + slice_start`, gives every image the faults it
/// gets in one call over the whole set: the merged counts equal the
/// whole-set counts exactly, however the set is cut.
#[test]
fn scoring_in_slices_equals_scoring_the_whole_set() {
    let net = mlp(&mut StdRng::seed_from_u64(3));
    let q = QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap();
    let images = Dataset::generate(24, &RenderParams::default(), &mut StdRng::seed_from_u64(9));
    let samples: Vec<(&Tensor, usize)> = images.iter().collect();

    let accel = AccelConfig { weight_bandwidth: 16, stall_cycles: 150 };
    let mut fpga = CloudFpga::new(&q, &accel, 10_000, CosimConfig { pdn_substeps: 4 }).unwrap();
    fpga.settle(50);
    let profile = profile_victim(&mut fpga, &["fc1", "fc2", "fc3"], 1).unwrap();
    fpga.scheduler_mut().load_scheme(&plan_attack(&profile, "fc1", 60).unwrap()).unwrap();
    fpga.scheduler_mut().arm(true).unwrap();
    let run = fpga.run_inference();

    const SEED: u64 = 17;
    let score = |slice: &[(&Tensor, usize)], seed: u64| {
        evaluate_attack(&q, fpga.schedule(), &run, slice.iter().copied(), FaultModel::paper(), seed)
    };
    let whole = score(&samples, SEED);
    let whole_counts = counts(&whole, samples.len());
    assert!(whole_counts[2] + whole_counts[3] > 0, "the run must fault: {whole:?}");
    for slices in [2usize, 3, 4, 6] {
        let len = samples.len() / slices;
        let mut merged = [0u64; 4];
        for (k, slice) in samples.chunks(len).enumerate() {
            let part = score(slice, SEED.wrapping_add((k * len) as u64));
            assert_eq!(part.strikes_fired, whole.strikes_fired);
            for (m, c) in merged.iter_mut().zip(counts(&part, slice.len())) {
                *m += c;
            }
        }
        assert_eq!(merged, whole_counts, "{slices} slices of {len} images");
    }
}

#[test]
fn im2col_conv_matches_naive_loop_nest_exactly() {
    let mut rng = StdRng::seed_from_u64(17);
    for (ic, oc, k, h, w) in
        [(1, 6, 5, 28, 28), (6, 16, 5, 14, 14), (3, 4, 3, 9, 7), (2, 2, 1, 4, 4)]
    {
        let mut fast = Conv2d::new("conv", ic, oc, k, &mut rng);
        let input = Tensor::from_vec(
            (0..ic * h * w).map(|_| rng.gen_range(-2.0f32..2.0)).collect(),
            &[ic, h, w],
        );
        let expected = fast.forward_naive(&input);
        let got = fast.forward(&input);
        assert_eq!(expected.shape(), got.shape(), "shape for {ic}x{h}x{w} k{k}x{oc}");
        for (i, (a, b)) in expected.data().iter().zip(got.data()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "forward {ic}x{h}x{w} k{k}x{oc} diverges at {i}: {a:e} vs {b:e}"
            );
        }

        // Backward: run both paths from identical state and compare the
        // input gradients and the accumulated parameter gradients.
        let grad_out = Tensor::from_vec(
            got.data().iter().map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            got.shape(),
        );
        let mut naive = Conv2d::new("conv", ic, oc, k, &mut rng);
        naive.set_params(fast.params().expect("conv has params"));
        naive.forward_naive(&input);
        let gi_naive = naive.backward_naive(&grad_out);
        let gi_fast = fast.backward(&grad_out);
        for (i, (a, b)) in gi_naive.data().iter().zip(gi_fast.data()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "backward grad_in {ic}x{h}x{w} k{k}x{oc} diverges at {i}: {a:e} vs {b:e}"
            );
        }
    }
}
