//! Criterion benchmarks of the attack pipeline stages, including the
//! DDR-vs-SDR ablation called out in DESIGN.md.

use accel::dsp::{characterize, DspOp};
use accel::executor::infer_with_faults;
use accel::fault::{DspTiming, FaultModel};
use accel::schedule::{AccelConfig, Schedule};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use deepstrike::attack::{plan_attack, profile_victim, StrikeHook, StrikeTables};
use deepstrike::cosim::{CloudFpga, CosimConfig};
use deepstrike::profile::segment_trace;
use dnn::fixed::QFormat;
use dnn::lenet::STAGE_NAMES;
use dnn::quant::QuantizedNetwork;
use dnn::zoo::mlp;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_victim() -> QuantizedNetwork {
    let net = mlp(&mut StdRng::seed_from_u64(0));
    QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap()
}

fn bench_cosim_inference(c: &mut Criterion) {
    let victim = small_victim();
    let accel = AccelConfig { weight_bandwidth: 16, stall_cycles: 150 };
    let mut fpga = CloudFpga::new(&victim, &accel, 8_000, CosimConfig { pdn_substeps: 4 }).unwrap();
    fpga.settle(50);
    let mut group = c.benchmark_group("cosim");
    group.sample_size(10);
    group.bench_function("mlp_inference_4k_cycles", |b| {
        b.iter(|| black_box(fpga.run_inference().tdc_trace.len()));
    });
    group.finish();
}

fn bench_profiling(c: &mut Criterion) {
    let victim = small_victim();
    let accel = AccelConfig { weight_bandwidth: 16, stall_cycles: 150 };
    let mut fpga = CloudFpga::new(&victim, &accel, 8_000, CosimConfig { pdn_substeps: 4 }).unwrap();
    fpga.settle(50);
    let run = fpga.run_inference();
    c.bench_function("profile/segment_8k_samples", |b| {
        b.iter(|| black_box(segment_trace(&run.tdc_trace).len()));
    });
}

fn bench_schedule(c: &mut Criterion) {
    let victim = small_victim();
    c.bench_function("schedule/build", |b| {
        b.iter(|| black_box(Schedule::for_network(&victim, &AccelConfig::default())));
    });
}

/// Ablation: fault characterisation throughput and yield for DDR vs SDR
/// DSP clocking at the same strike voltage — the design choice the paper
/// blames for DSP vulnerability.
fn bench_ddr_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_ddr_vs_sdr");
    for (name, timing) in [("ddr", DspTiming::paper_ddr()), ("sdr", DspTiming::paper_sdr())] {
        group.bench_function(name, |b| {
            let model = FaultModel::new(timing);
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                let ops = (0..512).map(|i| DspOp { a: 100 + (i % 27), b: 120, d: 7 });
                black_box(characterize(&model, ops, 0.80, &mut rng).total_fault_rate())
            });
        });
    }
    group.finish();
}

/// Scoring one image of the trained LeNet against a recorded guided run
/// at fig5b's platform and its largest strike budget for each conv layer
/// (half the window): the per-image cost of `evaluate_attack`.
fn bench_score_image(c: &mut Criterion) {
    let (q, _) = bench::trained_lenet();
    let test = bench::test_set();
    let (x, _) = test.iter().next().expect("non-empty test set");
    let mut fpga = CloudFpga::new(&q, &AccelConfig::default(), 8_000, CosimConfig::default())
        .expect("platform assembles");
    fpga.settle(200);
    let profile = profile_victim(&mut fpga, &STAGE_NAMES, 2).expect("profiles all five layers");
    let mut group = c.benchmark_group("attack");
    for target in ["conv1", "conv2"] {
        let (_, window) = profile.window(target).expect("profiled layer");
        let scheme = plan_attack(&profile, target, (window / 2) as u32).expect("strikes fit");
        let mut armed = fpga.clone();
        armed.scheduler_mut().load_scheme(&scheme).expect("scheme fits");
        armed.scheduler_mut().arm(true).expect("arms");
        let run = armed.run_inference();
        let tables = StrikeTables::new(fpga.schedule(), &run, FaultModel::paper());
        let mut key = 0u64;
        group.bench_function(&format!("score_image_{target}"), |b| {
            b.iter(|| {
                key += 1;
                let (logits, tally) = infer_with_faults(&q, x, &mut StrikeHook::new(&tables, key));
                black_box((logits, tally.total()))
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cosim_inference,
    bench_profiling,
    bench_schedule,
    bench_ddr_ablation,
    bench_score_image
);
criterion_main!(benches);
