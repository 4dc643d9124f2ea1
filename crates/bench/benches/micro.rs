//! Criterion micro-benchmarks of the simulation substrates: the costs
//! that bound how fast the figure harnesses can sweep.
//!
//! Whole-campaign speed (guided sweep, strike search, remote fleet) is
//! measured by the benchmark of record, `perfbench`, declared in
//! `BENCHMARK.json`:
//! `cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --workload <w>`.

use accel::dsp::{characterize, DspOp};
use accel::fault::FaultModel;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use deepstrike::striker::StrikerBank;
use deepstrike::tdc::TdcSensor;
use dnn::fixed::QFormat;
use dnn::layers::{Conv2d, Layer};
use dnn::quant::QuantizedNetwork;
use dnn::tensor::Tensor;
use dnn::zoo::mlp;
use fpga_fabric::drc;
use pdn::grid::SpatialPdn;
use pdn::rlc::LumpedPdn;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_pdn(c: &mut Criterion) {
    c.bench_function("pdn/lumped_step", |b| {
        let mut pdn = LumpedPdn::new();
        b.iter(|| black_box(pdn.step(black_box(1.3), 1e-9)));
    });
    // Every step runs all sweeps, so a settled mesh costs what a
    // re-excited one does.
    c.bench_function("pdn/spatial_step_160_nodes", |b| {
        let mut grid = SpatialPdn::new();
        let node = grid.node_at_fraction(0.2, 0.5);
        grid.inject(node, 1.0);
        b.iter(|| black_box(grid.step(1e-9)));
    });
    // The cosim's whole victim cycle: 10 substeps read at the victim and
    // attacker nodes, as `CloudFpga::step_cycle` drives the mesh.
    c.bench_function("pdn/cycle_10_substeps", |b| {
        let mut grid = SpatialPdn::new();
        let victim = grid.node_at_fraction(0.12, 0.5);
        let attacker = grid.node_at_fraction(0.88, 0.5);
        grid.inject(victim, 1.0);
        b.iter(|| {
            let mut v_min = f64::INFINITY;
            grid.run_cycle(1e-9, 10, [victim, attacker], |[v_victim, v_attacker]| {
                v_min = v_min.min(v_victim);
                black_box(v_attacker);
            });
            black_box(v_min)
        });
    });
}

fn bench_conv(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(11);
    let input = Tensor::from_vec(
        (0..6 * 14 * 14).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        &[6, 14, 14],
    );
    // The LeNet conv2 shape — the hottest layer of every training and
    // attack-evaluation run. Naive is the original loop nest, kept as the
    // bit-exactness oracle for the im2col fast path.
    c.bench_function("conv/forward_naive_6x14x14_k5x16", |b| {
        let mut conv = Conv2d::new("conv2", 6, 16, 5, &mut rng);
        b.iter(|| black_box(conv.forward_naive(black_box(&input))));
    });
    c.bench_function("conv/forward_im2col_6x14x14_k5x16", |b| {
        let mut conv = Conv2d::new("conv2", 6, 16, 5, &mut rng);
        b.iter(|| black_box(conv.forward(black_box(&input))));
    });
    c.bench_function("conv/backward_6x14x14_k5x16", |b| {
        let mut conv = Conv2d::new("conv2", 6, 16, 5, &mut rng);
        let out = conv.forward(&input);
        let grad = Tensor::full(out.shape(), 0.3);
        b.iter(|| black_box(conv.backward(black_box(&grad))));
    });
}

fn bench_tdc(c: &mut Criterion) {
    c.bench_function("tdc/sample", |b| {
        let mut tdc = TdcSensor::calibrated().unwrap();
        b.iter(|| black_box(tdc.sample(black_box(0.97))));
    });
}

fn bench_dsp(c: &mut Criterion) {
    let model = FaultModel::paper();
    for (name, v) in [("dsp/characterize_nominal", 1.0), ("dsp/characterize_glitched", 0.80)] {
        c.bench_function(name, |b| {
            let mut rng = StdRng::seed_from_u64(0);
            b.iter(|| {
                let ops = (0..512).map(|i| DspOp { a: i & 0x7F, b: 101, d: 3 });
                black_box(characterize(&model, ops, black_box(v), &mut rng))
            });
        });
    }
}

fn bench_quant_inference(c: &mut Criterion) {
    let net = mlp(&mut StdRng::seed_from_u64(0));
    let q = QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap();
    let x = Tensor::full(&[1, 28, 28], 0.4);
    c.bench_function("quant/mlp_infer_logits", |b| {
        b.iter(|| black_box(q.infer_logits(black_box(&x))));
    });
}

fn bench_drc(c: &mut Criterion) {
    let bank = StrikerBank::new(1_000).unwrap();
    let netlist = bank.netlist();
    c.bench_function("drc/check_striker_1000_cells", |b| {
        b.iter(|| black_box(drc::check(black_box(&netlist)).is_deployable()));
    });
}

criterion_group!(
    benches,
    bench_pdn,
    bench_conv,
    bench_tdc,
    bench_dsp,
    bench_quant_inference,
    bench_drc
);
criterion_main!(benches);
