//! Fig. 1b — TDC readout trace across three DNN layer executions.
//!
//! The paper's preliminary study runs a max-pooling layer, a 3×3
//! convolution and a 1×1 convolution back to back while the TDC samples
//! the shared rail (`F_dr` = 200 MHz, `DL_LUT` = 4, `DL_CARRY` = 128,
//! θ → readout ≈ 90). Expected shape: stalls plateau near 90, every layer
//! depresses the readout, and convolution phases fluctuate far more than
//! pooling.

use accel::schedule::AccelConfig;
use bench::emit_series;
use deepstrike::cosim::{CloudFpga, CosimConfig};
use deepstrike::profile::segment_trace;
use dnn::fixed::QFormat;
use dnn::layers::{Conv2d, MaxPool2d, Tanh};
use dnn::network::Sequential;
use dnn::quant::QuantizedNetwork;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // The paper's three-layer probe victim: maxpool, conv 3×3, conv 1×1.
    let mut rng = StdRng::seed_from_u64(bench::HARNESS_SEED);
    let mut net = Sequential::new("fig1b_probe");
    net.push(Box::new(MaxPool2d::new("maxpool", 2)));
    net.push(Box::new(Conv2d::new("conv3x3", 2, 8, 3, &mut rng)));
    net.push(Box::new(Tanh::new("conv3x3_tanh")));
    net.push(Box::new(Conv2d::new("conv1x1", 8, 8, 1, &mut rng)));
    let q = QuantizedNetwork::from_sequential(&net, &[2, 24, 24], QFormat::paper())
        .expect("probe net quantises");

    let mut fpga = CloudFpga::new(&q, &AccelConfig::default(), 8_000, CosimConfig::default())
        .expect("platform assembles");
    fpga.settle(200);
    let run = fpga.run_inference();

    // Decimate for plotting (full rate is 2 samples / 10 ns cycle).
    emit_series(
        "Fig 1b: TDC readout while executing maxpool -> conv3x3 -> conv1x1",
        "sample,readout",
        run.tdc_trace.iter().step_by(8).enumerate().map(|(i, &v)| format!("{},{v}", i * 8)),
    );

    // Per-phase statistics (the claims the paper draws from this figure).
    let segments = segment_trace(&run.tdc_trace);
    let names = ["maxpool", "conv3x3", "conv1x1"];
    emit_series(
        "Fig 1b phases: per-layer readout statistics",
        "layer,start_sample,len_samples,mean,std,min",
        segments.iter().enumerate().map(|(i, s)| {
            format!(
                "{},{},{},{:.2},{:.2},{}",
                names.get(i).unwrap_or(&"?"),
                s.start,
                s.len,
                s.mean,
                s.variance.sqrt(),
                s.min
            )
        }),
    );

    // Machine-checkable shape criteria.
    assert_eq!(segments.len(), 3, "three layer executions must be visible");
    let idle_mean: f64 =
        run.tdc_trace[..segments[0].start].iter().map(|&v| f64::from(v)).sum::<f64>()
            / segments[0].start.max(1) as f64;
    assert!((86.0..92.0).contains(&idle_mean), "stall plateau {idle_mean} should sit near 90");
    assert!(
        segments[1].variance > 2.0 * segments[0].variance,
        "conv fluctuation must exceed pooling fluctuation"
    );
    println!("# shape-check: PASS (3 phases, stalls ≈ 90, conv variance > pool variance)");
}
