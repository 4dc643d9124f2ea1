//! Side-channel profiling demo (the paper's Fig. 1b workflow): watch the
//! TDC readout while LeNet-5 executes, segment the trace into layers, and
//! build the attacker's signature library.
//!
//! ```sh
//! cargo run --release --example profile_layers
//! ```

use accel::schedule::AccelConfig;
use deepstrike::cosim::{CloudFpga, CosimConfig};
use deepstrike::profile::{segment_trace, SignatureLibrary};
use dnn::fixed::QFormat;
use dnn::lenet::{lenet5, STAGE_NAMES};
use dnn::quant::QuantizedNetwork;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The power profile depends on the schedule, not the weights, so an
    // untrained LeNet serves for sensing demos.
    let net = lenet5(&mut StdRng::seed_from_u64(0));
    let victim = QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper())?;
    let mut fpga = CloudFpga::new(&victim, &AccelConfig::default(), 8_000, CosimConfig::default())?;
    fpga.settle(100);

    let run = fpga.run_inference();
    println!("captured {} TDC samples over one inference", run.tdc_trace.len());

    // ASCII strip chart, decimated.
    println!("\nTDC readout (one row per 640 ns):");
    for chunk in run.tdc_trace.chunks(128) {
        let mean = chunk.iter().map(|&v| u32::from(v)).sum::<u32>() / chunk.len() as u32;
        let bar = "#".repeat((mean / 2) as usize);
        println!("{mean:3} |{bar}");
    }

    // Segment and learn signatures.
    let segments = segment_trace(&run.tdc_trace);
    let mut library = SignatureLibrary::new();
    println!("\nsegments:");
    for (name, seg) in STAGE_NAMES.iter().zip(&segments) {
        library.learn(name, seg);
        println!(
            "  {name:6} samples {:6}..{:6}  mean {:5.1}  std {:4.1}  min {}",
            seg.start,
            seg.end(),
            seg.mean,
            seg.variance.sqrt(),
            seg.min
        );
    }

    // Classify a repeat run against the library.
    let rerun = fpga.run_inference();
    let rerun_segments = segment_trace(&rerun.tdc_trace);
    println!("\nre-run classification:");
    for seg in &rerun_segments {
        let (name, dist) = library.classify(seg)?;
        println!("  segment at {:6} -> {name} (distance {dist:.3})", seg.start);
    }
    Ok(())
}
