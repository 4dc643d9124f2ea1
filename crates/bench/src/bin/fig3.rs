//! Fig. 3 — input of the DNN start detector.
//!
//! The 128-bit TDC vector is tapped in five zones; the detector watches
//! the Hamming weight of those taps. Expected shape: HW sits at 4 during
//! stalls (purified — no wobble), falls when a layer starts executing,
//! and the detector latches at HW ≤ 3 right at the first layer's start.

use accel::schedule::AccelConfig;
use bench::{emit_series, trained_lenet};
use deepstrike::cosim::{CloudFpga, CosimConfig};
use deepstrike::detector::StartDetector;
use deepstrike::tdc::SAMPLES_PER_CYCLE;

fn main() {
    let (q, _) = trained_lenet();
    let mut fpga = CloudFpga::new(&q, &AccelConfig::default(), 8_000, CosimConfig::default())
        .expect("platform assembles");
    fpga.settle(200);
    let run = fpga.run_inference();

    // Re-derive the raw thermometer vectors from the counts (the encoder
    // is lossless for thermometer codes) and feed the detector.
    let mut det = StartDetector::new();
    let mut rows = Vec::new();
    let mut trigger_sample = None;
    for (i, &count) in run.tdc_trace.iter().enumerate() {
        let raw = if count == 0 { 0u128 } else { (1u128 << count.min(127)) - 1 };
        let hw = det.hamming_weight(raw);
        if det.push(raw) {
            trigger_sample = Some(i);
        }
        if i % 4 == 0 {
            rows.push(format!("{i},{count},{hw}"));
        }
    }
    emit_series(
        "Fig 3: DNN start detector input (5-zone Hamming weight)",
        "sample,tdc_readout,hamming_weight",
        rows,
    );

    let conv1 = fpga.schedule().window("conv1").expect("conv1 scheduled").clone();
    let trigger = trigger_sample.expect("detector must trigger");
    let trigger_cycle = (trigger / SAMPLES_PER_CYCLE) as u64;
    println!("# detector latched at sample {trigger} (cycle {trigger_cycle})");
    println!("# conv1 executes cycles {}..{}", conv1.start_cycle, conv1.end_cycle());

    assert!(
        trigger_cycle >= conv1.start_cycle && trigger_cycle < conv1.start_cycle + 200,
        "trigger must latch within 200 cycles of conv1's start"
    );
    println!("# shape-check: PASS (HW=4 at idle, trigger at conv1 start)");
}
