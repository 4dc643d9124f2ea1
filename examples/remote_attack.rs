//! The full remote loop over the UART channel (paper §IV): the adversary
//! only sees the serial port — reads the TDC stream, uploads an attack
//! scheme file, arms the scheduler, and polls status while the victim
//! classifies. Every exchange goes through the reliable transport
//! (sequence numbers, retransmission, CRC-verified chunked upload).
//!
//! ```sh
//! cargo run --release --example remote_attack
//! ```

use accel::schedule::AccelConfig;
use deepstrike::cosim::{CloudFpga, CosimConfig};
use deepstrike::profile::segment_trace;
use deepstrike::signal_ram::AttackScheme;
use dnn::fixed::QFormat;
use dnn::quant::QuantizedNetwork;
use dnn::zoo::mlp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use uart::link::Endpoint;
use uart::proto::{Command, Response};
use uart::transport::{TransportClient, TransportShell};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // FPGA side: victim + attacker fabric, exposed through a shell.
    let net = mlp(&mut StdRng::seed_from_u64(3));
    let victim = QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper())?;
    let mut fpga =
        CloudFpga::new(&victim, &AccelConfig::default(), 12_000, CosimConfig::default())?;
    fpga.settle(100);

    let (attacker_end, fpga_end) = Endpoint::pair();
    let mut client = TransportClient::new(attacker_end);
    let mut shell = TransportShell::new(fpga_end);

    // The victim runs an inference (the adversary has no visibility into
    // this beyond the PDN).
    fpga.run_inference();

    // Remote step 1: pull the TDC trace and profile it.
    let response = client.transact(&Command::ReadTrace { max_samples: 200_000 }, || {
        shell.poll(&mut fpga);
    })?;
    let Response::Trace(trace) = response else {
        return Err("expected a trace".into());
    };
    println!("pulled {} TDC samples over UART", trace.len());
    let segments = segment_trace(&trace);
    println!("observed {} execution phases", segments.len());
    let target = segments.first().ok_or("no execution phases visible")?;
    println!(
        "targeting the first phase: samples {}..{} (mean readout {:.1})",
        target.start,
        target.end(),
        target.mean
    );

    // Remote step 2: upload an attack scheme aimed at that phase.
    let scheme = AttackScheme {
        delay_cycles: 10,
        strikes: 200,
        strike_cycles: 1,
        gap_cycles: ((target.len as u32 / 2) / 200).max(1),
    };
    let scheme_bytes = scheme.to_bytes();
    client.upload_scheme(&scheme_bytes, || {
        shell.poll(&mut fpga);
    })?;
    println!("scheme upload: {} bytes committed", scheme_bytes.len());

    // Remote step 3: arm and let the next inference trip the detector.
    client.transact(&Command::Arm { enabled: true }, || {
        shell.poll(&mut fpga);
    })?;
    let run = fpga.run_inference();
    println!("victim ran; {} strikes landed", run.strike_cycles.len());

    // Remote step 4: read back status.
    let response = client.transact(&Command::Status, || {
        shell.poll(&mut fpga);
    })?;
    if let Response::Status(st) = response {
        println!(
            "status: armed={} triggered={} strikes_fired={} scheme_bits={}",
            st.armed, st.triggered, st.strikes_fired, st.scheme_bits
        );
    }
    Ok(())
}
