//! Cross-crate end-to-end attack tests on a small victim.

use accel::fault::FaultModel;
use accel::schedule::AccelConfig;
use deepstrike::attack::{evaluate_attack, plan_attack, plan_blind, profile_victim};
use deepstrike::cosim::{CloudFpga, CosimConfig};
use deepstrike::signal_ram::AttackScheme;
use dnn::digits::{Dataset, RenderParams};
use dnn::fixed::QFormat;
use dnn::quant::QuantizedNetwork;
use dnn::zoo::mlp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use uart::link::Endpoint;
use uart::proto::{Command, Response};
use uart::transport::{TransportClient, TransportShell};

fn small_victim(seed: u64) -> QuantizedNetwork {
    let net = mlp(&mut StdRng::seed_from_u64(seed));
    QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap()
}

fn fast_platform(victim: &QuantizedNetwork, cells: usize) -> CloudFpga {
    let accel = AccelConfig { weight_bandwidth: 16, stall_cycles: 150 };
    let mut fpga = CloudFpga::new(victim, &accel, cells, CosimConfig { pdn_substeps: 4 }).unwrap();
    fpga.settle(50);
    fpga
}

#[test]
fn profile_plan_launch_score_round_trip() {
    let victim = small_victim(1);
    let mut fpga = fast_platform(&victim, 12_000);
    let profile = profile_victim(&mut fpga, &["fc1", "fc2", "fc3"], 2).unwrap();
    let scheme = plan_attack(&profile, "fc1", 200).unwrap();
    fpga.scheduler_mut().load_scheme(&scheme).unwrap();
    fpga.scheduler_mut().arm(true).unwrap();
    let run = fpga.run_inference();
    assert_eq!(run.strike_cycles.len(), 200);
    assert!(run.triggered_cycle.is_some());

    let mut rng = StdRng::seed_from_u64(5);
    let images = Dataset::generate(30, &RenderParams::default(), &mut rng);
    let outcome =
        evaluate_attack(&victim, fpga.schedule(), &run, images.iter(), FaultModel::paper(), 11);
    assert!(outcome.mean_faults_per_image > 0.0, "strikes must produce faults");
    assert!(outcome.attacked_accuracy <= outcome.clean_accuracy + 1e-9);
}

#[test]
fn repeated_inferences_rearm_and_strike_again() {
    let victim = small_victim(2);
    let mut fpga = fast_platform(&victim, 12_000);
    let profile = profile_victim(&mut fpga, &["fc1", "fc2", "fc3"], 1).unwrap();
    let scheme = plan_attack(&profile, "fc1", 50).unwrap();
    fpga.scheduler_mut().load_scheme(&scheme).unwrap();
    fpga.scheduler_mut().arm(true).unwrap();
    for round in 0..3 {
        let run = fpga.run_inference();
        assert_eq!(run.strike_cycles.len(), 50, "round {round} must fire all strikes");
    }
}

#[test]
fn blind_and_guided_differ_in_targeting_only() {
    let victim = small_victim(3);
    let mut fpga = fast_platform(&victim, 12_000);
    let profile = profile_victim(&mut fpga, &["fc1", "fc2", "fc3"], 1).unwrap();
    let strikes = 60u32;

    let guided_scheme = plan_attack(&profile, "fc2", strikes).unwrap();
    fpga.scheduler_mut().load_scheme(&guided_scheme).unwrap();
    fpga.scheduler_mut().arm(true).unwrap();
    let guided = fpga.run_inference();

    let blind_scheme = plan_blind(fpga.schedule(), strikes);
    fpga.scheduler_mut().load_scheme(&blind_scheme).unwrap();
    fpga.scheduler_mut().arm(true).unwrap();
    fpga.scheduler_mut().force_start();
    let blind = fpga.run_inference();

    let w = fpga.schedule().window("fc2").unwrap().clone();
    let hits = |cycles: &[u64]| {
        cycles.iter().filter(|&&c| w.contains(c)).count() as f64 / cycles.len().max(1) as f64
    };
    assert!(hits(&guided.strike_cycles) > 0.7, "guided targeting broken");
    assert!(hits(&blind.strike_cycles) < 0.3, "blind should scatter");
    assert_eq!(blind.strike_cycles.len(), strikes as usize);
}

#[test]
fn full_campaign_over_the_uart_channel() {
    let victim = small_victim(4);
    let mut fpga = fast_platform(&victim, 12_000);
    let (a, b) = Endpoint::pair();
    let mut client = TransportClient::new(a);
    let mut shell = TransportShell::new(b);

    // Victim runs once; adversary profiles from the serial stream alone.
    fpga.run_inference();
    let response = client
        .transact(&Command::ReadTrace { max_samples: 1 << 20 }, || {
            shell.poll(&mut fpga);
        })
        .unwrap();
    let Response::Trace(trace) = response else { panic!("expected trace") };
    assert!(trace.len() > 5_000, "trace too short: {}", trace.len());

    let segments = deepstrike::profile::segment_trace(&trace);
    assert_eq!(segments.len(), 3, "three dense phases visible over UART");

    // Upload a scheme targeting the first phase and arm, all remotely.
    let scheme = AttackScheme { delay_cycles: 5, strikes: 40, strike_cycles: 1, gap_cycles: 3 };
    client
        .upload_scheme(&scheme.to_bytes(), || {
            shell.poll(&mut fpga);
        })
        .unwrap();
    let r = client
        .transact(&Command::Arm { enabled: true }, || {
            shell.poll(&mut fpga);
        })
        .unwrap();
    assert_eq!(r, Response::Ack);

    let run = fpga.run_inference();
    assert_eq!(run.strike_cycles.len(), 40);

    let r = client
        .transact(&Command::Status, || {
            shell.poll(&mut fpga);
        })
        .unwrap();
    match r {
        Response::Status(st) => {
            assert!(st.armed && st.triggered);
            assert_eq!(st.strikes_fired, 40);
        }
        other => panic!("expected status, got {other:?}"),
    }
}

#[test]
fn overheating_guard_under_sustained_striking() {
    // A scheme that holds the striker on for a long stretch heats the die
    // (the paper warns long activations "may increase the temperature of
    // the FPGA chip or even crash it").
    let victim = small_victim(5);

    // Continuous burn across fc1 on a fresh platform…
    let mut fpga = fast_platform(&victim, 20_000);
    let profile = profile_victim(&mut fpga, &["fc1", "fc2", "fc3"], 1).unwrap();
    let (_, len) = profile.window("fc1").unwrap();
    let scheme =
        AttackScheme { delay_cycles: 0, strikes: 1, strike_cycles: len as u32, gap_cycles: 0 };
    fpga.scheduler_mut().load_scheme(&scheme).unwrap();
    fpga.scheduler_mut().arm(true).unwrap();
    let burn = fpga.run_inference();

    // …versus sparse pulses on another fresh platform.
    let mut fpga2 = fast_platform(&victim, 20_000);
    let profile2 = profile_victim(&mut fpga2, &["fc1", "fc2", "fc3"], 1).unwrap();
    let pulsed = plan_attack(&profile2, "fc1", 50).unwrap();
    fpga2.scheduler_mut().load_scheme(&pulsed).unwrap();
    fpga2.scheduler_mut().arm(true).unwrap();
    let gentle = fpga2.run_inference();

    assert!(burn.strike_cycles.len() > gentle.strike_cycles.len() * 5);
    assert!(
        burn.final_temp_c > gentle.final_temp_c,
        "continuous burn ({:.6} °C) must heat more than pulses ({:.6} °C)",
        burn.final_temp_c,
        gentle.final_temp_c
    );
}
