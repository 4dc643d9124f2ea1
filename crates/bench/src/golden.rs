//! Golden-trace conformance scenarios (DESIGN.md §8).
//!
//! Each scenario is a seeded, miniaturised slice of one paper experiment,
//! run under a [`trace`] recording session. The rendered JSONL is the
//! conformance oracle: `tests/golden_trace.rs` replays every scenario at
//! `DEEPSTRIKE_THREADS` 1, 2 and 8 and diffs the output line-by-line
//! against `tests/golden/<name>.jsonl`, so a regression in *any* pipeline
//! stage — TDC readout, detector latch point, scheme compilation, strike
//! timing, PDN glitch depth, fault materialisation — shows up as a
//! specific event diff instead of a shifted figure endpoint.
//!
//! The victims here are deliberately tiny (a few hundred victim cycles):
//! golden files stay reviewable and the suite runs in seconds, while
//! every emission point in the chain is still exercised. The `trace_dump`
//! binary prints the same scenarios for ad-hoc inspection.

use accel::fault::FaultModel;
use accel::schedule::AccelConfig;
use deepstrike::attack::{evaluate_attack, plan_attack, profile_victim};
use deepstrike::cosim::{CloudFpga, CosimConfig};
use deepstrike::signal_ram::AttackScheme;
use dnn::fixed::QFormat;
use dnn::layers::{Conv2d, Dense, MaxPool2d, Tanh};
use dnn::network::Sequential;
use dnn::quant::QuantizedNetwork;
use dnn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed for every golden scenario (weights, planning, evaluation).
pub const GOLDEN_SEED: u64 = 0x00D5_2021;

/// Recording-session ring capacity. Scenarios are sized to fit well
/// within it; the conformance test asserts `dropped == 0`.
pub const SESSION_CAPACITY: usize = 1 << 16;

/// Scenario names, in the order the conformance suite replays them.
pub const SCENARIOS: &[&str] = &["fig1b_slice", "fig3_slice", "fig5b_slice", "remote_slice"];

/// Accelerator settings every golden scenario (and the chaos suite) uses.
pub fn accel_config() -> AccelConfig {
    AccelConfig { weight_bandwidth: 16, stall_cycles: 150 }
}

/// Co-simulation settings every golden scenario (and the chaos suite)
/// uses.
pub fn cosim_config() -> CosimConfig {
    CosimConfig { pdn_substeps: 4 }
}

/// The fig3/fig5b/remote victim: two dense layers on a 6×6 input, small
/// enough that one inference is a few hundred cycles yet each layer's
/// execution segment clears the profiler's minimum length. Public so the
/// chaos suite runs its local-vs-remote comparison on the same victim.
pub fn tiny_dense_victim() -> QuantizedNetwork {
    let mut rng = StdRng::seed_from_u64(GOLDEN_SEED);
    let mut net = Sequential::new("golden_dense");
    net.push(Box::new(Dense::new("fc1", 36, 16, &mut rng)));
    net.push(Box::new(Tanh::new("fc1_tanh")));
    net.push(Box::new(Dense::new("fc2", 16, 10, &mut rng)));
    QuantizedNetwork::from_sequential(&net, &[1, 6, 6], QFormat::paper()).expect("victim quantises")
}

/// Deterministic 6×6 evaluation images (no RNG: values are a fixed
/// arithmetic pattern, labels cycle through the classes).
pub fn golden_images(n: usize) -> Vec<(Tensor, usize)> {
    (0..n)
        .map(|i| {
            let data: Vec<f32> = (0..36).map(|j| ((i * 31 + j * 7) % 17) as f32 / 16.0).collect();
            (Tensor::from_vec(data, &[1, 6, 6]), i % 10)
        })
        .collect()
}

/// Runs one named scenario under a fresh recording session.
///
/// # Panics
///
/// Panics on an unknown scenario name.
pub fn run_scenario(name: &str) -> trace::TraceLog {
    match name {
        "fig1b_slice" => fig1b_slice(),
        "fig3_slice" => fig3_slice(),
        "fig5b_slice" => fig5b_slice(),
        "remote_slice" => remote_slice(),
        other => panic!("unknown golden scenario {other:?} (see golden::SCENARIOS)"),
    }
}

/// Fig. 1b slice: an unarmed inference of a maxpool → conv3×3 → conv1×1
/// probe — the TDC readout stream as the layers modulate the rail.
fn fig1b_slice() -> trace::TraceLog {
    let mut rng = StdRng::seed_from_u64(GOLDEN_SEED);
    let mut net = Sequential::new("golden_fig1b");
    net.push(Box::new(MaxPool2d::new("maxpool", 2)));
    net.push(Box::new(Conv2d::new("conv3x3", 2, 4, 3, &mut rng)));
    net.push(Box::new(Tanh::new("conv3x3_tanh")));
    net.push(Box::new(Conv2d::new("conv1x1", 4, 4, 1, &mut rng)));
    let q = QuantizedNetwork::from_sequential(&net, &[2, 12, 12], QFormat::paper())
        .expect("probe quantises");
    let mut fpga =
        CloudFpga::new(&q, &accel_config(), 8_000, cosim_config()).expect("platform assembles");
    fpga.settle(30);
    trace::capture(SESSION_CAPACITY, || {
        let _ = fpga.run_inference();
    })
    .1
}

/// Fig. 3 slice: an armed guided strike — detector Hamming-weight
/// transitions, the latch, signal-RAM playback, striker edges, strike
/// issuance and the PDN glitch windows they produce.
fn fig3_slice() -> trace::TraceLog {
    let q = tiny_dense_victim();
    let mut fpga =
        CloudFpga::new(&q, &accel_config(), 16_000, cosim_config()).expect("platform assembles");
    fpga.settle(30);
    trace::capture(SESSION_CAPACITY, || {
        let scheme = AttackScheme { delay_cycles: 20, strikes: 5, strike_cycles: 1, gap_cycles: 7 };
        fpga.scheduler_mut().load_scheme(&scheme).expect("scheme fits");
        fpga.scheduler_mut().arm(true).expect("arms");
        let _ = fpga.run_inference();
    })
    .1
}

/// Fig. 5b slice: the full campaign — profile, plan, strike, evaluate —
/// including the parallel per-image scoring (ImageScored / MacFault /
/// Inference events merged in index order by `par`).
fn fig5b_slice() -> trace::TraceLog {
    let q = tiny_dense_victim();
    let mut fpga =
        CloudFpga::new(&q, &accel_config(), 16_000, cosim_config()).expect("platform assembles");
    fpga.settle(30);
    trace::capture(SESSION_CAPACITY, || {
        let profile = profile_victim(&mut fpga, &["fc1", "fc2"], 1).expect("profiles");
        let scheme = plan_attack(&profile, "fc1", 6).expect("plan fits");
        fpga.scheduler_mut().load_scheme(&scheme).expect("loads");
        fpga.scheduler_mut().arm(true).expect("arms");
        let run = fpga.run_inference();
        let images = golden_images(6);
        let _ = evaluate_attack(
            &q,
            fpga.schedule(),
            &run,
            images.iter().map(|(t, y)| (t, *y)),
            FaultModel::paper(),
            GOLDEN_SEED,
        );
    })
    .1
}

/// Remote slice: the fig5b campaign driven end-to-end over a lossy UART
/// link — reliable-transport retries, a forced disconnect the backoff
/// rides out, the streamed profile, the chunked scheme upload and the
/// per-phase checkpoints, all in one trace.
fn remote_slice() -> trace::TraceLog {
    use deepstrike::remote::{RemoteCampaign, RemoteConfig, SimHost};
    use deepstrike::DeepStrikeError;
    use uart::link::{Endpoint, FaultConfig};
    use uart::transport::{TransportClient, TransportConfig, TransportShell};

    let q = tiny_dense_victim();
    let mut fpga =
        CloudFpga::new(&q, &accel_config(), 16_000, cosim_config()).expect("platform assembles");
    fpga.settle(30);
    // Modest bursty loss plus one disconnect window early in the profile
    // stream; the transport's retry span (30 + 60 + 120 + … pumps) rides
    // out the 25-tick outage, so the campaign completes without degrading.
    let fault = FaultConfig {
        loss: 0.02,
        corrupt: 0.02,
        burst_len: 12.0,
        max_jitter: 1,
        disconnects: vec![(20, 25)],
    };
    let (a, b) = Endpoint::faulty_pair(fault, GOLDEN_SEED);
    let mut link = TransportClient::with_config(
        a,
        TransportConfig { pump_budget: 30, max_retries: 10, backoff_cap: 240, chunk_len: 12 },
    );
    let mut host = SimHost::new(
        fpga,
        TransportShell::new(b),
        q.clone(),
        golden_images(4),
        FaultModel::paper(),
    );
    let mut config = RemoteConfig::new(&["fc1", "fc2"], "fc1", 6);
    config.profile_runs = 1;
    config.read_chunk = 32;
    config.eval_seed = GOLDEN_SEED;
    let mut campaign = RemoteCampaign::new(config);
    trace::capture(SESSION_CAPACITY, || {
        let mut resumes = 0;
        loop {
            match campaign.run(&mut link, &mut host) {
                Ok(_) => break,
                Err(DeepStrikeError::Interrupted { .. }) => {
                    resumes += 1;
                    assert!(resumes < 50, "remote slice never converged");
                }
                Err(e) => panic!("remote slice failed: {e}"),
            }
        }
    })
    .1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_produces_a_multi_stage_trace() {
        for &name in SCENARIOS {
            let log = run_scenario(name);
            assert_eq!(log.dropped, 0, "{name}: ring overflow");
            assert!(
                log.count(|e| matches!(e, trace::Event::TdcSample { .. })) > 100,
                "{name}: TDC stream missing"
            );
            // Unarmed runs legitimately record only the TDC stream (the
            // scheduler never consults the detector); armed ones span the
            // whole chain.
            let stages: std::collections::BTreeSet<_> =
                log.events.iter().map(|e| e.stage()).collect();
            if name != "fig1b_slice" {
                assert!(stages.len() >= 4, "{name}: only {stages:?}");
            }
        }
    }

    #[test]
    fn armed_scenarios_record_the_full_chain() {
        let log = run_scenario("fig3_slice");
        assert_eq!(log.count(|e| matches!(e, trace::Event::DetectorLatch { .. })), 1);
        assert_eq!(log.count(|e| matches!(e, trace::Event::StrikeIssued { .. })), 5);
        assert_eq!(log.count(|e| matches!(e, trace::Event::StrikerEdge { .. })), 5);
        assert!(log.count(|e| matches!(e, trace::Event::PdnGlitch { .. })) >= 1);
        let log = run_scenario("fig5b_slice");
        assert_eq!(log.count(|e| matches!(e, trace::Event::AttackPlanned { .. })), 1);
        assert_eq!(log.count(|e| matches!(e, trace::Event::ImageScored { .. })), 6);
        assert!(log.count(|e| matches!(e, trace::Event::MacFault { .. })) > 0);
    }

    #[test]
    fn remote_slice_records_the_transport_and_checkpoint_chain() {
        let log = run_scenario("remote_slice");
        assert_eq!(log.dropped, 0, "ring overflow");
        // One checkpoint per campaign phase.
        assert_eq!(log.count(|e| matches!(e, trace::Event::CheckpointSaved { .. })), 6);
        // The lossy link and forced disconnect must cost retransmissions,
        // but never the campaign's guidance level.
        assert!(log.count(|e| matches!(e, trace::Event::LinkRetry { .. })) >= 1);
        assert_eq!(log.count(|e| matches!(e, trace::Event::GuidanceDegraded { .. })), 0);
        // The 16-byte scheme uploads in two 12-byte chunks.
        assert_eq!(log.count(|e| matches!(e, trace::Event::UploadProgress { .. })), 2);
        assert_eq!(log.count(|e| matches!(e, trace::Event::AttackPlanned { .. })), 1);
    }
}
