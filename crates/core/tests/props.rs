//! Property tests for the two attack-pipeline invariants the conformance
//! suite leans on (ISSUE satellites):
//!
//! 1. **Detector latch discipline** — under arbitrary idle dither the
//!    start detector never latches, and a DNN start latches it exactly
//!    once (one `push` returning `true`, one `DetectorLatch` trace event),
//!    repeatably across `reset`.
//! 2. **Striker DRC invariant** — the latch-based striker passes the
//!    provider's standard LUTLP-1 screening and deploys under randomized
//!    floorplan placements, while a ring-oscillator power-waster is
//!    rejected with a combinational-loop error no matter where it is
//!    placed.

use accel::schedule::AccelConfig;
use deepstrike::detector::{DetectorState, StartDetector, DEBOUNCE};
use deepstrike::hypervisor::{attacker_netlist, victim_netlist};
use deepstrike::striker::StrikerBank;
use deepstrike::tdc::TdcSensor;
use fpga_fabric::bitstream::{combine_with, TenantDesign};
use fpga_fabric::device::Device;
use fpga_fabric::drc::{self, DrcPolicy, Rule, Severity};
use fpga_fabric::floorplan::Region;
use fpga_fabric::netlist::Netlist;
use fpga_fabric::FabricError;
use proptest::prelude::*;

/// Thermometer-coded raw TDC readout of `count` ones (the detector taps
/// [12, 38, 64, 85, 110]; counts 86..=110 are idle HW = 4, counts
/// 40..=84 are droop HW <= 3).
fn thermometer(count: usize) -> u128 {
    if count >= 128 {
        u128::MAX
    } else {
        (1u128 << count) - 1
    }
}

fn detector() -> StartDetector {
    StartDetector::new()
}

/// Replays `counts` through a fresh push loop and returns how many pushes
/// reported a latch, alongside the recorded trace.
fn replay(det: &mut StartDetector, counts: &[usize]) -> (usize, trace::TraceLog) {
    trace::capture(4096, || counts.iter().filter(|&&c| det.push(thermometer(c))).count())
}

proptest! {
    /// Idle dither — any sequence of idle-band readouts — must never latch
    /// the detector, no matter how long or how wobbly.
    #[test]
    fn detector_never_latches_on_idle_dither(
        counts in prop::collection::vec(86usize..=110, 1..400),
    ) {
        let mut det = detector();
        let (latches, log) = replay(&mut det, &counts);
        prop_assert_eq!(latches, 0, "idle dither latched the detector");
        prop_assert!(!det.is_triggered());
        prop_assert!(det.state() != DetectorState::Triggered);
        prop_assert_eq!(
            log.count(|e| matches!(e, trace::Event::DetectorLatch { .. })),
            0,
            "idle dither emitted a latch event"
        );
        // Idle counts keep the tapped Hamming weight pinned at 4.
        for e in &log.events {
            if let trace::Event::DetectorHw { hw, .. } = e {
                prop_assert_eq!(*hw, 4, "idle dither left the HW=4 band");
            }
        }
    }

    /// A DNN start — a sustained droop after arbitrary idle dither —
    /// latches exactly once: one `push` returns `true`, one
    /// `DetectorLatch` event lands at the debounce point, and nothing in
    /// the tail re-reports. After `reset` the same stimulus latches again.
    #[test]
    fn detector_latches_exactly_once_per_dnn_start(
        idle in prop::collection::vec(86usize..=110, 0..100),
        droop in prop::collection::vec(40usize..=84, 3..60),
        tail in prop::collection::vec(40usize..=110, 0..100),
    ) {
        let counts: Vec<usize> =
            idle.iter().chain(&droop).chain(&tail).copied().collect();
        let debounce = DEBOUNCE as u64;
        let expected_at = idle.len() as u64 + debounce - 1;

        let mut det = detector();
        for run in 0..2 {
            let (latches, log) = replay(&mut det, &counts);
            prop_assert_eq!(latches, 1, "run {}: latch count off", run);
            prop_assert!(det.is_triggered());
            prop_assert_eq!(det.triggered_at(), Some(expected_at));
            let latch_samples: Vec<u64> = log
                .events
                .iter()
                .filter_map(|e| match e {
                    trace::Event::DetectorLatch { sample } => Some(*sample),
                    _ => None,
                })
                .collect();
            prop_assert_eq!(latch_samples, vec![expected_at]);
            det.reset();
            prop_assert!(!det.is_triggered(), "reset re-arms");
        }
    }
}

/// Randomized two-tenant floorplan on the PYNQ-Z1 die: victim on the
/// left, attacker on the right, widths jittered while keeping each region
/// over the BRAM/DSP columns its netlist needs (victim wants 32 weight
/// BRAMs, i.e. the columns at x = 30 and x = 61).
fn regions(device: &Device, victim_x1: u32, attacker_x0: u32) -> (Region, Region) {
    let rows = device.grid().rows();
    (
        Region::new(0, 0, victim_x1, rows - 1),
        Region::new(attacker_x0, 0, device.grid().cols() - 1, rows - 1),
    )
}

/// A classic ring-oscillator power-waster: `pairs` cross-coupled LUT
/// inverter pairs — every pair is a combinational loop (LUTLP-1).
fn ring_oscillator(pairs: usize) -> Netlist {
    let mut n = Netlist::new("ro_bank");
    for i in 0..pairs {
        let a = n.add_lut1_inverter(&format!("ro{i}_a"));
        let b = n.add_lut1_inverter(&format!("ro{i}_b"));
        n.connect(n.output_of(a), n.input_of(b, 0)).expect("forward edge");
        n.connect(n.output_of(b), n.input_of(a, 0)).expect("feedback edge");
    }
    n
}

fn tdc() -> TdcSensor {
    TdcSensor::calibrated().expect("calibration converges")
}

proptest! {
    /// The latch-based striker is DRC-clean under the provider's standard
    /// policy for any bank size and any placement: no LUTLP-1 hit, only
    /// the advisory latch-loop note, and the two-tenant image deploys.
    #[test]
    fn latch_striker_passes_standard_drc_under_any_placement(
        cells in 64usize..=2048,
        victim_x1 in 61u32..=70,
        attacker_x0 in 80u32..=120,
    ) {
        let striker = StrikerBank::new(cells).expect("bank builds");
        let netlist = attacker_netlist(&striker, &tdc());

        let report = drc::check(&netlist);
        prop_assert!(report.is_deployable(), "standard DRC must pass");
        prop_assert!(
            report.of_rule(Rule::CombinationalLoop).next().is_none(),
            "latch striker must not trip LUTLP-1"
        );
        let latch_note = report.of_rule(Rule::LatchInLoop).next();
        prop_assert!(latch_note.is_some(), "latch loops are visible to audit");
        prop_assert_eq!(latch_note.expect("checked").severity, Severity::Info);

        let device = Device::zynq_7020();
        let (victim_region, attacker_region) = regions(&device, victim_x1, attacker_x0);
        prop_assert!(!victim_region.overlaps(&attacker_region));
        let tenants = vec![
            TenantDesign::new(
                "victim",
                victim_netlist(32),
                victim_region,
            ),
            TenantDesign::new("attacker", netlist, attacker_region),
        ];
        let image = combine_with(&device, tenants.clone(), DrcPolicy::standard());
        prop_assert!(image.is_ok(), "standard deploy failed: {:?}", image.err());

        // The strict latch-loop scan (the paper's §III-C countermeasure)
        // rejects the very same placement.
        match combine_with(&device, tenants, DrcPolicy::strict()) {
            Err(FabricError::DrcRejected { errors }) => prop_assert!(errors > 0),
            other => prop_assert!(false, "strict policy accepted striker: {other:?}"),
        }
    }

    /// The ring-oscillator variant is rejected by the standard policy at
    /// every size and placement — LUTLP-1 is a hard error, so placement
    /// cannot rescue it.
    #[test]
    fn ring_oscillator_striker_is_rejected_under_any_placement(
        pairs in 1usize..6,
        victim_x1 in 61u32..=70,
        attacker_x0 in 80u32..=120,
    ) {
        let netlist = ring_oscillator(pairs);
        let report = drc::check(&netlist);
        prop_assert!(!report.is_deployable());
        let hit = report.of_rule(Rule::CombinationalLoop).next();
        prop_assert!(hit.is_some(), "LUTLP-1 must fire on a ring oscillator");
        prop_assert_eq!(hit.expect("checked").severity, Severity::Error);

        let device = Device::zynq_7020();
        let (victim_region, attacker_region) = regions(&device, victim_x1, attacker_x0);
        let tenants = vec![
            TenantDesign::new(
                "victim",
                victim_netlist(32),
                victim_region,
            ),
            TenantDesign::new("attacker", netlist, attacker_region),
        ];
        match combine_with(&device, tenants, DrcPolicy::standard()) {
            Err(FabricError::DrcRejected { errors }) => {
                prop_assert!(errors >= pairs, "each pair is its own loop");
            }
            other => prop_assert!(false, "ring oscillator deployed: {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot engine (DESIGN.md §11): forking the reference timeline and
// running only the suffix must equal naive full replay bit-for-bit, for
// arbitrary strike timing/intensity — and a panicking suffix must never
// corrupt the shared snapshot.

use deepstrike::cosim::{CloudFpga, CosimConfig};
use deepstrike::signal_ram::AttackScheme;
use deepstrike::snapshot::SnapshotEngine;
use dnn::fixed::QFormat;
use dnn::layers::{Dense, Tanh};
use dnn::network::Sequential;
use dnn::quant::QuantizedNetwork;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// One settled tiny-dense platform plus its captured fork ladder, shared
/// across all generated cases (capture is the expensive part; the engine
/// is `&self` and internally synchronised).
fn snapshot_rig() -> &'static (CloudFpga, SnapshotEngine) {
    static RIG: OnceLock<(CloudFpga, SnapshotEngine)> = OnceLock::new();
    RIG.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(2021);
        let mut net = Sequential::new("props_dense");
        net.push(Box::new(Dense::new("fc1", 36, 16, &mut rng)));
        net.push(Box::new(Tanh::new("fc1_tanh")));
        net.push(Box::new(Dense::new("fc2", 16, 10, &mut rng)));
        let q = QuantizedNetwork::from_sequential(&net, &[1, 6, 6], QFormat::paper())
            .expect("victim quantises");
        let accel = AccelConfig { weight_bandwidth: 16, stall_cycles: 150 };
        let mut fpga = CloudFpga::new(&q, &accel, 16_000, CosimConfig { pdn_substeps: 4 })
            .expect("platform assembles");
        fpga.settle(30);
        let engine = SnapshotEngine::capture(&fpga).expect("fork ladder captures");
        (fpga, engine)
    })
}

fn naive_guided(
    base: &CloudFpga,
    scheme: &AttackScheme,
) -> Option<deepstrike::cosim::InferenceRun> {
    let mut fpga = base.clone();
    fpga.scheduler_mut().load_scheme(scheme).ok()?;
    fpga.scheduler_mut().arm(true).ok()?;
    Some(fpga.run_inference())
}

proptest! {
    /// Any scheme the naive path accepts must produce a bit-identical run
    /// through the engine; any scheme the naive path rejects must be
    /// rejected by the engine too.
    #[test]
    fn snapshot_fork_then_suffix_equals_full_replay(
        delay in 0u32..600,
        strikes in 0u32..40,
        strike_cycles in 0u32..4,
        gap in 0u32..8,
    ) {
        let (base, engine) = snapshot_rig();
        let scheme = AttackScheme {
            delay_cycles: delay,
            strikes,
            strike_cycles,
            gap_cycles: gap,
        };
        match (naive_guided(base, &scheme), engine.run_guided(&scheme)) {
            (Some(naive), Ok(forked)) => {
                prop_assert_eq!(naive, forked, "scheme {:?} diverged", scheme);
            }
            (None, Err(_)) => {} // both paths reject, same semantics
            (naive, forked) => prop_assert!(
                false,
                "accept/reject mismatch for {:?}: naive {:?}, engine {:?}",
                scheme,
                naive.is_some(),
                forked.is_ok()
            ),
        }
    }
}

proptest! {
    /// A suffix run that panics at an arbitrary point must leave the
    /// shared snapshot intact: the same scheme still evaluates, still
    /// bit-identical to naive replay.
    #[test]
    fn suffix_panic_leaves_snapshot_reusable(
        delay in 0u32..300,
        strikes in 1u32..30,
        panic_after in 1u64..200,
    ) {
        let (base, engine) = snapshot_rig();
        let scheme = AttackScheme {
            delay_cycles: delay,
            strikes,
            strike_cycles: 1,
            gap_cycles: 2,
        };
        let trigger = engine.trigger_cycle().expect("reference pass triggers");
        let before = engine.run_guided(&scheme).expect("scheme runs");
        // The injected fault fires only if the suffix reaches that cycle
        // before rejoining; either way the snapshot must stay usable.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = engine.run_guided_with_fault(&scheme, trigger + panic_after);
        }));
        let after = engine.run_guided(&scheme).expect("engine survives the panic");
        prop_assert_eq!(&before, &after, "panicking suffix corrupted the snapshot");
        let naive = naive_guided(base, &scheme).expect("naive accepts");
        prop_assert_eq!(naive, after);
    }
}
