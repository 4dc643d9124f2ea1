//! §V future work — "more than three tenants on the FPGA".
//!
//! Adds a third, benign bystander tenant whose bursty load shares the PDN
//! with victim and attacker, and compares: does the attack still trigger
//! and fault, and how much noisier is the TDC profile?

use accel::fault::FaultModel;
use accel::schedule::AccelConfig;
use bench::{emit_series, test_set, trained_lenet, HARNESS_SEED};
use deepstrike::attack::{evaluate_attack, plan_attack, profile_from_traces};
use deepstrike::cosim::{Bystander, CloudFpga, CosimConfig};
use deepstrike::snapshot::SnapshotEngine;
use dnn::lenet::STAGE_NAMES;

const STRIKER_CELLS: usize = 8_000;
const EVAL_IMAGES: usize = 200;

fn run_scenario(bystander: Option<Bystander>) -> (f64, f64, usize) {
    let (q, _) = trained_lenet();
    let test = test_set();
    let mut fpga =
        CloudFpga::new(&q, &AccelConfig::default(), STRIKER_CELLS, CosimConfig::default())
            .expect("platform assembles");
    if let Some(b) = bystander {
        fpga.add_bystander(b).expect("bystander draw and placement are valid");
    }
    fpga.settle(200);
    // Two profiling traces: one naive run plus the engine's reference
    // pass (bitwise identical to an unarmed run, DESIGN.md §11); the
    // strike run forks the reference timeline.
    let first_trace = fpga.run_inference().tdc_trace;
    let engine = SnapshotEngine::capture(&fpga).expect("reference pass captures");
    let traces = [first_trace, engine.reference().tdc_trace.clone()];
    let profile = profile_from_traces(&traces, &STAGE_NAMES).expect("profiling still succeeds");
    let scheme = plan_attack(&profile, "conv1", 1_000).expect("plan compiles");
    let run = engine.run_guided(&scheme).expect("scheme fits");
    let outcome = evaluate_attack(
        &q,
        fpga.schedule(),
        &run,
        test.iter().take(EVAL_IMAGES),
        FaultModel::paper(),
        HARNESS_SEED,
    );
    (outcome.clean_accuracy, outcome.attacked_accuracy, run.strike_cycles.len())
}

fn main() {
    // Warm the trained-LeNet cache once so the parallel scenarios below
    // both load the same cached victim instead of racing to train it.
    let _ = trained_lenet();
    // Checkpointed through the crash-safe supervisor when
    // `DEEPSTRIKE_CHECKPOINT_DIR` is set (DESIGN.md §10).
    let scenarios = [None, Some(Bystander { pos: (0.5, 0.15), amps: 0.1, period_cycles: 32 })];
    let results = bench::supervisor::supervised_sweep("multi_tenant", &scenarios, |s| {
        let (clean, attacked, strikes) = run_scenario(*s);
        (clean, attacked, strikes as u64)
    });
    let scenario = |i: usize| -> (f64, f64, u64) {
        results[i].expect("tenant scenario panicked; see supervisor report")
    };
    let (two, three) = (scenario(0), scenario(1));
    emit_series(
        "Multi-tenant extension: attack effectiveness with 2 vs 3 tenants",
        "tenants,clean_pct,attacked_pct,drop_pts,strikes_fired",
        [
            format!(
                "2,{:.2},{:.2},{:.2},{}",
                two.0 * 100.0,
                two.1 * 100.0,
                (two.0 - two.1) * 100.0,
                two.2
            ),
            format!(
                "3,{:.2},{:.2},{:.2},{}",
                three.0 * 100.0,
                three.1 * 100.0,
                (three.0 - three.1) * 100.0,
                three.2
            ),
        ],
    );
    assert!(three.2 > 0, "attack must still fire with a third tenant");
    assert!(
        (three.0 - three.1) * 100.0 >= 1.0,
        "attack must still damage accuracy with a third tenant"
    );
    println!("# shape-check: PASS (guidance survives a third tenant's noise)");
}
