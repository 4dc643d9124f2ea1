//! Snapshot-vs-replay oracle (DESIGN.md §11).
//!
//! Every guided candidate evaluated through the fork-point snapshot
//! engine must be **bit-identical** to loading the same scheme on a clone
//! of the base platform and replaying the whole inference — recording,
//! outcome, everything — and must stay so when the forked suffix runs fan
//! out on the worker pool.
//!
//! Three victims are checked. The tiny dense victim's schedule ends inside
//! the first fork interval, so its candidates all fork at cycle 0; the
//! `dnn::zoo::mlp` victim runs long enough that candidates striking its
//! later layers fork from deep snapshots; and the same mlp shares the die
//! with a square-wave bystander tenant, so forks and rejoins must also
//! carry a third tenant's load.
//!
//! `DEEPSTRIKE_THREADS` is process-global, so both thread counts and all
//! victims live in this single test (see `tests/remote_chaos.rs` for the
//! same pattern).

use accel::fault::FaultModel;
use bench::golden::{accel_config, cosim_config, golden_images, tiny_dense_victim, GOLDEN_SEED};
use deepstrike::attack::{
    clean_predictions, evaluate_attack, evaluate_attack_cached, plan_attack, profile_from_traces,
};
use deepstrike::cosim::{Bystander, CloudFpga, InferenceRun};
use deepstrike::signal_ram::AttackScheme;
use deepstrike::snapshot::SnapshotEngine;
use dnn::fixed::QFormat;
use dnn::quant::QuantizedNetwork;
use dnn::tensor::Tensor;
use dnn::zoo::mlp;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A victim under test: the network, its settled base platform, scoring
/// images, its layers in execution order, and the planner's targets as
/// `(layer, strike budgets)`.
struct Victim {
    q: QuantizedNetwork,
    base: CloudFpga,
    images: Vec<(Tensor, usize)>,
    layers: &'static [&'static str],
    targets: &'static [(&'static str, &'static [u32])],
    /// Whether some candidate must fork from a snapshot past cycle 0.
    forks_deep: bool,
}

fn tiny_dense() -> Victim {
    let q = tiny_dense_victim();
    let mut base =
        CloudFpga::new(&q, &accel_config(), 16_000, cosim_config()).expect("platform assembles");
    base.settle(30);
    Victim {
        q,
        base,
        images: golden_images(6),
        layers: &["fc1", "fc2"],
        targets: &[("fc1", &[1, 2, 3, 4, 5, 6, 7, 8])],
        forks_deep: false,
    }
}

/// The `dnn::zoo::mlp` victim, built as in the `snapshot` unit tests,
/// optionally sharing the die with a bystander tenant.
fn deep_mlp(bystander: Option<Bystander>) -> Victim {
    let net = mlp(&mut StdRng::seed_from_u64(0));
    let q = QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper())
        .expect("mlp quantises");
    let mut base =
        CloudFpga::new(&q, &accel_config(), 12_000, cosim_config()).expect("platform assembles");
    if let Some(b) = bystander {
        base.add_bystander(b).expect("bystander draw and placement are valid");
    }
    base.settle(50);
    let images = (0..4)
        .map(|i| {
            let data: Vec<f32> = (0..784).map(|j| ((i * 31 + j * 7) % 17) as f32 / 16.0).collect();
            (Tensor::from_vec(data, &[1, 28, 28]), i % 10)
        })
        .collect();
    Victim {
        q,
        base,
        images,
        layers: &["fc1", "fc2", "fc3"],
        targets: &[("fc2", &[1, 4, 16]), ("fc3", &[1, 4])],
        forks_deep: true,
    }
}

/// Cycle of the scheme's first strike in `engine`'s reference pass.
fn first_strike(engine: &SnapshotEngine, scheme: &AttackScheme) -> Option<u64> {
    let first_one = scheme.to_bits().iter().position(|&b| b)?;
    Some(engine.trigger_cycle()? + first_one as u64)
}

/// Checks every candidate's forked run and scored outcome against naive
/// replay; returns the engine, the candidates and their forked runs.
fn check_against_naive(
    v: &Victim,
    threads: &str,
) -> (SnapshotEngine, Vec<AttackScheme>, Vec<InferenceRun>) {
    let engine = SnapshotEngine::capture(&v.base).expect("capture");
    assert!(engine.trigger_cycle().is_some(), "reference pass must trigger");

    // Planner-produced candidates across strike budgets, plus raw
    // schemes covering the edges (immediate, late, strike-free).
    let profile =
        profile_from_traces(&[engine.reference().tdc_trace.clone()], v.layers).expect("profile");
    let mut schemes: Vec<AttackScheme> = v
        .targets
        .iter()
        .flat_map(|&(layer, budgets)| {
            budgets
                .iter()
                .map(|&s| plan_attack(&profile, layer, s).expect("plan"))
                .collect::<Vec<_>>()
        })
        .collect();
    schemes.extend([
        AttackScheme { delay_cycles: 0, strikes: 3, strike_cycles: 2, gap_cycles: 0 },
        AttackScheme { delay_cycles: 200, strikes: 1, strike_cycles: 1, gap_cycles: 0 },
        AttackScheme { delay_cycles: 50, strikes: 0, strike_cycles: 0, gap_cycles: 0 },
    ]);

    // Forked suffix runs fan out on the worker pool; the naive full
    // replays below are the oracle.
    let forked = par::map_items(&schemes, |scheme| engine.run_guided(scheme).expect("guided run"));
    let samples: Vec<_> = v.images.iter().map(|(t, y)| (t, *y)).collect();
    let clean = clean_predictions(&v.q, samples.iter().copied());
    for (scheme, forked_run) in schemes.iter().zip(&forked) {
        let naive_run = naive_replay(&v.base, scheme);
        assert_eq!(&naive_run, forked_run, "scheme {scheme:?} diverged at {threads} threads");

        let naive_outcome = evaluate_attack(
            &v.q,
            v.base.schedule(),
            &naive_run,
            samples.iter().copied(),
            FaultModel::paper(),
            GOLDEN_SEED,
        );
        let forked_outcome = evaluate_attack_cached(
            &v.q,
            v.base.schedule(),
            forked_run,
            samples.iter().copied(),
            FaultModel::paper(),
            GOLDEN_SEED,
            &clean,
        );
        assert_eq!(
            naive_outcome, forked_outcome,
            "outcome diverged for {scheme:?} at {threads} threads"
        );
    }
    let stats = engine.stats();
    assert!(stats.forked_runs >= 1, "at least one candidate must fork: {stats:?}");
    assert!(stats.rejoined >= 1, "at least one fork must rejoin the reference: {stats:?}");
    (engine, schemes, forked)
}

/// Runs a candidate whose first strike is past cycle 1,024 (two fork
/// intervals) with the suffix fault hook set at cycle 0. The hook panics
/// only if the suffix starts at cycle 0, so an `Ok` run proves the
/// candidate forked from a deep snapshot — and it must still equal
/// naive replay.
fn assert_forks_deep(v: &Victim, engine: &SnapshotEngine, schemes: &[AttackScheme]) {
    let deep = schemes
        .iter()
        .find(|s| first_strike(engine, s).is_some_and(|cycle| cycle > 1_024))
        .expect("a candidate first strikes past cycle 1,024");
    let run = engine.run_guided_with_fault(deep, 0).expect("guided run");
    assert_eq!(run, naive_replay(&v.base, deep), "deep fork of {deep:?} diverged");
}

fn naive_replay(base: &CloudFpga, scheme: &AttackScheme) -> InferenceRun {
    let mut naive = base.clone();
    naive.scheduler_mut().load_scheme(scheme).expect("scheme fits");
    naive.scheduler_mut().arm(true).expect("scheme loaded");
    naive.run_inference()
}

#[test]
fn snapshot_forked_runs_equal_naive_replay_at_one_and_eight_threads() {
    let bystander = Bystander { pos: (0.5, 0.15), amps: 0.1, period_cycles: 32 };
    let victims = [tiny_dense(), deep_mlp(None), deep_mlp(Some(bystander))];
    let mut per_thread: Vec<Vec<Vec<InferenceRun>>> = Vec::new();
    for threads in ["1", "8"] {
        std::env::set_var(par::THREADS_ENV, threads);
        let mut runs = Vec::new();
        for v in &victims {
            let (engine, schemes, forked) = check_against_naive(v, threads);
            if v.forks_deep {
                assert_forks_deep(v, &engine, &schemes);
            }
            runs.push(forked);
        }
        per_thread.push(runs);
    }
    std::env::remove_var(par::THREADS_ENV);

    let (first, rest) = per_thread.split_first().expect("two thread counts ran");
    assert_ne!(first[1], first[2], "the bystander's load must reach the mlp's recordings");
    for other in rest {
        assert_eq!(first, other, "forked runs must not depend on DEEPSTRIKE_THREADS");
    }
}
