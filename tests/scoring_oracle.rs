//! Scoring oracle for the fault-event scorer (DESIGN.md §4).
//!
//! `evaluate_attack` prices each recorded run once ([`StrikeTables`]), lets
//! each image's [`StrikeHook`] list its fault events from keyed draws, and
//! runs every stage through the clean kernels plus one accumulator
//! correction per event. Two checks keep it honest:
//!
//! * **Bit for bit.** The per-op reference executor
//!   (`crates/accel/tests/support/per_op.rs`) applies the same events op
//!   by op through a ring of per-PE P registers. On a quantised LeNet-5
//!   platform — so the conv path is covered, not only the dense victims
//!   the golden traces pin — a guided conv1 run, a guided conv2 run, a
//!   blind run and a strike-free run must score alike both ways: per-image
//!   logits and tallies, and the `AttackOutcome` of `evaluate_attack` and
//!   `evaluate_attack_cached` at `DEEPSTRIKE_THREADS` 1, 2 and 8.
//! * **In distribution.** The keyed stream must fault like the sequential
//!   stream it replaced, which drew `sample_pipelined_scaled` for every op
//!   in op order. Per-stage tallies and accuracy are compared over 20
//!   seeds on a guided conv run and a blind run, within bounds recorded in
//!   CHANGES.md before the test first ran.

use accel::executor::{infer_with_faults, FaultEvent, FaultHook, StageOps};
use accel::fault::{FaultModel, MacFault};
use accel::schedule::{Schedule, StageKind};
use bench::golden::{accel_config, cosim_config};
use deepstrike::attack::{
    clean_predictions, evaluate_attack, evaluate_attack_cached, plan_attack, plan_blind,
    profile_from_traces, AttackOutcome, StrikeHook, StrikeTables,
};
use deepstrike::cosim::{CloudFpga, InferenceRun};
use deepstrike::signal_ram::AttackScheme;
use dnn::digits::{Dataset, RenderParams};
use dnn::fixed::QFormat;
use dnn::lenet::{lenet5, STAGE_NAMES};
use dnn::quant::{argmax, QuantizedNetwork};
use dnn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "../crates/accel/tests/support/per_op.rs"]
mod per_op;

const SEED: u64 = 41;

/// Scores `images` through the executor and the per-op reference and
/// checks they agree, then checks `evaluate_attack` at 1, 2 and 8 threads
/// against the outcome the reference implies; returns that outcome.
fn check_run(
    label: &str,
    q: &QuantizedNetwork,
    schedule: &Schedule,
    run: &InferenceRun,
    images: &[(Tensor, usize)],
) -> AttackOutcome {
    let model = FaultModel::paper();
    let tables = StrikeTables::new(schedule, run, model);
    let mut reference = Vec::new();
    for (i, (x, _)) in images.iter().enumerate() {
        let key = SEED.wrapping_add(i as u64);
        let expected = per_op::infer_per_op(q, x, &mut StrikeHook::new(&tables, key));
        let fast = infer_with_faults(q, x, &mut StrikeHook::new(&tables, key));
        assert_eq!(fast, expected, "{label}: image {i} diverges from the per-op reference");
        reference.push(expected);
    }

    let n = images.len() as f64;
    let clean_ok = images.iter().filter(|(x, y)| q.predict(x) == *y).count();
    let attacked_ok =
        reference.iter().zip(images).filter(|((logits, _), (_, y))| argmax(logits) == *y);
    let duplicate: u64 = reference.iter().map(|(_, t)| t.duplicate).sum();
    let random: u64 = reference.iter().map(|(_, t)| t.random).sum();
    let expected = AttackOutcome {
        clean_accuracy: clean_ok as f64 / n,
        attacked_accuracy: attacked_ok.count() as f64 / n,
        strikes_fired: run.strike_cycles.len(),
        mean_faults_per_image: (duplicate + random) as f64 / n,
        mean_duplicate_per_image: duplicate as f64 / n,
        mean_random_per_image: random as f64 / n,
    };
    let samples = || images.iter().map(|(x, y)| (x, *y));
    let clean = clean_predictions(q, samples());
    for threads in ["1", "2", "8"] {
        std::env::set_var(par::THREADS_ENV, threads);
        let outcome = evaluate_attack(q, schedule, run, samples(), model, SEED);
        assert_eq!(outcome, expected, "{label}: evaluate_attack at {threads} threads");
        let cached = evaluate_attack_cached(q, schedule, run, samples(), model, SEED, &clean);
        assert_eq!(cached, expected, "{label}: evaluate_attack_cached at {threads} threads");
    }
    println!("{label}: {expected:?}");
    expected
}

fn armed_run(base: &CloudFpga, scheme: &AttackScheme, blind: bool) -> InferenceRun {
    let mut fpga = base.clone();
    fpga.scheduler_mut().load_scheme(scheme).expect("scheme fits");
    fpga.scheduler_mut().arm(true).expect("scheme loaded");
    if blind {
        fpga.scheduler_mut().force_start();
    }
    fpga.run_inference()
}

/// The oracle's victim: an untrained quantised LeNet-5 on a settled
/// 8,000-cell platform, its strike-free run, the guided conv1 and conv2
/// runs (half of each window in strikes) and the blind 2,000-strike run.
struct Platform {
    q: QuantizedNetwork,
    schedule: Schedule,
    strike_free: InferenceRun,
    conv1: InferenceRun,
    conv2: InferenceRun,
    blind: InferenceRun,
}

fn platform() -> Platform {
    let net = lenet5(&mut StdRng::seed_from_u64(5));
    let q = QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper())
        .expect("lenet5 quantises");
    let mut base =
        CloudFpga::new(&q, &accel_config(), 8_000, cosim_config()).expect("platform assembles");
    base.settle(50);
    let strike_free = base.clone().run_inference();
    let profile = profile_from_traces(std::slice::from_ref(&strike_free.tdc_trace), &STAGE_NAMES)
        .expect("profiling finds all five layers");
    let schedule = base.schedule().clone();
    let guided = |target: &str| {
        let (_, len) = profile.window(target).expect("profiled layer");
        let scheme = plan_attack(&profile, target, (len / 2) as u32).expect("strikes fit");
        armed_run(&base, &scheme, false)
    };
    let (conv1, conv2) = (guided("conv1"), guided("conv2"));
    let blind = armed_run(&base, &plan_blind(&schedule, 2_000), true);
    Platform { q, schedule, strike_free, conv1, conv2, blind }
}

fn images(n: usize) -> Vec<(Tensor, usize)> {
    Dataset::generate(n, &RenderParams::default(), &mut StdRng::seed_from_u64(6))
        .iter()
        .map(|(x, y)| (x.clone(), y))
        .collect()
}

/// `DEEPSTRIKE_THREADS` is process-global, so this is the only test in
/// this binary that sets it (the equivalence test never reads it).
#[test]
fn sparse_scoring_equals_per_op_scoring_on_lenet() {
    let prior = std::env::var(par::THREADS_ENV).ok();
    let p = platform();
    let images = images(4);
    for (target, run) in [("conv1", &p.conv1), ("conv2", &p.conv2)] {
        let outcome = check_run(target, &p.q, &p.schedule, run, &images);
        assert!(
            outcome.mean_duplicate_per_image > 0.0 && outcome.mean_random_per_image > 0.0,
            "{target}: a guided run must fault both ways: {outcome:?}"
        );
    }
    let outcome = check_run("blind", &p.q, &p.schedule, &p.blind, &images);
    assert!(outcome.mean_faults_per_image > 0.0, "blind strikes must fault: {outcome:?}");
    let outcome = check_run("strike-free", &p.q, &p.schedule, &p.strike_free, &images);
    assert_eq!(outcome.mean_faults_per_image, 0.0, "no strike, no fault");
    match prior {
        Some(v) => std::env::set_var(par::THREADS_ENV, v),
        None => std::env::remove_var(par::THREADS_ENV),
    }
}

/// The sequential stream the keyed draws replaced: every op of a cycle
/// the safe voltages do not clear draws `sample_pipelined_scaled` in op
/// order from one `StdRng`, and each random fault draws its mask from a
/// second one.
struct SequentialHook<'a> {
    schedule: &'a Schedule,
    capture_voltage: &'a [f64],
    in_flight_voltage: &'a [f64],
    fault_model: FaultModel,
    rng: StdRng,
    mask_rng: StdRng,
}

impl FaultHook for SequentialHook<'_> {
    fn stage_faults(&mut self, stage: &StageOps<'_>, events: &mut Vec<FaultEvent>) {
        let window = &self.schedule.windows()[stage.index];
        let safe = self.fault_model.safe_voltage();
        let early_safe = self.fault_model.early_stage().safe_voltage();
        for op in 0..stage.ops {
            let cycle = window.cycle_of_op(op) as usize;
            let (Some(&v_capture), Some(&v_min)) =
                (self.capture_voltage.get(cycle), self.in_flight_voltage.get(cycle))
            else {
                break;
            };
            if v_capture >= safe && v_min >= early_safe {
                continue;
            }
            let scale = match window.kind {
                StageKind::Dense => StrikeHook::DENSE_PATH_SCALE,
                _ => FaultModel::path_scale(stage.product(op)),
            };
            match self.fault_model.sample_pipelined_scaled(v_capture, v_min, scale, &mut self.rng) {
                MacFault::None => {}
                MacFault::Duplicate => {
                    events.push(FaultEvent { op, kind: MacFault::Duplicate, mask: 0 })
                }
                MacFault::Random => {
                    let mask = self.mask_rng.gen_range(1i32..(1 << 16));
                    events.push(FaultEvent { op, kind: MacFault::Random, mask });
                }
            }
        }
    }
}

/// Counts the events another hook lists, per stage and species.
struct Counting<'a> {
    inner: &'a mut dyn FaultHook,
    counts: &'a mut Vec<[u64; 2]>,
}

impl FaultHook for Counting<'_> {
    fn stage_faults(&mut self, stage: &StageOps<'_>, events: &mut Vec<FaultEvent>) {
        let before = events.len();
        self.inner.stage_faults(stage, events);
        if self.counts.len() <= stage.index {
            self.counts.resize(stage.index + 1, [0; 2]);
        }
        for e in &events[before..] {
            self.counts[stage.index][usize::from(e.kind == MacFault::Random)] += 1;
        }
    }
}

/// What one stream did over every (seed, image) scoring of one run.
#[derive(Debug, Default)]
struct StreamTally {
    /// `[duplicate, random]` per stage.
    per_stage: Vec<[u64; 2]>,
    attacked_correct: u64,
    flipped: u64,
}

/// Scores image `(x, y)` under `hook` into `tally`.
fn score(
    q: &QuantizedNetwork,
    (x, y): &(Tensor, usize),
    tally: &mut StreamTally,
    hook: &mut dyn FaultHook,
) {
    let mut counting = Counting { inner: hook, counts: &mut tally.per_stage };
    let (logits, _) = infer_with_faults(q, x, &mut counting);
    tally.attacked_correct += u64::from(argmax(&logits) == *y);
    tally.flipped += u64::from(argmax(&logits) != q.predict(x));
}

#[test]
fn keyed_stream_is_statistically_equivalent_to_the_sequential_stream() {
    const SEEDS: u64 = 20;
    let p = platform();
    let images = images(10);
    let model = FaultModel::paper();
    for (label, run) in [("conv1", &p.conv1), ("blind", &p.blind)] {
        let n = run.victim_voltage.len();
        let capture_voltage: Vec<f64> = (0..n)
            .map(|c| run.victim_voltage[(c + StrikeHook::LATENCY as usize).min(n - 1)])
            .collect();
        let in_flight_voltage: Vec<f64> =
            (0..n as u64).map(|c| run.min_voltage_in_flight(c, StrikeHook::LATENCY)).collect();
        let tables = StrikeTables::new(&p.schedule, run, model);
        let (mut old, mut new) = (StreamTally::default(), StreamTally::default());
        for seed in (1..=SEEDS).map(|k| k * 1000) {
            for (i, image) in images.iter().enumerate() {
                let mut sequential = SequentialHook {
                    schedule: &p.schedule,
                    capture_voltage: &capture_voltage,
                    in_flight_voltage: &in_flight_voltage,
                    fault_model: model,
                    rng: StdRng::seed_from_u64(seed + i as u64),
                    mask_rng: StdRng::seed_from_u64(par::seed_for(seed ^ 0xD5, i as u64)),
                };
                score(&p.q, image, &mut old, &mut sequential);
                score(&p.q, image, &mut new, &mut StrikeHook::new(&tables, seed + i as u64));
            }
        }
        println!("{label}: sequential {old:?}");
        println!("{label}: keyed      {new:?}");
        assert_eq!(old.per_stage.len(), new.per_stage.len());
        let mut faults = 0;
        for (stage, (o, k)) in old.per_stage.iter().zip(&new.per_stage).enumerate() {
            for species in 0..2 {
                let (o, k) = (o[species] as f64, k[species] as f64);
                let bound = 5.0 * (o + k).sqrt() + 0.03 * o.max(k);
                assert!((k - o).abs() <= bound, "{label} stage {stage}/{species}: {k} vs {o}");
                faults += k as u64;
            }
        }
        assert!(faults > 0, "{label}: the run must fault");
        let m = (SEEDS as usize * images.len()) as f64;
        for (what, o, k) in [
            ("attacked-correct", old.attacked_correct, new.attacked_correct),
            ("flipped", old.flipped, new.flipped),
        ] {
            let (o, k) = (o as f64, k as f64);
            let pooled = (o + k) / (2.0 * m);
            let bound = 5.0 * (2.0 * m * pooled * (1.0 - pooled)).sqrt() + 2.0;
            assert!((k - o).abs() <= bound, "{label} {what}: {k} vs {o} (bound {bound:.1})");
        }
    }
}
