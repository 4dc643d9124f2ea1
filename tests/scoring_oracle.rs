//! Scoring oracle for the fault-sparse scorer (DESIGN.md §4).
//!
//! `evaluate_attack` prices each recorded run once ([`StrikeTables`]) and
//! lets the executor sum every MAC the run's droop cannot reach without
//! consulting the hook. This test keeps the per-op scorer that came before
//! as a reference: its hook samples `sample_pipelined_scaled` for every op
//! and the executor advances the duplication ring on every op. On a
//! quantised LeNet-5 platform — so the conv path is covered, not only the
//! dense victims the golden traces pin — a guided conv1 run, a guided
//! conv2 run, a blind run and a strike-free run must score bit for bit
//! alike both ways: per-image logits, tallies and RNG end states, and the
//! `AttackOutcome` of `evaluate_attack` and `evaluate_attack_cached`.

use accel::executor::{infer_with_faults, AppliedFaults, MacHook};
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
use dnn::quant::QuantizedNetwork;
use dnn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 41;

/// The per-op scorer: rebuilds both voltage traces per image and samples
/// every op that is not on the quiet fast path.
struct ReferenceHook<'a> {
    schedule: &'a Schedule,
    capture_voltage: Vec<f64>,
    in_flight_voltage: Vec<f64>,
    fault_model: FaultModel,
    safe_voltage: f64,
    early_safe_voltage: f64,
    rng: StdRng,
}

impl<'a> ReferenceHook<'a> {
    fn new(schedule: &'a Schedule, run: &InferenceRun, fault_model: FaultModel, seed: u64) -> Self {
        let n = run.victim_voltage.len();
        let capture_voltage = (0..n)
            .map(|c| run.victim_voltage[(c + StrikeHook::LATENCY as usize).min(n - 1)])
            .collect();
        let in_flight_voltage =
            (0..n as u64).map(|c| run.min_voltage_in_flight(c, StrikeHook::LATENCY)).collect();
        ReferenceHook {
            schedule,
            capture_voltage,
            in_flight_voltage,
            fault_model,
            safe_voltage: fault_model.safe_voltage(),
            early_safe_voltage: fault_model.early_stage().safe_voltage(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl MacHook for ReferenceHook<'_> {
    fn fault(&mut self, stage_index: usize, op_index: u64, weight: i8, activation: i8) -> MacFault {
        let Some(window) = self.schedule.windows().get(stage_index) else {
            return MacFault::None;
        };
        if op_index >= window.ops {
            return MacFault::None;
        }
        let cycle = window.cycle_of_op(op_index) as usize;
        let (v_capture, v_min) =
            match (self.capture_voltage.get(cycle), self.in_flight_voltage.get(cycle)) {
                (Some(&a), Some(&b)) => (a, b),
                _ => return MacFault::None,
            };
        if v_capture >= self.safe_voltage && v_min >= self.early_safe_voltage {
            return MacFault::None;
        }
        let scale = match window.kind {
            StageKind::Dense => StrikeHook::DENSE_PATH_SCALE,
            _ => FaultModel::path_scale(i32::from(weight) * i32::from(activation)),
        };
        self.fault_model.sample_pipelined_scaled(v_capture, v_min, scale, &mut self.rng)
    }
}

/// What scoring one image produced: logits, tally and the executor RNG's
/// next draw.
type ImageResult = (Vec<i32>, AppliedFaults, u64);

fn score_image(q: &QuantizedNetwork, x: &Tensor, i: usize, hook: &mut dyn MacHook) -> ImageResult {
    // The executor RNG `evaluate_attack` hands image `i`.
    let mut rng = StdRng::seed_from_u64(par::seed_for(SEED ^ 0xD5, i as u64));
    let (logits, tally) = infer_with_faults(q, x, hook, &mut rng);
    (logits, tally, rng.gen())
}

fn argmax(logits: &[i32]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by_key(|(k, &v)| (v, std::cmp::Reverse(*k)))
        .map(|(k, _)| k)
        .expect("non-empty logits")
}

/// Scores `images` both ways and checks they agree; returns the
/// reference outcome.
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
        let seed = SEED.wrapping_add(i as u64);
        let expected = score_image(q, x, i, &mut ReferenceHook::new(schedule, run, model, seed));
        let sparse = score_image(q, x, i, &mut StrikeHook::new(&tables, seed));
        assert_eq!(sparse, expected, "{label}: image {i} diverges from the per-op scorer");
        reference.push(expected);
    }

    let n = images.len() as f64;
    let clean_ok = images.iter().filter(|(x, y)| q.predict(x) == *y).count();
    let attacked_ok =
        reference.iter().zip(images).filter(|((logits, _, _), (_, y))| argmax(logits) == *y);
    let duplicate: u64 = reference.iter().map(|(_, t, _)| t.duplicate).sum();
    let random: u64 = reference.iter().map(|(_, t, _)| t.random).sum();
    let expected = AttackOutcome {
        clean_accuracy: clean_ok as f64 / n,
        attacked_accuracy: attacked_ok.count() as f64 / n,
        strikes_fired: run.strike_cycles.len(),
        mean_faults_per_image: (duplicate + random) as f64 / n,
        mean_duplicate_per_image: duplicate as f64 / n,
        mean_random_per_image: random as f64 / n,
    };
    let samples = || images.iter().map(|(x, y)| (x, *y));
    let outcome = evaluate_attack(q, schedule, run, samples(), model, SEED);
    assert_eq!(outcome, expected, "{label}: evaluate_attack");
    let clean = clean_predictions(q, samples());
    let cached = evaluate_attack_cached(q, schedule, run, samples(), model, SEED, &clean);
    assert_eq!(cached, expected, "{label}: evaluate_attack_cached");
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

#[test]
fn sparse_scoring_equals_per_op_scoring_on_lenet() {
    let net = lenet5(&mut StdRng::seed_from_u64(5));
    let q = QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper())
        .expect("lenet5 quantises");
    let mut base =
        CloudFpga::new(&q, &accel_config(), 8_000, cosim_config()).expect("platform assembles");
    base.settle(50);
    let images: Vec<(Tensor, usize)> =
        Dataset::generate(4, &RenderParams::default(), &mut StdRng::seed_from_u64(6))
            .iter()
            .map(|(x, y)| (x.clone(), y))
            .collect();

    let strike_free = base.clone().run_inference();
    let profile = profile_from_traces(std::slice::from_ref(&strike_free.tdc_trace), &STAGE_NAMES)
        .expect("profiling finds all five layers");
    let schedule = base.schedule().clone();

    for target in ["conv1", "conv2"] {
        let (_, len) = profile.window(target).expect("profiled layer");
        let scheme = plan_attack(&profile, target, (len / 2) as u32).expect("strikes fit");
        let run = armed_run(&base, &scheme, false);
        let outcome = check_run(target, &q, &schedule, &run, &images);
        assert!(
            outcome.mean_duplicate_per_image > 0.0 && outcome.mean_random_per_image > 0.0,
            "{target}: a guided run must fault both ways: {outcome:?}"
        );
    }
    let blind = armed_run(&base, &plan_blind(&schedule, 2_000), true);
    let outcome = check_run("blind", &q, &schedule, &blind, &images);
    assert!(outcome.mean_faults_per_image > 0.0, "blind strikes must fault: {outcome:?}");
    let outcome = check_run("strike-free", &q, &schedule, &strike_free, &images);
    assert_eq!(outcome.mean_faults_per_image, 0.0, "no strike, no fault");
}
