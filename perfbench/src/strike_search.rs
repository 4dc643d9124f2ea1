//! `strike_search`: a dense guided search over strike schemes, dominated
//! by the snapshot engine, co-simulation and PDN.
//!
//! For every layer the grid holds a strike-count ladder at one delay (each
//! rung's bit vector is a prefix of the next), three single candidates at
//! distinct delays, and two gap variants. Each candidate runs through
//! `SnapshotEngine::run_guided` and is scored on [`IMAGES`] images. One
//! round is the whole search, i.e. one campaign. The seed jitters every
//! delay by up to [`JITTER`] cycles and picks the images.

use deepstrike::attack::{evaluate_attack, evaluate_attack_cached, AttackOutcome};
use deepstrike::signal_ram::AttackScheme;
use dnn::lenet::STAGE_NAMES;

use crate::report::Report;
use crate::sweep::measure;
use crate::{par_items, repeated_setup, spans, Options, Victim};

/// Images scored per candidate.
pub const IMAGES: usize = 2;

/// Ladder rungs as fractions of a layer's strike capacity.
const LADDER: &[f64] = &[0.0625, 0.25, 0.5, 1.0];

/// Window fractions of the distinct-delay candidates.
const OFFSETS: &[f64] = &[0.25, 0.5, 0.75];

/// Gaps of the gap variants (the ladder uses gap 1).
const GAPS: &[u32] = &[3, 7];

/// Largest seeded delay jitter, in cycles.
pub const JITTER: u64 = 16;

/// Candidates checked against naive replay per run.
const CHECKED: usize = 2;

/// The search grid: per layer a ladder, distinct delays and gap variants.
pub fn grid(victim: &Victim, seed: u64) -> Vec<AttackScheme> {
    let profile = &victim.profile;
    let mut out = Vec::new();
    for (k, target) in STAGE_NAMES.iter().enumerate() {
        let (start, len) = profile.window(target).expect("profiled layer");
        let jitter = |j: u64| par::seed_for(seed, (k as u64) << 8 | j) % (JITTER + 1);
        let delay_at = |frac: f64, j: u64| {
            (start + (len as f64 * frac) as u64 + jitter(j)).saturating_sub(profile.trigger_cycle)
                as u32
        };
        let capacity = (len / 2).max(4) as f64;
        let scheme = |delay_cycles, strikes: f64, gap_cycles| AttackScheme {
            delay_cycles,
            strikes: (strikes as u32).max(1),
            strike_cycles: 1,
            gap_cycles,
        };
        let ladder_delay = delay_at(0.0, 0);
        out.extend(LADDER.iter().map(|&f| scheme(ladder_delay, capacity * f, 1)));
        out.extend(
            OFFSETS
                .iter()
                .enumerate()
                .map(|(j, &f)| scheme(delay_at(f, j as u64 + 1), capacity / 8.0, 1)),
        );
        out.extend(GAPS.iter().map(|&gap| scheme(ladder_delay, capacity / 8.0, gap)));
    }
    out
}

/// Share of candidates whose compiled bit vector is a prefix of another
/// candidate's, or has another candidate's as its prefix.
pub fn prefix_share(grid: &[AttackScheme]) -> f64 {
    let bits: Vec<Vec<bool>> = grid.iter().map(AttackScheme::to_bits).collect();
    let sharing = (0..bits.len())
        .filter(|&i| {
            (0..bits.len()).any(|j| {
                j != i && {
                    let (a, b) = (&bits[i], &bits[j]);
                    let n = a.len().min(b.len());
                    a[..n] == b[..n]
                }
            })
        })
        .count();
    sharing as f64 / grid.len().max(1) as f64
}

/// Runs and scores one candidate through the snapshot engine.
pub fn evaluate(
    victim: &Victim,
    scheme: &AttackScheme,
    eval_seed: u64,
) -> Result<AttackOutcome, String> {
    let run = spans::span("snapshot.run_guided", || victim.engine.run_guided(scheme))
        .map_err(|e| e.to_string())?;
    Ok(spans::span("attack.score", || {
        evaluate_attack_cached(
            &victim.q,
            victim.base.schedule(),
            &run,
            victim.samples(),
            accel::fault::FaultModel::paper(),
            eval_seed,
            &victim.clean,
        )
    }))
}

/// Naive replay of one candidate: clone the base platform, load, arm,
/// run, score. Returns a message if the engine's run or the scored
/// outcome differs from it in any bit.
pub fn check_against_replay(
    victim: &Victim,
    scheme: &AttackScheme,
    outcome: &AttackOutcome,
    eval_seed: u64,
) -> Option<String> {
    let mut fpga = victim.base.clone();
    let loaded =
        fpga.scheduler_mut().load_scheme(scheme).and_then(|()| fpga.scheduler_mut().arm(true));
    if let Err(e) = loaded {
        return Some(format!("{scheme:?}: naive load/arm failed: {e}"));
    }
    let naive = fpga.run_inference();
    let forked = match victim.engine.run_guided(scheme) {
        Ok(run) => run,
        Err(e) => return Some(format!("{scheme:?}: engine failed on re-run: {e}")),
    };
    if forked != naive {
        return Some(format!("{scheme:?}: forked run differs from naive replay"));
    }
    let naive_outcome = evaluate_attack(
        &victim.q,
        fpga.schedule(),
        &naive,
        victim.samples(),
        accel::fault::FaultModel::paper(),
        eval_seed,
    );
    (naive_outcome != *outcome).then(|| format!("{scheme:?}: outcome differs from naive replay"))
}

/// Runs the workload.
pub fn run(opts: &Options) -> Report {
    let mut report = Report::default();
    let (victim, times) =
        repeated_setup(|| Victim::set_up(|| crate::pick_images(opts.seed, IMAGES)));
    times.report(&mut report);

    let candidates = grid(&victim, opts.seed);
    let eval_seed = par::seed_for(opts.seed, 0xE7A1);
    let m = measure(opts, &victim, IMAGES, &mut report, |info| {
        par_items(
            candidates.len(),
            "point",
            |i| (info.root_base + i as u64, 0),
            |i| evaluate(&victim, &candidates[i], eval_seed),
        )
    });
    report.set("search.prefix_share", prefix_share(&candidates));

    let first = &m.first_round;
    let outcomes: Vec<AttackOutcome> = first.iter().flatten().copied().collect();
    if outcomes.len() == candidates.len() {
        let faults: f64 = outcomes.iter().map(|o| o.mean_faults_per_image).sum();
        report.set("accel.faults_per_image", faults / outcomes.len() as f64);
    }
    // Untimed: a seeded sample of candidates against naive replay.
    let sample = crate::pick_indices(par::seed_for(opts.seed, 0xC4EC), CHECKED, candidates.len());
    let verdicts = par::map_items(&sample, |&i| match &first[i] {
        Some(outcome) => check_against_replay(&victim, &candidates[i], outcome, eval_seed),
        None => Some(format!("candidate {i} has no first-round outcome")),
    });
    report.attempted += sample.len() as u64;
    for why in verdicts.into_iter().flatten() {
        report.fail(format!("naive replay check: {why}"));
    }
    report.notes.push(format!(
        "{} candidates per search, {IMAGES} images each; naive-replay checked candidates {sample:?}",
        candidates.len()
    ));
    report
}
