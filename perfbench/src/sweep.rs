//! Measurement shared by the two sweep workloads: snapshot-engine
//! counters around each round of the closed loop, and the per-layer
//! metrics derived from them and from the traced rounds' spans.

use deepstrike::attack::AttackOutcome;
use deepstrike::snapshot::EngineStats;

use crate::report::{ratio, Report};
use crate::{closed_loop, Item, Measured, Options, RoundInfo, Victim};

/// Combines two sets of engine counters, counter by counter.
fn zip(a: EngineStats, b: EngineStats, f: fn(u64, u64) -> u64) -> EngineStats {
    EngineStats {
        guided_runs: f(a.guided_runs, b.guided_runs),
        reference_served: f(a.reference_served, b.reference_served),
        forked_runs: f(a.forked_runs, b.forked_runs),
        full_replays: f(a.full_replays, b.full_replays),
        rejoined: f(a.rejoined, b.rejoined),
        suffix_cycles: f(a.suffix_cycles, b.suffix_cycles),
    }
}

/// Measures a sweep workload: runs `round` in the closed loop while
/// reading the engine's counters around each round, then fills the
/// point, campaign and per-layer metrics. One round is one campaign;
/// each `attack.score` call scores `images_per_score` images.
pub fn measure(
    opts: &Options,
    victim: &Victim,
    images_per_score: usize,
    report: &mut Report,
    mut round: impl FnMut(&RoundInfo) -> Vec<Item<AttackOutcome>>,
) -> Measured<AttackOutcome> {
    // The first round's counters are the same at every worker count.
    let mut first_round = EngineStats::default();
    let mut traced = EngineStats::default();
    let m = closed_loop(opts, |info| {
        let before = victim.engine.stats();
        let items = round(info);
        let delta = zip(victim.engine.stats(), before, |a, b| a - b);
        if info.index == 0 {
            first_round = delta;
        }
        if info.traced {
            traced = zip(traced, delta, |a, b| a + b);
        }
        items
    });
    m.report_points(report, opts.workers);
    m.report_rounds_as_campaigns(report);
    report_layers(report, victim, &m, images_per_score, first_round, traced);
    m
}

/// Fills the snapshot/cosim/scoring per-layer metrics shared by both
/// sweep workloads, from the first round's engine counters and, on a
/// traced run, the traced rounds' spans and counters.
fn report_layers(
    report: &mut Report,
    victim: &Victim,
    m: &Measured<AttackOutcome>,
    images_per_score: usize,
    first_round: EngineStats,
    traced: EngineStats,
) {
    let s = first_round;
    let total = victim.engine.total_cycles() as f64;
    report.set(
        "snapshot.suffix_fraction",
        ratio(s.suffix_cycles as f64, s.forked_runs as f64 * total),
    );
    report.set("snapshot.rejoin_ratio", ratio(s.rejoined as f64, s.forked_runs as f64));
    report.set("snapshot.full_replays", s.full_replays as f64);
    report.set("snapshot.reference_served", s.reference_served as f64);
    if m.spans.is_empty() {
        return;
    }
    let (totals, busy) = m.span_totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let (score, guided, blind) =
        (get("attack.score"), get("snapshot.run_guided"), get("cosim.run_blind"));
    report.set(
        "attack.score_ms_per_image",
        ratio(score.total_s * 1e3, (score.calls as usize * images_per_score) as f64),
    );
    report.set("attack.score_share", ratio(score.self_s, busy));
    report.set("snapshot.guided_ms", ratio(guided.total_s * 1e3, guided.calls as f64));
    report.set("snapshot.guided_share", ratio(guided.self_s, busy));
    report.set("cosim.blind_ms", ratio(blind.total_s * 1e3, blind.calls as f64));
    let t = traced;
    let cycles = t.suffix_cycles as f64 + (t.full_replays as f64 + blind.calls as f64) * total;
    report.set("cosim.ns_per_cycle", ratio((guided.total_s + blind.total_s) * 1e9, cycles));
}
