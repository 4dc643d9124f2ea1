//! Campaign benchmark for the DeepStrike reproduction.
//!
//! Three closed-loop workloads drive the public crate APIs the way an
//! attacker's campaign does (see `README.md` for why each exists and which
//! metric each layer should move):
//!
//! - `guided_sweep` — the Fig. 5b sweep on the trained LeNet-5: every layer
//!   at two strike-fraction rungs through `SnapshotEngine::run_guided`,
//!   plus blind full replays, each point scored over many images;
//! - `strike_search` — a dense guided search over `AttackScheme`
//!   candidates, each scored on two images;
//! - `remote_fleet` — `RemoteCampaign`s over seeded lossy UART links
//!   against identical `SimHost` boards sharing a primed `RunMemo`.
//!
//! The library's own `trace` event bus stays off in every run: with a
//! session open, `SnapshotEngine::run_guided` and `RunMemo` fall back to
//! full simulation and the benchmark would measure a different program.
//! The traced run records spans with the benchmark's own recorder
//! ([`spans`]) instead.

pub mod guided_sweep;
pub mod remote_fleet;
pub mod report;
pub mod spans;
pub mod strike_search;
pub mod sweep;

use std::path::PathBuf;
use std::time::Instant;

use accel::schedule::AccelConfig;
use deepstrike::attack::{clean_predictions, profile_from_traces, VictimProfile};
use deepstrike::cosim::{CloudFpga, CosimConfig};
use deepstrike::snapshot::SnapshotEngine;
use dnn::lenet::STAGE_NAMES;
use dnn::quant::QuantizedNetwork;
use dnn::tensor::Tensor;

pub use report::Report;

/// The workloads, by command-line name.
pub const WORKLOADS: &[&str] = &["guided_sweep", "strike_search", "remote_fleet"];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Striker bank of the attacked platform (≈15% of device slices, as in
/// the paper and `fig5b`).
pub const STRIKER_CELLS: usize = 8_000;

/// Idle cycles the PDN settles before the victim starts.
const SETTLE_CYCLES: u64 = 200;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Seed the generated inputs derive from.
    pub seed: u64,
    /// Minimum measured time; whole rounds run until it is reached.
    pub seconds: f64,
    /// Traced run: record spans and report per-layer metrics.
    pub trace: bool,
    /// `par` worker count (the number of cores on the command line).
    pub workers: usize,
}

impl Options {
    /// Where a traced run writes its spans, relative to the working
    /// directory; `None` for an untraced run.
    pub fn spans_path(&self) -> Option<PathBuf> {
        self.trace.then(|| {
            PathBuf::from("target")
                .join("perfbench")
                .join(format!("spans-{}-{}.jsonl", self.workload, self.seed))
        })
    }
}

/// Runs one workload and returns its report.
///
/// # Errors
///
/// Returns a message for an unknown workload name.
pub fn run(opts: &Options) -> Result<Report, String> {
    // `par` reads its pool size from the environment on every map.
    std::env::set_var(par::THREADS_ENV, opts.workers.max(1).to_string());
    // Warm the trained-model cache before anything is timed, so set-up
    // always measures the warm load.
    let warm_start = Instant::now();
    let was_warm = lenet_cache_is_warm();
    bench::trained_lenet();
    let warm_s = warm_start.elapsed().as_secs_f64();

    let mut report = match opts.workload.as_str() {
        "guided_sweep" => guided_sweep::run(opts),
        "strike_search" => strike_search::run(opts),
        "remote_fleet" => remote_fleet::run(opts),
        other => return Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    };
    report.notes.insert(
        0,
        format!(
            "trained LeNet cache was {} before set-up ({warm_s:.2} s to {}); set-up timed warm",
            if was_warm { "warm" } else { "cold" },
            if was_warm { "load" } else { "train and store" },
        ),
    );
    report.set("par.threads", opts.workers.max(1) as f64);
    report.set("failed_share", report.failed as f64 / report.attempted.max(1) as f64);
    Ok(report)
}

/// True when the trained-LeNet cache directory already holds a model.
fn lenet_cache_is_warm() -> bool {
    // `bench` keeps its cache under the repository's `target/`.
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../target/deepstrike-cache"));
    std::fs::read_dir(dir).is_ok_and(|mut entries| {
        entries.any(|e| e.is_ok_and(|e| e.file_name().to_string_lossy().starts_with("lenet_q_")))
    })
}

/// `count` distinct test-set indices drawn from `seed` (partial
/// Fisher–Yates over a SplitMix stream).
pub fn pick_indices(seed: u64, count: usize, population: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..population).collect();
    let count = count.min(population);
    for k in 0..count {
        let r = par::seed_for(seed, k as u64) as usize % (population - k);
        pool.swap(k, k + r);
    }
    pool.truncate(count);
    pool
}

/// Test-set images at `indices`, cloned out of the harness test set.
pub fn test_images(indices: impl IntoIterator<Item = usize>) -> Vec<(Tensor, usize)> {
    let test = bench::test_set();
    let all: Vec<(&Tensor, usize)> = test.iter().collect();
    indices.into_iter().map(|i| (all[i].0.clone(), all[i].1)).collect()
}

/// `count` seeded scoring images.
pub fn pick_images(seed: u64, count: usize) -> Vec<(Tensor, usize)> {
    test_images(pick_indices(seed, count, bench::TEST_SAMPLES))
}

/// The settled LeNet platform every workload attacks.
pub fn platform(q: &QuantizedNetwork) -> CloudFpga {
    let mut fpga =
        CloudFpga::new(q, &AccelConfig::default(), STRIKER_CELLS, CosimConfig::default())
            .expect("the LeNet platform assembles");
    fpga.settle(SETTLE_CYCLES);
    fpga
}

/// Everything the two sweep workloads set up: the victim, its platform,
/// the snapshot engine, the attacker's profile and the scoring set.
pub struct Victim {
    /// The deployed network.
    pub q: QuantizedNetwork,
    /// The settled platform the engine was captured from.
    pub base: CloudFpga,
    /// Fork-point snapshot engine over `base`.
    pub engine: SnapshotEngine,
    /// Layer windows learned from the engine's reference trace.
    pub profile: VictimProfile,
    /// Seeded scoring images.
    pub images: Vec<(Tensor, usize)>,
    /// Clean verdicts over `images`.
    pub clean: Vec<bool>,
}

/// Host times of one set-up, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// The whole set-up.
    pub total_s: f64,
    /// `SnapshotEngine::capture`.
    pub capture_s: f64,
    /// `clean_predictions`, per image, in milliseconds.
    pub clean_ms_per_image: f64,
}

impl SetupTimes {
    /// Records the set-up metrics.
    pub fn report(&self, report: &mut Report) {
        report.set("setup_s", self.total_s);
        report.set("snapshot.capture_s", self.capture_s);
        report.set("dnn.clean_ms_per_image", self.clean_ms_per_image);
    }
}

impl Victim {
    /// Loads the victim, captures the engine and takes the scoring images
    /// from `images`; returns the set-up times.
    pub fn set_up(images: impl FnOnce() -> Vec<(Tensor, usize)>) -> (Victim, SetupTimes) {
        let start = Instant::now();
        let (q, _) = bench::trained_lenet();
        let base = platform(&q);
        let t = Instant::now();
        let engine = SnapshotEngine::capture(&base).expect("the reference pass captures");
        let capture_s = t.elapsed().as_secs_f64();
        // The reference pass is bitwise an unarmed inference, so it
        // doubles as the attacker's profiling trace.
        let profile = profile_from_traces(&[engine.reference().tdc_trace.clone()], &STAGE_NAMES)
            .expect("profiling finds all five layers");
        let images = images();
        let t = Instant::now();
        let clean = clean_predictions(&q, images.iter().map(|(x, y)| (x, *y)));
        let clean_ms_per_image = t.elapsed().as_secs_f64() * 1e3 / images.len().max(1) as f64;
        let times =
            SetupTimes { total_s: start.elapsed().as_secs_f64(), capture_s, clean_ms_per_image };
        (Victim { q, base, engine, profile, images, clean }, times)
    }

    /// Scoring images as the iterator the attack API takes.
    pub fn samples(&self) -> impl Iterator<Item = (&Tensor, usize)> {
        self.images.iter().map(|(x, y)| (x, *y))
    }
}

/// Runs `set_up` [`SETUP_REPS`] times, dropping each result before the
/// next, and returns the last result with the median of each time.
pub fn repeated_setup<V>(mut set_up: impl FnMut() -> (V, SetupTimes)) -> (V, SetupTimes) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (v, t) = set_up();
        times.push(t);
        last = Some(v);
    }
    let med = |f: fn(&SetupTimes) -> f64| report::median(&times.iter().map(f).collect::<Vec<_>>());
    let times = SetupTimes {
        total_s: med(|t| t.total_s),
        capture_s: med(|t| t.capture_s),
        clean_ms_per_image: med(|t| t.clean_ms_per_image),
    };
    (last.expect("set-up ran at least once"), times)
}

/// The outcome of one closed-loop item and the host time it took.
#[derive(Debug)]
pub struct Item<T> {
    /// The item's output, or why it failed.
    pub out: Result<T, String>,
    /// Host time of the item, in milliseconds.
    pub ms: f64,
}

/// Runs `f` over `0..n` on the `par` pool: each worker takes its next
/// item only when the previous one finishes. Item `i` is recorded as the
/// root span `root_of(i)` (a point or campaign id and a part number) and
/// fails if the library's trace bus is on or the item panics.
pub fn par_items<T: Send>(
    n: usize,
    root_name: &'static str,
    root_of: impl Fn(usize) -> (u64, u32) + Sync,
    f: impl Fn(usize) -> Result<T, String> + Sync,
) -> Vec<Item<T>> {
    let outcome = par::try_map(n, |i| {
        let t = Instant::now();
        let (id, part) = root_of(i);
        let out = spans::root(id, part, root_name, || {
            if trace::enabled() {
                return Err("the library trace bus is on".to_string());
            }
            f(i)
        });
        Item { out, ms: t.elapsed().as_secs_f64() * 1e3 }
    });
    outcome
        .results
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| Item { out: Err("panicked".to_string()), ms: 0.0 }))
        .collect()
}

/// One round of a closed loop, as its round function sees it.
#[derive(Debug, Clone, Copy)]
pub struct RoundInfo {
    /// Round index within the run.
    pub index: usize,
    /// True when spans are recorded in this round.
    pub traced: bool,
    /// Root-span id of the round's first item; ids `root_base + i` are
    /// the round's own.
    pub root_base: u64,
}

/// Wall time and size of one round.
#[derive(Debug, Clone, Copy)]
pub struct RoundTime {
    /// Wall time, in milliseconds.
    pub ms: f64,
    /// Items completed.
    pub items: usize,
    /// Spans were recorded.
    pub traced: bool,
}

/// What a closed loop measured.
#[derive(Debug)]
pub struct Measured<T> {
    /// Outputs of the first round, in item order (`None` where it failed).
    pub first_round: Vec<Option<T>>,
    /// Every round, in order.
    pub rounds: Vec<RoundTime>,
    /// Host time of every item completed in an untraced round, in ms.
    pub item_ms: Vec<f64>,
    /// Items attempted.
    pub attempted: u64,
    /// Failure reasons, one per failed item.
    pub failures: Vec<String>,
    /// Spans of the traced rounds.
    pub spans: Vec<spans::Span>,
    /// Peak resident set size over the rounds, in MiB.
    pub peak_rss_mb: f64,
    /// False when the peak could not be reset at the start, so it covers
    /// the whole process.
    pub peak_reset: bool,
}

/// Runs whole rounds until `opts.seconds` have passed (at least one).
/// `round` runs one round on the `par` pool and returns one item per
/// point or campaign; no item is in flight between rounds. Every round
/// must reproduce the first round's outputs exactly.
///
/// On a traced run, untraced and traced rounds alternate, starting
/// untraced and ending traced, so both kinds see the same host
/// conditions; the spans of the traced rounds are written to
/// [`Options::spans_path`]. Peak RSS is reset when the loop starts, so
/// `peak_rss_mb` covers the measured rounds (and the set-up state they
/// keep), not the warm-up or set-up.
pub fn closed_loop<T: PartialEq>(
    opts: &Options,
    mut round: impl FnMut(&RoundInfo) -> Vec<Item<T>>,
) -> Measured<T> {
    let peak_reset = report::reset_peak_rss();
    spans::drain();
    let start = Instant::now();
    let mut m = Measured {
        first_round: Vec::new(),
        rounds: Vec::new(),
        item_ms: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        spans: Vec::new(),
        peak_rss_mb: 0.0,
        peak_reset,
    };
    loop {
        let index = m.rounds.len();
        let info = RoundInfo {
            index,
            traced: opts.trace && index % 2 == 1,
            root_base: (index as u64) << 32,
        };
        spans::set_enabled(info.traced);
        let round_start = Instant::now();
        let items = round(&info);
        let ms = round_start.elapsed().as_secs_f64() * 1e3;
        spans::set_enabled(false);
        m.attempted += items.len() as u64;
        let mut done = 0;
        for (i, item) in items.into_iter().enumerate() {
            let out = match item.out {
                Ok(out) => {
                    done += 1;
                    if !info.traced {
                        m.item_ms.push(item.ms);
                    }
                    Some(out)
                }
                Err(why) => {
                    m.failures.push(format!("round {index} item {i}: {why}"));
                    None
                }
            };
            if index == 0 {
                m.first_round.push(out);
            } else if let (Some(out), Some(Some(first))) = (&out, m.first_round.get(i)) {
                if out != first {
                    m.failures.push(format!("round {index} item {i}: differs from round 0"));
                }
            }
        }
        m.rounds.push(RoundTime { ms, items: done, traced: info.traced });
        let paired = !opts.trace || info.traced;
        if paired && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    m.peak_rss_mb = report::peak_rss_mb();
    m.spans = spans::drain();
    if let Some(path) = opts.spans_path() {
        if let Err(e) = spans::write_jsonl(&m.spans, &path) {
            eprintln!("could not write spans to {}: {e}", path.display());
        }
    }
    m
}

impl<T> Measured<T> {
    /// The untraced rounds.
    pub fn plain_rounds(&self) -> impl Iterator<Item = &RoundTime> {
        self.rounds.iter().filter(|r| !r.traced)
    }

    /// Fills the point metrics, utilisation and tracing overhead, and
    /// counts attempts and failures. Throughput is the median over the
    /// untraced rounds of each round's own rate, so a burst of host load
    /// during one round moves it little.
    pub fn report_points(&self, report: &mut Report, workers: usize) {
        let rates: Vec<f64> = self.plain_rounds().map(|r| r.items as f64 / (r.ms * 1e-3)).collect();
        report.set("points_per_s", report::median(&rates));
        report.set("point_ms_p50", report::quantile(&self.item_ms, 0.5));
        report.set("point_ms_p90", report::quantile(&self.item_ms, 0.9));
        let wall_s: f64 = self.plain_rounds().map(|r| r.ms * 1e-3).sum();
        report.notes.push(format!(
            "{} points in {} untraced rounds over {wall_s:.2} s on {workers} workers",
            self.item_ms.len(),
            rates.len()
        ));
        let busy_s = self.item_ms.iter().sum::<f64>() * 1e-3;
        report.set("par.utilisation", report::ratio(busy_s, wall_s * workers.max(1) as f64));
        // Each traced round against the untraced round just before it.
        let pairs: Vec<f64> = self
            .rounds
            .windows(2)
            .filter(|w| !w[0].traced && w[1].traced)
            .map(|w| w[1].ms / w[0].ms - 1.0)
            .collect();
        if !pairs.is_empty() {
            report.set("trace.overhead_share", report::median(&pairs));
        }
        report.set("peak_rss_mb", self.peak_rss_mb);
        report.notes.push(if self.peak_reset {
            "peak RSS is over the measured rounds; warm-up and set-up are excluded".to_string()
        } else {
            "peak RSS is over the whole process (the kernel refused to reset it), so a \
             cold cache's training counts"
                .to_string()
        });
        report.attempted += self.attempted;
        for why in &self.failures {
            report.fail(why.clone());
        }
    }

    /// Fills the campaign metrics of a sweep workload, where one round is
    /// one campaign.
    pub fn report_rounds_as_campaigns(&self, report: &mut Report) {
        let ms: Vec<f64> = self.plain_rounds().map(|r| r.ms).collect();
        report.set("campaigns_per_s", report::ratio(1e3, report::median(&ms)));
        report.set("campaign_ms_p50", report::quantile(&ms, 0.5));
        report.set("campaign_ms_p90", report::quantile(&ms, 0.9));
    }

    /// Per-name span totals of the traced rounds and their summed root
    /// (busy) time, in seconds.
    pub fn span_totals(
        &self,
    ) -> (std::collections::BTreeMap<&'static str, spans::NameTotals>, f64) {
        let totals = spans::totals(&self.spans);
        let busy: f64 =
            self.spans.iter().filter(|s| s.parent.is_none()).map(|s| s.dur_ns as f64 * 1e-9).sum();
        (totals, busy)
    }
}
