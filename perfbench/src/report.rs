//! Metric catalogue, statistics helpers and the one-line JSON result.

use std::collections::BTreeMap;

/// Which result line a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Printed by the untraced run (`--trace 0`).
    EndToEnd,
    /// Printed by the traced run (`--trace 1`).
    PerLayer,
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Result line.
    pub kind: Kind,
    /// True for counts of simulated work, which must repeat exactly at a
    /// given seed whatever the worker count or host speed.
    pub sim: bool,
}

const fn e2e(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, kind: Kind::EndToEnd, sim: false }
}

const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, kind: Kind::PerLayer, sim: false }
}

const fn sim(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, kind: Kind::PerLayer, sim: true }
}

/// Every metric the benchmark prints. Each workload reports all of them;
/// a per-layer metric whose layer a workload does not use reads 0.
pub const METRICS: &[MetricDef] = &[
    e2e("setup_s", "s"),
    e2e("points_per_s", "1/s"),
    e2e("point_ms_p50", "ms"),
    e2e("point_ms_p90", "ms"),
    e2e("campaigns_per_s", "1/s"),
    e2e("campaign_ms_p50", "ms"),
    e2e("campaign_ms_p90", "ms"),
    e2e("peak_rss_mb", "MiB"),
    sim("link_ticks_p50", "ticks"),
    sim("link_ticks_p90", "ticks"),
    sim("fresh_share", "share"),
    layer("failed_share", "share"),
    layer("attack.score_ms_per_image", "ms"),
    layer("attack.score_share", "share"),
    sim("accel.faults_per_image", "count"),
    layer("dnn.clean_ms_per_image", "ms"),
    layer("snapshot.capture_s", "s"),
    layer("snapshot.guided_ms", "ms"),
    layer("snapshot.guided_share", "share"),
    sim("snapshot.suffix_fraction", "share"),
    sim("snapshot.rejoin_ratio", "share"),
    sim("snapshot.full_replays", "count"),
    sim("snapshot.reference_served", "count"),
    layer("cosim.blind_ms", "ms"),
    layer("cosim.ns_per_cycle", "ns"),
    layer("par.threads", "count"),
    layer("par.utilisation", "share"),
    sim("uart.exchanges_per_campaign", "count"),
    sim("uart.retx_per_campaign", "count"),
    sim("uart.gave_up_per_campaign", "count"),
    sim("uart.bytes_per_campaign", "bytes"),
    sim("remote.resumes_per_campaign", "count"),
    layer("remote.pump_share", "share"),
    layer("remote.inference_share", "share"),
    layer("remote.eval_share", "share"),
    layer("remote.driver_share", "share"),
    sim("memo.hit_ratio", "share"),
    sim("search.prefix_share", "share"),
    layer("trace.overhead_share", "share"),
];

/// Looks a metric up by name.
///
/// # Panics
///
/// On a name missing from [`METRICS`] — a bug in the benchmark.
pub fn def(name: &str) -> &'static MetricDef {
    METRICS.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("uncatalogued metric {name}"))
}

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted: timed points or campaigns plus output checks.
    pub attempted: u64,
    /// Attempts that failed, panicked or produced a wrong output.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable facts printed above the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric value; non-finite values are stored as 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        def(name);
        self.values.insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Records a failed attempt with its reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {why}"));
    }

    /// The simulated-work metrics, for exact-repeat comparisons.
    pub fn sim_values(&self) -> Vec<(&'static str, f64)> {
        METRICS.iter().filter(|m| m.sim).map(|m| (m.name, self.value(m.name))).collect()
    }

    /// A metric's value (0 when the workload does not report it).
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The result line: every metric of `kind`, with its unit.
    pub fn json_line(&self, kind: Kind) -> String {
        let metrics: Vec<String> = METRICS
            .iter()
            .filter(|m| m.kind == kind)
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    self.value(m.name),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Linear-interpolated quantile of unsorted samples (0 for none).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Resets this process's peak resident set size to its current size
/// (Linux: `5` written to `/proc/self/clear_refs`). Returns false where
/// the kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`, since the last
/// [`reset_peak_rss`]), or 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kib.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
