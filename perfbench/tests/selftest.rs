//! Self-tests of the campaign benchmark.
//!
//! Run from the repository root:
//! `cargo test --manifest-path perfbench/Cargo.toml`
//! (the package's dev profile is optimised; the whole suite takes a few
//! minutes because it runs every workload several times).
//!
//! `par` takes its pool size from a process-wide environment variable, so
//! every test that runs a workload holds [`SERIAL`].

use std::sync::Mutex;

use perfbench::report::{Kind, METRICS};
use perfbench::{closed_loop, par_items, run, spans, Options, WORKLOADS};

static SERIAL: Mutex<()> = Mutex::new(());

fn options(workload: &str, seed: u64, workers: usize, trace: bool) -> Options {
    Options { workload: workload.to_string(), seed, seconds: 0.0, trace, workers }
}

/// One round of a workload (one untraced and one traced on a traced run).
fn once(workload: &str, seed: u64, workers: usize, trace: bool) -> perfbench::Report {
    run(&options(workload, seed, workers, trace)).expect("known workload")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let (e2e, per_layer) = json.split_once("\"per_layer\"").expect("a per_layer section");
    let mut seen = std::collections::BTreeSet::new();
    for m in METRICS {
        assert!(well_formed(m.name), "metric name {:?}", m.name);
        assert!(m.name.len() <= 64 && m.name.as_bytes()[0].is_ascii_alphanumeric(), "{}", m.name);
        assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "unit of {}", m.name);
        assert!(seen.insert(m.name), "{} is catalogued twice", m.name);
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
        let section = if m.kind == Kind::EndToEnd { e2e } else { per_layer };
        assert!(section.contains(&entry), "BENCHMARK.json lacks {entry} in its {:?} list", m.kind);
    }
    assert_eq!(
        json.matches("\"unit\"").count(),
        METRICS.len(),
        "BENCHMARK.json lists extra metrics"
    );
    for w in WORKLOADS {
        assert!(json.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
}

#[test]
fn library_trace_bus_stays_off_and_a_live_session_is_caught() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A traced run records only the benchmark's own spans: the library's
    // bus stays off, so the engine forks instead of replaying in full.
    let report = once("strike_search", 7, 2, true);
    assert!(!trace::enabled());
    assert_eq!(report.failed, 0, "{:?}", report.notes);
    assert_eq!(report.value("snapshot.full_replays"), 0.0);
    assert!(report.value("snapshot.guided_share") > 0.0, "spans were recorded");
    assert!(!spans::enabled());

    // With a library session open, every item is refused.
    let session = trace::Session::start(16);
    let opts = options("strike_search", 7, 2, false);
    let m = closed_loop(&opts, |_| par_items(2, "point", |i| (i as u64, 0), |_| Ok(())));
    drop(session);
    assert_eq!(m.failures.len(), 2, "{:?}", m.failures);
}

#[test]
fn sim_metrics_repeat_across_runs_and_worker_counts() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in WORKLOADS {
        let a = once(workload, 3, 2, false);
        let b = once(workload, 3, 2, false);
        let c = once(workload, 3, 1, false);
        for r in [&a, &b, &c] {
            assert_eq!(r.failed, 0, "{workload}: {:?}", r.notes);
        }
        let bits = |r: &perfbench::Report| -> Vec<(&str, u64)> {
            r.sim_values().into_iter().map(|(n, v)| (n, v.to_bits())).collect()
        };
        assert_eq!(bits(&a), bits(&b), "{workload}: two runs at one seed");
        assert_eq!(bits(&a), bits(&c), "{workload}: one worker against two");
        // The notes carry the per-point results and the outcome digest.
        let outputs = |r: &perfbench::Report| -> Vec<String> {
            r.notes
                .iter()
                .filter(|n| !n.contains(" s ") && !n.contains("workers"))
                .cloned()
                .collect()
        };
        assert_eq!(outputs(&a), outputs(&c), "{workload}: outputs differ between worker counts");
    }
}

#[test]
fn a_held_out_seed_runs_clean() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in WORKLOADS {
        let report = once(workload, 0x5EED_0BAD, 2, false);
        assert_eq!(report.failed, 0, "{workload}: {:?}", report.notes);
        for m in METRICS.iter().filter(|m| m.kind == Kind::EndToEnd) {
            let v = report.value(m.name);
            assert!(v.is_finite() && v > 0.0, "{workload}: {} = {v}", m.name);
        }
    }
}

/// Reproduces the transport defect that fixes the fleet's links (see
/// `remote_fleet::FLEET_SEED`): with loss and corruption on the link, the
/// CRC-16 frame check now and then accepts a damaged frame, and the
/// campaign ends with a protocol error. It fails until the transport is
/// fixed; run it with `--ignored`.
#[test]
#[ignore = "fails: the CRC-16 frame check accepts some damaged frames"]
fn lossy_streaming_campaigns_survive_frame_damage() {
    use perfbench::remote_fleet::{Fleet, Link};
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    std::env::set_var(par::THREADS_ENV, "2");
    let (fleet, _) = Fleet::set_up(1);
    let links: Vec<Link> = (0..600)
        .map(|k| {
            let s = par::seed_for(777, k);
            Link { rate: 0.04, seed: s, outage: (40 + s % 2000, 30 + (s >> 16) % 31), give_ups: 0 }
        })
        .collect();
    let failed: Vec<String> =
        par::map_items(&links, |l| fleet.boards.campaign(l).err()).into_iter().flatten().collect();
    assert!(failed.is_empty(), "{} of {} campaigns failed: {failed:?}", failed.len(), links.len());
}
