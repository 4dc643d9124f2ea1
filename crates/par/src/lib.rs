//! Deterministic parallel-map runtime for embarrassingly-parallel
//! campaign sweeps.
//!
//! The figure harnesses sweep thousands of independent campaign points
//! (layer × strike-count, striker-cell counts, per-image fault trials).
//! This crate splits an index range across a scoped worker pool
//! (`std::thread::scope`; the workspace dependency policy forbids rayon)
//! and merges results **in index order**, so the output is bit-identical
//! to the serial path regardless of thread count.
//!
//! # Determinism contract
//!
//! - Work items must be independent: item `i` may depend only on `i` and
//!   on shared read-only state, never on another item's output.
//! - Randomised items take their generator from [`map_seeded`], which
//!   hands item `i` an `StdRng` seeded by [`seed_for`]`(campaign_seed, i)`
//!   — a SplitMix64 mix of the campaign seed and the item index. The
//!   stream an item sees is a pure function of `(campaign_seed, i)`, so
//!   scheduling order and worker count cannot change it.
//! - Results are written back by item index; `DEEPSTRIKE_THREADS=1` and
//!   `DEEPSTRIKE_THREADS=64` produce byte-identical outputs.
//!
//! # Panic isolation
//!
//! A panicking work item no longer poisons the join: every item runs
//! under [`std::panic::catch_unwind`], and failures are *quarantined*
//! instead of killing the worker. [`try_map`] returns a
//! [`SweepOutcome`]: surviving results in index order (`None` at the
//! quarantined slots) plus a deterministic [`Quarantined`] report per
//! failed item (index + panic-payload summary). Because items are pure
//! functions of their index, the quarantine set — and every surviving
//! result — is bit-identical at any `DEEPSTRIKE_THREADS`. The classic
//! [`map`] keeps its all-or-nothing contract by re-panicking (with the
//! quarantined indices) after the whole sweep has drained.
//!
//! # Thread count
//!
//! `DEEPSTRIKE_THREADS` overrides the pool size (values `< 1` clamp
//! to 1); the default is `std::thread::available_parallelism()`. Nested
//! calls (a parallel map inside a worker) run serially on the calling
//! worker rather than oversubscribing — the result is identical either
//! way by the contract above.
//!
//! # Tracing
//!
//! When the calling thread has a [`trace`] session installed, each work
//! item records into a private capture buffer on its worker and the logs
//! are re-appended to the caller's session **in index order** after the
//! join — so a pipeline trace is bit-identical at any `DEEPSTRIKE_THREADS`.
//! A quarantined item's capture buffer is discarded during the unwind and
//! never reaches the merged stream; the merge emits one
//! [`trace::Event::WorkerQuarantined`] per failed index instead, again in
//! index order.

#![deny(clippy::unwrap_used)]

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Environment variable overriding the worker-pool size.
pub const THREADS_ENV: &str = "DEEPSTRIKE_THREADS";

/// The worker-pool size: `DEEPSTRIKE_THREADS` if set (clamped to ≥ 1),
/// otherwise the machine's available parallelism.
pub fn thread_count() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-item seed: a SplitMix64-style mix of `(campaign_seed, index)`.
///
/// Adjacent indices and adjacent campaign seeds map to uncorrelated
/// streams, so `seed ^ i`-style collisions (where two campaign points
/// share a stream) cannot occur.
pub fn seed_for(campaign_seed: u64, index: u64) -> u64 {
    mix(mix(campaign_seed) ^ mix(index.wrapping_add(0x5851_F42D_4C95_7F2D)))
}

/// One quarantined work item: which index panicked and a summary of the
/// panic payload. The report is a pure function of the item, so it is
/// identical at any `DEEPSTRIKE_THREADS`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// The work-item index that panicked.
    pub index: usize,
    /// The panic payload rendered to text (`&str`/`String` payloads
    /// verbatim, anything else a fixed placeholder).
    pub message: String,
}

/// Typed partial results of a sweep: surviving results in index order
/// (`None` at quarantined slots) plus the quarantine report, sorted by
/// index.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome<T> {
    /// Per-index results; `None` exactly at the quarantined indices.
    pub results: Vec<Option<T>>,
    /// One entry per panicked item, in index order.
    pub quarantine: Vec<Quarantined>,
}

impl<T> SweepOutcome<T> {
    /// Number of items that completed.
    pub fn completed(&self) -> usize {
        self.results.len() - self.quarantine.len()
    }

    /// Unwraps into the plain result vector, panicking with the
    /// quarantined indices if any item failed (the [`map`] contract).
    pub fn into_complete(self) -> Vec<T> {
        if let Some(first) = self.quarantine.first() {
            let indices: Vec<usize> = self.quarantine.iter().map(|q| q.index).collect();
            panic!(
                "{} of {} sweep items panicked (indices {indices:?}); first: item {} — {}",
                self.quarantine.len(),
                self.results.len(),
                first.index,
                first.message
            );
        }
        // Invariant: with an empty quarantine every slot is `Some` (the
        // engine records exactly one of result/quarantine per index).
        self.results
            .into_iter()
            .map(|v| v.expect("no quarantine entry implies every slot filled"))
            .collect()
    }
}

/// Renders a caught panic payload as text. `&str` and `String` payloads
/// (everything `panic!` produces) pass through verbatim; exotic payloads
/// get a fixed placeholder so the report stays deterministic.
fn payload_summary(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Per-item engine result: the value plus its captured trace, or the
/// panic summary.
type ItemSlot<T> = Result<(T, Option<trace::TraceLog>), String>;

fn run_item<T, F>(f: &F, i: usize, capture_capacity: Option<usize>) -> ItemSlot<T>
where
    F: Fn(usize) -> T,
{
    // If `f` panics inside `trace::capture`, the capture session's Drop
    // runs during the unwind and *discards* the partially-filled buffer —
    // a quarantined item can never leak events into the merged stream.
    catch_unwind(AssertUnwindSafe(|| match capture_capacity {
        Some(cap) => {
            let (value, log) = trace::capture(cap, || f(i));
            (value, Some(log))
        }
        None => (f(i), None),
    }))
    .map_err(|payload| payload_summary(payload.as_ref()))
}

/// Merges per-index slots into a [`SweepOutcome`], appending surviving
/// trace logs and emitting [`trace::Event::WorkerQuarantined`] for failed
/// indices — all in index order, so the merged stream is thread-count
/// invariant.
fn merge_slots<T>(slots: Vec<Option<ItemSlot<T>>>) -> SweepOutcome<T> {
    let mut results = Vec::with_capacity(slots.len());
    let mut quarantine = Vec::new();
    for (i, slot) in slots.into_iter().enumerate() {
        // Invariant: the dispatch loop hands out each index exactly once
        // and every worker stores a slot for each index it took.
        let slot = slot.expect("every dispatched index produced a slot");
        match slot {
            Ok((value, log)) => {
                if let Some(log) = log {
                    trace::append(log);
                }
                results.push(Some(value));
            }
            Err(message) => {
                trace::emit(|| trace::Event::WorkerQuarantined { index: i as u64 });
                quarantine.push(Quarantined { index: i, message });
                results.push(None);
            }
        }
    }
    SweepOutcome { results, quarantine }
}

/// Maps `f` over `0..n` with per-item panic isolation; returns a
/// [`SweepOutcome`] with surviving results in index order and a
/// deterministic quarantine report for the items that panicked.
pub fn try_map<T, F>(n: usize, f: F) -> SweepOutcome<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = thread_count().min(n.max(1));
    let capture_capacity = trace::current_capacity();
    if workers <= 1 || n <= 1 || IN_WORKER.with(Cell::get) {
        // Serial path: same engine, same capture-per-item semantics, so
        // the outcome (and the merged trace) is identical to the
        // parallel path by construction.
        let slots = (0..n).map(|i| Some(run_item(&f, i, capture_capacity))).collect();
        return merge_slots(slots);
    }

    // The caller's trace session is thread-local, so workers capture each
    // item's events privately; the logs are appended back in index order
    // by `merge_slots`, making the merged trace independent of
    // scheduling.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<ItemSlot<T>>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                s.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        // A panicking item is caught here, so the worker
                        // survives and keeps draining the queue.
                        local.push((i, run_item(f, i, capture_capacity)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            // Invariant: workers catch every item panic above; a join
            // error would mean the runtime itself panicked.
            for (i, slot) in handle.join().expect("par worker caught all item panics") {
                slots[i] = Some(slot);
            }
        }
    });
    merge_slots(slots)
}

/// Maps `f` over `0..n` on the worker pool; returns results in index
/// order. `f` must be a pure function of its index (plus shared
/// read-only captures).
///
/// # Panics
///
/// If any item panics, the sweep still drains completely (no work item
/// is abandoned mid-flight), then this re-panics listing the quarantined
/// indices — use [`try_map`] to receive partial results instead.
pub fn map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    try_map(n, f).into_complete()
}

/// Maps `f` over the items of a slice; returns results in item order.
pub fn map_items<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    map(items.len(), |i| f(&items[i]))
}

/// Maps `f` over `0..n`, handing each item its own `StdRng` seeded from
/// `(campaign_seed, index)` via [`seed_for`]. The randomness an item
/// sees is independent of scheduling, so results merge bit-identically
/// at any thread count.
pub fn map_seeded<T, F>(n: usize, campaign_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut StdRng) -> T + Sync,
{
    map(n, |i| {
        let mut rng = StdRng::seed_from_u64(seed_for(campaign_seed, i as u64));
        f(i, &mut rng)
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Runs `f` with the default panic hook replaced by a no-op, so
    /// intentionally-panicking work items don't spray backtraces into the
    /// test output. The hook is global; tests touching it funnel through
    /// here under one lock.
    fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        static HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = f();
        std::panic::set_hook(hook);
        result
    }

    #[test]
    fn results_arrive_in_index_order() {
        let out = map(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        assert!(map(0, |i| i).is_empty());
        assert_eq!(map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn map_items_preserves_order() {
        let items = ["a", "bb", "ccc"];
        assert_eq!(map_items(&items, |s| s.len()), vec![1, 2, 3]);
    }

    #[test]
    fn seeded_map_matches_serial_reference() {
        let parallel = map_seeded(64, 42, |i, rng| (i, rng.gen_range(0u32..1000)));
        let serial: Vec<_> = (0..64)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(seed_for(42, i as u64));
                (i as usize, rng.gen_range(0u32..1000))
            })
            .collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn per_item_streams_are_uncorrelated() {
        // A weak mix like `seed ^ i` makes item 1 of campaign 2 collide
        // with item 3 of campaign 0; the mixed seeds must all differ.
        let mut seeds = std::collections::HashSet::new();
        for campaign in 0..50u64 {
            for item in 0..50u64 {
                seeds.insert(seed_for(campaign, item));
            }
        }
        assert_eq!(seeds.len(), 2500);
    }

    #[test]
    fn nested_maps_run_serially_and_match() {
        let nested = map(8, |i| map(8, move |j| i * 8 + j));
        let flat: Vec<Vec<usize>> = (0..8).map(|i| (0..8).map(|j| i * 8 + j).collect()).collect();
        assert_eq!(nested, flat);
    }

    #[test]
    fn traces_merge_in_index_order() {
        // The env var is process-global and owned by tests/par_determinism.rs;
        // here we only check that the parallel path stitches per-item event
        // logs back in index order regardless of scheduling.
        let (out, log) = trace::capture(1 << 12, || {
            map(32, |i| {
                let spin = if i % 5 == 0 { 20_000 } else { 10 };
                let mut acc = i as u64;
                for k in 0..spin {
                    acc = acc.wrapping_mul(31).wrapping_add(k);
                }
                trace::emit(|| trace::Event::TdcSample {
                    index: i as u64,
                    count: (acc % 97) as u8,
                });
                i
            })
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
        assert_eq!(log.dropped, 0);
        let indices: Vec<u64> = log
            .events
            .iter()
            .map(|e| match e {
                trace::Event::TdcSample { index, .. } => *index,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(indices, (0..32u64).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_work_still_merges_in_order() {
        let out = map(32, |i| {
            // Vary per-item cost so the dynamic scheduler interleaves.
            let spin = if i % 7 == 0 { 20_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spin {
                acc = acc.wrapping_mul(31).wrapping_add(k);
            }
            (i, acc)
        });
        for (i, entry) in out.iter().enumerate() {
            assert_eq!(entry.0, i);
        }
    }

    #[test]
    fn poison_items_are_quarantined_and_the_sweep_completes() {
        let outcome = with_quiet_panics(|| {
            try_map(40, |i| {
                if i == 7 || i == 23 {
                    panic!("poison point {i}");
                }
                i * 2
            })
        });
        assert_eq!(outcome.results.len(), 40);
        assert_eq!(outcome.completed(), 38);
        assert_eq!(
            outcome.quarantine,
            vec![
                Quarantined { index: 7, message: "poison point 7".into() },
                Quarantined { index: 23, message: "poison point 23".into() },
            ]
        );
        for (i, slot) in outcome.results.iter().enumerate() {
            if i == 7 || i == 23 {
                assert_eq!(*slot, None);
            } else {
                assert_eq!(*slot, Some(i * 2), "survivor {i} must match the clean value");
            }
        }
    }

    #[test]
    fn map_repanics_with_the_quarantined_indices() {
        let caught = with_quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                map(10, |i| {
                    if i == 4 {
                        panic!("bad point");
                    }
                    i
                })
            }))
        });
        let payload = caught.expect_err("map must re-panic");
        let message = payload_summary(payload.as_ref());
        assert!(message.contains("[4]") && message.contains("bad point"), "{message}");
    }

    #[test]
    fn quarantined_items_leak_no_trace_events() {
        // The poison item emits an event *before* panicking; the merged
        // stream must contain the survivors' events (in index order) plus
        // one WorkerQuarantined marker — never the poison item's payload.
        let (outcome, log) = with_quiet_panics(|| {
            trace::capture(1 << 12, || {
                try_map(8, |i| {
                    trace::emit(|| trace::Event::TdcSample { index: i as u64, count: 1 });
                    if i == 3 {
                        panic!("poison after emitting");
                    }
                    i
                })
            })
        });
        assert_eq!(outcome.quarantine.len(), 1);
        assert_eq!(outcome.quarantine[0].index, 3);
        let rendered = log.to_jsonl();
        assert!(!rendered.contains(r#""index":3,"count""#), "poison trace leaked:\n{rendered}");
        let survivors: Vec<&trace::Event> =
            log.events.iter().filter(|e| matches!(e, trace::Event::TdcSample { .. })).collect();
        let markers: Vec<&trace::Event> = log
            .events
            .iter()
            .filter(|e| matches!(e, trace::Event::WorkerQuarantined { .. }))
            .collect();
        assert_eq!(survivors.len() + markers.len(), log.events.len());
        assert_eq!(markers, vec![&trace::Event::WorkerQuarantined { index: 3 }]);
        let survivor_indices: Vec<u64> = survivors
            .iter()
            .map(|e| match e {
                trace::Event::TdcSample { index, .. } => *index,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(survivor_indices, vec![0, 1, 2, 4, 5, 6, 7]);
    }

    #[test]
    fn serial_and_nested_quarantine_match_the_parallel_outcome() {
        // The nested call runs on a worker (serial engine); its outcome
        // must equal the top-level parallel one.
        let outer = with_quiet_panics(|| {
            try_map(2, |_| {
                let inner = try_map(10, |j| {
                    if j == 5 {
                        panic!("inner poison");
                    }
                    j
                });
                (inner.quarantine.clone(), inner.completed())
            })
        });
        let flat = outer.into_complete();
        for (quarantine, completed) in flat {
            assert_eq!(completed, 9);
            assert_eq!(quarantine, vec![Quarantined { index: 5, message: "inner poison".into() }]);
        }
    }
}
