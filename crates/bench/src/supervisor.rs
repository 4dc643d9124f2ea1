//! Crash-safe sweep supervisor for the figure binaries.
//!
//! Wraps [`par::try_map`] with durable slice checkpoints: the grid
//! is computed in fixed-size slices, and after each slice the prefix of
//! completed results is saved through a [`ckpt::CheckpointStore`]
//! (atomic write-rename + CRC + generation rollback). A `kill -9`
//! mid-sweep therefore costs at most one slice of recomputation, and —
//! because items are pure functions of their index — the resumed run's
//! results are **byte-identical** to an uninterrupted one.
//!
//! The binaries opt in through environment variables:
//!
//! | variable | effect |
//! |---|---|
//! | `DEEPSTRIKE_CHECKPOINT_DIR` | enable durable checkpoints in this directory |
//! | `DEEPSTRIKE_ABORT_AFTER_SLICES` | simulated crash: exit(3) after N slices (CI smoke) |
//!
//! Without `DEEPSTRIKE_CHECKPOINT_DIR` the supervisor degrades to a
//! plain panic-isolated sweep over the whole grid at once — no files are
//! touched.
//!
//! Quarantined (panicking) items are *not* persisted as completed: a
//! resume retries them, and if they fail deterministically they are
//! re-reported. Checkpoint corruption is detected (CRC), rolled back to
//! the previous generation when possible, and never silently loaded —
//! with no good generation the sweep restarts from scratch with a
//! warning rather than dying.

use std::process::exit;

use ckpt::{wire, CheckpointStore};
use par::SweepOutcome;

/// Environment variable enabling durable checkpoints (the directory).
pub const CHECKPOINT_DIR_ENV: &str = "DEEPSTRIKE_CHECKPOINT_DIR";

/// Grid points per checkpointed slice in [`supervised_sweep`].
const SLICE_LEN: usize = 8;

/// Environment variable injecting a simulated crash after N slices.
pub const ABORT_AFTER_ENV: &str = "DEEPSTRIKE_ABORT_AFTER_SLICES";

/// Exit code of a simulated abort (distinguishable from panics in CI).
pub const ABORT_EXIT_CODE: i32 = 3;

/// Encode/decode one sweep item result for the checkpoint payload. The
/// encoding must be bit-exact (use [`ckpt::wire`]'s `f64` helpers), or
/// resumed runs lose the byte-identical-output guarantee.
pub trait SliceCodec: Sized {
    /// Appends the encoded item to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one item; `None` on malformed input.
    fn decode(r: &mut wire::Reader<'_>) -> Option<Self>;
}

/// Outcome of a supervised sweep.
#[derive(Debug)]
pub enum SweepRun<T> {
    /// All slices ran (or were restored); results as
    /// [`par::SweepOutcome`] semantics — `None` at quarantined indices.
    Complete(SweepOutcome<T>),
    /// A simulated abort fired after `completed` items were durably
    /// checkpointed (test/CI path; the env-driven wrapper exits instead).
    Aborted {
        /// Items persisted before the abort.
        completed: usize,
        /// Checkpoint generation holding them.
        generation: u64,
    },
}

/// Payload layout: total item count (rejects resumes against a different
/// grid), then the count of completed prefix items, then each item
/// encoded by its [`SliceCodec`].
fn encode_prefix<T: SliceCodec>(total: usize, prefix: &[T]) -> Vec<u8> {
    let mut out = Vec::new();
    wire::put_u64(&mut out, total as u64);
    wire::put_u64(&mut out, prefix.len() as u64);
    for item in prefix {
        item.encode(&mut out);
    }
    out
}

fn decode_prefix<T: SliceCodec>(total: usize, payload: &[u8]) -> Option<Vec<T>> {
    let mut r = wire::Reader::new(payload);
    if r.take_u64()? as usize != total {
        return None;
    }
    let n = r.take_u64()? as usize;
    if n > total {
        return None;
    }
    let mut prefix = Vec::with_capacity(n);
    for _ in 0..n {
        prefix.push(T::decode(&mut r)?);
    }
    if !r.is_empty() {
        return None;
    }
    Some(prefix)
}

/// Loads the resumable prefix from `store`, degrading loudly (fresh
/// start + stderr warning) instead of dying on corruption or a grid
/// mismatch.
fn load_prefix<T: SliceCodec>(store: &CheckpointStore, total: usize) -> Vec<T> {
    match store.load() {
        Ok(None) => Vec::new(),
        Ok(Some(loaded)) => {
            if loaded.rolled_back {
                eprintln!(
                    "supervisor: checkpoint corrupt, rolled back to generation {}",
                    loaded.generation
                );
            }
            match decode_prefix(total, &loaded.payload) {
                Some(prefix) => prefix,
                None => {
                    eprintln!(
                        "supervisor: checkpoint payload does not match this sweep; starting fresh"
                    );
                    Vec::new()
                }
            }
        }
        Err(e) => {
            eprintln!("supervisor: {e}; starting fresh");
            Vec::new()
        }
    }
}

/// Runs `f` over `items` in checkpointed slices.
///
/// `store: None` disables durability (plain panic-isolated sweep).
/// `abort_after: Some(n)` returns [`SweepRun::Aborted`] after `n`
/// freshly-computed slices — the hook the kill-mid-sweep tests and the
/// CI smoke step use to simulate `kill -9` at a deterministic point.
///
/// Only the prefix of *consecutively completed* items is persisted: a
/// quarantined item ends the prefix, so it is retried on resume and its
/// report stays deterministic.
///
/// A quarantine-free completion clears the checkpoint store, so the next
/// invocation recomputes from scratch rather than replaying the stale
/// final prefix.
pub fn run_sliced<I, T, F>(
    items: &[I],
    f: F,
    mut store: Option<&mut CheckpointStore>,
    slice_len: usize,
    abort_after: Option<usize>,
) -> SweepRun<T>
where
    I: Sync,
    T: SliceCodec + Clone + Send,
    F: Fn(&I) -> T + Sync,
{
    let n = items.len();
    let slice_len = slice_len.max(1);
    let restored: Vec<T> = match store.as_deref() {
        Some(s) => load_prefix(s, n),
        None => Vec::new(),
    };
    let mut results: Vec<Option<T>> = restored.into_iter().map(Some).collect();
    let mut quarantine = Vec::new();
    let mut fresh_slices = 0usize;

    while results.len() < n {
        let start = results.len();
        let end = (start + slice_len).min(n);
        let slice = par::try_map(end - start, |k| f(&items[start + k]));
        for q in &slice.quarantine {
            quarantine
                .push(par::Quarantined { index: start + q.index, message: q.message.clone() });
        }
        results.extend(slice.results);
        fresh_slices += 1;
        if let Some(s) = store.as_deref_mut() {
            // Persist the consecutive completed prefix; a quarantined
            // slot ends it so the poison point is retried on resume.
            let prefix: Vec<T> =
                results.iter().take_while(|r| r.is_some()).flatten().cloned().collect();
            if let Err(e) = s.save(&encode_prefix(n, &prefix)) {
                eprintln!("supervisor: checkpoint save failed: {e}");
            } else if abort_after.is_some_and(|limit| fresh_slices >= limit) && results.len() < n {
                return SweepRun::Aborted { completed: prefix.len(), generation: s.generation() };
            }
        }
    }
    // A cleanly finished sweep retires its checkpoint — leaving the final
    // prefix on disk would make the next invocation replay stale results
    // instead of recomputing. A quarantined slot keeps the store so a
    // rerun retries the poison point from the persisted prefix.
    if quarantine.is_empty() {
        if let Some(s) = store {
            if let Err(e) = s.clear() {
                eprintln!("supervisor: failed to clear finished checkpoint: {e}");
            }
        }
    }
    SweepRun::Complete(SweepOutcome { results, quarantine })
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// The env-driven entry point for the figure binaries: reads
/// [`CHECKPOINT_DIR_ENV`] / [`ABORT_AFTER_ENV`], runs the supervised
/// sweep in `SLICE_LEN`-point slices (the whole grid as one slice when
/// no checkpoint directory is set), reports quarantined points on
/// stderr and returns the per-item results (`None` at quarantined
/// indices).
///
/// On a simulated abort the process exits with [`ABORT_EXIT_CODE`]; a
/// quarantine-free completion clears the checkpoint files (in
/// [`run_sliced`]) so the next invocation starts fresh.
pub fn supervised_sweep<I, T, F>(name: &str, items: &[I], f: F) -> Vec<Option<T>>
where
    I: Sync,
    T: SliceCodec + Clone + Send,
    F: Fn(&I) -> T + Sync,
{
    let abort_after = env_usize(ABORT_AFTER_ENV);
    let mut store = std::env::var(CHECKPOINT_DIR_ENV).ok().map(|dir| {
        CheckpointStore::new(dir, name)
            .unwrap_or_else(|e| panic!("checkpoint store for {name}: {e}"))
    });
    // Slices only bound the work a crash loses; with nothing to persist,
    // one slice keeps every point in flight at once.
    let slice_len = if store.is_some() { SLICE_LEN } else { items.len() };
    let outcome = run_sliced(items, f, store.as_mut(), slice_len, abort_after);
    match outcome {
        SweepRun::Aborted { completed, generation } => {
            eprintln!(
                "supervisor: simulated abort after {completed} items \
                 (checkpoint generation {generation})"
            );
            exit(ABORT_EXIT_CODE);
        }
        SweepRun::Complete(outcome) => {
            for q in &outcome.quarantine {
                eprintln!("supervisor: quarantined item {}: {}", q.index, q.message);
            }
            outcome.results
        }
    }
}

// Codec impls for the shapes the figure binaries sweep.

impl<T: SliceCodec> SliceCodec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Some(v) => {
                wire::put_bool(out, true);
                v.encode(out);
            }
            None => wire::put_bool(out, false),
        }
    }
    fn decode(r: &mut wire::Reader<'_>) -> Option<Self> {
        if r.take_bool()? {
            Some(Some(T::decode(r)?))
        } else {
            Some(None)
        }
    }
}

impl SliceCodec for deepstrike::attack::AttackOutcome {
    fn encode(&self, out: &mut Vec<u8>) {
        wire::put_f64(out, self.clean_accuracy);
        wire::put_f64(out, self.attacked_accuracy);
        wire::put_u64(out, self.strikes_fired as u64);
        wire::put_f64(out, self.mean_faults_per_image);
        wire::put_f64(out, self.mean_duplicate_per_image);
        wire::put_f64(out, self.mean_random_per_image);
    }
    fn decode(r: &mut wire::Reader<'_>) -> Option<Self> {
        Some(Self {
            clean_accuracy: r.take_f64()?,
            attacked_accuracy: r.take_f64()?,
            strikes_fired: r.take_u64()? as usize,
            mean_faults_per_image: r.take_f64()?,
            mean_duplicate_per_image: r.take_f64()?,
            mean_random_per_image: r.take_f64()?,
        })
    }
}

impl SliceCodec for (f64, f64) {
    fn encode(&self, out: &mut Vec<u8>) {
        wire::put_f64(out, self.0);
        wire::put_f64(out, self.1);
    }
    fn decode(r: &mut wire::Reader<'_>) -> Option<Self> {
        Some((r.take_f64()?, r.take_f64()?))
    }
}

impl SliceCodec for (f64, f64, f64, f64) {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in [self.0, self.1, self.2, self.3] {
            wire::put_f64(out, v);
        }
    }
    fn decode(r: &mut wire::Reader<'_>) -> Option<Self> {
        Some((r.take_f64()?, r.take_f64()?, r.take_f64()?, r.take_f64()?))
    }
}

impl SliceCodec for (f64, f64, u64) {
    fn encode(&self, out: &mut Vec<u8>) {
        wire::put_f64(out, self.0);
        wire::put_f64(out, self.1);
        wire::put_u64(out, self.2);
    }
    fn decode(r: &mut wire::Reader<'_>) -> Option<Self> {
        Some((r.take_f64()?, r.take_f64()?, r.take_u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("deepstrike-supervisor-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn grid() -> Vec<u64> {
        (0..23u64).collect()
    }

    fn point(i: &u64) -> (f64, f64) {
        (*i as f64 * 1.5, (*i as f64).sqrt())
    }

    #[test]
    fn abort_then_resume_is_byte_identical_and_skips_completed_work() {
        let items = grid();
        let reference = match run_sliced(&items, point, None, 4, None) {
            SweepRun::Complete(o) => o.into_complete(),
            other => panic!("unexpected {other:?}"),
        };

        let dir = temp_dir("resume");
        let mut store = CheckpointStore::new(&dir, "sweep").expect("store");
        let aborted = run_sliced(&items, point, Some(&mut store), 4, Some(2));
        let completed = match aborted {
            SweepRun::Aborted { completed, generation } => {
                assert_eq!(completed, 8, "two slices of four");
                assert!(generation >= 1);
                completed
            }
            other => panic!("expected abort, got {other:?}"),
        };

        // Resume in a fresh store handle (the process "restarted").
        let computed = AtomicUsize::new(0);
        let mut store = CheckpointStore::new(&dir, "sweep").expect("store reopens");
        let resumed = run_sliced(
            &items,
            |i| {
                computed.fetch_add(1, Ordering::Relaxed);
                point(i)
            },
            Some(&mut store),
            4,
            None,
        );
        let resumed = match resumed {
            SweepRun::Complete(o) => o.into_complete(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(resumed, reference, "resume must reproduce the uninterrupted sweep");
        assert_eq!(
            computed.load(Ordering::Relaxed),
            items.len() - completed,
            "completed prefix must not be recomputed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_sweep_clears_checkpoint_and_rerun_recomputes() {
        let items = grid();
        let dir = temp_dir("rerun");
        let mut store = CheckpointStore::new(&dir, "sweep").expect("store");
        let first = match run_sliced(&items, point, Some(&mut store), 4, None) {
            SweepRun::Complete(o) => o.into_complete(),
            other => panic!("unexpected {other:?}"),
        };
        // The finished sweep must retire its checkpoint (the lifecycle
        // bug this guards against: the final prefix stayed on disk) …
        assert!(
            store.load().expect("store readable").is_none(),
            "completed sweep must clear its checkpoint"
        );

        // … so a rerun recomputes every point instead of replaying a
        // stale full prefix.
        let computed = AtomicUsize::new(0);
        let mut store = CheckpointStore::new(&dir, "sweep").expect("store reopens");
        let rerun = run_sliced(
            &items,
            |i| {
                computed.fetch_add(1, Ordering::Relaxed);
                point(i)
            },
            Some(&mut store),
            4,
            None,
        );
        let rerun = match rerun {
            SweepRun::Complete(o) => o.into_complete(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(rerun, first);
        assert_eq!(computed.load(Ordering::Relaxed), items.len(), "rerun must recompute all");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_rolls_back_and_still_completes() {
        let items = grid();
        let reference = match run_sliced(&items, point, None, 4, None) {
            SweepRun::Complete(o) => o.into_complete(),
            other => panic!("unexpected {other:?}"),
        };
        let dir = temp_dir("corrupt");
        let mut store = CheckpointStore::new(&dir, "sweep").expect("store");
        // Two checkpoint generations, then corrupt the current one.
        match run_sliced(&items, point, Some(&mut store), 4, Some(3)) {
            SweepRun::Aborted { .. } => {}
            other => panic!("expected abort, got {other:?}"),
        }
        let path = store.path().to_path_buf();
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("corrupt");

        let mut store = CheckpointStore::new(&dir, "sweep").expect("store reopens");
        let resumed = match run_sliced(&items, point, Some(&mut store), 4, None) {
            SweepRun::Complete(o) => o.into_complete(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(resumed, reference, "rollback resume must still be byte-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantined_point_ends_the_persisted_prefix_and_is_retried() {
        let items = grid();
        let dir = temp_dir("quarantine");
        let mut store = CheckpointStore::new(&dir, "sweep").expect("store");
        let attempt = std::sync::Mutex::new(0u32);
        let flaky = |i: &u64| {
            if *i == 5 {
                let mut a = attempt.lock().unwrap_or_else(|e| e.into_inner());
                *a += 1;
                if *a == 1 {
                    panic!("transient failure at 5");
                }
            }
            point(i)
        };
        // First pass: item 5 panics, everything else completes.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let first = run_sliced(&items, flaky, Some(&mut store), 4, None);
        std::panic::set_hook(hook);
        let first = match first {
            SweepRun::Complete(o) => o,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(first.quarantine.len(), 1);
        assert_eq!(first.quarantine[0].index, 5);

        // The persisted prefix stops at the quarantined slot …
        let loaded = store.load().expect("load").expect("present");
        let prefix: Vec<(f64, f64)> = decode_prefix(items.len(), &loaded.payload).expect("decodes");
        assert_eq!(prefix.len(), 5, "prefix must end before the quarantined index");

        // … so a resume retries it; the transient failure is gone and
        // the sweep now matches the clean reference.
        let reference = match run_sliced(&items, point, None, 4, None) {
            SweepRun::Complete(o) => o.into_complete(),
            other => panic!("unexpected {other:?}"),
        };
        let mut store = CheckpointStore::new(&dir, "sweep").expect("store reopens");
        let resumed = match run_sliced(&items, flaky, Some(&mut store), 4, None) {
            SweepRun::Complete(o) => o.into_complete(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(resumed, reference);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
