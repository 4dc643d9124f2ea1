//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark's own code, around calls into
//! the library's public functions; the library's own `trace` event bus
//! stays off (see `lib.rs`). Each worker thread keeps its spans in a
//! thread-local buffer and hands them to a global list when a root span
//! (one sweep point or one campaign) closes, so the hot path takes no
//! lock. The list is written out once, at the end of the run. A point
//! whose work is split over several pool items (a `guided_sweep` point is
//! simulated in one and scored in several) records one root span per
//! item, each a *part* of the same id.
//!
//! A span that covers many short calls (e.g. the ~10⁵ transport-shell
//! pumps of one remote campaign) is recorded once per parent as an
//! *aggregate*: a call count and the duration of a sample of the calls,
//! scaled to all of them. Self time is a
//! span's duration minus the durations of its children, which run
//! sequentially on the same thread and so never overlap.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

static ENABLED: AtomicBool = AtomicBool::new(false);
static FINISHED: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Local> = const { RefCell::new(Local { spans: Vec::new(), stack: Vec::new() }) };
}

struct Local {
    /// Spans of the root currently open on this thread.
    spans: Vec<Span>,
    /// Indices into `spans` of the spans still open, innermost last.
    stack: Vec<usize>,
}

/// One recorded span (or aggregate of calls).
#[derive(Debug, Clone)]
pub struct Span {
    /// Identifier shared by every span of one point or campaign.
    pub root: u64,
    /// Which pool item of the point or campaign recorded the span.
    pub part: u32,
    /// Index of this span within its root.
    pub index: usize,
    /// Index of the parent span within the root; `None` for the root.
    pub parent: Option<usize>,
    /// Layer call name, e.g. `attack.score`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Summed duration of the covered calls, in nanoseconds.
    pub dur_ns: u64,
    /// Calls covered (1 for an ordinary span).
    pub calls: u64,
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// True while spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` as the root span of part `part` of the point or campaign
/// `root`.
pub fn root<T>(root: u64, part: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    OPEN.with(|o| {
        let mut o = o.borrow_mut();
        debug_assert!(o.stack.is_empty(), "root spans do not nest");
        o.spans.clear();
        o.spans.push(Span {
            root,
            part,
            index: 0,
            parent: None,
            name,
            start_ns: now_ns(),
            dur_ns: 0,
            calls: 1,
        });
        o.stack.push(0);
    });
    let out = f();
    let spans = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        o.stack.clear();
        let end = now_ns();
        let root_span = &mut o.spans[0];
        root_span.dur_ns = end - root_span.start_ns;
        std::mem::take(&mut o.spans)
    });
    FINISHED.lock().expect("span list lock is never held across a panic").extend(spans);
    out
}

/// Runs `f` as a child span of the innermost open span on this thread.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() || OPEN.with(|o| o.borrow().stack.is_empty()) {
        return f();
    }
    let index = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        let index = o.spans.len();
        let parent = o.stack.last().copied();
        let (root, part) = (o.spans[0].root, o.spans[0].part);
        o.spans.push(Span {
            root,
            part,
            index,
            parent,
            name,
            start_ns: now_ns(),
            dur_ns: 0,
            calls: 1,
        });
        o.stack.push(index);
        index
    });
    let out = f();
    OPEN.with(|o| {
        let mut o = o.borrow_mut();
        o.stack.pop();
        let end = now_ns();
        let span = &mut o.spans[index];
        span.dur_ns = end - span.start_ns;
    });
    out
}

/// Per-parent accumulator for calls too frequent to record one by one.
/// Call [`Aggregate::time`] around each call, then [`Aggregate::flush`]
/// once inside the parent span.
///
/// Reading the clock twice per call would cost as much as a short call
/// itself, so only one call in [`Aggregate::SAMPLE_EVERY`] is timed, picked
/// by a hash of its index so the choice cannot line up with a periodic
/// call pattern; the recorded duration is the sampled time scaled to
/// every call.
#[derive(Debug)]
pub struct Aggregate {
    name: &'static str,
    first_start_ns: Option<u64>,
    sampled_time: Duration,
    sampled: u64,
    calls: u64,
}

impl Aggregate {
    /// One call in this many is timed.
    pub const SAMPLE_EVERY: u64 = 8;

    /// An empty accumulator for calls named `name`.
    pub fn new(name: &'static str) -> Self {
        Aggregate { name, first_start_ns: None, sampled_time: Duration::ZERO, sampled: 0, calls: 0 }
    }

    /// Runs `f`, counting it (and timing it, if sampled) when recording
    /// is on.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if !enabled() {
            return f();
        }
        if self.first_start_ns.is_none() {
            self.first_start_ns = Some(now_ns());
        }
        self.calls += 1;
        // Fibonacci hashing: the top bits of `calls × φ·2⁶⁴` spread
        // consecutive indices evenly over the sample classes.
        if self.calls.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61 != 0 {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.sampled_time += t.elapsed();
        self.sampled += 1;
        out
    }

    /// Records the accumulated calls as one child of the innermost open
    /// span and resets the accumulator.
    pub fn flush(&mut self) {
        let Some(start_ns) = self.first_start_ns.take() else { return };
        let sampled_ns = std::mem::take(&mut self.sampled_time).as_nanos() as f64;
        let sampled = std::mem::take(&mut self.sampled);
        let calls = std::mem::take(&mut self.calls);
        let dur_ns =
            if sampled == 0 { 0 } else { (sampled_ns * calls as f64 / sampled as f64) as u64 };
        OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let Some(&parent) = o.stack.last() else { return };
            let index = o.spans.len();
            let (root, part) = (o.spans[0].root, o.spans[0].part);
            o.spans.push(Span {
                root,
                part,
                index,
                parent: Some(parent),
                name: self.name,
                start_ns,
                dur_ns,
                calls,
            });
        });
    }
}

/// Removes and returns every finished span, ordered by root, part and
/// index.
pub fn drain() -> Vec<Span> {
    let mut spans =
        std::mem::take(&mut *FINISHED.lock().expect("span list lock is never held across a panic"));
    spans.sort_by_key(|s| (s.root, s.part, s.index));
    spans
}

/// Totals per span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    /// Summed duration, in seconds.
    pub total_s: f64,
    /// Summed self time (duration minus children), in seconds.
    pub self_s: f64,
    /// Calls covered.
    pub calls: u64,
}

/// Sums duration, self time and calls per span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    // Children's durations per (root, part, parent index).
    let mut child_ns: BTreeMap<(u64, u32, usize), u64> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *child_ns.entry((s.root, s.part, parent)).or_default() += s.dur_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let children = child_ns.get(&(s.root, s.part, s.index)).copied().unwrap_or(0);
        let t = out.entry(s.name).or_default();
        t.total_s += s.dur_ns as f64 * 1e-9;
        t.self_s += s.dur_ns.saturating_sub(children) as f64 * 1e-9;
        t.calls += s.calls;
    }
    out
}

/// Writes spans as JSON lines to `path`, creating its directory.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"root\":{},\"part\":{},\"index\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"calls\":{}}}",
            s.root, s.part, s.index, s.name, s.start_ns, s.dur_ns, s.calls
        )?;
    }
    out.flush()
}
