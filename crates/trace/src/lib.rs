//! Structured pipeline-event tracing for the attack stack.
//!
//! Every stage of the DeepStrike chain — TDC sensing, start detection,
//! signal-RAM playback, striker activation, PDN glitching, DSP fault
//! materialisation — can emit typed [`Event`]s through a thread-local
//! recorder. The layer is built around three requirements (DESIGN.md §8):
//!
//! 1. **Zero-cost when disabled.** [`emit`] costs one relaxed atomic load
//!    when no [`Session`] exists anywhere in the process. Emission sites
//!    can therefore live on simulation hot paths.
//! 2. **Bounded memory.** Each session records into a ring buffer of a
//!    caller-chosen capacity; on overflow the *oldest* events are dropped
//!    and counted, never silently lost.
//! 3. **Deterministic under parallelism.** `crates/par` captures each
//!    work item's events in a private buffer and re-appends them to the
//!    caller's session in index order, so a trace is bit-identical at any
//!    `DEEPSTRIKE_THREADS` (see [`capture`] / [`append`]).
//!
//! Recording is scoped: [`Session::start`] installs a buffer on the
//! current thread, [`Session::finish`] removes it and returns the
//! [`TraceLog`]. Sessions do not nest (the inner `start` would shadow the
//! outer buffer), and a session only observes events emitted on its own
//! thread — cross-thread stitching is the caller's job, which `par` does
//! by index order.
//!
//! [`TraceLog::to_jsonl`] renders one JSON object per line; the golden
//! conformance suite (`tests/golden_trace.rs`) diffs those lines
//! verbatim, so the rendering is part of the stability contract: field
//! order is fixed and no floats are emitted (voltages are integer
//! microvolts).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Pipeline stages an event can originate from, in attack-chain order.
///
/// Stored on every [`Event`] via [`Event::stage`] so consumers can filter
/// a mixed trace without matching on each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Time-to-digital converter readout (`core::tdc`).
    Tdc,
    /// DNN-start detector (`core::detector`).
    Detector,
    /// Signal-RAM scheme storage and playback (`core::signal_ram`).
    SignalRam,
    /// Power-waster bank (`core::striker`).
    Striker,
    /// Attack scheduler / planner (`core::scheduler`, `core::attack`).
    Scheduler,
    /// Power-delivery network response (`pdn`).
    Pdn,
    /// Fault materialisation in the DSP datapath (`accel`).
    Accel,
    /// Victim network inference (`dnn`).
    Dnn,
    /// Remote guidance over the serial link (`uart` transport,
    /// `core::remote` campaign driver).
    Remote,
    /// The crash-safety supervisor layer (`par` quarantine, durable
    /// checkpoints).
    Supervisor,
}

impl Stage {
    /// Stable lower-case name used in the JSONL rendering.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Tdc => "tdc",
            Stage::Detector => "detector",
            Stage::SignalRam => "signal_ram",
            Stage::Striker => "striker",
            Stage::Scheduler => "scheduler",
            Stage::Pdn => "pdn",
            Stage::Accel => "accel",
            Stage::Dnn => "dnn",
            Stage::Remote => "remote",
            Stage::Supervisor => "supervisor",
        }
    }
}

/// Phases of the remotely guided campaign (`core::remote`), in order.
///
/// Mirrors `core::remote::Phase` without depending on `core` (this crate
/// sits below every other workspace crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RemotePhase {
    /// Streaming TDC traces out and learning layer signatures.
    Profile,
    /// Compiling the attack scheme from the profile.
    Plan,
    /// Chunked scheme upload into the signal RAM.
    Upload,
    /// Arming the attack scheduler.
    Arm,
    /// The armed victim inference under strikes.
    Strike,
    /// Scoring the attack outcome.
    Evaluate,
}

impl RemotePhase {
    /// Stable lower-case name used in the JSONL rendering.
    pub fn name(self) -> &'static str {
        match self {
            RemotePhase::Profile => "profile",
            RemotePhase::Plan => "plan",
            RemotePhase::Upload => "upload",
            RemotePhase::Arm => "arm",
            RemotePhase::Strike => "strike",
            RemotePhase::Evaluate => "evaluate",
        }
    }
}

/// How the campaign's strike plan is being guided — the degradation
/// ladder, best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GuidanceLevel {
    /// Fresh TDC traces streamed over the link this campaign.
    Fresh,
    /// The last checkpointed profile (link too lossy for fresh traces).
    Checkpoint,
    /// No profile at all: blind spray over the estimated inference span.
    Blind,
}

impl GuidanceLevel {
    /// Stable lower-case name used in the JSONL rendering.
    pub fn name(self) -> &'static str {
        match self {
            GuidanceLevel::Fresh => "fresh",
            GuidanceLevel::Checkpoint => "checkpoint",
            GuidanceLevel::Blind => "blind",
        }
    }
}

/// Kind of MAC fault materialised in the DSP model.
///
/// Mirrors `accel::fault::MacFault` without depending on `accel` (this
/// crate sits below every other workspace crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Stale-product duplication (the paper's dominant DSP failure mode).
    Duplicate,
    /// Random accumulator corruption.
    Random,
}

impl FaultKind {
    /// Stable lower-case name used in the JSONL rendering.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Duplicate => "duplicate",
            FaultKind::Random => "random",
        }
    }
}

/// A typed pipeline event. One line in the JSONL rendering.
///
/// Events carry integer payloads only — analog quantities are quantised
/// at the emission site (e.g. volts → microvolts) so golden traces never
/// depend on float formatting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// One TDC readout: the `index`-th sample of this sensor's lifetime
    /// and its popcount (`count` of hot carry-chain taps).
    TdcSample { index: u64, count: u8 },
    /// Detector thermometer Hamming weight changed (emitted on
    /// transitions only, not per sample). `sample` is the detector's
    /// sample ordinal at the transition.
    DetectorHw { sample: u64, hw: u8 },
    /// Detector latched a DNN start at sample ordinal `sample`.
    DetectorLatch { sample: u64 },
    /// An attack scheme was serialised into the signal RAM: total `bits`
    /// of playback, `strikes` bursts, and the number of distinct
    /// `phases` (delay/strike/gap segments).
    SchemeLoaded { bits: u64, strikes: u32, phases: u32 },
    /// Signal-RAM playback started with `len_bits` bits queued.
    PlaybackStart { len_bits: u64 },
    /// Signal-RAM playback drained after `bits_played` bits.
    PlaybackDone { bits_played: u64 },
    /// The attack scheduler armed (`armed = true`) or disarmed.
    SchedulerArmed { armed: bool },
    /// The striker bank saw a rising enable edge; `activation` is the
    /// bank's cumulative activation count after the edge.
    StrikerEdge { activation: u64 },
    /// The co-simulation issued a strike at victim-clock `cycle`.
    StrikeIssued { cycle: u64 },
    /// A supply-voltage excursion below the safe threshold: sample window
    /// `[start, start + len)` with the nadir in integer microvolts.
    PdnGlitch { start: u64, len: u64, nadir_uv: u64 },
    /// A fault materialised at MAC `op` of pipeline `stage` in the DSP
    /// model.
    MacFault { stage: u32, op: u64, kind: FaultKind },
    /// The victim network classified an input as `predicted`.
    Inference { predicted: u32 },
    /// The planner produced a scheme: `target` delay in cycles plus the
    /// burst geometry.
    AttackPlanned { delay_cycles: u64, strikes: u32, strike_cycles: u32, gap_cycles: u32 },
    /// One evaluation image scored: clean/attacked correctness plus the
    /// fault tally for the attacked pass.
    ImageScored { index: u64, clean_ok: bool, attacked_ok: bool, duplicate: u64, random: u64 },
    /// The reliable transport retransmitted request `seq` (`attempt` is
    /// 1-based: the first *re*transmission is attempt 1).
    LinkRetry { seq: u64, attempt: u32 },
    /// The reliable transport gave up on request `seq` after `attempts`
    /// total transmissions.
    LinkGaveUp { seq: u64, attempts: u32 },
    /// A chunked upload acknowledged bytes up to `offset` of `total`.
    UploadProgress { offset: u64, total: u64 },
    /// The remote campaign checkpointed after completing `phase`.
    CheckpointSaved { phase: RemotePhase },
    /// The remote campaign resumed from a checkpoint at `phase`.
    CampaignResumed { phase: RemotePhase },
    /// The campaign stepped down the guidance ladder to `level`.
    GuidanceDegraded { level: GuidanceLevel },
    /// A parallel-sweep work item panicked and was quarantined instead of
    /// poisoning the join. Emitted by the merge step in index order, so
    /// the trail is identical at any `DEEPSTRIKE_THREADS`.
    WorkerQuarantined { index: u64 },
    /// A durable checkpoint generation was written and fsynced to disk.
    CheckpointFsync { generation: u64, bytes: u64 },
}

impl Event {
    /// The pipeline stage this event belongs to.
    pub fn stage(&self) -> Stage {
        match self {
            Event::TdcSample { .. } => Stage::Tdc,
            Event::DetectorHw { .. } | Event::DetectorLatch { .. } => Stage::Detector,
            Event::SchemeLoaded { .. }
            | Event::PlaybackStart { .. }
            | Event::PlaybackDone { .. } => Stage::SignalRam,
            Event::SchedulerArmed { .. } => Stage::Scheduler,
            Event::StrikerEdge { .. } => Stage::Striker,
            Event::StrikeIssued { .. } => Stage::Scheduler,
            Event::PdnGlitch { .. } => Stage::Pdn,
            Event::MacFault { .. } => Stage::Accel,
            Event::Inference { .. } => Stage::Dnn,
            Event::AttackPlanned { .. } => Stage::Scheduler,
            Event::ImageScored { .. } => Stage::Scheduler,
            Event::LinkRetry { .. }
            | Event::LinkGaveUp { .. }
            | Event::UploadProgress { .. }
            | Event::CheckpointSaved { .. }
            | Event::CampaignResumed { .. }
            | Event::GuidanceDegraded { .. } => Stage::Remote,
            Event::WorkerQuarantined { .. } | Event::CheckpointFsync { .. } => Stage::Supervisor,
        }
    }

    /// Renders the event as one stable JSON object (no trailing newline).
    ///
    /// Field order is part of the golden-trace contract: `ev` first, then
    /// `stage`, then payload fields in declaration order.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64);
        let _ = match self {
            Event::TdcSample { index, count } => write!(
                s,
                r#"{{"ev":"tdc_sample","stage":"{}","index":{index},"count":{count}}}"#,
                self.stage().name()
            ),
            Event::DetectorHw { sample, hw } => write!(
                s,
                r#"{{"ev":"detector_hw","stage":"{}","sample":{sample},"hw":{hw}}}"#,
                self.stage().name()
            ),
            Event::DetectorLatch { sample } => write!(
                s,
                r#"{{"ev":"detector_latch","stage":"{}","sample":{sample}}}"#,
                self.stage().name()
            ),
            Event::SchemeLoaded { bits, strikes, phases } => write!(
                s,
                r#"{{"ev":"scheme_loaded","stage":"{}","bits":{bits},"strikes":{strikes},"phases":{phases}}}"#,
                self.stage().name()
            ),
            Event::PlaybackStart { len_bits } => write!(
                s,
                r#"{{"ev":"playback_start","stage":"{}","len_bits":{len_bits}}}"#,
                self.stage().name()
            ),
            Event::PlaybackDone { bits_played } => write!(
                s,
                r#"{{"ev":"playback_done","stage":"{}","bits_played":{bits_played}}}"#,
                self.stage().name()
            ),
            Event::SchedulerArmed { armed } => write!(
                s,
                r#"{{"ev":"scheduler_armed","stage":"{}","armed":{armed}}}"#,
                self.stage().name()
            ),
            Event::StrikerEdge { activation } => write!(
                s,
                r#"{{"ev":"striker_edge","stage":"{}","activation":{activation}}}"#,
                self.stage().name()
            ),
            Event::StrikeIssued { cycle } => write!(
                s,
                r#"{{"ev":"strike_issued","stage":"{}","cycle":{cycle}}}"#,
                self.stage().name()
            ),
            Event::PdnGlitch { start, len, nadir_uv } => write!(
                s,
                r#"{{"ev":"pdn_glitch","stage":"{}","start":{start},"len":{len},"nadir_uv":{nadir_uv}}}"#,
                self.stage().name()
            ),
            Event::MacFault { stage, op, kind } => write!(
                s,
                r#"{{"ev":"mac_fault","stage":"{}","pipeline_stage":{stage},"op":{op},"kind":"{}"}}"#,
                self.stage().name(),
                kind.name()
            ),
            Event::Inference { predicted } => write!(
                s,
                r#"{{"ev":"inference","stage":"{}","predicted":{predicted}}}"#,
                self.stage().name()
            ),
            Event::AttackPlanned { delay_cycles, strikes, strike_cycles, gap_cycles } => write!(
                s,
                r#"{{"ev":"attack_planned","stage":"{}","delay_cycles":{delay_cycles},"strikes":{strikes},"strike_cycles":{strike_cycles},"gap_cycles":{gap_cycles}}}"#,
                self.stage().name()
            ),
            Event::ImageScored { index, clean_ok, attacked_ok, duplicate, random } => write!(
                s,
                r#"{{"ev":"image_scored","stage":"{}","index":{index},"clean_ok":{clean_ok},"attacked_ok":{attacked_ok},"duplicate":{duplicate},"random":{random}}}"#,
                self.stage().name()
            ),
            Event::LinkRetry { seq, attempt } => write!(
                s,
                r#"{{"ev":"link_retry","stage":"{}","seq":{seq},"attempt":{attempt}}}"#,
                self.stage().name()
            ),
            Event::LinkGaveUp { seq, attempts } => write!(
                s,
                r#"{{"ev":"link_gave_up","stage":"{}","seq":{seq},"attempts":{attempts}}}"#,
                self.stage().name()
            ),
            Event::UploadProgress { offset, total } => write!(
                s,
                r#"{{"ev":"upload_progress","stage":"{}","offset":{offset},"total":{total}}}"#,
                self.stage().name()
            ),
            Event::CheckpointSaved { phase } => write!(
                s,
                r#"{{"ev":"checkpoint_saved","stage":"{}","phase":"{}"}}"#,
                self.stage().name(),
                phase.name()
            ),
            Event::CampaignResumed { phase } => write!(
                s,
                r#"{{"ev":"campaign_resumed","stage":"{}","phase":"{}"}}"#,
                self.stage().name(),
                phase.name()
            ),
            Event::GuidanceDegraded { level } => write!(
                s,
                r#"{{"ev":"guidance_degraded","stage":"{}","level":"{}"}}"#,
                self.stage().name(),
                level.name()
            ),
            Event::WorkerQuarantined { index } => write!(
                s,
                r#"{{"ev":"worker_quarantined","stage":"{}","index":{index}}}"#,
                self.stage().name()
            ),
            Event::CheckpointFsync { generation, bytes } => write!(
                s,
                r#"{{"ev":"checkpoint_fsync","stage":"{}","generation":{generation},"bytes":{bytes}}}"#,
                self.stage().name()
            ),
        };
        s
    }
}

/// How many sessions are live process-wide. The disabled fast path in
/// [`emit`] is a single relaxed load of this counter.
static ACTIVE_SESSIONS: AtomicUsize = AtomicUsize::new(0);

struct Buffer {
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl Buffer {
    fn new(capacity: usize) -> Self {
        Buffer { events: VecDeque::new(), capacity: capacity.max(1), dropped: 0 }
    }

    fn push(&mut self, event: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

thread_local! {
    static BUFFER: RefCell<Option<Buffer>> = const { RefCell::new(None) };
}

/// True when *any* session is live anywhere in the process. Cheap enough
/// for hot loops; use [`is_collecting`] to check the current thread.
#[inline]
pub fn enabled() -> bool {
    ACTIVE_SESSIONS.load(Ordering::Relaxed) != 0
}

/// True when the current thread has a recording session installed.
pub fn is_collecting() -> bool {
    enabled() && BUFFER.with(|b| b.borrow().is_some())
}

/// The installed session's ring capacity, if the current thread is
/// recording. `crates/par` uses this to size per-item capture buffers.
pub fn current_capacity() -> Option<usize> {
    if !enabled() {
        return None;
    }
    BUFFER.with(|b| b.borrow().as_ref().map(|buf| buf.capacity))
}

/// Records one event into the current thread's session, if any.
///
/// The closure defers payload construction, so a disabled emission site
/// costs one relaxed atomic load and a never-taken branch.
#[inline]
pub fn emit(event: impl FnOnce() -> Event) {
    if !enabled() {
        return;
    }
    BUFFER.with(|b| {
        if let Some(buf) = b.borrow_mut().as_mut() {
            buf.push(event());
        }
    });
}

/// Appends pre-recorded events (from a worker-side [`capture`]) to the
/// current thread's session. Drop accounting carries over: the log's own
/// `dropped` count is added to the session's.
pub fn append(log: TraceLog) {
    BUFFER.with(|b| {
        if let Some(buf) = b.borrow_mut().as_mut() {
            buf.dropped += log.dropped;
            for event in log.events {
                buf.push(event);
            }
        }
    });
}

/// A finished recording: the surviving events plus how many were evicted
/// by ring-buffer overflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceLog {
    /// Recorded events in emission order (oldest evicted first on
    /// overflow).
    pub events: Vec<Event>,
    /// Events evicted because the ring buffer was full.
    pub dropped: u64,
}

impl TraceLog {
    /// Renders the log as JSON Lines: one [`Event::to_json`] object per
    /// line, each terminated by `\n`. If events were dropped, a final
    /// `{"ev":"dropped",...}` line records the count.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 64);
        for event in &self.events {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        if self.dropped > 0 {
            let _ = writeln!(out, r#"{{"ev":"dropped","count":{}}}"#, self.dropped);
        }
        out
    }

    /// Count of events matching a predicate.
    pub fn count(&self, pred: impl Fn(&Event) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }
}

/// A scoped recording session on the current thread.
///
/// `start` installs a fresh ring buffer (shadowing any existing one, which
/// is restored on `finish`); `finish` uninstalls it and returns the
/// [`TraceLog`]. Dropping a session without `finish` restores the previous
/// state and discards the recording.
pub struct Session {
    previous: Option<Buffer>,
    finished: bool,
}

impl Session {
    /// Begins recording on this thread with a ring buffer holding at most
    /// `capacity` events (clamped to ≥ 1).
    pub fn start(capacity: usize) -> Session {
        let previous = BUFFER.with(|b| b.borrow_mut().replace(Buffer::new(capacity)));
        ACTIVE_SESSIONS.fetch_add(1, Ordering::Relaxed);
        Session { previous, finished: false }
    }

    /// Stops recording and returns everything captured since `start`.
    pub fn finish(mut self) -> TraceLog {
        self.finished = true;
        ACTIVE_SESSIONS.fetch_sub(1, Ordering::Relaxed);
        let buffer = BUFFER.with(|b| {
            let mut slot = b.borrow_mut();
            let current = slot.take();
            *slot = self.previous.take();
            current
        });
        let buffer = buffer.expect("session buffer present at finish");
        TraceLog { events: buffer.events.into(), dropped: buffer.dropped }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        if !self.finished {
            ACTIVE_SESSIONS.fetch_sub(1, Ordering::Relaxed);
            BUFFER.with(|b| {
                let mut slot = b.borrow_mut();
                slot.take();
                *slot = self.previous.take();
            });
        }
    }
}

/// Runs `f` with a private recording session and returns its result plus
/// the captured log. This is the worker-side half of the deterministic
/// parallel-trace contract: `crates/par` captures each item and
/// [`append`]s the logs to the caller in index order.
pub fn capture<R>(capacity: usize, f: impl FnOnce() -> R) -> (R, TraceLog) {
    let session = Session::start(capacity);
    let result = f();
    (result, session.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_emit_is_a_no_op() {
        assert!(!is_collecting());
        emit(|| panic!("payload must not be built when disabled"));
    }

    #[test]
    fn session_records_in_order() {
        let session = Session::start(16);
        emit(|| Event::TdcSample { index: 0, count: 90 });
        emit(|| Event::DetectorLatch { sample: 7 });
        let log = session.finish();
        assert_eq!(log.dropped, 0);
        assert_eq!(
            log.events,
            vec![Event::TdcSample { index: 0, count: 90 }, Event::DetectorLatch { sample: 7 }]
        );
        assert!(!is_collecting());
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let session = Session::start(3);
        for i in 0..5 {
            emit(|| Event::TdcSample { index: i, count: 0 });
        }
        let log = session.finish();
        assert_eq!(log.dropped, 2);
        let indices: Vec<u64> = log
            .events
            .iter()
            .map(|e| match e {
                Event::TdcSample { index, .. } => *index,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(indices, vec![2, 3, 4]);
        assert!(log.to_jsonl().contains(r#""ev":"dropped","count":2"#));
    }

    #[test]
    fn nested_sessions_shadow_and_restore() {
        let outer = Session::start(8);
        emit(|| Event::SchedulerArmed { armed: true });
        let (value, inner_log) = capture(8, || {
            emit(|| Event::StrikeIssued { cycle: 42 });
            "inner"
        });
        assert_eq!(value, "inner");
        assert_eq!(inner_log.events, vec![Event::StrikeIssued { cycle: 42 }]);
        emit(|| Event::SchedulerArmed { armed: false });
        let log = outer.finish();
        assert_eq!(
            log.events,
            vec![Event::SchedulerArmed { armed: true }, Event::SchedulerArmed { armed: false },]
        );
    }

    #[test]
    fn append_merges_worker_logs() {
        let session = Session::start(8);
        append(TraceLog { events: vec![Event::Inference { predicted: 3 }], dropped: 2 });
        let log = session.finish();
        assert_eq!(log.events, vec![Event::Inference { predicted: 3 }]);
        assert_eq!(log.dropped, 2);
    }

    #[test]
    fn jsonl_rendering_is_stable() {
        let log = TraceLog {
            events: vec![
                Event::TdcSample { index: 1, count: 88 },
                Event::PdnGlitch { start: 10, len: 4, nadir_uv: 812_500 },
                Event::MacFault { stage: 2, op: 5, kind: FaultKind::Duplicate },
            ],
            dropped: 0,
        };
        assert_eq!(
            log.to_jsonl(),
            concat!(
                "{\"ev\":\"tdc_sample\",\"stage\":\"tdc\",\"index\":1,\"count\":88}\n",
                "{\"ev\":\"pdn_glitch\",\"stage\":\"pdn\",\"start\":10,\"len\":4,\"nadir_uv\":812500}\n",
                "{\"ev\":\"mac_fault\",\"stage\":\"accel\",\"pipeline_stage\":2,\"op\":5,\"kind\":\"duplicate\"}\n",
            )
        );
    }

    #[test]
    fn current_capacity_reports_installed_ring() {
        assert_eq!(current_capacity(), None);
        let session = Session::start(123);
        assert_eq!(current_capacity(), Some(123));
        session.finish();
        assert_eq!(current_capacity(), None);
    }

    #[test]
    fn remote_events_render_stably() {
        let log = TraceLog {
            events: vec![
                Event::LinkRetry { seq: 9, attempt: 2 },
                Event::LinkGaveUp { seq: 9, attempts: 5 },
                Event::UploadProgress { offset: 8, total: 16 },
                Event::CheckpointSaved { phase: RemotePhase::Profile },
                Event::CampaignResumed { phase: RemotePhase::Upload },
                Event::GuidanceDegraded { level: GuidanceLevel::Blind },
            ],
            dropped: 0,
        };
        assert!(log.events.iter().all(|e| e.stage() == Stage::Remote));
        assert_eq!(
            log.to_jsonl(),
            concat!(
                "{\"ev\":\"link_retry\",\"stage\":\"remote\",\"seq\":9,\"attempt\":2}\n",
                "{\"ev\":\"link_gave_up\",\"stage\":\"remote\",\"seq\":9,\"attempts\":5}\n",
                "{\"ev\":\"upload_progress\",\"stage\":\"remote\",\"offset\":8,\"total\":16}\n",
                "{\"ev\":\"checkpoint_saved\",\"stage\":\"remote\",\"phase\":\"profile\"}\n",
                "{\"ev\":\"campaign_resumed\",\"stage\":\"remote\",\"phase\":\"upload\"}\n",
                "{\"ev\":\"guidance_degraded\",\"stage\":\"remote\",\"level\":\"blind\"}\n",
            )
        );
    }

    #[test]
    fn supervisor_events_render_stably() {
        let log = TraceLog {
            events: vec![
                Event::WorkerQuarantined { index: 17 },
                Event::CheckpointFsync { generation: 3, bytes: 4096 },
            ],
            dropped: 0,
        };
        assert_eq!(log.events[0].stage(), Stage::Supervisor);
        assert_eq!(
            log.to_jsonl(),
            concat!(
                "{\"ev\":\"worker_quarantined\",\"stage\":\"supervisor\",\"index\":17}\n",
                "{\"ev\":\"checkpoint_fsync\",\"stage\":\"supervisor\",\"generation\":3,\"bytes\":4096}\n",
            )
        );
    }

    #[test]
    fn stage_filter_and_count() {
        let log = TraceLog {
            events: vec![
                Event::TdcSample { index: 0, count: 1 },
                Event::DetectorLatch { sample: 3 },
                Event::TdcSample { index: 1, count: 2 },
            ],
            dropped: 0,
        };
        assert_eq!(log.count(|e| e.stage() == Stage::Tdc), 2);
        assert_eq!(log.count(|e| matches!(e, Event::DetectorLatch { .. })), 1);
    }
}
