//! Fork-point snapshot engine for strike evaluation.
//!
//! Guided campaigns (Figs. 5b/6b) evaluate hundreds of candidate strike
//! schemes against the *same* victim inference. Naively each candidate
//! re-executes the whole co-simulation — accelerator schedule, PDN
//! integration, TDC sensing — from cycle 0, even though every candidate
//! shares an identical pre-strike prefix and, after its last strike, an
//! identical post-strike tail. This module eliminates both redundancies
//! while staying **bit-identical** to naive full replay:
//!
//! 1. **Shared prefix (fork ladder).** One *reference pass* runs the
//!    platform with an armed all-zero sentinel scheme and snapshots the
//!    full platform state every `FORK_EVERY` cycles. A candidate whose
//!    first `1` bit plays at cycle `F` forks from the deepest snapshot at
//!    or before `F` and only simulates the suffix. Arming with the
//!    sentinel (rather than running unarmed) makes the reference pass
//!    replicate the exact detector/RAM activity of a real candidate run:
//!    until its first strike a candidate is indistinguishable from the
//!    sentinel, so the fork state *is* the candidate's state — except for
//!    the RAM contents, which `SignalRam::fork_install` swaps in at the
//!    preserved playback position.
//!
//! 2. **Post-strike rejoin.** The PDN is linear, a disabled striker draws
//!    exactly 0.0 A, and the warm-started Gauss–Seidel relaxation is
//!    contracting with a bitwise early-exit — so a few hundred cycles
//!    after a candidate's last strike the mesh state becomes *bitwise
//!    equal* to the reference pass and stays that way. The reference pass
//!    stores a `RejoinCheck` (mesh state + last raw TDC word) every
//!    `CHECK_EVERY` cycles; once a forked suffix has exhausted its scheme
//!    and matches a check, the remaining recording is spliced from the
//!    reference and the remaining thermal integration replays the
//!    reference's per-cycle powers (the thermal model is feed-forward:
//!    its state never feeds back into the electrical loop).
//!
//! Determinism: a forked run performs the identical `CloudFpga::step_cycle`
//! sequence a naive replay would — same float operations in the same
//! order — so outputs agree bit-for-bit, not approximately (enforced by
//! `tests/snapshot_oracle.rs` and the property tests). Candidates the
//! argument does not cover — forced/blind playback, trace collection in
//! progress (per-candidate events cannot come from a shared prefix) —
//! fall back to naive full replay, still bit-identical by construction.
//!
//! Concurrency: [`SnapshotEngine::run_guided`] takes `&self` and clones
//! the fork before touching it, so suffix runs compose with the `par`
//! worker pool and its panic quarantine — a panicking suffix can never
//! corrupt the shared snapshot (property-tested in `crates/core/tests`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use pdn::grid::SpatialPdn;
use pdn::thermal::ThermalModel;

use crate::cosim::{CloudFpga, InferenceRun, RunRecorder};
use crate::error::Result;
use crate::scheduler::AttackScheduler;
use crate::signal_ram::AttackScheme;
use crate::striker::StrikerBank;
use crate::tdc::TdcSensor;

// Snapshot cadence: ~100 forks and ~1600 checks on the 50k-cycle LeNet
// schedule. A fork costs a full platform clone (~100 KiB), a check only
// the mesh state, and a finer check grid shortens every suffix.

/// Full platform snapshot every this many cycles (the fork ladder).
const FORK_EVERY: u64 = 512;
/// Rejoin check (mesh state + raw TDC word) every this many cycles.
const CHECK_EVERY: u64 = 32;

/// Full platform state at the start of a cycle, plus the carried
/// recorder state that lives outside [`CloudFpga`].
struct ForkPoint {
    cycle: u64,
    /// Sentinel-pass platform state (readout ring buffer cleared — it
    /// never feeds back into the physics and forked runs discard it).
    fpga: CloudFpga,
    /// Raw TDC word awaiting consumption by the scheduler next cycle.
    last_raw: Option<u128>,
    /// Detector trigger cycle, if it latched before this fork.
    triggered: Option<u64>,
}

/// Reference-pass state a finished candidate can bitwise-rejoin.
struct RejoinCheck {
    cycle: u64,
    pdn: SpatialPdn,
    last_raw: Option<u128>,
}

/// Counters for the engine's work-avoidance, updated with relaxed atomics
/// so `run_guided(&self)` can tally from the worker pool.
#[derive(Debug, Default)]
struct Counters {
    guided_runs: AtomicU64,
    reference_served: AtomicU64,
    forked_runs: AtomicU64,
    full_replays: AtomicU64,
    rejoined: AtomicU64,
    suffix_cycles: AtomicU64,
}

/// A point-in-time copy of the engine's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// `run_guided` calls.
    pub guided_runs: u64,
    /// Calls answered with the reference recording (no simulation at all).
    pub reference_served: u64,
    /// Calls that forked a snapshot and ran only a suffix.
    pub forked_runs: u64,
    /// Calls that fell back to naive full replay.
    pub full_replays: u64,
    /// Forked runs that bitwise-rejoined the reference before the end.
    pub rejoined: u64,
    /// Total cycles actually simulated across all forked runs.
    pub suffix_cycles: u64,
}

/// The fork-point snapshot engine. See the module docs.
pub struct SnapshotEngine {
    /// Pristine platform for naive-replay fallbacks.
    base: CloudFpga,
    total: u64,
    samples_per_cycle: usize,
    trigger: Option<u64>,
    reference: InferenceRun,
    /// Reference per-cycle thermal power, replayed after a rejoin.
    powers: Vec<f64>,
    forks: Vec<ForkPoint>,
    checks: Vec<RejoinCheck>,
    counters: Counters,
}

impl std::fmt::Debug for SnapshotEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SnapshotEngine({} cycles, {} forks, {} checks, trigger {:?})",
            self.total,
            self.forks.len(),
            self.checks.len(),
            self.trigger
        )
    }
}

impl SnapshotEngine {
    /// Captures the fork ladder: one full reference pass with an armed
    /// all-zero sentinel scheme, snapshotting platform state every
    /// `FORK_EVERY` cycles and rejoin state every `CHECK_EVERY` cycles.
    ///
    /// The reference pass advances the *clone's* state only; `base` is
    /// untouched and is kept as the pristine platform for fallback
    /// replays, exactly as campaign drivers clone one profiled instance
    /// per sweep point.
    ///
    /// # Errors
    ///
    /// Propagates sentinel-scheme load/arm failures (none occur on a
    /// platform whose signal RAM has non-zero capacity).
    pub fn capture(base: &CloudFpga) -> Result<Self> {
        let mut sentinel_pass = base.clone();
        // The sentinel: all delay, zero strikes. It compiles to an
        // all-zero bit vector filling the whole RAM, so playback never
        // exhausts mid-run (capacity >= any schedule we simulate) and the
        // cursor tracks exactly how many bits a real candidate would have
        // consumed by each cycle.
        let capacity = sentinel_pass.scheduler_mut().ram().capacity_bits();
        let sentinel = AttackScheme {
            delay_cycles: u32::try_from(capacity).unwrap_or(u32::MAX),
            strikes: 0,
            strike_cycles: 0,
            gap_cycles: 0,
        };
        sentinel_pass.scheduler_mut().load_scheme(&sentinel)?;
        sentinel_pass.scheduler_mut().arm(true)?;
        sentinel_pass.scheduler_mut().rearm();

        let total = sentinel_pass.schedule().total_cycles();
        let substeps = sentinel_pass.config.pdn_substeps;
        let samples_per_cycle = substeps / (substeps / 2).max(1);
        let mut rec = RunRecorder::new(total, true);
        let mut forks = Vec::with_capacity((total / FORK_EVERY + 1) as usize);
        let mut checks = Vec::with_capacity((total / CHECK_EVERY + 1) as usize);
        for cycle in 0..total {
            if cycle % FORK_EVERY == 0 {
                let mut fpga = sentinel_pass.clone();
                fpga.trace_buf.clear();
                forks.push(ForkPoint {
                    cycle,
                    fpga,
                    last_raw: rec.last_raw,
                    triggered: rec.triggered_cycle,
                });
            }
            if cycle % CHECK_EVERY == 0 {
                checks.push(RejoinCheck {
                    cycle,
                    pdn: sentinel_pass.pdn.clone(),
                    last_raw: rec.last_raw,
                });
            }
            sentinel_pass.step_cycle(cycle, &mut rec);
        }
        let powers = rec.powers.take().unwrap_or_default();
        let trigger = rec.triggered_cycle;
        let reference = sentinel_pass.finish_run(rec);
        debug_assert_eq!(reference.tdc_trace.len(), total as usize * samples_per_cycle);
        Ok(SnapshotEngine {
            base: base.clone(),
            total,
            samples_per_cycle,
            trigger,
            reference,
            powers,
            forks,
            checks,
            counters: Counters::default(),
        })
    }

    /// The reference recording: the run of any armed candidate *before*
    /// its first strike — and of any candidate that never strikes. Since
    /// armed-but-not-striking physics is bitwise identical to unarmed
    /// physics (detector pushes and RAM reads have no electrical effect),
    /// this is also a valid profiling trace.
    pub fn reference(&self) -> &InferenceRun {
        &self.reference
    }

    /// The detector trigger cycle observed in the reference pass.
    pub fn trigger_cycle(&self) -> Option<u64> {
        self.trigger
    }

    /// Victim schedule length in cycles.
    pub fn total_cycles(&self) -> u64 {
        self.total
    }

    /// A copy of the work-avoidance counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            guided_runs: self.counters.guided_runs.load(Ordering::Relaxed),
            reference_served: self.counters.reference_served.load(Ordering::Relaxed),
            forked_runs: self.counters.forked_runs.load(Ordering::Relaxed),
            full_replays: self.counters.full_replays.load(Ordering::Relaxed),
            rejoined: self.counters.rejoined.load(Ordering::Relaxed),
            suffix_cycles: self.counters.suffix_cycles.load(Ordering::Relaxed),
        }
    }

    /// Evaluates a detector-guided candidate: bit-identical to loading
    /// `scheme` on a clone of the base platform, arming, and calling
    /// [`CloudFpga::run_inference`] — but forked from the deepest
    /// snapshot at or before the candidate's first strike, and spliced
    /// back onto the reference once the post-strike state bitwise
    /// reconverges.
    ///
    /// # Errors
    ///
    /// Exactly the errors the naive path raises: `SchemeTooLarge` when
    /// the compiled vector exceeds RAM capacity, `InvalidConfig` when the
    /// scheme compiles to zero bits (arming without a loaded scheme).
    pub fn run_guided(&self, scheme: &AttackScheme) -> Result<InferenceRun> {
        self.run_guided_inner(scheme, None)
    }

    /// Test hook: like [`run_guided`](Self::run_guided) but panics once
    /// the forked suffix reaches `panic_at_cycle`, to prove a quarantined
    /// suffix panic cannot corrupt the shared snapshot.
    #[doc(hidden)]
    pub fn run_guided_with_fault(
        &self,
        scheme: &AttackScheme,
        panic_at_cycle: u64,
    ) -> Result<InferenceRun> {
        self.run_guided_inner(scheme, Some(panic_at_cycle))
    }

    fn run_guided_inner(
        &self,
        scheme: &AttackScheme,
        panic_at_cycle: Option<u64>,
    ) -> Result<InferenceRun> {
        self.counters.guided_runs.fetch_add(1, Ordering::Relaxed);
        // Per-candidate trace events (SchemeLoaded, PlaybackStart, ...)
        // cannot be synthesised from a shared prefix: replay naively.
        if trace::is_collecting() {
            self.counters.full_replays.fetch_add(1, Ordering::Relaxed);
            return self.replay_guided(scheme);
        }
        let bits = scheme.to_bits();
        if bits.is_empty() || bits.len() > self.base.scheduler.ram().capacity_bits() {
            // Replicate the naive load/arm error exactly.
            self.counters.full_replays.fetch_add(1, Ordering::Relaxed);
            return self.replay_guided(scheme);
        }
        // No trigger in the reference pass means no candidate can trigger
        // either (identical physics until a strike, and no strike without
        // a trigger): the run is the reference run. Likewise a candidate
        // whose first `1` bit never plays within the schedule.
        let Some(trigger) = self.trigger else {
            self.counters.reference_served.fetch_add(1, Ordering::Relaxed);
            return Ok(self.reference.clone());
        };
        let Some(first_one) = bits.iter().position(|&b| b) else {
            self.counters.reference_served.fetch_add(1, Ordering::Relaxed);
            return Ok(self.reference.clone());
        };
        let first_strike = trigger + first_one as u64;
        if first_strike >= self.total {
            self.counters.reference_served.fetch_add(1, Ordering::Relaxed);
            return Ok(self.reference.clone());
        }

        // Deepest fork at or before the first strike. Forks exist at
        // cycle 0, FORK_EVERY, ... so the search never comes up empty.
        let fork = match self.forks.binary_search_by_key(&first_strike, |f| f.cycle) {
            Ok(i) => &self.forks[i],
            Err(i) => &self.forks[i - 1],
        };
        self.counters.forked_runs.fetch_add(1, Ordering::Relaxed);

        let mut fpga = fork.fpga.clone();
        // Swap the candidate's bit vector into the sentinel's RAM at the
        // preserved playback position: bits consumed so far were all `0`
        // in both (the fork is at or before the first `1`), so the fork
        // state is exactly the candidate's naive state at this cycle.
        let started = fork.triggered.is_some();
        let cursor = fpga.scheduler.ram().cursor();
        fpga.scheduler.ram_mut().fork_install(bits, cursor, started);

        let mut rec = RunRecorder::resume(fork.triggered, fork.last_raw);
        for cycle in fork.cycle..self.total {
            if let Some(p) = panic_at_cycle {
                if cycle == p {
                    panic!("injected suffix fault at cycle {cycle}");
                }
            }
            // Rejoin: once the candidate has played out (scheme exhausted,
            // striker off, detector latched — all true only after the
            // last strike) and the mesh + pending TDC word bitwise equal
            // the reference pass, every future cycle is bitwise equal
            // too; splice the rest from the reference.
            if cycle > first_strike
                && cycle.is_multiple_of(CHECK_EVERY)
                && fpga.scheduler.detector().is_triggered()
                && !fpga.scheduler.ram().is_running()
                && !fpga.striker.is_enabled()
            {
                let check = &self.checks[(cycle / CHECK_EVERY) as usize];
                debug_assert_eq!(check.cycle, cycle);
                if check.last_raw == rec.last_raw && check.pdn == fpga.pdn {
                    self.counters.rejoined.fetch_add(1, Ordering::Relaxed);
                    self.counters.suffix_cycles.fetch_add(cycle - fork.cycle, Ordering::Relaxed);
                    return Ok(self.splice(fork.cycle, cycle, rec, fpga));
                }
            }
            fpga.step_cycle(cycle, &mut rec);
        }
        self.counters.suffix_cycles.fetch_add(self.total - fork.cycle, Ordering::Relaxed);
        Ok(self.assemble(fork.cycle, rec, fpga.thermal.junction_temp()))
    }

    /// Evaluates a blind (force-started) candidate. Blind playback starts
    /// at cycle 0, so there is no shared prefix to fork from: this is a
    /// naive full replay, kept on the engine so campaign code has one
    /// entry point for both modes.
    ///
    /// # Errors
    ///
    /// Propagates scheme load/arm failures.
    pub fn run_blind(&self, scheme: &AttackScheme) -> Result<InferenceRun> {
        let mut fpga = self.base.clone();
        fpga.scheduler_mut().load_scheme(scheme)?;
        fpga.scheduler_mut().arm(true)?;
        fpga.scheduler_mut().force_start();
        Ok(fpga.run_inference())
    }

    /// Naive guided replay from the pristine base (fallback path).
    fn replay_guided(&self, scheme: &AttackScheme) -> Result<InferenceRun> {
        let mut fpga = self.base.clone();
        fpga.scheduler_mut().load_scheme(scheme)?;
        fpga.scheduler_mut().arm(true)?;
        Ok(fpga.run_inference())
    }

    /// Builds the candidate's run from reference prefix + simulated
    /// suffix + reference tail, replaying reference powers through the
    /// candidate's thermal state for the spliced tail.
    fn splice(
        &self,
        fork_cycle: u64,
        rejoin_cycle: u64,
        rec: RunRecorder,
        mut fpga: CloudFpga,
    ) -> InferenceRun {
        let spc = self.samples_per_cycle;
        let dt_cycle = fpga.substep_dt() * fpga.config.pdn_substeps as f64;
        // From the rejoin on, the candidate's per-cycle power is bitwise
        // the reference's; the thermal model is feed-forward, so replay.
        for &power in &self.powers[rejoin_cycle as usize..] {
            fpga.thermal.step(power, dt_cycle);
        }
        let mut run = self.assemble(fork_cycle, rec, fpga.thermal.junction_temp());
        run.tdc_trace.extend_from_slice(&self.reference.tdc_trace[rejoin_cycle as usize * spc..]);
        run.victim_voltage
            .extend_from_slice(&self.reference.victim_voltage[rejoin_cycle as usize..]);
        run
    }

    /// Builds the candidate's run from reference prefix + simulated suffix.
    fn assemble(&self, fork_cycle: u64, rec: RunRecorder, final_temp_c: f64) -> InferenceRun {
        let spc = self.samples_per_cycle;
        let mut tdc_trace = Vec::with_capacity(fork_cycle as usize * spc + rec.tdc_trace.len());
        tdc_trace.extend_from_slice(&self.reference.tdc_trace[..fork_cycle as usize * spc]);
        tdc_trace.extend_from_slice(&rec.tdc_trace);
        let mut victim_voltage = Vec::with_capacity(fork_cycle as usize + rec.victim_voltage.len());
        victim_voltage.extend_from_slice(&self.reference.victim_voltage[..fork_cycle as usize]);
        victim_voltage.extend_from_slice(&rec.victim_voltage);
        InferenceRun {
            tdc_trace,
            victim_voltage,
            // The prefix is strike-free (the fork sits at or before the
            // first strike), so the suffix recorded every strike.
            strike_cycles: rec.strike_cycles,
            triggered_cycle: rec.triggered_cycle,
            final_temp_c,
        }
    }
}

/// A self-validating cache of whole [`CloudFpga::run_inference`] calls,
/// shared across campaign sweep points (e.g. the `remote_campaign` grid,
/// where every link-fault point drives an identical victim platform).
///
/// Each entry stores the full behavioural pre-state, the recorded run and
/// the behavioural post-state. A lookup serves an entry only on *exact*
/// behavioural state match ([`CloudFpga::state_eq`]), then applies the
/// post-state and the readout-buffer append exactly as the real run would
/// have — so a hit is bit-identical to a miss and the cache composes with
/// `par` determinism: whichever worker primes an entry, every consumer
/// observes the same bytes.
#[derive(Default)]
pub struct RunMemo {
    entries: Mutex<Vec<MemoEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

struct MemoEntry {
    /// Behavioural pre-state (readout ring buffer cleared; it is excluded
    /// from [`CloudFpga::state_eq`] and replayed separately).
    pre: CloudFpga,
    run: InferenceRun,
    post: PostState,
}

/// The fields `run_inference` mutates.
struct PostState {
    pdn: SpatialPdn,
    tdc: TdcSensor,
    striker: StrikerBank,
    scheduler: AttackScheduler,
    thermal: ThermalModel,
}

impl std::fmt::Debug for RunMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RunMemo({} hits, {} misses)", self.hits(), self.misses())
    }
}

impl RunMemo {
    /// An empty cache.
    pub fn new() -> Self {
        RunMemo::default()
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran the simulation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<MemoEntry>> {
        // A panic while holding the lock can only occur between complete
        // entry pushes; the vector is always structurally valid.
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs one inference through the cache: serves a stored run when the
    /// platform state matches a previous pre-state exactly, otherwise
    /// simulates and records. Either way `fpga` ends in the state (and
    /// the caller receives the bytes) a plain
    /// [`CloudFpga::run_inference`] would have produced.
    ///
    /// Falls through to the real simulation whenever trace collection is
    /// active, since a served run cannot re-emit its per-cycle events.
    pub fn run_inference(&self, fpga: &mut CloudFpga) -> InferenceRun {
        if trace::is_collecting() {
            return fpga.run_inference();
        }
        {
            let entries = self.lock();
            for entry in entries.iter() {
                if fpga.state_eq(&entry.pre) {
                    fpga.pdn = entry.post.pdn.clone();
                    fpga.tdc = entry.post.tdc.clone();
                    fpga.striker = entry.post.striker.clone();
                    fpga.scheduler = entry.post.scheduler.clone();
                    fpga.thermal = entry.post.thermal;
                    // Append the readout samples with the same capacity
                    // trimming the live loop performs.
                    for &sample in &entry.run.tdc_trace {
                        if fpga.trace_buf.len() == fpga.config.trace_capacity {
                            fpga.trace_buf.pop_front();
                        }
                        fpga.trace_buf.push_back(sample);
                    }
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return entry.run.clone();
                }
            }
        }
        let pre = {
            let mut snap = fpga.clone();
            snap.trace_buf.clear();
            snap
        };
        let run = fpga.run_inference();
        let post = PostState {
            pdn: fpga.pdn.clone(),
            tdc: fpga.tdc.clone(),
            striker: fpga.striker.clone(),
            scheduler: fpga.scheduler.clone(),
            thermal: fpga.thermal,
        };
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.lock();
        // Another worker may have raced us to the same state; keep one.
        if !entries.iter().any(|e| pre.state_eq(&e.pre)) {
            entries.push(MemoEntry { pre, run: run.clone(), post });
        }
        run
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::cosim::CosimConfig;
    use accel::schedule::AccelConfig;
    use dnn::fixed::QFormat;
    use dnn::quant::QuantizedNetwork;
    use dnn::zoo::mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_platform(striker_cells: usize) -> CloudFpga {
        let net = mlp(&mut StdRng::seed_from_u64(0));
        let q = QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper())
            .expect("mlp quantises");
        let accel =
            AccelConfig { weight_bandwidth: 16, stall_cycles: 150, ..AccelConfig::default() };
        let mut fpga = CloudFpga::new(
            &q,
            &accel,
            striker_cells,
            CosimConfig { pdn_substeps: 4, ..CosimConfig::default() },
        )
        .expect("platform assembles");
        fpga.settle(50);
        fpga
    }

    fn naive_guided(base: &CloudFpga, scheme: &AttackScheme) -> InferenceRun {
        let mut fpga = base.clone();
        fpga.scheduler_mut().load_scheme(scheme).expect("scheme fits");
        fpga.scheduler_mut().arm(true).expect("scheme loaded");
        fpga.run_inference()
    }

    #[test]
    fn forked_run_is_bit_identical_to_naive_replay() {
        let base = small_platform(12_000);
        let engine = SnapshotEngine::capture(&base).expect("capture");
        assert!(engine.trigger_cycle().is_some(), "reference pass must trigger");
        for scheme in [
            AttackScheme { delay_cycles: 10, strikes: 50, strike_cycles: 1, gap_cycles: 1 },
            AttackScheme { delay_cycles: 0, strikes: 1, strike_cycles: 3, gap_cycles: 0 },
            AttackScheme { delay_cycles: 700, strikes: 9, strike_cycles: 2, gap_cycles: 5 },
        ] {
            let naive = naive_guided(&base, &scheme);
            let forked = engine.run_guided(&scheme).expect("guided run");
            assert_eq!(naive, forked, "scheme {scheme:?} diverged");
        }
        let stats = engine.stats();
        assert_eq!(stats.forked_runs, 3, "all three schemes should fork");
        assert!(stats.rejoined >= 2, "short schemes should rejoin: {stats:?}");
        assert!(
            stats.suffix_cycles < 3 * engine.total_cycles(),
            "forking must simulate fewer cycles than naive replay"
        );
    }

    #[test]
    fn strike_free_and_oversized_schemes_replicate_naive_semantics() {
        let base = small_platform(8_000);
        let engine = SnapshotEngine::capture(&base).expect("capture");
        // All-delay scheme: no strikes, identical to the reference.
        let idle = AttackScheme { delay_cycles: 40, strikes: 0, strike_cycles: 0, gap_cycles: 0 };
        let naive = naive_guided(&base, &idle);
        assert_eq!(naive, engine.run_guided(&idle).expect("idle scheme runs"));
        // Zero-bit scheme: naive arming fails; the engine must too.
        let empty = AttackScheme { delay_cycles: 0, strikes: 0, strike_cycles: 0, gap_cycles: 0 };
        assert!(engine.run_guided(&empty).is_err());
        // Oversized scheme: same `SchemeTooLarge` as the naive path.
        let huge =
            AttackScheme { delay_cycles: u32::MAX, strikes: 0, strike_cycles: 0, gap_cycles: 0 };
        assert!(matches!(
            engine.run_guided(&huge),
            Err(crate::DeepStrikeError::SchemeTooLarge { .. })
        ));
    }

    #[test]
    fn blind_run_matches_naive_forced_replay() {
        let base = small_platform(12_000);
        let engine = SnapshotEngine::capture(&base).expect("capture");
        let scheme =
            AttackScheme { delay_cycles: 300, strikes: 20, strike_cycles: 1, gap_cycles: 1 };
        let mut fpga = base.clone();
        fpga.scheduler_mut().load_scheme(&scheme).expect("scheme fits");
        fpga.scheduler_mut().arm(true).expect("scheme loaded");
        fpga.scheduler_mut().force_start();
        let naive = fpga.run_inference();
        assert_eq!(naive, engine.run_blind(&scheme).expect("blind run"));
    }

    #[test]
    fn suffix_panic_leaves_engine_reusable() {
        let base = small_platform(12_000);
        let engine = SnapshotEngine::capture(&base).expect("capture");
        let scheme =
            AttackScheme { delay_cycles: 10, strikes: 50, strike_cycles: 1, gap_cycles: 1 };
        let before = engine.run_guided(&scheme).expect("guided run");
        let trigger = engine.trigger_cycle().expect("triggered");
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = engine.run_guided_with_fault(&scheme, trigger + 30);
        }));
        assert!(panicked.is_err(), "fault hook must panic mid-suffix");
        let after = engine.run_guided(&scheme).expect("engine survives the panic");
        assert_eq!(before, after, "panicking suffix corrupted the shared snapshot");
        assert_eq!(after, naive_guided(&base, &scheme));
    }

    #[test]
    fn run_memo_hit_is_bit_identical_to_miss() {
        let base = small_platform(8_000);
        let scheme = AttackScheme { delay_cycles: 5, strikes: 10, strike_cycles: 1, gap_cycles: 2 };
        let prep = |mut fpga: CloudFpga| {
            fpga.scheduler_mut().load_scheme(&scheme).expect("scheme fits");
            fpga.scheduler_mut().arm(true).expect("scheme loaded");
            fpga
        };
        let memo = RunMemo::new();
        let mut first = prep(base.clone());
        let miss = memo.run_inference(&mut first);
        let mut second = prep(base.clone());
        let hit = memo.run_inference(&mut second);
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 1);
        assert_eq!(miss, hit);
        assert!(first.state_eq(&second), "post-state must match after a hit");
        assert_eq!(first.trace_buf, second.trace_buf, "readout buffer must match too");
        // A different platform state misses and simulates.
        let mut third = prep(base.clone());
        third.settle(3);
        let fresh = memo.run_inference(&mut third);
        assert_eq!(memo.misses(), 2);
        assert_ne!(fresh.victim_voltage, miss.victim_voltage);
    }
}
