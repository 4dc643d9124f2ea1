//! End-to-end attack campaign (§III-D summary + §IV evaluation).
//!
//! The three steps of the paper:
//!
//! 1. **Profile** — run the victim while recording the TDC stream, segment
//!    it into layer executions and learn the per-layer signatures
//!    ([`profile_victim`]).
//! 2. **Plan** — pick a target layer; compile an attack scheme whose
//!    *attack delay* spans the time from the detector trigger to the
//!    target layer's start and whose strikes tile the layer's window
//!    ([`plan_attack`]).
//! 3. **Launch** — arm the scheduler, run inferences, and score the
//!    classification accuracy under fault injection ([`evaluate_attack`]).
//!
//! The *blind* baseline (paper Fig. 5b, top curve) sprays the same number
//! of strikes uniformly over the whole inference instead of into the
//! target layer ([`plan_blind`]).

use accel::dsp;
use accel::executor::{infer_with_faults, FaultEvent, FaultHook, StageOps};
use accel::fault::{FaultModel, MacFault, Slack};
use accel::schedule::{LayerWindow, Schedule, StageKind};
use dnn::quant::{argmax, QuantizedNetwork};
use dnn::tensor::Tensor;
use std::ops::Range;

use crate::cosim::{CloudFpga, InferenceRun};
use crate::error::{DeepStrikeError, Result};
use crate::profile::{segment_trace, SignatureLibrary};
use crate::signal_ram::AttackScheme;
use crate::tdc::SAMPLES_PER_CYCLE;

/// What profiling learned about the victim.
#[derive(Debug, Clone, PartialEq)]
pub struct VictimProfile {
    /// Layer signatures keyed by name.
    pub library: SignatureLibrary,
    /// Per-layer `(name, start_cycle, len_cycles)` as seen by the sensor.
    pub layer_windows: Vec<(String, u64, u64)>,
    /// Victim cycle at which the detector is expected to latch.
    pub trigger_cycle: u64,
}

impl VictimProfile {
    /// Window of a named layer.
    pub fn window(&self, name: &str) -> Option<(u64, u64)> {
        self.layer_windows.iter().find(|(n, _, _)| n == name).map(|(_, s, l)| (*s, *l))
    }
}

/// Profiles the victim over `runs` unarmed inferences.
///
/// The attacker knows the architecture *family* it is hunting (the paper's
/// library is "for different types of DNN layers at different sizes"), so
/// segments are labelled by `layer_names` in execution order.
///
/// # Errors
///
/// Returns [`DeepStrikeError::LayerNotFound`] if segmentation does not
/// produce one segment per expected layer.
pub fn profile_victim(
    fpga: &mut CloudFpga,
    layer_names: &[&str],
    runs: usize,
) -> Result<VictimProfile> {
    let traces: Vec<Vec<u8>> = (0..runs.max(1)).map(|_| fpga.run_inference().tdc_trace).collect();
    profile_from_traces(&traces, layer_names)
}

/// Profiles the victim from already-captured TDC traces, one per unarmed
/// inference. This is [`profile_victim`] with the platform access factored
/// out: the remote driver ([`crate::remote`]) streams the same bytes over
/// the UART link and must land on bit-identical windows.
///
/// # Errors
///
/// Returns [`DeepStrikeError::LayerNotFound`] if segmentation does not
/// produce one segment per expected layer, and
/// [`DeepStrikeError::InvalidConfig`] when `traces` or `layer_names` is
/// empty.
pub fn profile_from_traces(traces: &[Vec<u8>], layer_names: &[&str]) -> Result<VictimProfile> {
    if traces.is_empty() {
        return Err(DeepStrikeError::InvalidConfig("at least one trace required".into()));
    }
    if layer_names.is_empty() {
        return Err(DeepStrikeError::InvalidConfig("at least one layer name required".into()));
    }
    let mut library = SignatureLibrary::new();
    let mut sums: Vec<(u64, u64)> = vec![(0, 0); layer_names.len()];
    let mut trigger_sum = 0u64;
    for tdc_trace in traces {
        let segments = segment_trace(tdc_trace);
        if segments.len() != layer_names.len() {
            return Err(DeepStrikeError::LayerNotFound(format!(
                "expected {} execution segments, found {}",
                layer_names.len(),
                segments.len()
            )));
        }
        for (name, seg) in layer_names.iter().zip(&segments) {
            library.learn(name, seg);
        }
        for (i, seg) in segments.iter().enumerate() {
            sums[i].0 += (seg.start / SAMPLES_PER_CYCLE) as u64;
            sums[i].1 += (seg.len / SAMPLES_PER_CYCLE) as u64;
        }
        // The detector latches `DEBOUNCE` samples into the first layer.
        trigger_sum += (segments[0].start / SAMPLES_PER_CYCLE) as u64 + 2;
    }
    let n = traces.len() as u64;
    Ok(VictimProfile {
        library,
        layer_windows: layer_names
            .iter()
            .zip(&sums)
            .map(|(name, &(s, l))| (name.to_string(), s / n, l / n))
            .collect(),
        trigger_cycle: trigger_sum / n,
    })
}

/// Compiles a guided attack scheme: wait from the trigger until `target`
/// starts, then tile its window with `strikes` one-cycle strikes.
///
/// # Errors
///
/// Returns [`DeepStrikeError::LayerNotFound`] for an unknown target, and
/// [`DeepStrikeError::InvalidConfig`] if `strikes` cannot fit the window.
pub fn plan_attack(profile: &VictimProfile, target: &str, strikes: u32) -> Result<AttackScheme> {
    let (start, len) =
        profile.window(target).ok_or_else(|| DeepStrikeError::LayerNotFound(target.to_string()))?;
    if strikes == 0 {
        return Err(DeepStrikeError::InvalidConfig("at least one strike required".into()));
    }
    let delay = start.saturating_sub(profile.trigger_cycle) as u32;
    // One on-cycle plus a gap chosen so the strikes span the window.
    let per_strike = (len / u64::from(strikes)).max(2);
    let gap = (per_strike - 1) as u32;
    if u64::from(strikes) * per_strike > len + per_strike {
        return Err(DeepStrikeError::InvalidConfig(format!(
            "{strikes} strikes cannot fit a {len}-cycle window"
        )));
    }
    let scheme = AttackScheme { delay_cycles: delay, strikes, strike_cycles: 1, gap_cycles: gap };
    emit_planned(&scheme);
    Ok(scheme)
}

fn emit_planned(scheme: &AttackScheme) {
    trace::emit(|| trace::Event::AttackPlanned {
        delay_cycles: u64::from(scheme.delay_cycles),
        strikes: scheme.strikes,
        strike_cycles: scheme.strike_cycles,
        gap_cycles: scheme.gap_cycles,
    });
}

/// Compiles a multi-target program: after the trigger, strike each named
/// layer in turn with its own strike budget ("dynamically target at
/// different DNN layers", §III-D). Targets must be given in execution
/// order.
///
/// # Errors
///
/// Returns [`DeepStrikeError::LayerNotFound`] for unknown targets,
/// [`DeepStrikeError::InvalidConfig`] for zero strikes, out-of-order
/// targets, or budgets that do not fit their windows.
pub fn plan_multi_attack(
    profile: &VictimProfile,
    targets: &[(&str, u32)],
) -> Result<crate::signal_ram::SchemeProgram> {
    if targets.is_empty() {
        return Err(DeepStrikeError::InvalidConfig("at least one target required".into()));
    }
    let mut phases = Vec::with_capacity(targets.len());
    // Each phase's delay counts from the end of the previous phase.
    let mut elapsed = profile.trigger_cycle;
    for &(target, strikes) in targets {
        let (start, len) = profile
            .window(target)
            .ok_or_else(|| DeepStrikeError::LayerNotFound(target.to_string()))?;
        if strikes == 0 {
            return Err(DeepStrikeError::InvalidConfig("at least one strike required".into()));
        }
        // The trigger latches a couple of cycles into the first layer, so
        // tolerate a program that reaches a target slightly late — but not
        // one whose window has mostly passed (out-of-order targets).
        if elapsed > start + len / 2 {
            return Err(DeepStrikeError::InvalidConfig(format!(
                "target {target} starts at cycle {start}, before the program reaches it \
                 (cycle {elapsed}); list targets in execution order"
            )));
        }
        let per_strike = (len / u64::from(strikes)).max(2);
        if u64::from(strikes) * per_strike > len + per_strike {
            return Err(DeepStrikeError::InvalidConfig(format!(
                "{strikes} strikes cannot fit {target}'s {len}-cycle window"
            )));
        }
        let phase = AttackScheme {
            delay_cycles: start.saturating_sub(elapsed) as u32,
            strikes,
            strike_cycles: 1,
            gap_cycles: (per_strike - 1) as u32,
        };
        elapsed += phase.total_bits() as u64;
        emit_planned(&phase);
        phases.push(phase);
    }
    Ok(crate::signal_ram::SchemeProgram::new(phases))
}

/// The blind baseline: the same strike count spread over the entire
/// inference, launched immediately (no TDC guidance).
pub fn plan_blind(schedule: &Schedule, strikes: u32) -> AttackScheme {
    plan_blind_cycles(schedule.total_cycles(), strikes)
}

/// [`plan_blind`] against a *cycle estimate* instead of the real schedule —
/// what a remote attacker who never managed to profile must fall back to
/// (it only knows roughly how long an inference lasts).
pub fn plan_blind_cycles(total_cycles: u64, strikes: u32) -> AttackScheme {
    let per_strike = (total_cycles / u64::from(strikes.max(1))).max(2);
    let scheme = AttackScheme {
        delay_cycles: 0,
        strikes,
        strike_cycles: 1,
        gap_cycles: (per_strike - 1) as u32,
    };
    emit_planned(&scheme);
    scheme
}

/// The image-independent half of scoring one recorded run, built once per
/// [`evaluate_attack`] call and shared by every image's [`StrikeHook`].
///
/// Each cycle of a stage's window is priced in closed form
/// ([`FaultModel::pipelined_probabilities`]) from its capture voltage and
/// in-flight minimum. A cycle is *quiet* when its stage's widest op — a
/// full-width product in a conv stage, [`StrikeHook::DENSE_PATH_SCALE`] in
/// a dense one — cannot fault in it. Each stage lists the spans of
/// consecutive non-quiet cycles in its window, and each non-quiet cycle
/// keeps 16 bytes: its [`Slack`] and the fault probability and hazard of
/// its widest op. Ops in quiet cycles never become fault candidates.
#[derive(Debug)]
pub struct StrikeTables {
    /// Stage `i` of the network maps to window `i` of the schedule.
    stages: Vec<StageTable>,
    /// One entry per cycle of every span, in span order.
    cycles: Vec<CycleRisk>,
    fault_model: FaultModel,
}

#[derive(Debug)]
struct StageTable {
    window: LayerWindow,
    /// In cycle order; never empty.
    spans: Vec<ActiveSpan>,
}

/// Consecutive non-quiet cycles of one window.
#[derive(Debug)]
struct ActiveSpan {
    /// Offset of the span's first cycle from the window's start.
    first_cycle: u64,
    /// The span's entries in [`StrikeTables::cycles`].
    cycles: Range<usize>,
}

/// One non-quiet cycle, in single precision.
#[derive(Debug, Clone, Copy)]
struct CycleRisk {
    capture: f32,
    early: f32,
    /// `−ln(1 − p)` of the widest op's fault probability `p`, rounded up:
    /// the rate at which candidate faults are drawn per op.
    hazard: f32,
    /// `1 − e^(−hazard)`, rounded up: the candidate probability per op, at
    /// least every op's fault probability in the cycle.
    envelope: f32,
}

impl CycleRisk {
    /// The risk of a cycle of slack `slack` for a stage whose widest op
    /// runs at path scale `widest`, in single precision (the rounded slack
    /// prices every op); `None` when the widest op cannot fault.
    fn new(slack: Slack, widest: f64, fault_model: &FaultModel) -> Option<Self> {
        let (capture, early) = (slack.capture as f32, slack.early as f32);
        let rounded = Slack { capture: f64::from(capture), early: f64::from(early) };
        let p = fault_model.pipelined_probabilities(rounded, widest).total();
        if p <= 0.0 {
            return None;
        }
        let hazard = round_up(-(-p).ln_1p());
        let envelope = round_up(-(-f64::from(hazard)).exp_m1());
        Some(CycleRisk { capture, early, hazard, envelope })
    }

    fn slack(self) -> Slack {
        Slack { capture: f64::from(self.capture), early: f64::from(self.early) }
    }
}

/// The least `f32` at or above `x >= 0`.
fn round_up(x: f64) -> f32 {
    let y = x as f32;
    if f64::from(y) < x {
        f32::from_bits(y.to_bits() + 1)
    } else {
        y
    }
}

impl StrikeTables {
    /// Prices `run` in O(window cycles): each window's non-quiet cycles
    /// are recorded in order, with no per-op work.
    pub fn new(schedule: &Schedule, run: &InferenceRun, fault_model: FaultModel) -> Self {
        let voltage = &run.victim_voltage;
        // No op, at any path scale, can fault in a cycle whose voltages
        // clear the full-width safe voltages: such cycles skip pricing.
        let safe_voltage = fault_model.safe_voltage();
        let early_safe_voltage = fault_model.early_stage().safe_voltage();
        let mut cycles = Vec::new();
        let stages = schedule
            .windows()
            .iter()
            .map(|w| {
                let mut spans: Vec<ActiveSpan> = Vec::new();
                let Some(widest) = StrikeHook::widest_scale(w.kind) else {
                    return StageTable { window: w.clone(), spans };
                };
                for cycle in w.start_cycle..w.end_cycle().min(voltage.len() as u64) {
                    let capture = (cycle + StrikeHook::LATENCY) as usize;
                    let v_capture = voltage[capture.min(voltage.len() - 1)];
                    let v_min = run.min_voltage_in_flight(cycle, StrikeHook::LATENCY);
                    if v_capture >= safe_voltage && v_min >= early_safe_voltage {
                        continue;
                    }
                    let slack =
                        fault_model.slack(pdn::delay::factor(v_capture), pdn::delay::factor(v_min));
                    let Some(risk) = CycleRisk::new(slack, widest, &fault_model) else {
                        continue;
                    };
                    let r = cycle - w.start_cycle;
                    match spans.last_mut() {
                        Some(last) if last.first_cycle + last.cycles.len() as u64 == r => {
                            last.cycles.end += 1;
                        }
                        _ => spans.push(ActiveSpan {
                            first_cycle: r,
                            cycles: cycles.len()..cycles.len() + 1,
                        }),
                    }
                    cycles.push(risk);
                }
                StageTable { window: w.clone(), spans }
            })
            .collect();
        StrikeTables { stages, cycles, fault_model }
    }
}

/// One counter-based stream of an image's fault draws: draw `n` is a pure
/// function of the image key, the stage, the stream's purpose and `n`.
#[derive(Debug, Clone, Copy)]
struct Keyed(u64);

impl Keyed {
    /// Candidate gaps, counted by candidate within the stage.
    const GAPS: u64 = 0;
    /// Candidate acceptance and species, counted by op.
    const ACCEPT: u64 = 1;
    /// Random-fault masks, counted by op.
    const MASKS: u64 = 2;

    fn new(image_key: u64, stage: usize, purpose: u64) -> Self {
        Keyed(par::seed_for(image_key, (stage as u64) << 2 | purpose))
    }

    fn bits(self, n: u64) -> u64 {
        par::splitmix64(self.0.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
    }

    /// A uniform in `[0, 1)`.
    fn uniform(self, n: u64) -> f64 {
        (self.bits(n) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A unit exponential, `−ln(1 − u)` (`1 − u` is exact).
    fn exponential(self, n: u64) -> f64 {
        -(1.0 - self.uniform(n)).ln()
    }
}

/// The first op of each cycle of a window, walked cycle by cycle without
/// division: cycle `r` runs ops `⌈r·ops / cycles⌉..⌈(r+1)·ops / cycles⌉`,
/// the inverse of [`LayerWindow::cycle_of_op`].
struct OpBoundary {
    /// `⌈r·ops / cycles⌉` for the current `r`.
    op: u64,
    /// `op·cycles − r·ops`, in `0..cycles`.
    excess: u64,
    cycles: u64,
    step: u64,
    remainder: u64,
}

impl OpBoundary {
    fn at(window: &LayerWindow, r: u64) -> Self {
        let (ops, cycles) = (u128::from(window.ops), u128::from(window.cycles));
        let op = (u128::from(r) * ops).div_ceil(cycles);
        OpBoundary {
            op: op as u64,
            excess: (op * cycles - u128::from(r) * ops) as u64,
            cycles: window.cycles,
            step: window.ops / window.cycles,
            remainder: window.ops % window.cycles,
        }
    }

    /// Moves to the next cycle; returns its first op.
    fn advance(&mut self) -> u64 {
        self.op += self.step;
        if self.remainder > self.excess {
            self.op += 1;
            self.excess += self.cycles - self.remainder;
        } else {
            self.excess -= self.remainder;
        }
        self.op
    }
}

/// A [`FaultHook`] that converts a recorded [`InferenceRun`] into fault
/// events: an op faults according to the worst rail voltage it would have
/// seen while in flight. It holds only the shared [`StrikeTables`] and the
/// image's key; every draw is keyed on (image key, stage, op or candidate
/// count), so an image's faults do not depend on which other images are
/// scored with it, or where.
///
/// Candidate faults are drawn cycle by cycle at the cycle's *envelope*,
/// the fault probability of its widest op: the gap to the next candidate
/// is a keyed exponential draw measured in the cycles' hazard, carried
/// across cycles, so there is one draw per candidate. Candidate op `j` is
/// kept with probability `p(j) / envelope` (Bernoulli thinning), so each
/// op faults with its own closed-form probability and the draws follow the
/// faults, not the ops.
#[derive(Debug)]
pub struct StrikeHook<'a> {
    tables: &'a StrikeTables,
    key: u64,
}

impl<'a> StrikeHook<'a> {
    /// DSP pipeline latency assumed for the in-flight window, in cycles:
    /// the DSP's issue-to-capture latency ([`dsp::LATENCY`]).
    pub const LATENCY: u64 = dsp::LATENCY as u64;

    /// Path-length scale of accumulate-dominated (dense) DSP ops.
    pub const DENSE_PATH_SCALE: f64 = 0.85;

    /// Builds the hook of the image keyed `key` over the run priced in
    /// `tables`.
    pub fn new(tables: &'a StrikeTables, key: u64) -> Self {
        StrikeHook { tables, key }
    }

    /// The path scale of a stage kind's widest op; `None` for pooling,
    /// whose comparators the executor never faults.
    fn widest_scale(kind: StageKind) -> Option<f64> {
        match kind {
            StageKind::Conv => Some(FaultModel::path_scale(i32::MAX)),
            StageKind::Dense => Some(Self::DENSE_PATH_SCALE),
            StageKind::Pool => None,
        }
    }
}

impl FaultHook for StrikeHook<'_> {
    fn stage_faults(&mut self, ops: &StageOps<'_>, events: &mut Vec<FaultEvent>) {
        let Some(stage) = self.tables.stages.get(ops.index).filter(|s| !s.spans.is_empty()) else {
            return;
        };
        let (gaps, accept, masks) = (
            Keyed::new(self.key, ops.index, Keyed::GAPS),
            Keyed::new(self.key, ops.index, Keyed::ACCEPT),
            Keyed::new(self.key, ops.index, Keyed::MASKS),
        );
        let model = &self.tables.fault_model;
        // Every candidate is written at `events[kept]` and kept only if it
        // faults: with no branch on the verdict, consecutive candidates'
        // draws and pricing overlap in the pipeline.
        let mut kept = events.len();
        // The hazard still to cover before the next candidate: quiet
        // cycles carry none, so it carries over from span to span.
        let mut candidates = 0u64;
        let mut wait = gaps.exponential(candidates);
        for span in &stage.spans {
            let mut boundary = OpBoundary::at(&stage.window, span.first_cycle);
            let mut op = boundary.op;
            for &risk in &self.tables.cycles[span.cycles.clone()] {
                let end = boundary.advance();
                let (envelope, hazard) = (f64::from(risk.envelope), f64::from(risk.hazard));
                while op < end {
                    let room = (end - op) as f64 * hazard;
                    if wait >= room {
                        wait -= room;
                        break;
                    }
                    op = (op + (wait / hazard) as u64).min(end - 1);
                    candidates += 1;
                    wait = gaps.exponential(candidates);
                    // Convolution ops exercise the full multiplier array
                    // (path length grows with the product width); fully
                    // connected stages are accumulate-dominated — "only
                    // adds k×k prior multiplication results" (§IV) — so
                    // their critical path is the short ALU add.
                    let scale = match stage.window.kind {
                        StageKind::Dense => Self::DENSE_PATH_SCALE,
                        _ => FaultModel::path_scale(ops.product(op)),
                    };
                    let p = model.pipelined_probabilities(risk.slack(), scale);
                    let x = accept.uniform(op) * envelope;
                    let random = x < p.random;
                    let event = FaultEvent {
                        op,
                        kind: if random { MacFault::Random } else { MacFault::Duplicate },
                        mask: if random { 1 + (masks.bits(op) % 0xFFFF) as i32 } else { 0 },
                    };
                    if kept == events.len() {
                        events.resize(2 * kept + 64, event);
                    }
                    events[kept] = event;
                    kept += usize::from(x < p.random + p.duplicate);
                    op += 1;
                }
                op = end;
            }
        }
        events.truncate(kept);
    }
}

/// Outcome of one attack evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackOutcome {
    /// Accuracy of the untampered deployment on the same images.
    pub clean_accuracy: f64,
    /// Accuracy under the attack.
    pub attacked_accuracy: f64,
    /// Strikes actually fired during the recorded run.
    pub strikes_fired: usize,
    /// Mean MAC faults applied per image.
    pub mean_faults_per_image: f64,
    /// Mean duplication faults per image.
    pub mean_duplicate_per_image: f64,
    /// Mean random faults per image.
    pub mean_random_per_image: f64,
}

impl AttackOutcome {
    /// Accuracy lost to the attack, in percentage points.
    pub fn accuracy_drop(&self) -> f64 {
        (self.clean_accuracy - self.attacked_accuracy) * 100.0
    }
}

/// Scores an attack: runs the recorded fault pattern over a test set.
///
/// The recorded run's voltage waveform is input-independent (the
/// accelerator's schedule is static), so one co-simulated run prices the
/// fault distribution and each image samples it independently — the
/// statistical mode described in DESIGN.md §4. The pricing is done once
/// per call: one [`StrikeTables`] holds the delay factors of the cycles
/// whose droop can fault a MAC and, per stage, the ops run in them, and
/// every image's [`StrikeHook`] shares it. The executor sums every stage
/// clean and corrects only the outputs the hook's fault events touch.
///
/// Images are scored on the [`par`] worker pool. Image `i`'s faults —
/// which ops fault, which way, and each random fault's mask — are keyed
/// on `seed.wrapping_add(i)` alone (DESIGN.md §8), so the outcome is a
/// pure function of `(inputs, seed)`: bit-identical at any thread count,
/// including `DEEPSTRIKE_THREADS=1`, and batch-invariant — scoring images
/// `a..b` of a set at `seed + a` gives each image the faults it gets when
/// the whole set is scored at `seed`.
pub fn evaluate_attack<'a>(
    net: &QuantizedNetwork,
    schedule: &Schedule,
    run: &InferenceRun,
    samples: impl Iterator<Item = (&'a Tensor, usize)>,
    fault_model: FaultModel,
    seed: u64,
) -> AttackOutcome {
    evaluate_attack_impl(net, schedule, run, &samples.collect::<Vec<_>>(), fault_model, seed, None)
}

/// Precomputes the per-image clean verdicts `evaluate_attack` derives
/// internally (`net.predict(x) == y`). The clean pass is candidate-
/// independent, so a campaign sweeping hundreds of schemes over one test
/// set computes it once and passes it to
/// [`evaluate_attack_cached`], which then scores bit-identically to
/// [`evaluate_attack`] while skipping the redundant clean inference per
/// image per candidate.
pub fn clean_predictions<'a>(
    net: &QuantizedNetwork,
    samples: impl Iterator<Item = (&'a Tensor, usize)>,
) -> Vec<bool> {
    let samples: Vec<(&Tensor, usize)> = samples.collect();
    par::map_items(&samples, |&(x, y)| net.predict(x) == y)
}

/// [`evaluate_attack`] with the clean verdicts precomputed by
/// [`clean_predictions`] over the *same* samples in the same order.
/// Bit-identical to the uncached path: the verdicts are deterministic
/// booleans, so substituting them changes no sampled value.
pub fn evaluate_attack_cached<'a>(
    net: &QuantizedNetwork,
    schedule: &Schedule,
    run: &InferenceRun,
    samples: impl Iterator<Item = (&'a Tensor, usize)>,
    fault_model: FaultModel,
    seed: u64,
    clean: &[bool],
) -> AttackOutcome {
    let samples: Vec<(&Tensor, usize)> = samples.collect();
    assert_eq!(samples.len(), clean.len(), "clean verdicts must cover the sample set");
    evaluate_attack_impl(net, schedule, run, &samples, fault_model, seed, Some(clean))
}

fn evaluate_attack_impl(
    net: &QuantizedNetwork,
    schedule: &Schedule,
    run: &InferenceRun,
    samples: &[(&Tensor, usize)],
    fault_model: FaultModel,
    seed: u64,
    clean: Option<&[bool]>,
) -> AttackOutcome {
    struct ImageScore {
        clean_ok: bool,
        attacked_ok: bool,
        duplicate: u64,
        random: u64,
    }
    let tables = StrikeTables::new(schedule, run, fault_model);
    let scores = par::map(samples.len(), |i| {
        let (x, y) = samples[i];
        let mut hook = StrikeHook::new(&tables, seed.wrapping_add(i as u64));
        let (logits, tally) = infer_with_faults(net, x, &mut hook);
        let clean_ok = match clean {
            Some(c) => c[i],
            None => net.predict(x) == y,
        };
        let attacked_ok = argmax(&logits) == y;
        trace::emit(|| trace::Event::ImageScored {
            index: i as u64,
            clean_ok,
            attacked_ok,
            duplicate: tally.duplicate,
            random: tally.random,
        });
        ImageScore { clean_ok, attacked_ok, duplicate: tally.duplicate, random: tally.random }
    });
    let total = scores.len();
    let clean_correct = scores.iter().filter(|s| s.clean_ok).count();
    let attacked_correct = scores.iter().filter(|s| s.attacked_ok).count();
    let dup_sum: u64 = scores.iter().map(|s| s.duplicate).sum();
    let rand_sum: u64 = scores.iter().map(|s| s.random).sum();
    let denom = total.max(1) as f64;
    AttackOutcome {
        clean_accuracy: clean_correct as f64 / denom,
        attacked_accuracy: attacked_correct as f64 / denom,
        strikes_fired: run.strike_cycles.len(),
        mean_faults_per_image: (dup_sum + rand_sum) as f64 / denom,
        mean_duplicate_per_image: dup_sum as f64 / denom,
        mean_random_per_image: rand_sum as f64 / denom,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::cosim::CosimConfig;
    use accel::schedule::AccelConfig;
    use dnn::digits::{Dataset, RenderParams};
    use dnn::fixed::QFormat;
    use dnn::zoo::mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_victim() -> QuantizedNetwork {
        let net = mlp(&mut StdRng::seed_from_u64(0));
        QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap()
    }

    fn accel_config() -> AccelConfig {
        AccelConfig { weight_bandwidth: 16, stall_cycles: 150 }
    }

    fn platform(cells: usize, q: &QuantizedNetwork) -> CloudFpga {
        let mut fpga =
            CloudFpga::new(q, &accel_config(), cells, CosimConfig { pdn_substeps: 4 }).unwrap();
        fpga.settle(50);
        fpga
    }

    #[test]
    fn profiling_finds_all_dense_layers() {
        let q = small_victim();
        let mut fpga = platform(8_000, &q);
        let profile = profile_victim(&mut fpga, &["fc1", "fc2", "fc3"], 2).unwrap();
        assert_eq!(profile.layer_windows.len(), 3);
        let (s1, l1) = profile.window("fc1").unwrap();
        let w1 = fpga.schedule().window("fc1").unwrap();
        // Sensor-side estimate within 15% of ground truth.
        assert!(
            (s1 as f64 - w1.start_cycle as f64).abs() < 0.15 * w1.start_cycle as f64 + 40.0,
            "start estimate {s1} vs truth {}",
            w1.start_cycle
        );
        assert!(
            (l1 as f64 - w1.cycles as f64).abs() < 0.25 * w1.cycles as f64,
            "length estimate {l1} vs truth {}",
            w1.cycles
        );
        assert!(profile.trigger_cycle >= w1.start_cycle.saturating_sub(40));
        assert!(profile.library.signature("fc1").unwrap().observations == 2);
    }

    #[test]
    fn wrong_layer_count_is_reported() {
        let q = small_victim();
        let mut fpga = platform(8_000, &q);
        let err = profile_victim(&mut fpga, &["a", "b", "c", "d", "e"], 1).unwrap_err();
        assert!(matches!(err, DeepStrikeError::LayerNotFound(_)));
    }

    #[test]
    fn empty_layer_names_are_rejected() {
        // A flat trace has no segment, so the layer-count check alone
        // would pass and leave nothing to take the trigger from.
        let err = profile_from_traces(&[vec![90u8; 400]], &[]).unwrap_err();
        assert!(matches!(err, DeepStrikeError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn plan_places_strikes_inside_the_target_window() {
        let q = small_victim();
        let mut fpga = platform(10_000, &q);
        let profile = profile_victim(&mut fpga, &["fc1", "fc2", "fc3"], 1).unwrap();
        let scheme = plan_attack(&profile, "fc1", 40).unwrap();
        fpga.scheduler_mut().load_scheme(&scheme).unwrap();
        fpga.scheduler_mut().arm(true).unwrap();
        let run = fpga.run_inference();
        assert_eq!(run.strike_cycles.len(), 40);
        let w = fpga.schedule().window("fc1").unwrap();
        let inside =
            run.strike_cycles.iter().filter(|&&c| c >= w.start_cycle && c < w.end_cycle()).count();
        assert!(
            inside as f64 >= 0.8 * 40.0,
            "only {inside}/40 strikes landed in fc1 ({}..{})",
            w.start_cycle,
            w.end_cycle()
        );
    }

    #[test]
    fn plan_rejects_bad_targets() {
        let profile = VictimProfile {
            library: SignatureLibrary::new(),
            layer_windows: vec![("fc1".into(), 100, 50)],
            trigger_cycle: 90,
        };
        assert!(matches!(
            plan_attack(&profile, "nope", 10),
            Err(DeepStrikeError::LayerNotFound(_))
        ));
        assert!(plan_attack(&profile, "fc1", 0).is_err());
        assert!(plan_attack(&profile, "fc1", 500).is_err(), "window too small");
    }

    #[test]
    fn guided_strikes_concentrate_where_blind_strikes_scatter() {
        // Target the *small* fc2 window: TDC guidance lands nearly every
        // strike inside it, while the blind spray mostly misses — the
        // mechanism behind Fig. 5b's guided-vs-blind gap. (The accuracy
        // impact comparison runs on LeNet in the fig5b bench, where the
        // target layer is a minority of the runtime.)
        let q = small_victim();
        let strikes = 50u32;

        let mut fpga = platform(14_000, &q);
        let profile = profile_victim(&mut fpga, &["fc1", "fc2", "fc3"], 1).unwrap();
        let scheme = plan_attack(&profile, "fc2", strikes).unwrap();
        fpga.scheduler_mut().load_scheme(&scheme).unwrap();
        fpga.scheduler_mut().arm(true).unwrap();
        let guided_run = fpga.run_inference();

        let mut fpga_b = platform(14_000, &q);
        let blind_scheme = plan_blind(fpga_b.schedule(), strikes);
        fpga_b.scheduler_mut().load_scheme(&blind_scheme).unwrap();
        fpga_b.scheduler_mut().arm(true).unwrap();
        fpga_b.scheduler_mut().force_start();
        let blind_run = fpga_b.run_inference();

        let w = fpga.schedule().window("fc2").unwrap().clone();
        let inside = |cycles: &[u64]| {
            cycles.iter().filter(|&&c| c >= w.start_cycle && c < w.end_cycle()).count() as f64
                / cycles.len().max(1) as f64
        };
        let guided_frac = inside(&guided_run.strike_cycles);
        let blind_frac = inside(&blind_run.strike_cycles);
        assert!(guided_frac > 0.7, "guided hit rate {guided_frac}");
        assert!(blind_frac < 0.3, "blind hit rate {blind_frac}");
        assert!(!blind_run.strike_cycles.is_empty(), "blind must actually strike");

        // And the guided strikes actually cause faults in the evaluation.
        let mut rng = StdRng::seed_from_u64(77);
        let images = Dataset::generate(80, &RenderParams::default(), &mut rng);
        let guided = evaluate_attack(
            &q,
            fpga.schedule(),
            &guided_run,
            images.iter(),
            FaultModel::paper(),
            1,
        );
        // The victim here is an *untrained* random MLP (clean accuracy sits
        // at the 10-class chance level), so "attacked ≤ clean" would be a
        // coin flip — the accuracy-drop claim is tested on trained LeNet in
        // the fig5b bench. What must hold here: guided strikes fault the
        // target layer heavily, and the faulted accuracy stays at chance.
        assert!(
            guided.mean_faults_per_image > 10.0,
            "guided strikes must fault the window heavily: {} faults/img",
            guided.mean_faults_per_image
        );
        assert!(
            guided.attacked_accuracy < 0.35,
            "faulted random net must stay near chance: {}",
            guided.attacked_accuracy
        );
    }

    #[test]
    fn multi_target_program_strikes_both_layers() {
        let q = small_victim();
        let mut fpga = platform(12_000, &q);
        let profile = profile_victim(&mut fpga, &["fc1", "fc2", "fc3"], 1).unwrap();
        let program = plan_multi_attack(&profile, &[("fc1", 30), ("fc3", 5)]).unwrap();
        assert_eq!(program.total_strikes(), 35);
        fpga.scheduler_mut().load_program(&program).unwrap();
        fpga.scheduler_mut().arm(true).unwrap();
        let run = fpga.run_inference();
        assert_eq!(run.strike_cycles.len(), 35);
        let w1 = fpga.schedule().window("fc1").unwrap().clone();
        let w3 = fpga.schedule().window("fc3").unwrap().clone();
        let in1 = run.strike_cycles.iter().filter(|&&c| w1.contains(c)).count();
        let in3 = run.strike_cycles.iter().filter(|&&c| w3.contains(c)).count();
        assert!(in1 >= 24, "fc1 phase landed {in1}/30");
        assert!(in3 >= 3, "fc3 phase landed {in3}/5");
    }

    #[test]
    fn multi_target_rejects_out_of_order_and_unknown() {
        let profile = VictimProfile {
            library: SignatureLibrary::new(),
            layer_windows: vec![("a".into(), 100, 50), ("b".into(), 300, 50)],
            trigger_cycle: 90,
        };
        assert!(plan_multi_attack(&profile, &[]).is_err());
        assert!(plan_multi_attack(&profile, &[("zz", 1)]).is_err());
        assert!(
            plan_multi_attack(&profile, &[("b", 5), ("a", 5)]).is_err(),
            "out-of-order targets must be rejected"
        );
        assert!(plan_multi_attack(&profile, &[("a", 5), ("b", 5)]).is_ok());
        assert!(plan_multi_attack(&profile, &[("a", 0)]).is_err());
    }

    /// A synthetic run, shorter than the schedule, whose rail sits at
    /// `droop` on a random third of its cycles and at 1.0 V elsewhere.
    fn synthetic_run(schedule: &Schedule, droop: f64) -> InferenceRun {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(3);
        let n = schedule.total_cycles() as usize - 500;
        let victim_voltage =
            (0..n).map(|_| if rng.gen_range(0..3) == 0 { droop } else { 1.0 }).collect();
        InferenceRun {
            tdc_trace: vec![],
            victim_voltage,
            strike_cycles: vec![],
            triggered_cycle: None,
            final_temp_c: 25.0,
        }
    }

    /// The closed-form fault probability of the widest op of `window`'s
    /// stage in `cycle` of `run`, or `None` past the recorded run.
    fn widest_probability(
        model: &FaultModel,
        run: &InferenceRun,
        window: &LayerWindow,
        cycle: u64,
    ) -> Option<f64> {
        let n = run.victim_voltage.len() as u64;
        let widest = StrikeHook::widest_scale(window.kind)?;
        (cycle < n).then(|| {
            let v_capture = run.victim_voltage[(cycle + StrikeHook::LATENCY).min(n - 1) as usize];
            let v_min = run.min_voltage_in_flight(cycle, StrikeHook::LATENCY);
            let slack = model.slack(pdn::delay::factor(v_capture), pdn::delay::factor(v_min));
            model.pipelined_probabilities(slack, widest).total()
        })
    }

    #[test]
    fn strike_tables_invert_cycle_of_op() {
        // Walking each span's cycles with `OpBoundary` must visit exactly
        // the ops `cycle_of_op` places in them, and a cycle is in a span
        // exactly when its widest op can fault there, with an envelope at
        // least that probability.
        let q = small_victim();
        let schedule = Schedule::for_network(&q, &accel_config());
        let run = synthetic_run(&schedule, 0.8);
        let model = FaultModel::paper();
        let tables = StrikeTables::new(&schedule, &run, model);
        let mut active_ops = 0;
        for (stage, table) in tables.stages.iter().enumerate() {
            let mut walked = vec![None; table.window.ops as usize];
            for span in &table.spans {
                let mut boundary = OpBoundary::at(&table.window, span.first_cycle);
                let mut op = boundary.op;
                for (k, &risk) in tables.cycles[span.cycles.clone()].iter().enumerate() {
                    let end = boundary.advance();
                    for o in op..end {
                        let envelope = f64::from(risk.envelope);
                        walked[o as usize] = Some((span.first_cycle + k as u64, envelope));
                    }
                    op = end;
                }
            }
            for (op, walked) in walked.into_iter().enumerate() {
                let cycle = table.window.cycle_of_op(op as u64);
                let p = widest_probability(&model, &run, &table.window, cycle).unwrap_or(0.0);
                match walked {
                    Some((r, envelope)) => {
                        assert_eq!(table.window.start_cycle + r, cycle, "stage {stage} op {op}");
                        assert!(p > 0.0 && envelope >= p * (1.0 - 1e-6), "{p} vs {envelope}");
                        let hazard = f64::from(tables.cycles[0].hazard);
                        assert!(hazard > 0.0);
                        active_ops += 1;
                    }
                    None => assert_eq!(p, 0.0, "stage {stage} op {op} (cycle {cycle})"),
                }
            }
        }
        assert!(active_ops > 1000, "the synthetic droop must reach ops: {active_ops}");
    }

    #[test]
    fn op_boundaries_invert_cycle_of_op_for_any_window() {
        for (ops, cycles) in [(10u64, 10u64), (150, 7), (1200, 300), (7, 3), (122_880, 30_720)] {
            let window = LayerWindow {
                name: "w".into(),
                kind: StageKind::Dense,
                start_cycle: 5,
                cycles,
                ops,
                outputs: 1,
            };
            let mut boundary = OpBoundary::at(&window, 0);
            assert_eq!(boundary.op, 0);
            for r in 0..cycles {
                let (first, end) = (boundary.op, boundary.advance());
                assert!((first..end).all(|op| window.cycle_of_op(op) == 5 + r), "{ops}/{cycles}");
                assert_eq!(OpBoundary::at(&window, r + 1).op, end);
            }
            assert_eq!(boundary.op, ops);
        }
    }

    #[test]
    fn dense_ops_at_a_droop_only_full_width_ops_feel_are_quiet() {
        // 0.86 V faults a full-width conv product but not a dense op, whose
        // path runs at 0.85 of the multiplier's: no span, so no draw.
        let model = FaultModel::paper();
        let f = pdn::delay::factor(0.86);
        assert!(model.pipelined_probabilities(model.slack(f, f), 1.0).total() > 0.0);
        let dense = model.pipelined_probabilities(model.slack(f, f), StrikeHook::DENSE_PATH_SCALE);
        assert_eq!(dense.total(), 0.0);
        let q = small_victim();
        let schedule = Schedule::for_network(&q, &accel_config());
        let tables = StrikeTables::new(&schedule, &synthetic_run(&schedule, 0.86), model);
        assert!(tables.stages.iter().all(|t| t.spans.is_empty()));
    }

    #[test]
    fn thinned_events_match_the_closed_form() {
        // Over many image keys, each species' event count on the MLP's
        // first (dense) stage matches the sum of its ops' closed-form
        // probabilities, and events are sorted, in range and unique.
        let q = small_victim();
        let schedule = Schedule::for_network(&q, &accel_config());
        let run = synthetic_run(&schedule, 0.76);
        let model = FaultModel::paper();
        let tables = StrikeTables::new(&schedule, &run, model);
        let table = &tables.stages[0];
        let (mut p_dup, mut p_rnd) = (0.0, 0.0);
        for op in 0..table.window.ops {
            let cycle = table.window.cycle_of_op(op);
            if widest_probability(&model, &run, &table.window, cycle).is_some_and(|p| p > 0.0) {
                let n = run.victim_voltage.len() as u64;
                let v_capture =
                    run.victim_voltage[(cycle + StrikeHook::LATENCY).min(n - 1) as usize];
                let v_min = run.min_voltage_in_flight(cycle, StrikeHook::LATENCY);
                let slack = model.slack(pdn::delay::factor(v_capture), pdn::delay::factor(v_min));
                let p = model.pipelined_probabilities(slack, StrikeHook::DENSE_PATH_SCALE);
                p_dup += p.duplicate;
                p_rnd += p.random;
            }
        }
        assert!(p_dup > 50.0 && p_rnd > 50.0, "both species must occur: {p_dup} {p_rnd}");
        let layer = &q.layers()[0];
        let input = q.quantize_input(&dnn::tensor::Tensor::full(&[1, 28, 28], 0.3));
        let ops = StageOps::new(0, layer, &input).unwrap();
        let keys = 200;
        let (mut dup, mut rnd) = (0u64, 0u64);
        let mut events = Vec::new();
        for key in 0..keys {
            events.clear();
            StrikeHook::new(&tables, key).stage_faults(&ops, &mut events);
            assert!(events.windows(2).all(|w| w[0].op < w[1].op), "sorted and unique");
            assert!(events.last().is_none_or(|e| e.op < ops.ops));
            for e in &events {
                match e.kind {
                    MacFault::Duplicate => dup += 1,
                    MacFault::Random => {
                        assert!((1..1 << 16).contains(&e.mask));
                        rnd += 1;
                    }
                    MacFault::None => panic!("a listed event faults"),
                }
            }
        }
        for (got, p) in [(dup, p_dup), (rnd, p_rnd)] {
            let expected = p * keys as f64;
            let sigma = expected.sqrt();
            assert!((got as f64 - expected).abs() < 5.0 * sigma, "{got} vs {expected}");
        }
    }

    #[test]
    fn outcome_accuracy_drop() {
        let o = AttackOutcome {
            clean_accuracy: 0.96,
            attacked_accuracy: 0.82,
            strikes_fired: 100,
            mean_faults_per_image: 5.0,
            mean_duplicate_per_image: 4.0,
            mean_random_per_image: 1.0,
        };
        assert!((o.accuracy_drop() - 14.0).abs() < 1e-9);
    }
}
