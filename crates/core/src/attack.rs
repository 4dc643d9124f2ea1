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

use accel::dsp::DspSlice;
use accel::executor::{infer_with_faults, MacHook};
use accel::fault::{FaultModel, MacFault};
use accel::schedule::{LayerWindow, Schedule, StageKind};
use dnn::quant::{argmax, QuantizedNetwork};
use dnn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

use crate::cosim::{CloudFpga, InferenceRun};
use crate::error::{DeepStrikeError, Result};
use crate::profile::{segment_trace, SegmenterConfig, SignatureLibrary};
use crate::signal_ram::AttackScheme;

/// TDC samples per victim cycle (200 MHz sensor vs 100 MHz victim clock).
pub const SAMPLES_PER_CYCLE: u64 = 2;

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
/// [`DeepStrikeError::InvalidConfig`] when `traces` is empty.
pub fn profile_from_traces(traces: &[Vec<u8>], layer_names: &[&str]) -> Result<VictimProfile> {
    if traces.is_empty() {
        return Err(DeepStrikeError::InvalidConfig("at least one trace required".into()));
    }
    let mut library = SignatureLibrary::new();
    let mut sums: Vec<(u64, u64)> = vec![(0, 0); layer_names.len()];
    let mut trigger_sum = 0u64;
    let seg_config = SegmenterConfig::default();
    for tdc_trace in traces {
        let segments = segment_trace(tdc_trace, &seg_config);
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
            sums[i].0 += seg.start as u64 / SAMPLES_PER_CYCLE;
            sums[i].1 += seg.len as u64 / SAMPLES_PER_CYCLE;
        }
        // The detector latches `debounce` samples into the first layer.
        trigger_sum += segments[0].start as u64 / SAMPLES_PER_CYCLE + 2;
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
/// A cycle is *quiet* when no op in flight during it can violate timing:
/// its capture voltage is at or above the fault model's safe voltage and
/// its in-flight minimum at or above the early stage's. Each stage lists
/// the spans of consecutive non-quiet cycles in its window, with the ops
/// they execute and the delay-law factors of both voltages per cycle; the
/// executor sums every other op clean.
#[derive(Debug)]
pub struct StrikeTables {
    /// Stage `i` of the network maps to window `i` of the schedule.
    stages: Vec<StageTable>,
    /// Delay factors at the capture voltage and at the in-flight minimum,
    /// one pair per cycle of every span, in span order.
    factors: Vec<(f64, f64)>,
    fault_model: FaultModel,
}

#[derive(Debug)]
struct StageTable {
    window: LayerWindow,
    /// Sorted by op; the op ranges are disjoint and non-empty.
    spans: Vec<ActiveSpan>,
}

/// Consecutive non-quiet cycles of one window and the ops run in them.
#[derive(Debug)]
struct ActiveSpan {
    ops: Range<u64>,
    first_cycle: u64,
    /// Index in [`StrikeTables::factors`] of `first_cycle`'s pair.
    factors: usize,
}

impl StrikeTables {
    /// Prices `run` in O(window cycles + spans): each window's non-quiet
    /// cycles are mapped back to the ops that [`LayerWindow::cycle_of_op`]
    /// places in them, with no per-op work.
    pub fn new(schedule: &Schedule, run: &InferenceRun, fault_model: FaultModel) -> Self {
        let voltage = &run.victim_voltage;
        let safe_voltage = fault_model.safe_voltage();
        let early_safe_voltage = fault_model.early_stage().safe_voltage();
        let delay = fault_model.delay();
        let mut factors = Vec::new();
        let stages = schedule
            .windows()
            .iter()
            .map(|w| {
                // Ops `first_op(r)..first_op(r + 1)` run in cycle
                // `start_cycle + r`: the inverse of `i * cycles / ops`.
                let first_op = |r: u64| {
                    (u128::from(r) * u128::from(w.ops)).div_ceil(u128::from(w.cycles)) as u64
                };
                let mut spans: Vec<ActiveSpan> = Vec::new();
                for cycle in w.start_cycle..w.end_cycle().min(voltage.len() as u64) {
                    let capture = (cycle + StrikeHook::LATENCY) as usize;
                    let v_capture = voltage[capture.min(voltage.len() - 1)];
                    let v_min = run.min_voltage_in_flight(cycle, StrikeHook::LATENCY);
                    if v_capture >= safe_voltage && v_min >= early_safe_voltage {
                        continue;
                    }
                    let r = cycle - w.start_cycle;
                    let ops = first_op(r)..first_op(r + 1);
                    match spans.last_mut() {
                        Some(last)
                            if last.first_cycle + (factors.len() - last.factors) as u64
                                == cycle =>
                        {
                            last.ops.end = ops.end;
                        }
                        _ if ops.is_empty() => continue,
                        _ => spans.push(ActiveSpan {
                            ops,
                            first_cycle: cycle,
                            factors: factors.len(),
                        }),
                    }
                    factors.push((delay.factor(v_capture), delay.factor(v_min)));
                }
                StageTable { window: w.clone(), spans }
            })
            .collect();
        StrikeTables { stages, factors, fault_model }
    }
}

/// A [`MacHook`] that converts a recorded [`InferenceRun`] into per-op
/// fault decisions: an op faults according to the worst rail voltage it
/// would have seen while in flight. It holds only the shared
/// [`StrikeTables`] and the image's own fault RNG.
#[derive(Debug)]
pub struct StrikeHook<'a> {
    tables: &'a StrikeTables,
    rng: StdRng,
    /// `(stage, span)` of the last op looked up.
    cursor: (usize, usize),
}

impl<'a> StrikeHook<'a> {
    /// DSP pipeline latency assumed for the in-flight window, in cycles:
    /// the slice's issue-to-capture pipeline.
    pub const LATENCY: u64 = DspSlice::LATENCY as u64;

    /// Path-length scale of accumulate-dominated (dense) DSP ops.
    pub const DENSE_PATH_SCALE: f64 = 0.85;

    /// Builds one image's hook over the run priced in `tables`.
    pub fn new(tables: &'a StrikeTables, seed: u64) -> Self {
        StrikeHook { tables, rng: StdRng::seed_from_u64(seed), cursor: (0, 0) }
    }
}

impl MacHook for StrikeHook<'_> {
    fn fault(&mut self, stage_index: usize, op_index: u64, weight: i8, activation: i8) -> MacFault {
        let Some(stage) = self.tables.stages.get(stage_index) else {
            return MacFault::None;
        };
        // The executor visits a stage's ops in ascending order, so the
        // span holding op `i` is found by walking on from the last one.
        let (cursor_stage, mut k) = self.cursor;
        if cursor_stage != stage_index
            || (k > 0 && stage.spans.get(k - 1).is_some_and(|s| s.ops.end > op_index))
        {
            k = stage.spans.partition_point(|s| s.ops.end <= op_index);
        }
        while stage.spans.get(k).is_some_and(|s| s.ops.end <= op_index) {
            k += 1;
        }
        self.cursor = (stage_index, k);
        // Ops outside every span run in quiet cycles (or past the
        // recorded run) and cannot fault.
        let Some(span) = stage.spans.get(k).filter(|s| s.ops.start <= op_index) else {
            return MacFault::None;
        };
        let cycle = stage.window.cycle_of_op(op_index);
        let (capture_factor, in_flight_factor) =
            self.tables.factors[span.factors + (cycle - span.first_cycle) as usize];
        // Convolution ops exercise the full multiplier array (path length
        // grows with the product width); fully connected stages are
        // accumulate-dominated — "only adds k×k prior multiplication
        // results" (§IV) — so their critical path is the short ALU add.
        let scale = match stage.window.kind {
            StageKind::Dense => Self::DENSE_PATH_SCALE,
            _ => FaultModel::path_scale(i32::from(weight) * i32::from(activation)),
        };
        self.tables.fault_model.sample_pipelined_factors(
            capture_factor,
            in_flight_factor,
            scale,
            &mut self.rng,
        )
    }

    fn active_from(&self, stage_index: usize, op_index: u64) -> u64 {
        let Some(stage) = self.tables.stages.get(stage_index) else {
            return u64::MAX;
        };
        let k = stage.spans.partition_point(|s| s.ops.end <= op_index);
        stage.spans.get(k).map_or(u64::MAX, |s| s.ops.start.max(op_index))
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
/// every image's [`StrikeHook`] shares it. The executor sums each output
/// whose MACs all run in quiet cycles clean, without consulting the hook.
///
/// Images are scored on the [`par`] worker pool: image `i` draws from an
/// `StdRng` seeded by `par::seed_for(seed ^ 0xD5, i)` and its
/// [`StrikeHook`] keeps only its own `StdRng`, seeded from `seed + i`, so
/// the outcome is a pure function of `(inputs, seed)` — bit-identical at
/// any thread count, including `DEEPSTRIKE_THREADS=1`.
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
    let scores = par::map_seeded(samples.len(), seed ^ 0xD5, |i, rng| {
        let (x, y) = samples[i];
        let mut hook = StrikeHook::new(&tables, seed.wrapping_add(i as u64));
        let (logits, tally) = infer_with_faults(net, x, &mut hook, rng);
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

    fn small_victim() -> QuantizedNetwork {
        let net = mlp(&mut StdRng::seed_from_u64(0));
        QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap()
    }

    fn accel_config() -> AccelConfig {
        AccelConfig { weight_bandwidth: 16, stall_cycles: 150, ..AccelConfig::default() }
    }

    fn platform(cells: usize, q: &QuantizedNetwork) -> CloudFpga {
        let mut fpga = CloudFpga::new(
            q,
            &accel_config(),
            cells,
            CosimConfig { pdn_substeps: 4, ..CosimConfig::default() },
        )
        .unwrap();
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

    #[test]
    fn strike_tables_invert_cycle_of_op() {
        // A synthetic run, shorter than the schedule, whose rail dips
        // below the safe voltage on a random third of its cycles: every
        // op's table entry must match pricing its own cycle directly.
        use rand::Rng;
        let q = small_victim();
        let schedule = Schedule::for_network(&q, &accel_config());
        let mut rng = StdRng::seed_from_u64(3);
        let n = schedule.total_cycles() as usize - 500;
        let victim_voltage =
            (0..n).map(|_| if rng.gen_range(0..3) == 0 { 0.8 } else { 1.0 }).collect();
        let run = InferenceRun {
            tdc_trace: vec![],
            victim_voltage,
            strike_cycles: vec![],
            triggered_cycle: None,
            final_temp_c: 25.0,
        };
        let model = FaultModel::paper();
        let tables = StrikeTables::new(&schedule, &run, model);
        let hook = StrikeHook::new(&tables, 0);
        let mut active_ops = 0;
        for (stage, table) in tables.stages.iter().enumerate() {
            for op in 0..table.window.ops {
                let cycle = table.window.cycle_of_op(op);
                let priced = (cycle < n as u64).then(|| {
                    let v_capture = run.victim_voltage
                        [(cycle + StrikeHook::LATENCY).min(n as u64 - 1) as usize];
                    let v_min = run.min_voltage_in_flight(cycle, StrikeHook::LATENCY);
                    (v_capture, v_min)
                });
                let expected = priced
                    .filter(|&(c, m)| {
                        !(c >= model.safe_voltage() && m >= model.early_stage().safe_voltage())
                    })
                    .map(|(c, m)| (model.delay().factor(c), model.delay().factor(m)));
                let span = table.spans.iter().find(|s| s.ops.contains(&op));
                let found =
                    span.map(|s| tables.factors[s.factors + (cycle - s.first_cycle) as usize]);
                assert_eq!(found, expected, "stage {stage} op {op} (cycle {cycle})");
                assert_eq!(hook.active_from(stage, op) == op, expected.is_some());
                active_ops += u64::from(expected.is_some());
            }
        }
        assert!(active_ops > 1000, "the synthetic droop must reach ops: {active_ops}");
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
