//! Agreement tests between the layers of the fault-modelling stack:
//! closed-form probabilities ↔ cycle-level DSP sampling ↔ the statistical
//! executor (DESIGN.md §4's "both modes are tested for agreement"), plus
//! stage-level agreement across the whole pipeline via the golden-trace
//! scenarios (DESIGN.md §8).
//!
//! NOTE: nothing in this binary may mutate `DEEPSTRIKE_THREADS` — the
//! variable is process-global and tests run concurrently; the golden
//! scenarios here are asserted under whatever ambient thread count the
//! harness picked (the thread-sweep itself lives in `golden_trace.rs`).

use accel::dsp::{DspOp, DspSlice};
use accel::executor::{infer_with_faults, NoFaults};
use accel::fault::{FaultModel, MacFault};
use accel::pe::PeArray;
use dnn::digits::{Dataset, RenderParams};
use dnn::fixed::QFormat;
use dnn::quant::QuantizedNetwork;
use dnn::zoo::mlp;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn cycle_level_rates_match_closed_form_at_full_path_scale() {
    let model = FaultModel::paper();
    for &v in &[0.86, 0.83, 0.80, 0.76] {
        let p = model.probabilities(v);
        let mut pe = PeArray::new(8, model);
        let mut rng = StdRng::seed_from_u64(99);
        // Full-width operands so path scale is 1 (matching closed form).
        let ops = (0..30_000).map(|i| DspOp { a: 100 + (i % 27), b: 120, d: 7 });
        let tally = pe.characterize(ops, v, &mut rng);
        assert!(
            (tally.total_fault_rate() - p.total()).abs() < 0.02,
            "total at {v}: sim {} vs closed form {}",
            tally.total_fault_rate(),
            p.total()
        );
        assert!(
            (tally.duplicate_rate() - p.duplicate).abs() < 0.02,
            "dup at {v}: sim {} vs closed form {}",
            tally.duplicate_rate(),
            p.duplicate
        );
    }
}

#[test]
fn zero_products_never_fault_in_the_cycle_model() {
    let model = FaultModel::paper();
    let mut pe = PeArray::new(4, model);
    let mut rng = StdRng::seed_from_u64(1);
    // b = 0 ⇒ every product is zero ⇒ no toggling ⇒ no timing faults,
    // even at crash-level droop.
    let ops = (0..5_000).map(|i| DspOp { a: i, b: 0, d: 1 });
    let tally = pe.characterize(ops, 0.70, &mut rng);
    assert_eq!(tally.total_fault_rate(), 0.0);
}

#[test]
fn statistical_executor_is_bit_exact_against_reference_when_clean() {
    let net = mlp(&mut StdRng::seed_from_u64(12));
    let q = QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap();
    let mut rng = StdRng::seed_from_u64(0);
    let digits = Dataset::generate(8, &RenderParams::challenging(), &mut rng);
    for (x, _) in digits.iter() {
        let (logits, tally) = infer_with_faults(&q, x, &mut NoFaults, &mut rng);
        assert_eq!(logits, q.infer_logits(x));
        assert_eq!(tally.total(), 0);
    }
}

#[test]
fn duplication_semantics_match_between_dsp_and_executor_direction() {
    // In both models a duplication fault yields the previous product of
    // the same PE; verify the DSP side explicitly at a dup-prone voltage.
    let model = FaultModel::paper();
    let mut v = 1.0;
    let mut best = (1.0, 0.0f64);
    while v > 0.72 {
        let d = model.probabilities(v).duplicate;
        if d > best.1 {
            best = (v, d);
        }
        v -= 0.002;
    }
    let mut dsp = DspSlice::new(model);
    let mut rng = StdRng::seed_from_u64(3);
    let mut prev_correct: Option<i64> = None;
    let mut dup_checked = 0;
    for i in 0..4_000i32 {
        dsp.issue(DspOp { a: 100 + (i % 23), b: 119, d: 3 });
        if let Some(out) = dsp.tick(best.0, &mut rng) {
            if out.fault == MacFault::Duplicate {
                if let Some(p) = prev_correct {
                    assert_eq!(out.value, p, "duplication must replay the previous product");
                    dup_checked += 1;
                }
            }
            prev_correct = Some(out.op.correct());
        }
    }
    assert!(dup_checked > 50, "too few duplications observed: {dup_checked}");
}

/// Stage-level agreement on the fig3 guided strike: the detector's latch
/// point, the signal-RAM schedule, the striker edges and the PDN glitch
/// windows must all tell the same story about the same run.
#[test]
fn fig3_trace_stages_agree_on_strike_accounting() {
    use trace::Event;

    let log = bench::golden::run_scenario("fig3_slice");
    assert_eq!(log.dropped, 0);

    // fig3_slice's scheme, restated here so a drift in the scenario shows
    // up as a loud mismatch rather than a silently-updated expectation.
    let (delay, strikes, strike_cycles, gap) = (20u64, 5usize, 1u64, 7u64);
    let total_bits = delay + strikes as u64 * (strike_cycles + gap);

    // Signal-RAM stage: the compiled scheme and its playback agree.
    let loaded: Vec<_> = log
        .events
        .iter()
        .filter_map(|e| match e {
            Event::SchemeLoaded { bits, strikes, phases } => Some((*bits, *strikes, *phases)),
            _ => None,
        })
        .collect();
    assert_eq!(loaded, vec![(total_bits, strikes as u32, 1u32)]);
    assert_eq!(
        log.count(|e| matches!(e, Event::PlaybackStart { len_bits } if *len_bits == total_bits)),
        1
    );
    assert_eq!(
        log.count(
            |e| matches!(e, Event::PlaybackDone { bits_played } if *bits_played == total_bits)
        ),
        1
    );

    // Detector stage: exactly one latch, and playback starts right after
    // it — the first strike fires `delay` cycles past the latch sample.
    let latches: Vec<u64> = log
        .events
        .iter()
        .filter_map(|e| match e {
            Event::DetectorLatch { sample } => Some(*sample),
            _ => None,
        })
        .collect();
    assert_eq!(latches.len(), 1, "one DNN start, one latch");
    let latch = latches[0];

    // Scheduler stage: strike cycles line up with the compiled schedule.
    let strike_at: Vec<u64> = log
        .events
        .iter()
        .filter_map(|e| match e {
            Event::StrikeIssued { cycle } => Some(*cycle),
            _ => None,
        })
        .collect();
    assert_eq!(strike_at.len(), strikes);
    assert_eq!(strike_at[0], latch + 1 + delay, "first strike is delay-aligned to the latch");
    for pair in strike_at.windows(2) {
        assert_eq!(pair[1] - pair[0], strike_cycles + gap, "strikes are gap-spaced");
    }

    // Striker stage: one rising edge per strike, numbered consecutively.
    let edges: Vec<u64> = log
        .events
        .iter()
        .filter_map(|e| match e {
            Event::StrikerEdge { activation } => Some(*activation),
            _ => None,
        })
        .collect();
    assert_eq!(edges, (1..=strikes as u64).collect::<Vec<_>>());

    // PDN stage: each glitch window dips below the DSP's safe voltage
    // (that is what makes the strikes faults rather than noise).
    let safe_uv = (FaultModel::paper().safe_voltage() * 1e6) as u64;
    let glitches: Vec<u64> = log
        .events
        .iter()
        .filter_map(|e| match e {
            Event::PdnGlitch { nadir_uv, .. } => Some(*nadir_uv),
            _ => None,
        })
        .collect();
    assert!(
        !glitches.is_empty() && glitches.len() <= strikes,
        "between one merged window and one per strike: {glitches:?}"
    );
    for nadir in glitches {
        assert!(nadir > 0 && nadir < safe_uv, "nadir {nadir}µV not below safe {safe_uv}µV");
    }
}

/// Stage-level agreement on the fig5b campaign: the per-image fault
/// tallies reported by the evaluator must equal the DSP-level fault
/// events materialised by the executor — two independent observers of
/// the same run.
#[test]
fn fig5b_trace_fault_tallies_agree_across_stages() {
    use trace::Event;

    let log = bench::golden::run_scenario("fig5b_slice");
    assert_eq!(log.dropped, 0);

    let scored: Vec<(u64, u64, u64)> = log
        .events
        .iter()
        .filter_map(|e| match e {
            Event::ImageScored { index, duplicate, random, .. } => {
                Some((*index, *duplicate, *random))
            }
            _ => None,
        })
        .collect();
    assert_eq!(scored.len(), 6, "six evaluation images");
    assert_eq!(
        scored.iter().map(|s| s.0).collect::<Vec<_>>(),
        (0..6).collect::<Vec<_>>(),
        "par merge keeps image order"
    );

    let dup_events =
        log.count(|e| matches!(e, Event::MacFault { kind: trace::FaultKind::Duplicate, .. }));
    let rand_events =
        log.count(|e| matches!(e, Event::MacFault { kind: trace::FaultKind::Random, .. }));
    let dup_scored: u64 = scored.iter().map(|s| s.1).sum();
    let rand_scored: u64 = scored.iter().map(|s| s.2).sum();
    assert_eq!(dup_events as u64, dup_scored, "duplicate tallies disagree");
    assert_eq!(rand_events as u64, rand_scored, "random tallies disagree");

    // One attacked inference per image, and the plan that produced them
    // was recorded once.
    assert_eq!(log.count(|e| matches!(e, Event::Inference { .. })), 6);
    assert_eq!(log.count(|e| matches!(e, Event::AttackPlanned { .. })), 1);
}
