//! Agreement tests between the layers of the fault-modelling stack:
//! closed-form probabilities ↔ the Fig. 6b characterisation
//! ([`accel::dsp::characterize`]) ↔ the executor, which share one fault
//! application (DESIGN.md §4's "both modes are tested for agreement"),
//! plus stage-level agreement across the whole pipeline via the
//! golden-trace scenarios (DESIGN.md §8).
//!
//! NOTE: nothing in this binary may mutate `DEEPSTRIKE_THREADS` — the
//! variable is process-global and tests run concurrently; the golden
//! scenarios here are asserted under whatever ambient thread count the
//! harness picked (the thread-sweep itself lives in `golden_trace.rs`).
//!
//! Run alone with `cargo test --release --test cosim_agreement`.

use accel::dsp::{characterize, DspOp, FaultTally};
use accel::executor::{infer_with_faults, MacHook, NoFaults};
use accel::fault::{DspTiming, FaultModel, MacFault};
use dnn::digits::{Dataset, RenderParams};
use dnn::fixed::QFormat;
use dnn::quant::{QLayer, QuantizedNetwork};
use dnn::tensor::Tensor;
use dnn::zoo::mlp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn cycle_level_rates_match_closed_form_at_full_path_scale() {
    let model = FaultModel::paper();
    for &v in &[0.86, 0.83, 0.80, 0.76] {
        let p = model.probabilities(v);
        let mut rng = StdRng::seed_from_u64(99);
        // Full-width operands so path scale is 1 (matching closed form).
        let ops = (0..30_000).map(|i| DspOp { a: 100 + (i % 27), b: 120, d: 7 });
        let tally = characterize(&model, ops, v, &mut rng);
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
    let mut rng = StdRng::seed_from_u64(1);
    // b = 0 ⇒ every product is zero ⇒ no toggling ⇒ no timing faults,
    // even at crash-level droop.
    let ops = (0..5_000).map(|i| DspOp { a: i, b: 0, d: 1 });
    let tally = characterize(&FaultModel::paper(), ops, 0.70, &mut rng);
    assert_eq!(tally.total_fault_rate(), 0.0);
}

/// Exact Fig. 6b characterisation counts on `fig6b`'s 10,000-op stream
/// (operands and fault draws both seeded with `HARNESS_SEED`), for DDR
/// and SDR clocking at 0.80 V and 0.83 V. Any change to the sampler, its
/// draw order or the fault datapath moves them.
#[test]
fn fig6b_characterisation_counts_are_pinned() {
    let mut op_rng = StdRng::seed_from_u64(bench::HARNESS_SEED);
    let ops: Vec<DspOp> = (0..10_000)
        .map(|_| DspOp {
            a: op_rng.gen_range(-128..128),
            b: op_rng.gen_range(-128..128),
            d: op_rng.gen_range(-128..128),
        })
        .collect();
    let tally = |correct, duplicate, random| FaultTally { correct, duplicate, random };
    let pins = [
        ("ddr", DspTiming::paper_ddr(), 0.80, tally(4_622, 2_196, 3_182)),
        ("ddr", DspTiming::paper_ddr(), 0.83, tally(7_079, 2_206, 715)),
        ("sdr", DspTiming::paper_sdr(), 0.80, tally(10_000, 0, 0)),
        ("sdr", DspTiming::paper_sdr(), 0.83, tally(10_000, 0, 0)),
    ];
    for (name, timing, v, want) in pins {
        let mut rng = StdRng::seed_from_u64(bench::HARNESS_SEED);
        let got = characterize(&FaultModel::new(timing), ops.iter().copied(), v, &mut rng);
        println!("{name} at {v} V: {got:?}");
        assert_eq!(got, want, "{name} at {v} V");
    }
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
    // Characterisation and inference share one fault application: a
    // duplication at a fetch deadline sums the same PE's previous product
    // (op j - 8 on the 8-PE array), and a mid-chain one is absorbed.
    // Observe it on the MLP's last dense stage, whose accumulators are the
    // logits.
    struct DuplicateAt(fn(u64) -> bool);
    impl MacHook for DuplicateAt {
        fn fault(&mut self, stage: usize, op: u64, _w: i8, _x: i8) -> MacFault {
            if stage == 2 && (self.0)(op) {
                MacFault::Duplicate
            } else {
                MacFault::None
            }
        }
    }
    let net = mlp(&mut StdRng::seed_from_u64(12));
    let q = QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap();
    let x = Tensor::full(&[1, 28, 28], 0.4);
    let mut codes = q.quantize_input(&x);
    for stage in &q.layers()[..2] {
        codes = q.run_stage(stage, &codes);
    }
    let QLayer::Dense(fc3) = &q.layers()[2] else { panic!("fc3 is dense") };
    let n = fc3.inputs as u64;
    assert_eq!(n, 32, "fc3 takes the 32 fc2 outputs");
    let product =
        |op: u64| i32::from(fc3.weights[op as usize]) * i32::from(codes.codes[(op % n) as usize]);
    let clean = q.infer_logits(&x);
    let mut rng = StdRng::seed_from_u64(3);

    // The last op of every row misses the fetch deadline.
    let (logits, tally) = infer_with_faults(&q, &x, &mut DuplicateAt(|op| op % 32 == 31), &mut rng);
    assert_eq!(tally.duplicate, fc3.outputs as u64);
    let mut moved = 0;
    for (o, (&got, &want)) in logits.iter().zip(&clean).enumerate() {
        let last = o as u64 * n + n - 1;
        assert_eq!(got, want - product(last) + product(last - 8), "logit {o}");
        moved += usize::from(got != want);
    }
    assert!(moved > 0, "the duplications must be visible in the logits");

    // Mid-chain duplications still land: the serial sum is unharmed.
    let (logits, tally) = infer_with_faults(&q, &x, &mut DuplicateAt(|op| op % 32 == 5), &mut rng);
    assert_eq!(tally.duplicate, fc3.outputs as u64);
    assert_eq!(logits, clean);
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
