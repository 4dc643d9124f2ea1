//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Strike duration** — the paper uses 10 ns (one cycle) strikes and
//!    notes longer activations "will work as well but … may increase the
//!    temperature". Sweep the on-time and report fault yield + heating.
//! 2. **Placement distance** — Fig. 6a places the victim far from the
//!    attacker; sweep the separation and report the victim-side droop.
//! 3. **DDR vs SDR DSP clocking** — §IV blames double-data-rate timing for
//!    DSP vulnerability; compare fault rates at the same droop.

use accel::dsp::{characterize, DspOp};
use accel::fault::{DspTiming, FaultModel};
use bench::{emit_series, HARNESS_SEED};
use deepstrike::striker::StrikerBank;
use pdn::grid::SpatialPdn;
use pdn::thermal::ThermalModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Worst droop at the victim node for a strike of `on_cycles` from a bank
/// at `attacker_fx` (victim fixed at fx = 0.12).
fn strike_droop(cells: usize, on_cycles: usize, attacker_fx: f64) -> (f64, f64) {
    let mut grid = SpatialPdn::new();
    let victim = grid.node_at_fraction(0.12, 0.5);
    let attacker = grid.node_at_fraction(attacker_fx, 0.5);
    grid.inject(victim, 1.0);
    for _ in 0..5_000 {
        grid.step(1e-9);
    }
    let mut bank = StrikerBank::new(cells).expect("cells > 0");
    bank.set_enabled(true);
    let mut v_min = grid.voltage_at(victim);
    let mut energy_j = 0.0;
    for _ in 0..on_cycles * 10 {
        let va = grid.voltage_at(attacker);
        grid.inject(attacker, bank.current_a(va));
        grid.step(1e-9);
        v_min = v_min.min(grid.voltage_at(victim));
        energy_j += bank.power_w(va) * 1e-9;
    }
    (v_min, energy_j)
}

fn main() {
    // Every sweep point below is independently seeded, so each ablation
    // fans its points out on the worker pool and merges in sweep order.

    // --- Ablation 1: strike duration -------------------------------------
    let model = FaultModel::paper();
    let durations = [1usize, 2, 4, 8, 16];
    let duration_points = par::map_items(&durations, |&on_cycles| {
        let (v_min, energy_j) = strike_droop(8_000, on_cycles, 0.88);
        let mut rng = StdRng::seed_from_u64(HARNESS_SEED);
        let ops = (0..5_000).map(|i| DspOp { a: 100 + (i % 27), b: 120, d: 7 });
        let rate = characterize(&model, ops, v_min, &mut rng).total_fault_rate();
        // Heating if this strike repeated at a 50% duty cycle for 10 ms.
        let mut thermal = ThermalModel::new();
        let avg_power = energy_j / (on_cycles as f64 * 10e-9) * 0.5;
        thermal.step(avg_power + 1.0, 10e-3);
        (rate, format!("{on_cycles},{v_min:.4},{rate:.4},{:.2}", thermal.junction_temp()))
    });
    let duration_yield: Vec<f64> = duration_points.iter().map(|(r, _)| *r).collect();
    let rows: Vec<String> = duration_points.into_iter().map(|(_, row)| row).collect();
    emit_series(
        "Ablation 1: strike duration (8k cells, victim-side droop, fault rate, 10ms 50%-duty temp)",
        "on_cycles,victim_v_min,total_fault_rate,temp_c_after_10ms_burst_train",
        rows,
    );
    assert!(
        duration_yield.windows(2).all(|w| w[1] >= w[0] - 0.02),
        "longer strikes must not reduce fault yield: {duration_yield:?}"
    );

    // --- Ablation 2: placement distance ----------------------------------
    let positions = [0.2, 0.4, 0.6, 0.88];
    let placement_points = par::map_items(&positions, |&fx| {
        let (v_min, _) = strike_droop(8_000, 1, fx);
        (1.0 - v_min, format!("{fx:.2},{v_min:.4},{:.1}", (1.0 - v_min) * 1000.0))
    });
    let droops: Vec<f64> = placement_points.iter().map(|(d, _)| *d).collect();
    let rows: Vec<String> = placement_points.into_iter().map(|(_, row)| row).collect();
    emit_series(
        "Ablation 2: attacker placement (victim at fx=0.12)",
        "attacker_fx,victim_v_min,droop_mv",
        rows,
    );
    assert!(
        droops.first().unwrap() > droops.last().unwrap(),
        "a nearby attacker must droop the victim more (local mesh component)"
    );

    // --- Ablation 3: DDR vs SDR ------------------------------------------
    let clockings = [("ddr", DspTiming::paper_ddr()), ("sdr", DspTiming::paper_sdr())];
    let clocking_points = par::map_items(&clockings, |&(name, timing)| {
        let m = FaultModel::new(timing);
        let mut rng = StdRng::seed_from_u64(HARNESS_SEED);
        let mut op_rng = StdRng::seed_from_u64(1);
        let ops = (0..10_000).map(|_| DspOp {
            a: op_rng.gen_range(-128..128),
            b: op_rng.gen_range(-128..128),
            d: op_rng.gen_range(-128..128),
        });
        let rate = characterize(&m, ops, 0.80, &mut rng).total_fault_rate();
        (rate, format!("{name},{:.0},{rate:.4}", timing.budget_ps))
    });
    let rates: Vec<f64> = clocking_points.iter().map(|(r, _)| *r).collect();
    let rows: Vec<String> = clocking_points.into_iter().map(|(_, row)| row).collect();
    emit_series(
        "Ablation 3: DDR vs SDR DSP clocking at 0.80 V",
        "clocking,budget_ps,total_fault_rate",
        rows,
    );
    assert!(rates[0] > 0.3, "DDR must fault substantially at 0.80 V ({:.3})", rates[0]);
    assert!(rates[1] < 0.01, "SDR slack must absorb the same droop ({:.3})", rates[1]);

    println!("# shape-check: PASS (duration monotone, distance matters, DDR is the vulnerability)");
}
