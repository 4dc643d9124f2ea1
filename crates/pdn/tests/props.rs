//! Property-based tests for the PDN models.

use pdn::analysis::glitch_windows;
use pdn::delay::{factor, fault_threshold_voltage, V_NOM};
use pdn::grid::SpatialPdn;
use pdn::rlc::LumpedPdn;
use pdn::thermal::ThermalModel;
use proptest::prelude::*;

proptest! {
    /// The settled operating point is exactly Vdd − I·R (1.0 V behind
    /// 45 mΩ) for any load.
    #[test]
    fn settle_is_ir_drop(i_load in 0.0f64..5.0) {
        let v = LumpedPdn::new().settle(i_load);
        prop_assert!((v - (1.0 - i_load * 0.045)).abs() < 1e-6);
    }

    /// Deeper current steps always droop at least as deep (transient
    /// monotonicity).
    #[test]
    fn droop_monotone_in_step(base in 0.0f64..1.0, d1 in 0.5f64..4.0, extra in 0.5f64..4.0) {
        let run = |delta: f64| {
            let mut pdn = LumpedPdn::new();
            pdn.settle(base);
            let mut worst = pdn.voltage();
            for _ in 0..20 {
                worst = worst.min(pdn.step(base + delta, 1e-9));
            }
            worst
        };
        prop_assert!(run(d1 + extra) <= run(d1) + 1e-9);
    }

    /// Mesh voltages always sit at or below the die rail when loads draw,
    /// and the loaded node is the (weakly) deepest of any pair.
    #[test]
    fn mesh_local_droop_is_deepest_at_the_load(amps in 0.1f64..6.0, fx in 0.0f64..1.0, fy in 0.0f64..1.0) {
        let mut g = SpatialPdn::new();
        let node = g.node_at_fraction(fx, fy);
        g.inject(node, amps);
        let mut v_die = 0.0;
        for _ in 0..200 {
            v_die = g.step(1e-9);
        }
        let v_load = g.voltage_at(node);
        // A 1/60 grid of fractions reaches every node of the mesh.
        for i in 0..=60 {
            for j in 0..=60 {
                let v = g.voltage_at(g.node_at_fraction(f64::from(i) / 60.0, f64::from(j) / 60.0));
                prop_assert!(v_load <= v + 1e-9, "loaded node must be deepest");
                prop_assert!(v <= v_die + 1e-9);
            }
        }
    }

    /// The delay factor inverse (fault_threshold_voltage) is consistent
    /// with the forward law for any feasible path/budget pair.
    #[test]
    fn delay_threshold_inverse(nominal in 500.0f64..9_000.0, slack_frac in 1.05f64..3.0) {
        let budget = nominal * slack_frac;
        let v = fault_threshold_voltage(nominal, budget);
        prop_assert!(v < V_NOM, "a feasible budget has a threshold below nominal: {v}");
        prop_assert!((nominal * factor(v) - budget).abs() < budget * 1e-6);
    }

    /// Thermal equilibrium equals ambient + P·R exactly for any dt split.
    #[test]
    fn thermal_equilibrium_exact(power in 0.0f64..10.0, steps in 1usize..50) {
        let mut t = ThermalModel::new();
        for _ in 0..steps {
            t.step(power, 1e4 / steps as f64);
        }
        let expect = 25.0 + power * 5.0;
        prop_assert!((t.junction_temp() - expect).abs() < 1e-3);
    }

    /// Glitch windows partition exactly the below-threshold samples.
    #[test]
    fn glitch_windows_cover_exactly(samples in prop::collection::vec(0.5f64..1.1, 1..300), thr in 0.7f64..1.0) {
        let windows = glitch_windows(&samples, thr);
        let mut covered = vec![false; samples.len()];
        for w in &windows {
            prop_assert!(w.start < w.end);
            for c in covered.iter_mut().take(w.end).skip(w.start) {
                prop_assert!(!*c, "windows must not overlap");
                *c = true;
            }
        }
        for (i, &s) in samples.iter().enumerate() {
            prop_assert_eq!(covered[i], s < thr, "sample {} miscovered", i);
        }
    }
}
