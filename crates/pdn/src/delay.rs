//! Voltage → propagation-delay model.
//!
//! The fault mechanism in the paper: "the voltage drop increases the signal
//! propagation time in FPGA components that share the same PDN, inducing
//! timing violations and computation or data loading faults". This module
//! provides the standard alpha-power-law delay model used for that
//! conversion:
//!
//! `t_pd(V) = t_nom · ((V_nom − V_th)/(V − V_th))^α`
//!
//! with `α ≈ 1.3` for deep-submicron CMOS and `V_th` the effective
//! threshold. As `V` approaches `V_th` the delay diverges — captured here
//! with a saturating cap so the simulation stays finite even through a
//! crash-level glitch. The law's four parameters are fixed constants of
//! the modelled 28 nm board; the DSP fault model, the TDC sensor and the
//! striker cells all read the law through [`factor`].

/// Nominal rail voltage in volts.
pub const V_NOM: f64 = 1.0;
/// Effective threshold voltage in volts.
const V_TH: f64 = 0.35;
/// Velocity-saturation exponent.
const ALPHA: f64 = 1.3;
/// Largest delay multiplier returned (model saturation).
const MAX_FACTOR: f64 = 100.0;

/// Delay multiplier relative to nominal at voltage `v`.
///
/// Returns 1.0 at `v = V_NOM`, grows as `v` falls, saturates at 100 at and
/// below threshold. Overdrive (`v > V_NOM`) speeds paths up (factor < 1),
/// floored at 0.5.
pub fn factor(v: f64) -> f64 {
    if !v.is_finite() {
        return MAX_FACTOR;
    }
    let headroom = v - V_TH;
    if headroom <= 0.0 {
        return MAX_FACTOR;
    }
    let nominal_headroom = V_NOM - V_TH;
    ((nominal_headroom / headroom).powf(ALPHA)).clamp(0.5, MAX_FACTOR)
}

/// The voltage below which a path with `nominal_ps` of logic delay misses
/// a capture edge `budget_ps` after launch (i.e. the fault threshold
/// voltage for that path).
///
/// Solves `factor(v) = budget/nominal` for `v`. Returns the threshold
/// voltage if even the saturated model cannot miss the budget (infinitely
/// robust path), and [`V_NOM`] if the budget cannot be met at all —
/// callers treat voltages at/below the returned value as faulting.
pub fn fault_threshold_voltage(nominal_ps: f64, budget_ps: f64) -> f64 {
    if nominal_ps <= 0.0 || budget_ps <= nominal_ps * 0.5 {
        // Budget below the floored fastest delay: always faulting.
        return V_NOM;
    }
    let required_factor = budget_ps / nominal_ps;
    if required_factor >= MAX_FACTOR {
        return V_TH;
    }
    // factor = ((v_nom - v_th)/(v - v_th))^alpha  =>
    // v = v_th + (v_nom - v_th) / factor^(1/alpha)
    V_TH + (V_NOM - V_TH) / required_factor.powf(1.0 / ALPHA)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_voltage_gives_unity_factor() {
        assert!((factor(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn factor_is_monotone_decreasing_in_voltage() {
        let mut prev = f64::INFINITY;
        let mut v = 0.30;
        while v < 1.2 {
            let f = factor(v);
            assert!(f <= prev + 1e-12, "factor must not increase with voltage");
            prev = f;
            v += 0.01;
        }
    }

    #[test]
    fn saturates_at_threshold_and_below() {
        assert_eq!(factor(0.35), 100.0);
        assert_eq!(factor(0.0), 100.0);
        assert_eq!(factor(f64::NAN), 100.0);
    }

    #[test]
    fn overdrive_floors_at_half() {
        assert!(factor(5.0) >= 0.5);
    }

    #[test]
    fn fault_threshold_roundtrips_with_factor() {
        // A path with 4000 ps logic in a 5000 ps budget.
        let v_fault = fault_threshold_voltage(4000.0, 5000.0);
        assert!(v_fault > V_TH && v_fault < V_NOM, "threshold {v_fault}");
        // Exactly at the threshold the delay equals the budget.
        let d = 4000.0 * factor(v_fault);
        assert!((d - 5000.0).abs() < 1.0, "delay at threshold {d}");
        // Slightly above: meets timing. Slightly below: violates.
        assert!(4000.0 * factor(v_fault + 0.01) < 5000.0);
        assert!(4000.0 * factor(v_fault - 0.01) > 5000.0);
    }

    #[test]
    fn tight_paths_fault_at_higher_voltage() {
        let relaxed = fault_threshold_voltage(2500.0, 5000.0);
        let tight = fault_threshold_voltage(4500.0, 5000.0);
        assert!(
            tight > relaxed,
            "tighter path must fault earlier: tight {tight} vs relaxed {relaxed}"
        );
    }

    #[test]
    fn degenerate_budgets() {
        assert_eq!(fault_threshold_voltage(1000.0, 100.0), V_NOM, "impossible budget");
        assert_eq!(fault_threshold_voltage(10.0, 100_000.0), V_TH, "unmissable budget");
    }
}
