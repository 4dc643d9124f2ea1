//! Second-order lumped PDN model.
//!
//! The supply path is modelled as the classic board→package→die ladder
//! collapsed to one stage: an ideal regulator `Vdd` behind a series
//! resistance `R` and inductance `L`, feeding the on-die decoupling
//! capacitance `C` that the logic draws its current from:
//!
//! ```text
//!   Vdd ──R──L──┬───────┬──
//!               │       │
//!               C     i_load(t)
//!               │       │
//!   GND ────────┴───────┴──
//! ```
//!
//! State equations (solved with semi-implicit Euler, which is symplectic and
//! stable for `dt·ω₀ < 1`):
//!
//! ```text
//!   L·di/dt = Vdd − v − R·i
//!   C·dv/dt = i − i_load
//! ```
//!
//! A current step `ΔI` produces a first droop of roughly `ΔI·√(L/C)`
//! (the PDN's characteristic impedance) plus the static `ΔI·R` IR drop —
//! this is the glitch mechanism the power striker exploits.

use crate::error::{PdnError, Result};

/// Electrical parameters of the lumped supply model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RlcParams {
    /// Regulator voltage in volts.
    pub vdd: f64,
    /// Series resistance in ohms.
    pub r: f64,
    /// Series inductance in henries.
    pub l: f64,
    /// On-die + package decoupling capacitance in farads.
    pub c: f64,
}

impl RlcParams {
    /// Validates that all parameters are positive and finite.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        let fields = [("vdd", self.vdd), ("r", self.r), ("l", self.l), ("c", self.c)];
        for (name, value) in fields {
            if !(value.is_finite() && value > 0.0) {
                return Err(PdnError::InvalidParameter { name, value });
            }
        }
        Ok(())
    }

    /// Characteristic impedance `√(L/C)` in ohms — the peak droop per amp
    /// of fast current step.
    pub fn characteristic_impedance(&self) -> f64 {
        (self.l / self.c).sqrt()
    }

    /// Natural (angular) frequency `1/√(LC)` in rad/s.
    pub fn omega0(&self) -> f64 {
        1.0 / (self.l * self.c).sqrt()
    }

    /// Damping ratio `ζ = (R/2)·√(C/L)`.
    pub fn damping_ratio(&self) -> f64 {
        self.r / 2.0 * (self.c / self.l).sqrt()
    }

    /// Largest stable timestep for the semi-implicit solver (one radian of
    /// the natural oscillation).
    pub fn max_dt(&self) -> f64 {
        1.0 / self.omega0()
    }
}

/// Lumped PDN with live state.
///
/// # Example
///
/// ```
/// use pdn::rlc::{LumpedPdn, RlcParams};
///
/// let mut pdn = LumpedPdn::new(RlcParams { vdd: 1.0, r: 0.02, l: 100e-12, c: 200e-9 })?;
/// let settled = pdn.settle(0.5);
/// assert!(settled < 1.0 && settled > 0.97, "static IR drop only");
/// # Ok::<(), pdn::PdnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LumpedPdn {
    params: RlcParams,
    v: f64,
    i_l: f64,
}

impl LumpedPdn {
    /// Creates a PDN at its unloaded operating point (`v = Vdd`, `i = 0`).
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] for non-physical parameters.
    pub fn new(params: RlcParams) -> Result<Self> {
        params.validate()?;
        Ok(LumpedPdn { params, v: params.vdd, i_l: 0.0 })
    }

    /// A parameterisation in the ballpark of a Zynq-7020 class device: a
    /// 1.0 V rail, 45 mΩ effective series resistance (regulator + package +
    /// grid IR), 100 pH loop inductance, 200 nF effective decap.
    /// `√(L/C)` ≈ 22 mΩ on top of the IR path, so a ≈ 3.6 A striker
    /// transient (24,000 cells) droops the rail by ≈ 0.24 V — the regime
    /// behind the paper's near-100% fault rate in Fig. 6b — while the
    /// victim's own ≈ 1 A activity modulates the rail by the few tens of
    /// millivolts that make layers readable on the TDC (Fig. 1b).
    pub fn zynq_like() -> Self {
        // Invariant: the literal parameters above are positive and
        // finite, so `validate` cannot fail.
        LumpedPdn::new(RlcParams { vdd: 1.0, r: 0.045, l: 100e-12, c: 200e-9 })
            .expect("static parameters are valid")
    }

    /// Model parameters.
    pub fn params(&self) -> &RlcParams {
        &self.params
    }

    /// Present die voltage in volts.
    pub fn voltage(&self) -> f64 {
        self.v
    }

    /// Present inductor (supply) current in amps.
    pub fn inductor_current(&self) -> f64 {
        self.i_l
    }

    /// Resets to the unloaded operating point.
    pub fn reset(&mut self) {
        self.v = self.params.vdd;
        self.i_l = 0.0;
    }

    /// Advances one timestep with the given load current and returns the
    /// new die voltage.
    ///
    /// Uses semi-implicit Euler: the inductor current is updated with the
    /// old voltage, then the capacitor voltage with the *new* current.
    /// Timesteps beyond the stability bound ([`RlcParams::max_dt`]) are
    /// clamped to it. Never panics.
    pub fn step(&mut self, i_load: f64, dt: f64) -> f64 {
        let p = &self.params;
        let dt = dt.min(p.max_dt());
        self.i_l += dt * (p.vdd - self.v - p.r * self.i_l) / p.l;
        self.v += dt * (self.i_l - i_load) / p.c;
        self.v
    }

    /// Runs the model to steady state under a constant load and returns the
    /// settled voltage (`Vdd − I·R`).
    pub fn settle(&mut self, i_load: f64) -> f64 {
        // March several natural periods with strong numerical margin.
        let dt = self.params.max_dt() * 0.25;
        let steps = (400.0 / (dt * self.params.omega0())).ceil() as usize;
        for _ in 0..steps.max(1000) {
            self.step(i_load, dt);
        }
        // Snap to the analytic operating point to kill residual ringing.
        self.v = self.params.vdd - i_load * self.params.r;
        self.i_l = i_load;
        self.v
    }

    /// Analytic estimate of the worst transient droop for a fast current
    /// step of `delta_i` amps from steady state: `ΔI·(√(L/C) + R)`, clamped
    /// to the rail.
    pub fn droop_estimate(&self, delta_i: f64) -> f64 {
        (delta_i * (self.params.characteristic_impedance() + self.params.r))
            .clamp(0.0, self.params.vdd)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn pdn() -> LumpedPdn {
        LumpedPdn::zynq_like()
    }

    #[test]
    fn rejects_nonphysical_parameters() {
        for bad in [
            RlcParams { vdd: 0.0, r: 0.02, l: 1e-10, c: 2e-7 },
            RlcParams { vdd: 1.0, r: -1.0, l: 1e-10, c: 2e-7 },
            RlcParams { vdd: 1.0, r: 0.02, l: f64::NAN, c: 2e-7 },
            RlcParams { vdd: 1.0, r: 0.02, l: 1e-10, c: 0.0 },
        ] {
            assert!(LumpedPdn::new(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn static_operating_point_is_ir_drop() {
        let mut p = pdn();
        let v = p.settle(0.5);
        let expect = 1.0 - 0.5 * p.params().r;
        assert!((v - expect).abs() < 1e-6, "settled {v}, expected {expect}");
    }

    #[test]
    fn current_step_causes_transient_droop_then_recovery() {
        let mut p = pdn();
        p.settle(0.5);
        let v0 = p.voltage();
        let dt = 1e-9;
        // Strike: +8 A for 10 ns.
        let mut worst = v0;
        for _ in 0..10 {
            worst = worst.min(p.step(8.5, dt));
        }
        assert!(worst < v0 - 0.05, "droop too small: {}", v0 - worst);
        // Recovery: droop must decay once the load returns to quiescent.
        for _ in 0..20_000 {
            p.step(0.5, dt);
        }
        assert!((p.voltage() - v0).abs() < 0.02, "rail failed to recover: {}", p.voltage());
    }

    #[test]
    fn droop_scales_with_step_magnitude() {
        let dt = 1e-9;
        let droop_for = |delta: f64| {
            let mut p = pdn();
            p.settle(0.5);
            let v0 = p.voltage();
            let mut worst = v0;
            for _ in 0..10 {
                worst = worst.min(p.step(0.5 + delta, dt));
            }
            v0 - worst
        };
        let d2 = droop_for(2.0);
        let d4 = droop_for(4.0);
        let d8 = droop_for(8.0);
        assert!(d4 > d2 * 1.5 && d8 > d4 * 1.5, "droop must grow with ΔI: {d2} {d4} {d8}");
    }

    #[test]
    fn droop_estimate_brackets_simulation() {
        let mut p = pdn();
        p.settle(0.0);
        let est = p.droop_estimate(8.0);
        let dt = p.params().max_dt() * 0.2;
        let mut worst = p.voltage();
        // Long enough to reach the first minimum (~quarter natural period).
        let quarter_period = std::f64::consts::FRAC_PI_2 / p.params().omega0();
        let steps = (quarter_period / dt).ceil() as usize * 2;
        for _ in 0..steps {
            worst = worst.min(p.step(8.0, dt));
        }
        let sim = 1.0 - worst;
        assert!(sim > 0.3 * est && sim < 1.5 * est, "sim droop {sim} vs estimate {est}");
    }

    #[test]
    fn derived_quantities_are_consistent() {
        let p = pdn();
        let z0 = p.params().characteristic_impedance();
        assert!((z0 - (100e-12f64 / 200e-9).sqrt()).abs() < 1e-12);
        assert!(p.params().damping_ratio() > 0.1);
        assert!(p.params().max_dt() > 1e-9, "1 ns co-sim step must be stable");
    }

    #[test]
    fn step_clamps_timesteps_beyond_the_stability_bound() {
        let mut p = pdn();
        p.settle(0.5);
        let max_dt = p.params().max_dt();
        let mut clamped = p.clone();
        let v = p.step(2.0, 10.0 * max_dt);
        assert_eq!(v.to_bits(), clamped.step(2.0, max_dt).to_bits());
        assert_eq!(p.inductor_current().to_bits(), clamped.inductor_current().to_bits());
        for _ in 0..1_000 {
            let v = p.step(12.0, 10.0 * max_dt);
            assert!(v.is_finite() && p.inductor_current().is_finite(), "clamped step blew up");
        }
    }

    #[test]
    fn reset_restores_unloaded_point() {
        let mut p = pdn();
        p.settle(1.0);
        p.reset();
        assert_eq!(p.voltage(), 1.0);
        assert_eq!(p.inductor_current(), 0.0);
    }
}
