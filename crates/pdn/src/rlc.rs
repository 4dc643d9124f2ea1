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

// A Zynq-7020 class supply: a 1.0 V rail, 45 mΩ effective series
// resistance (regulator + package + grid IR), 100 pH loop inductance and
// 200 nF effective decap. `√(L/C)` ≈ 22 mΩ on top of the IR path, so a
// ≈ 3.6 A striker transient (24,000 cells) droops the rail by ≈ 0.24 V —
// the regime behind the paper's near-100% fault rate in Fig. 6b — while
// the victim's own ≈ 1 A activity modulates the rail by the few tens of
// millivolts that make layers readable on the TDC (Fig. 1b).

/// Regulator voltage in volts.
const VDD: f64 = 1.0;
/// Series resistance in ohms.
const R: f64 = 0.045;
/// Series inductance in henries.
const L: f64 = 100e-12;
/// On-die + package decoupling capacitance in farads.
const C: f64 = 200e-9;

/// Natural (angular) frequency `1/√(LC)` in rad/s.
fn omega0() -> f64 {
    1.0 / (L * C).sqrt()
}

/// Largest stable timestep for the semi-implicit solver (one radian of
/// the natural oscillation), in seconds.
fn max_dt() -> f64 {
    1.0 / omega0()
}

/// Lumped PDN with live state.
///
/// # Example
///
/// ```
/// use pdn::rlc::LumpedPdn;
///
/// let mut pdn = LumpedPdn::new();
/// let settled = pdn.settle(0.5);
/// assert!(settled < 1.0 && settled > 0.97, "static IR drop only");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LumpedPdn {
    v: f64,
    i_l: f64,
}

impl LumpedPdn {
    /// Creates a PDN at its unloaded operating point (`v = Vdd`, `i = 0`).
    pub fn new() -> Self {
        LumpedPdn { v: VDD, i_l: 0.0 }
    }

    /// Present die voltage in volts.
    pub fn voltage(&self) -> f64 {
        self.v
    }

    /// Present inductor (supply) current in amps.
    pub fn inductor_current(&self) -> f64 {
        self.i_l
    }

    /// Advances one timestep with the given load current and returns the
    /// new die voltage.
    ///
    /// Uses semi-implicit Euler: the inductor current is updated with the
    /// old voltage, then the capacitor voltage with the *new* current.
    /// Timesteps beyond the stability bound (`1/ω₀` = `√(LC)` ≈ 4.5 ns)
    /// are clamped to it. Never panics.
    pub fn step(&mut self, i_load: f64, dt: f64) -> f64 {
        let dt = dt.min(max_dt());
        self.i_l += dt * (VDD - self.v - R * self.i_l) / L;
        self.v += dt * (self.i_l - i_load) / C;
        self.v
    }

    /// Runs the model to steady state under a constant load and returns the
    /// settled voltage (`Vdd − I·R`).
    pub fn settle(&mut self, i_load: f64) -> f64 {
        // March several natural periods with strong numerical margin.
        let dt = max_dt() * 0.25;
        let steps = (400.0 / (dt * omega0())).ceil() as usize;
        for _ in 0..steps.max(1000) {
            self.step(i_load, dt);
        }
        // Snap to the analytic operating point to kill residual ringing.
        self.v = VDD - i_load * R;
        self.i_l = i_load;
        self.v
    }
}

impl Default for LumpedPdn {
    fn default() -> Self {
        LumpedPdn::new()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn pdn() -> LumpedPdn {
        LumpedPdn::new()
    }

    #[test]
    fn static_operating_point_is_ir_drop() {
        let mut p = pdn();
        let v = p.settle(0.5);
        let expect = 1.0 - 0.5 * R;
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
        // A fast step ΔI from rest droops the rail by about
        // ΔI·(√(L/C) + R): the characteristic impedance plus the IR path.
        let delta_i = 8.0;
        let est = (delta_i * ((L / C).sqrt() + R)).clamp(0.0, VDD);
        let mut p = pdn();
        p.settle(0.0);
        let dt = max_dt() * 0.2;
        let mut worst = p.voltage();
        // Long enough to reach the first minimum (~quarter natural period).
        let quarter_period = std::f64::consts::FRAC_PI_2 / omega0();
        let steps = (quarter_period / dt).ceil() as usize * 2;
        for _ in 0..steps {
            worst = worst.min(p.step(delta_i, dt));
        }
        let sim = 1.0 - worst;
        assert!(sim > 0.3 * est && sim < 1.5 * est, "sim droop {sim} vs estimate {est}");
    }

    #[test]
    fn derived_quantities_are_consistent() {
        let z0 = (L / C).sqrt();
        assert!((z0 - 0.022_36).abs() < 1e-4, "characteristic impedance {z0}");
        let zeta = R / 2.0 * (C / L).sqrt();
        assert!(zeta > 0.1, "damping ratio {zeta}");
        assert!(1e-9 < max_dt(), "1 ns co-sim step must be stable");
    }

    #[test]
    fn step_clamps_timesteps_beyond_the_stability_bound() {
        let mut p = pdn();
        p.settle(0.5);
        let max_dt = max_dt();
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
    fn new_starts_at_the_unloaded_point() {
        let p = pdn();
        assert_eq!(p.voltage(), VDD);
        assert_eq!(p.inductor_current(), 0.0);
    }
}
