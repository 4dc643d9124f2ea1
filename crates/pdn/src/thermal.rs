//! First-order thermal model.
//!
//! The paper notes that holding the striker on "may increase the
//! temperature of the FPGA chip or even crash it", and that the victim is
//! placed far from the attacker partly "to minimize the influence of
//! temperature changes". This model captures that secondary channel: die
//! temperature follows dissipated power through a thermal RC, and a fixed
//! junction limit flags thermal shutdown.

// Zynq-7020 with a small heatsink: ~5 K/W, seconds-scale time constant,
// commercial-grade 85 °C limit (the silicon survives to 125 °C; the board
// monitor trips earlier).

/// Junction-to-ambient thermal resistance in kelvin per watt.
const R_TH: f64 = 5.0;
/// Thermal capacitance in joules per kelvin.
const C_TH: f64 = 2.0;
/// Ambient temperature in °C.
const T_AMBIENT: f64 = 25.0;
/// Junction temperature that triggers shutdown, in °C.
const T_SHUTDOWN: f64 = 85.0;

/// Die thermal state.
///
/// # Example
///
/// ```
/// use pdn::thermal::ThermalModel;
///
/// let mut t = ThermalModel::new();
/// // 20 W sustained would settle at 25 + 100 = 125 °C — shutdown territory.
/// for _ in 0..100_000 { t.step(20.0, 1e-3); }
/// assert!(t.is_overheated());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalModel {
    t_junction: f64,
}

impl ThermalModel {
    /// Creates a model at ambient temperature.
    pub fn new() -> Self {
        ThermalModel { t_junction: T_AMBIENT }
    }

    /// Present junction temperature in °C.
    pub fn junction_temp(&self) -> f64 {
        self.t_junction
    }

    /// Advances the thermal state by `dt` seconds while dissipating
    /// `power_w` watts; returns the new junction temperature.
    pub fn step(&mut self, power_w: f64, dt: f64) -> f64 {
        // Exact exponential update of the first-order system: immune to the
        // stiff-timestep instability an Euler step would have at dt >> RC.
        let t_target = T_AMBIENT + power_w.max(0.0) * R_TH;
        let tau = R_TH * C_TH;
        let decay = (-dt / tau).exp();
        self.t_junction = t_target + (self.t_junction - t_target) * decay;
        self.t_junction
    }

    /// Whether the junction exceeds the shutdown limit.
    pub fn is_overheated(&self) -> bool {
        self.t_junction >= T_SHUTDOWN
    }
}

impl Default for ThermalModel {
    fn default() -> Self {
        ThermalModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settles_at_ambient_plus_p_rth() {
        let mut t = ThermalModel::new();
        for _ in 0..200_000 {
            t.step(2.0, 1e-3);
        }
        assert!((t.junction_temp() - 35.0).abs() < 0.1, "T = {}", t.junction_temp());
        assert!(!t.is_overheated());
    }

    #[test]
    fn sustained_striker_power_overheats() {
        let mut t = ThermalModel::new();
        for _ in 0..200_000 {
            t.step(15.0, 1e-3);
        }
        assert!(t.is_overheated(), "T = {}", t.junction_temp());
    }

    #[test]
    fn exact_update_is_stable_for_huge_dt() {
        let mut t = ThermalModel::new();
        t.step(10.0, 1e6);
        assert!((t.junction_temp() - 75.0).abs() < 1e-6, "jumps to equilibrium");
        t.step(0.0, 1e6);
        assert!((t.junction_temp() - 25.0).abs() < 1e-6, "cools back");
    }

    #[test]
    fn negative_power_treated_as_zero() {
        let mut t = ThermalModel::new();
        t.step(-5.0, 10.0);
        assert!(t.junction_temp() >= 25.0 - 1e-9);
    }
}
