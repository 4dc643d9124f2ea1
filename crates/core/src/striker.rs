//! The power striker: a DRC-legal self-oscillating power waster.
//!
//! Paper Fig. 2: one `LUT6_2` is configured as **two parallel inverters**;
//! each output (`O6`, `O5`) feeds an `LDCE` transparent latch whose output
//! loops back to the corresponding LUT input. While `Start = 1` the latch
//! gates are held open, the loops oscillate at hundreds of MHz, and every
//! cell burns dynamic power — but because the feedback path contains a
//! latch, the combinational-loop DRC (`LUTLP-1`) does not fire, unlike a
//! classic ring oscillator. One LUT thus powers *two* oscillators, giving
//! "higher attack efficiency with less hardware overhead".

use fpga_fabric::netlist::{Netlist, ResourceUsage};
use fpga_fabric::primitive::{Ldce, Lut6_2, PrimitiveKind};
use pdn::delay;

use crate::error::{DeepStrikeError, Result};

// Electrical model of one striker cell. The loop is a LUT (124 ps), a
// latch (280 ps) and local routing (~100 ps). About 280 fF of switched
// capacitance per loop (LUT output, both latch loads and the local
// routing they toggle) gives ≈ 0.28 mA per loop at 1 V / ≈ 1 GHz,
// ≈ 0.55 mA per dual-loop cell, ≈ 13 W for a 24,000-cell bank.
// Calibrated so a 10 ns strike from 24k cells droops the rail past the
// all-random fault threshold (Fig. 6b's ≈ 100% total rate) with fault
// onset near 10k cells.

/// Effective switched capacitance per oscillator loop, in farads.
const C_EFF: f64 = 280e-15;
/// Logic delay around one loop at nominal voltage, in seconds.
const LOOP_DELAY_S: f64 = (124.0 + 280.0 + 100.0) * 1e-12;

/// Oscillation frequency of one loop at voltage `v` (the loop slows as
/// the rail droops, a small self-limiting effect).
fn frequency_hz(v: f64) -> f64 {
    1.0 / (2.0 * LOOP_DELAY_S * delay::factor(v))
}

/// Average current of one dual-loop cell at voltage `v`, in amps
/// (`I = 2 · C_eff · f(V) · V`).
fn cell_current_a(v: f64) -> f64 {
    2.0 * C_EFF * frequency_hz(v) * v.max(0.0)
}

/// A bank of striker cells behind one `Start` signal.
///
/// # Example
///
/// ```
/// use deepstrike::striker::StrikerBank;
///
/// let mut bank = StrikerBank::new(24_000)?;
/// assert_eq!(bank.current_a(1.0), 0.0, "disabled bank draws nothing");
/// bank.set_enabled(true);
/// let i = bank.current_a(1.0);
/// assert!(i > 3.0, "24k cells must draw amps: {i}");
/// # Ok::<(), deepstrike::DeepStrikeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StrikerBank {
    cells: usize,
    enabled: bool,
    activations: u64,
}

impl StrikerBank {
    /// Creates a disabled bank of `cells` striker cells.
    ///
    /// # Errors
    ///
    /// Returns [`DeepStrikeError::InvalidConfig`] if `cells == 0`.
    pub fn new(cells: usize) -> Result<Self> {
        if cells == 0 {
            return Err(DeepStrikeError::InvalidConfig("striker bank needs cells".into()));
        }
        Ok(StrikerBank { cells, enabled: false, activations: 0 })
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Whether `Start` is currently asserted.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Drives the `Start` signal. Rising edges are counted as strikes.
    pub fn set_enabled(&mut self, enabled: bool) {
        if enabled && !self.enabled {
            self.activations += 1;
            trace::emit(|| trace::Event::StrikerEdge { activation: self.activations });
        }
        self.enabled = enabled;
    }

    /// Number of rising `Start` edges so far (strike count).
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Bank current draw at rail voltage `v`, in amps.
    pub fn current_a(&self, v: f64) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        self.cells as f64 * cell_current_a(v)
    }

    /// Power dissipated at rail voltage `v`, in watts.
    pub fn power_w(&self, v: f64) -> f64 {
        self.current_a(v) * v.max(0.0)
    }

    /// Behavioural simulation of one cell's oscillation: steps both latch
    /// loops `steps` times with the gates open and returns the toggle
    /// count. Demonstrates that the latched loop really oscillates (the
    /// property DRC fails to flag).
    pub fn simulate_cell_toggles(steps: usize) -> usize {
        let lut = Lut6_2::dual_inverter();
        let mut latch_a = Ldce::new();
        let mut latch_b = Ldce::new();
        let mut toggles = 0usize;
        let mut prev = (false, false);
        for _ in 0..steps {
            // O5 inverts I0 (fed by latch_b), O6 inverts I1 (fed by latch_a).
            let (o6, o5) = lut.eval([latch_b.q(), latch_a.q(), false, false, false, true]);
            latch_a.update(o6, true, true, false);
            latch_b.update(o5, true, true, false);
            let now = (latch_a.q(), latch_b.q());
            if now != prev {
                toggles += 1;
            }
            prev = now;
        }
        toggles
    }

    /// Emits the bank as an auditable netlist: `cells` copies of the
    /// Fig. 2 cell plus a shared start buffer.
    pub fn netlist(&self) -> Netlist {
        let mut n = Netlist::new("power_striker");
        let start = n.add_cell("start_buf", PrimitiveKind::Bufg, None);
        for i in 0..self.cells {
            let lut = n.add_dual_inverter(&format!("cell{i}_lut"));
            let l0 = n.add_cell(&format!("cell{i}_ldce0"), PrimitiveKind::Ldce, None);
            let l1 = n.add_cell(&format!("cell{i}_ldce1"), PrimitiveKind::Ldce, None);
            // O6 -> LDCE0.D, O5 -> LDCE1.D; Q feedback to the LUT inputs.
            n.connect(n.output_pin(lut, 0), n.input_of(l0, 0)).expect("fresh pins");
            n.connect(n.output_pin(lut, 1), n.input_of(l1, 0)).expect("fresh pins");
            n.connect(n.output_of(l0), n.input_of(lut, 1)).expect("fresh pins");
            n.connect(n.output_of(l1), n.input_of(lut, 0)).expect("fresh pins");
            // Shared gate-enable from the start buffer.
            n.connect(n.output_of(start), n.input_of(l0, 2)).expect("fresh pins");
            n.connect(n.output_of(start), n.input_of(l1, 2)).expect("fresh pins");
        }
        n
    }

    /// Resource usage of the generated bank.
    pub fn resource_usage(&self) -> ResourceUsage {
        self.netlist().resource_usage()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use fpga_fabric::device::Device;
    use fpga_fabric::drc::{self, Rule};

    #[test]
    fn cell_oscillates_while_gated_open() {
        let toggles = StrikerBank::simulate_cell_toggles(100);
        assert!(toggles >= 90, "latched loops must oscillate: {toggles} toggles in 100 steps");
    }

    #[test]
    fn bank_netlist_passes_drc_but_is_flagged_as_latch_loop() {
        let bank = StrikerBank::new(8).unwrap();
        let report = drc::check(&bank.netlist());
        assert!(report.is_deployable(), "striker must pass DRC: {report}");
        assert!(
            report.of_rule(Rule::LatchInLoop).next().is_some(),
            "advisory should see the oscillation-capable loops"
        );
        assert!(report.of_rule(Rule::CombinationalLoop).next().is_none());
    }

    #[test]
    fn current_scales_linearly_with_cells() {
        let mut small = StrikerBank::new(1000).unwrap();
        let mut large = StrikerBank::new(4000).unwrap();
        small.set_enabled(true);
        large.set_enabled(true);
        let ratio = large.current_a(1.0) / small.current_a(1.0);
        assert!((ratio - 4.0).abs() < 1e-9);
    }

    #[test]
    fn twenty_four_thousand_cells_draw_crash_capable_current() {
        let mut bank = StrikerBank::new(24_000).unwrap();
        bank.set_enabled(true);
        let i = bank.current_a(1.0);
        // A 10 ns pulse of this magnitude droops the rail by ≈ 0.25 V.
        assert!((11.0..15.0).contains(&i), "24k-cell draw {i} A out of calibrated band");
        assert!(bank.power_w(1.0) > 11.0);
    }

    #[test]
    fn droop_self_limits_the_oscillators() {
        let mut bank = StrikerBank::new(1000).unwrap();
        bank.set_enabled(true);
        assert!(bank.current_a(0.85) < bank.current_a(1.0), "slower loops draw less");
    }

    #[test]
    fn activation_counting_on_rising_edges_only() {
        let mut bank = StrikerBank::new(10).unwrap();
        bank.set_enabled(true);
        bank.set_enabled(true);
        bank.set_enabled(false);
        bank.set_enabled(true);
        assert_eq!(bank.activations(), 2);
        assert_eq!(
            StrikerBank::new(0).unwrap_err(),
            DeepStrikeError::InvalidConfig("striker bank needs cells".into())
        );
    }

    #[test]
    fn e2e_bank_consumes_about_fifteen_percent_of_slices() {
        // The paper's end-to-end striker: 15.03% of the 7Z020's 13,300
        // slices. One slice packs 4 LUTs/8 latches = 4 cells, so ≈ 8,000
        // cells. Verify via the netlist resource accounting.
        let bank = StrikerBank::new(8_000).unwrap();
        let usage = bank.resource_usage();
        let device = Device::zynq_7020();
        let pct = device.utilization(&usage).slice_pct;
        assert!((14.0..16.5).contains(&pct), "slice utilisation {pct}%");
    }
}
