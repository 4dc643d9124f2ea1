//! TDC-based delay sensor (the attack scheduler's eyes).
//!
//! Paper Fig. 1a: a launch clock drives an edge through `DL_LUT` (a short
//! LUT delay line, length 4) into `DL_CARRY` (a 128-element carry chain);
//! a second clock of the same frequency, offset by a calibrated phase θ,
//! samples the carry-chain taps into registers. The captured 128-bit
//! thermometer vector — a run of consecutive `1`s followed by `0`s — says
//! how far the edge travelled in θ; since propagation delay depends on the
//! rail voltage, the encoder's popcount (128 bits → one byte) is a live
//! voltage probe. The sensor is built at the paper's one operating point,
//! fixed as constants: `F_dr = 200 MHz`, `L_LUT = 4`, `L_CARRY = 128`, θ
//! calibrated so the readout is ≈ 90 at nominal voltage
//! ([`TARGET_COUNT`]).

use accel::schedule::CLOCK_MHZ;
use fpga_fabric::clock::{ClockSpec, Mmcm};
use fpga_fabric::netlist::Netlist;
use fpga_fabric::primitive::{Carry4, PrimitiveKind};
use pdn::delay;

use crate::error::{DeepStrikeError, Result};

/// Driving and sampling clock frequency `F_dr` in MHz.
const F_DR_MHZ: f64 = 200.0;
/// TDC samples per victim cycle: `F_dr` over the accelerator clock.
pub const SAMPLES_PER_CYCLE: usize = (F_DR_MHZ / CLOCK_MHZ) as usize;
/// LUT delay-line length `L_LUT`.
const L_LUT: usize = 4;
/// Carry-chain length `L_CARRY` (= capture register count).
const L_CARRY: usize = 128;
/// The calibrated idle readout: θ is tuned so the nominal-voltage count
/// is this many `1`s. The start detector's taps and the profiler's idle
/// level are both placed against it.
pub const TARGET_COUNT: u8 = 90;
/// Measurement dither amplitude in carry stages (models launch/sample
/// clock jitter).
const DITHER_STAGES: f64 = 0.8;

/// One captured sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TdcReading {
    /// Raw thermometer vector, bit `i` = carry tap `i` (LSB first).
    pub raw: u128,
    /// Encoder output: number of `1`s, saturated to `u8`.
    pub count: u8,
}

/// The delay sensor with its locked clock pair.
///
/// # Example
///
/// ```
/// use deepstrike::tdc::{TdcSensor, TARGET_COUNT};
///
/// let mut tdc = TdcSensor::calibrated()?;
/// let nominal = tdc.sample(1.0);
/// assert!((i32::from(nominal.count) - i32::from(TARGET_COUNT)).abs() <= 2);
/// let drooped = tdc.sample(0.92);
/// assert!(drooped.count < nominal.count, "droop slows the edge");
/// # Ok::<(), deepstrike::DeepStrikeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TdcSensor {
    launch: ClockSpec,
    sample_clock: ClockSpec,
    /// Dither amplitude in carry stages; calibration probes run with 0.
    dither_stages: f64,
    sample_counter: u64,
    samples_taken: u64,
}

impl TdcSensor {
    /// Builds a sensor with an explicit phase offset θ (degrees).
    fn with_theta(theta_deg: f64) -> Result<Self> {
        // The board's reference clock, which also clocks the victim.
        let mmcm = Mmcm::lock_default(CLOCK_MHZ)?;
        let (launch, sample_clock) = mmcm.derive_pair(F_DR_MHZ, theta_deg)?;
        Ok(TdcSensor {
            launch,
            sample_clock,
            dither_stages: DITHER_STAGES,
            sample_counter: 0,
            samples_taken: 0,
        })
    }

    /// Builds a sensor and calibrates θ so the nominal-voltage readout is
    /// [`TARGET_COUNT`].
    ///
    /// # Errors
    ///
    /// Returns [`DeepStrikeError::Fabric`] if the clock-management tile
    /// cannot synthesise the clock pair, or
    /// [`DeepStrikeError::Calibration`] if no phase setting reaches the
    /// target within ±3 counts.
    pub fn calibrated() -> Result<Self> {
        // Analytic seed: θ_ps such that the edge reaches `TARGET_COUNT`
        // stages at nominal voltage, then a local search over the phase
        // grid to absorb MMCM quantisation.
        let ideal_ps = Self::lut_delay_ps() + TARGET_COUNT as f64 * Carry4::per_stage_delay_ps();
        let period_ps = 1.0e6 / F_DR_MHZ;
        let seed_deg = ideal_ps / period_ps * 360.0;
        let mut best: Option<(f64, i32)> = None;
        for step in -40..=40 {
            let theta = seed_deg + f64::from(step) * 0.25;
            if !(0.0..360.0).contains(&theta) {
                continue;
            }
            let mut probe = TdcSensor::with_theta(theta)?;
            probe.dither_stages = 0.0;
            let got = i32::from(probe.sample(delay::V_NOM).count);
            let err = (got - i32::from(TARGET_COUNT)).abs();
            if best.is_none_or(|(_, e)| err < e) {
                best = Some((theta, err));
            }
        }
        match best {
            Some((theta, err)) if err <= 3 => TdcSensor::with_theta(theta),
            _ => Err(DeepStrikeError::Calibration(format!(
                "no phase reaches count {TARGET_COUNT} (best error {:?})",
                best.map(|(_, e)| e)
            ))),
        }
    }

    fn lut_delay_ps() -> f64 {
        L_LUT as f64 * PrimitiveKind::Lut6.nominal_delay_ps()
    }

    /// Achieved launch clock.
    pub fn launch_clock(&self) -> &ClockSpec {
        &self.launch
    }

    /// Achieved sampling clock (phase-offset by θ).
    pub fn sample_clock(&self) -> &ClockSpec {
        &self.sample_clock
    }

    /// The calibrated phase offset θ in degrees.
    pub fn theta_deg(&self) -> f64 {
        self.sample_clock.phase_deg
    }

    /// Captures one reading at the given rail voltage.
    ///
    /// The number of carry stages the edge traverses in the phase window is
    /// `(θ_ps − t_lut·k(V)) / (t_stage·k(V))` where `k` is the alpha-power
    /// delay factor; a deterministic triangular dither models clock jitter.
    pub fn sample(&mut self, voltage: f64) -> TdcReading {
        let factor = delay::factor(voltage);
        let theta_ps = self.sample_clock.phase_ps();
        let lut_ps = Self::lut_delay_ps() * factor;
        let stage_ps = Carry4::per_stage_delay_ps() * factor;
        let mut stages = ((theta_ps - lut_ps) / stage_ps).max(0.0);
        if self.dither_stages > 0.0 {
            // Deterministic triangular dither from a weyl sequence.
            self.sample_counter = self.sample_counter.wrapping_add(1);
            let u = (self.sample_counter.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64
                / (1u64 << 53) as f64;
            stages += (u * 2.0 - 1.0) * self.dither_stages;
        }
        let n = (stages.round().max(0.0) as usize).min(L_CARRY);
        let raw = if n == 0 {
            0
        } else if n >= 128 {
            u128::MAX
        } else {
            (1u128 << n) - 1
        };
        // Separate from `sample_counter`: that one seeds the dither Weyl
        // sequence and only advances when dither is on, so observability
        // must not share it.
        let index = self.samples_taken;
        self.samples_taken += 1;
        trace::emit(|| trace::Event::TdcSample { index, count: n.min(255) as u8 });
        TdcReading { raw, count: n.min(255) as u8 }
    }

    /// Emits the sensor as an auditable netlist (delay line + carry chain +
    /// capture registers + encoder LUTs), for DRC and resource accounting.
    pub fn netlist(&self) -> Netlist {
        let mut n = Netlist::new("tdc_sensor");
        let mut prev = None;
        for i in 0..L_LUT {
            let lut = n.add_cell(&format!("dl_lut{i}"), PrimitiveKind::Lut6, None);
            if let Some(p) = prev {
                n.connect(n.output_of(p), n.input_of(lut, 0)).expect("fresh pins");
            }
            prev = Some(lut);
        }
        let carry_blocks = L_CARRY.div_ceil(4);
        let mut prev_carry = prev;
        for i in 0..carry_blocks {
            let c = n.add_cell(&format!("dl_carry{i}"), PrimitiveKind::Carry4, None);
            if let Some(p) = prev_carry {
                n.connect(n.output_of(p), n.input_of(c, 0)).expect("fresh pins");
            }
            for tap in 0..4 {
                let ff = n.add_cell(&format!("cap{i}_{tap}"), PrimitiveKind::Fdre, None);
                n.connect(n.output_pin(c, 4 + tap as u8), n.input_of(ff, 0)).expect("fresh pins");
            }
            prev_carry = Some(c);
        }
        // Encoder: a popcount tree, roughly one LUT per 3 taps.
        for i in 0..L_CARRY.div_ceil(3) {
            n.add_cell(&format!("enc{i}"), PrimitiveKind::Lut6, None);
        }
        n
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use fpga_fabric::drc;

    fn sensor() -> TdcSensor {
        TdcSensor::calibrated().expect("calibration")
    }

    #[test]
    fn calibration_hits_the_paper_operating_point() {
        let mut tdc = sensor();
        assert!((tdc.launch_clock().freq_mhz - 200.0).abs() < 1.0);
        let r = tdc.sample(1.0);
        assert!((i32::from(r.count) - 90).abs() <= 2, "count {}", r.count);
        // Thermometer structure: bits 0..count set.
        assert_eq!(r.raw.count_ones(), u32::from(r.count));
        assert_eq!(r.raw.trailing_ones(), u32::from(r.count));
    }

    #[test]
    fn readout_decreases_monotonically_with_droop() {
        let mut tdc = sensor();
        tdc.dither_stages = 0.0;
        let mut prev = u8::MAX;
        for mv in (700..=1000).rev().step_by(20) {
            let v = mv as f64 / 1000.0;
            let c = tdc.sample(v).count;
            assert!(c <= prev, "count must fall as voltage falls ({v} V: {c} > {prev})");
            prev = c;
        }
        // A big droop must be clearly visible.
        let nominal = tdc.sample(1.0).count;
        let glitched = tdc.sample(0.85).count;
        assert!(nominal - glitched >= 8, "droop barely visible: {nominal} -> {glitched}");
    }

    #[test]
    fn dither_keeps_idle_readout_within_two_counts() {
        let mut tdc = sensor();
        let counts: Vec<u8> = (0..100).map(|_| tdc.sample(1.0).count).collect();
        // 100 samples were just collected, so the extrema exist.
        let min = *counts.iter().min().expect("non-empty sample vector");
        let max = *counts.iter().max().expect("non-empty sample vector");
        assert!(max - min <= 3, "dither spread too wide: {min}..{max}");
        assert!(max > min, "dither must actually dither");
    }

    #[test]
    fn extreme_voltages_saturate_cleanly() {
        let mut tdc = sensor();
        tdc.dither_stages = 0.0;
        let dead = tdc.sample(0.2);
        assert_eq!(dead.count, 0, "edge never leaves the LUT line");
        let over = tdc.sample(2.0);
        assert!(over.count >= 90, "overdrive speeds the edge up");
        assert!(usize::from(over.count) <= L_CARRY);
    }

    #[test]
    fn sensor_netlist_passes_drc() {
        let tdc = sensor();
        let n = tdc.netlist();
        let report = drc::check(&n);
        assert!(report.is_deployable(), "{report}");
        let usage = n.resource_usage();
        assert_eq!(usage.carry4, 32, "128 taps = 32 CARRY4");
        assert_eq!(usage.flip_flops, 128, "one capture register per tap");
        assert!(usage.luts >= 4 + 43, "delay line + encoder LUTs");
    }
}
