//! Voltage-dependent DSP fault model.
//!
//! §IV-A of the paper observes two fault species in glitched DSP slices:
//!
//! * **Duplication faults** — "the DSP output is the correct result of the
//!   previous input. In this case, the DSP computation simply takes more
//!   cycles to complete and cannot produce the correct result in time."
//!   Electrically: the droop-stretched path misses the capture edge by a
//!   small margin, so the output register re-captures its old contents; the
//!   correct product lands one cycle later.
//! * **Random faults** — "the faulty output does not have obvious
//!   patterns." The violation is deep enough that internal nodes are still
//!   switching at capture, latching garbage.
//!
//! The model: an op's realised path delay is
//! `D = D_nom · factor(V_min) · u`, where `factor` is the alpha-power
//! voltage→delay law from [`pdn::delay`], `V_min` the worst rail voltage
//! while the op was in flight, and `u` a per-op data-dependent jitter drawn
//! uniformly from `[1−j, 1+j]` (different operand patterns exercise
//! different-length carry and booth chains). With capture budget `B` and a
//! metastability window `W`:
//!
//! * `D ≤ B` → correct;
//! * `B < D ≤ B + W` → duplication fault;
//! * `D > B + W` → random fault.
//!
//! Because `u` is uniform, closed-form per-op probabilities exist
//! ([`FaultModel::probabilities`]); the simulators *sample* the same
//! distribution, so the closed form, the Fig. 6b characterisation and the
//! executor agree (tested in the integration suite). There is one sampler
//! body, [`FaultModel::sample_pipelined_factors`]: the characterisation
//! ([`crate::dsp::characterize`]) and the attack scorer call it with delay
//! factors priced once, and [`FaultModel::sample_pipelined_scaled`] prices
//! two voltages first.

use pdn::delay;
use rand::Rng;

/// What happened to one MAC operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacFault {
    /// Result captured correctly.
    None,
    /// Output register holds the previous op's result.
    Duplicate,
    /// Output register latched garbage.
    Random,
}

/// DSP path-timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DspTiming {
    /// Nominal (full-voltage) critical-path delay of the capture-limiting
    /// pipeline stage, in picoseconds.
    pub stage_delay_ps: f64,
    /// Capture budget in picoseconds (clock period; half that under DDR).
    pub budget_ps: f64,
    /// Metastability window as a fraction of the budget: violations inside
    /// `budget .. budget·(1+window)` duplicate, beyond it they randomise.
    pub window_frac: f64,
    /// Half-width of the data-dependent delay jitter (uniform ±fraction).
    pub jitter_frac: f64,
}

impl DspTiming {
    /// The paper's victim configuration: (A+D)×B DSPs behind a 100 MHz
    /// accelerator clock, double-data-rate ("the designers usually adopt
    /// double-data-rate while using DSP"), so the capture budget is half a
    /// 10 ns period. The nominal path uses 80% of it — the design meets
    /// timing at nominal voltage, as the paper's mapping-tool run confirms.
    pub fn paper_ddr() -> Self {
        DspTiming {
            stage_delay_ps: 3220.0,
            budget_ps: 5000.0,
            window_frac: 0.08,
            jitter_frac: 0.18,
        }
    }

    /// Same pipeline clocked single-data-rate: full 10 ns budget. Used by
    /// the ablation bench to show why DDR DSPs are the vulnerable ones.
    pub fn paper_sdr() -> Self {
        DspTiming { budget_ps: 10_000.0, ..DspTiming::paper_ddr() }
    }

    /// Nominal slack in picoseconds.
    pub fn nominal_slack_ps(&self) -> f64 {
        self.budget_ps - self.stage_delay_ps
    }
}

/// Per-op fault probabilities at a given rail voltage.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultProbabilities {
    /// Probability of a duplication fault.
    pub duplicate: f64,
    /// Probability of a random fault.
    pub random: f64,
}

impl FaultProbabilities {
    /// Combined fault probability.
    pub fn total(&self) -> f64 {
        self.duplicate + self.random
    }
}

/// The voltage → fault-species model: DSP timing under the board's
/// delay law ([`pdn::delay`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    timing: DspTiming,
}

impl FaultModel {
    /// Creates a fault model for the given DSP timing.
    pub fn new(timing: DspTiming) -> Self {
        FaultModel { timing }
    }

    /// The paper's configuration: DDR DSP timing.
    pub fn paper() -> Self {
        FaultModel::new(DspTiming::paper_ddr())
    }

    /// Timing parameters.
    pub fn timing(&self) -> &DspTiming {
        &self.timing
    }

    /// Closed-form per-op fault probabilities at rail voltage `v`.
    ///
    /// With `D = D_nom·f(v)·u`, `u ~ U[1−j, 1+j]`:
    /// `P(D > x) = clamp(((1+j) − x/(D_nom·f)) / 2j, 0, 1)`.
    pub fn probabilities(&self, v: f64) -> FaultProbabilities {
        let t = &self.timing;
        let scaled = t.stage_delay_ps * delay::factor(v);
        let j = t.jitter_frac;
        let exceed = |x_ps: f64| -> f64 {
            if j <= 0.0 {
                return if scaled > x_ps { 1.0 } else { 0.0 };
            }
            (((1.0 + j) - x_ps / scaled) / (2.0 * j)).clamp(0.0, 1.0)
        };
        let p_any = exceed(t.budget_ps);
        let p_random = exceed(t.budget_ps * (1.0 + t.window_frac));
        FaultProbabilities { duplicate: p_any - p_random, random: p_random }
    }

    /// Samples one op of a stage with nominal delay `stage_delay_ps`
    /// whose rail sits at delay-law factor `factor` (see
    /// [`delay::factor`]). Draws nothing when `scale <= 0`.
    fn sample_factor(
        &self,
        stage_delay_ps: f64,
        factor: f64,
        scale: f64,
        rng: &mut impl Rng,
    ) -> MacFault {
        if scale <= 0.0 {
            return MacFault::None;
        }
        let t = &self.timing;
        let u = 1.0 + rng.gen_range(-t.jitter_frac..=t.jitter_frac);
        let d = stage_delay_ps * scale * factor * u;
        if d <= t.budget_ps {
            MacFault::None
        } else if d <= t.budget_ps * (1.0 + t.window_frac) {
            MacFault::Duplicate
        } else {
            MacFault::Random
        }
    }

    /// Fraction of the critical path a multiply with the given product
    /// magnitude exercises.
    ///
    /// The DSP's critical path runs through the multiplier's carry/booth
    /// chains, whose active length grows with the operands' bit widths: a
    /// zero product toggles nothing (no timing fault possible), small
    /// products use a fraction of the array, full-width products exercise
    /// it all. This is the data dependence behind the paper's observation
    /// that layers crunching large (tanh-saturated) activations fault far
    /// more readily than the input layer's small pixel values.
    pub fn path_scale(product: i32) -> f64 {
        let magnitude = product.unsigned_abs();
        if magnitude == 0 {
            return 0.0;
        }
        let bits = (32 - magnitude.leading_zeros()).min(14) as f64;
        0.85 + 0.15 * bits / 14.0
    }

    /// The lowest voltage at which every op is still fault-free (worst-case
    /// jitter included).
    pub fn safe_voltage(&self) -> f64 {
        let t = &self.timing;
        // Need D_nom·f(v)·(1+j) ≤ B: the worst-case jittered path at budget.
        delay::fault_threshold_voltage(t.stage_delay_ps * (1.0 + t.jitter_frac), t.budget_ps)
    }

    /// Slack margin of the non-capture pipeline stages relative to the
    /// critical capture stage: earlier stages use ~25% less of the budget,
    /// so they only fail under much deeper droop.
    pub const EARLY_STAGE_MARGIN: f64 = 0.75;

    /// A fault model for the non-capture (earlier) pipeline stages.
    pub fn early_stage(&self) -> FaultModel {
        FaultModel {
            timing: DspTiming {
                stage_delay_ps: self.timing.stage_delay_ps * Self::EARLY_STAGE_MARGIN,
                ..self.timing
            },
        }
    }

    /// Samples the fate of one op given the rail voltage at its *capture*
    /// cycle and the worst voltage over its whole flight, with the
    /// operand-dependent path `scale` of [`Self::path_scale`].
    ///
    /// The capture stage is the critical path (fails first); the earlier
    /// stages carry [`Self::EARLY_STAGE_MARGIN`] more slack and only fail
    /// under much deeper droop, producing mid-cone corruption — always a
    /// *random* fault, since partially-evaluated logic is latched
    /// downstream.
    pub fn sample_pipelined_scaled(
        &self,
        v_capture: f64,
        v_min_in_flight: f64,
        scale: f64,
        rng: &mut impl Rng,
    ) -> MacFault {
        self.sample_pipelined_factors(
            delay::factor(v_capture),
            delay::factor(v_min_in_flight),
            scale,
            rng,
        )
    }

    /// [`Self::sample_pipelined_scaled`] with the delay-law factors of
    /// both voltages already evaluated ([`delay::factor`]), for
    /// callers that price one voltage trace for many ops. This is the one
    /// sampler body: both entry points draw the same random numbers in the
    /// same order and return the same fault.
    pub fn sample_pipelined_factors(
        &self,
        capture_factor: f64,
        in_flight_factor: f64,
        scale: f64,
        rng: &mut impl Rng,
    ) -> MacFault {
        let stage_delay_ps = self.timing.stage_delay_ps;
        match self.sample_factor(stage_delay_ps, capture_factor, scale, rng) {
            MacFault::None => {
                let early_delay_ps = stage_delay_ps * Self::EARLY_STAGE_MARGIN;
                match self.sample_factor(early_delay_ps, in_flight_factor, scale, rng) {
                    MacFault::None => MacFault::None,
                    _ => MacFault::Random,
                }
            }
            fault => fault,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nominal_voltage_is_fault_free() {
        let m = FaultModel::paper();
        let p = m.probabilities(1.0);
        assert_eq!(p.total(), 0.0, "design meets timing at nominal voltage");
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..1000 {
            assert_eq!(m.sample_pipelined_scaled(1.0, 1.0, 1.0, &mut rng), MacFault::None);
        }
    }

    #[test]
    fn deep_droop_is_always_random() {
        let m = FaultModel::paper();
        let p = m.probabilities(0.70);
        assert!(p.random > 0.99, "random {p:?}");
        assert!(p.duplicate < 0.01);
    }

    #[test]
    fn duplication_band_sits_between() {
        let m = FaultModel::paper();
        // Sweep down: total must be monotone non-decreasing; duplication
        // must rise then fall (it converts into random faults).
        let mut v = 1.0;
        let mut prev_total = 0.0;
        let mut peak_dup: f64 = 0.0;
        while v > 0.70 {
            let p = m.probabilities(v);
            assert!(p.total() >= prev_total - 1e-9, "total non-monotone at {v}");
            prev_total = p.total();
            peak_dup = peak_dup.max(p.duplicate);
            v -= 0.002;
        }
        // With ±18% data-dependent jitter the species mix smoothly; the
        // duplication phase peaks around a third of ops.
        assert!(peak_dup > 0.15, "duplication phase invisible: peak {peak_dup}");
        let end = m.probabilities(0.70);
        assert!(end.duplicate < peak_dup / 2.0, "duplication must decay at deep droop");
    }

    #[test]
    fn sampling_matches_closed_form() {
        let m = FaultModel::paper();
        let v = 0.82;
        let p = m.probabilities(v);
        assert!(p.total() > 0.1, "test voltage must sit inside the fault band");
        let mut rng = StdRng::seed_from_u64(7);
        let n = 40_000usize;
        let mut dup = 0usize;
        let mut rnd = 0usize;
        // A nominal in-flight voltage leaves the early stages fault-free,
        // so only the capture stage's closed form applies.
        let v_nom = delay::V_NOM;
        for _ in 0..n {
            match m.sample_pipelined_scaled(v, v_nom, 1.0, &mut rng) {
                MacFault::Duplicate => dup += 1,
                MacFault::Random => rnd += 1,
                MacFault::None => {}
            }
        }
        let dup_rate = dup as f64 / n as f64;
        let rnd_rate = rnd as f64 / n as f64;
        assert!((dup_rate - p.duplicate).abs() < 0.02, "dup {dup_rate} vs {}", p.duplicate);
        assert!((rnd_rate - p.random).abs() < 0.02, "rand {rnd_rate} vs {}", p.random);
    }

    /// Runs 400 single-op trials of the sampler with the rail at
    /// `capture` on the capture edge and at worst `in_flight` over the
    /// op's flight, and returns `(duplicate, random)` counts.
    fn glitch_trials(capture: f64, in_flight: f64) -> (usize, usize) {
        let m = FaultModel::paper();
        let (fc, ff) = (delay::factor(capture), delay::factor(in_flight));
        let mut rng = StdRng::seed_from_u64(11);
        let (mut dup, mut rnd) = (0, 0);
        for trial in 0..400 {
            let scale = FaultModel::path_scale((trial + 1) * 3);
            match m.sample_pipelined_factors(fc, ff, scale, &mut rng) {
                MacFault::Duplicate => dup += 1,
                MacFault::Random => rnd += 1,
                MacFault::None => {}
            }
        }
        (dup, rnd)
    }

    #[test]
    fn capture_edge_glitch_faults_reliably() {
        // A deep glitch on the capture edge (the critical stage) faults
        // nearly every op; at nominal voltage nothing faults.
        let (dup, rnd) = glitch_trials(0.72, 0.72);
        assert!(dup + rnd > 360, "glitched faults {}", dup + rnd);
        assert_eq!(glitch_trials(1.0, 1.0), (0, 0));
    }

    #[test]
    fn mid_flight_glitch_needs_deeper_droop_and_randomises() {
        // The non-capture stages carry extra slack: a moderate mid-flight
        // glitch is harmless, a deep one corrupts the cone (random fault).
        assert_eq!(
            glitch_trials(1.0, 0.84),
            (0, 0),
            "moderate mid-flight glitch must be absorbed by stage slack"
        );
        let (dup, rnd) = glitch_trials(1.0, 0.62);
        assert!(rnd > 200, "deep mid-flight faults {rnd}");
        assert_eq!(dup, 0, "mid-cone corruption is always random");
    }

    #[test]
    fn ddr_is_more_vulnerable_than_sdr() {
        let ddr = FaultModel::new(DspTiming::paper_ddr());
        let sdr = FaultModel::new(DspTiming::paper_sdr());
        let v = 0.84;
        assert!(ddr.probabilities(v).total() > 0.0);
        assert_eq!(sdr.probabilities(v).total(), 0.0, "SDR has huge slack");
        assert!(sdr.safe_voltage() < ddr.safe_voltage());
    }

    #[test]
    fn safe_voltage_is_consistent() {
        let m = FaultModel::paper();
        let v_safe = m.safe_voltage();
        assert!((0.5..1.0).contains(&v_safe), "safe voltage {v_safe}");
        assert_eq!(m.probabilities(v_safe + 0.005).total(), 0.0);
        assert!(m.probabilities(v_safe - 0.01).total() > 0.0);
    }

    #[test]
    fn calibrated_operating_point_is_pinned() {
        // Fig. 6b's fault onset is calibrated against these thresholds: an
        // edit to a delay-law constant or to the DSP timing must show up
        // here, not as a silent re-calibration of the figures.
        let ddr = FaultModel::paper();
        assert_eq!(ddr.safe_voltage().to_bits(), 0x3fec_0a48_2f5c_c001);
        let sdr = FaultModel::new(DspTiming::paper_sdr());
        assert_eq!(sdr.safe_voltage().to_bits(), 0x3fe5_14a4_61ce_4047);
        assert_eq!(ddr.early_stage().safe_voltage().to_bits(), 0x3fe8_b273_5f59_8867);
    }

    #[test]
    fn paper_timing_has_positive_nominal_slack() {
        assert!(DspTiming::paper_ddr().nominal_slack_ps() > 0.0);
        assert!(
            DspTiming::paper_sdr().nominal_slack_ps() > DspTiming::paper_ddr().nominal_slack_ps()
        );
    }
}
