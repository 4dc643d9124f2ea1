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
//! distribution, so statistical and cycle modes agree (tested in the
//! integration suite). There is one sampler body,
//! [`FaultModel::sample_pipelined_factors`]: the cycle-level DSP slice
//! reaches it through [`FaultModel::sample_pipelined_scaled`], which prices
//! its two voltages first, and the attack scorer calls it with delay
//! factors priced once per recorded run.

use pdn::delay::DelayModel;
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

/// The voltage → fault-species model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModel {
    timing: DspTiming,
    delay: DelayModel,
}

impl FaultModel {
    /// Creates a fault model from timing and delay-law parameters.
    pub fn new(timing: DspTiming, delay: DelayModel) -> Self {
        FaultModel { timing, delay }
    }

    /// The paper's configuration: DDR DSP timing and default delay law.
    pub fn paper() -> Self {
        FaultModel::new(DspTiming::paper_ddr(), DelayModel::default())
    }

    /// Timing parameters.
    pub fn timing(&self) -> &DspTiming {
        &self.timing
    }

    /// Delay-law parameters.
    pub fn delay(&self) -> &DelayModel {
        &self.delay
    }

    /// Closed-form per-op fault probabilities at rail voltage `v`.
    ///
    /// With `D = D_nom·f(v)·u`, `u ~ U[1−j, 1+j]`:
    /// `P(D > x) = clamp(((1+j) − x/(D_nom·f)) / 2j, 0, 1)`.
    pub fn probabilities(&self, v: f64) -> FaultProbabilities {
        let t = &self.timing;
        let scaled = t.stage_delay_ps * self.delay.factor(v);
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
    /// [`DelayModel::factor`]). Draws nothing when `scale <= 0`.
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
        // Need D_nom·f(v)·(1+j) ≤ B.
        let needed_factor = t.budget_ps / (t.stage_delay_ps * (1.0 + t.jitter_frac));
        // factor(v) = ((v_nom − v_th)/(v − v_th))^α  ⇒ invert.
        let d = self.delay;
        d.v_th + (d.v_nom - d.v_th) / needed_factor.powf(1.0 / d.alpha)
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
            delay: self.delay,
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
        let (capture, in_flight) =
            (self.delay.factor(v_capture), self.delay.factor(v_min_in_flight));
        self.sample_pipelined_factors(capture, in_flight, scale, rng)
    }

    /// [`Self::sample_pipelined_scaled`] with the delay-law factors of
    /// both voltages already evaluated (`self.delay().factor(v)`), for
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
        let v_nom = m.delay().v_nom;
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

    #[test]
    fn ddr_is_more_vulnerable_than_sdr() {
        let delay = DelayModel::default();
        let ddr = FaultModel::new(DspTiming::paper_ddr(), delay);
        let sdr = FaultModel::new(DspTiming::paper_sdr(), delay);
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
    fn paper_timing_has_positive_nominal_slack() {
        assert!(DspTiming::paper_ddr().nominal_slack_ps() > 0.0);
        assert!(
            DspTiming::paper_sdr().nominal_slack_ps() > DspTiming::paper_ddr().nominal_slack_ps()
        );
    }
}
