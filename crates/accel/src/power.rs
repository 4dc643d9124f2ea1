//! Activity-based current model.
//!
//! The TDC traces in the paper's Fig. 1b distinguish layers because each
//! layer type has a characteristic current signature: convolutions keep the
//! whole DSP array and its operand-fetch network toggling (high mean, large
//! fluctuation), pooling only moves comparators (low mean, small
//! fluctuation), dense layers sit in between, and stalls draw almost
//! nothing. The model combines a per-kind mean, a periodic component (the
//! row/tile rhythm of the loop nest) and deterministic pseudo-noise, so the
//! same cycle always yields the same current — traces are reproducible
//! without carrying an RNG through the co-simulation.

use crate::schedule::{Schedule, StageKind};

/// Current signature of one stage kind.
struct Signature {
    /// Mean draw in amps while the stage executes.
    mean: f64,
    /// Peak amplitude of the periodic (loop-rhythm) component, in amps.
    ripple: f64,
    /// Period of the rhythm, in cycles.
    ripple_period: u64,
    /// Peak amplitude of the pseudo-random component, in amps.
    noise: f64,
}

/// Convolution signature.
const CONV: Signature = Signature { mean: 1.10, ripple: 0.22, ripple_period: 96, noise: 0.25 };
/// Pooling signature.
const POOL: Signature = Signature { mean: 0.52, ripple: 0.05, ripple_period: 48, noise: 0.08 };
/// Dense signature.
const DENSE: Signature = Signature { mean: 0.90, ripple: 0.15, ripple_period: 256, noise: 0.16 };
/// Static + clock-tree draw during stalls, in amps.
pub const IDLE_A: f64 = 0.15;

/// Victim current draw at an absolute schedule cycle, in amps.
pub fn current_at(schedule: &Schedule, cycle: u64) -> f64 {
    match schedule.stage_at(cycle) {
        None => IDLE_A,
        Some(w) => {
            let sig = match w.kind {
                StageKind::Conv => CONV,
                StageKind::Pool => POOL,
                StageKind::Dense => DENSE,
            };
            let local = cycle - w.start_cycle;
            let phase = local % sig.ripple_period;
            let wave = (phase as f64 / sig.ripple_period as f64 * std::f64::consts::TAU).sin();
            let noise = hash_noise(cycle, stage_seed(&w.name));
            (sig.mean + sig.ripple * wave + sig.noise * noise).max(0.0)
        }
    }
}

/// Deterministic per-cycle noise in `[-1, 1]` (SplitMix64 finaliser).
fn hash_noise(cycle: u64, seed: u64) -> f64 {
    let mut z = cycle.wrapping_add(seed).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z as f64 / u64::MAX as f64) * 2.0 - 1.0
}

fn stage_seed(name: &str) -> u64 {
    name.bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3))
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::schedule::AccelConfig;
    use dnn::fixed::QFormat;
    use dnn::lenet::lenet5;
    use dnn::quant::QuantizedNetwork;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schedule() -> Schedule {
        let net = lenet5(&mut StdRng::seed_from_u64(0));
        let q = QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap();
        Schedule::for_network(&q, &AccelConfig::default())
    }

    fn window_stats(s: &Schedule, name: &str) -> (f64, f64) {
        let w = s.window(name).unwrap();
        let n = w.cycles.min(4000);
        let vals: Vec<f64> = (w.start_cycle..w.start_cycle + n).map(|c| current_at(s, c)).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
        (mean, var)
    }

    #[test]
    fn conv_draws_more_and_fluctuates_more_than_pool() {
        let s = schedule();
        let (conv_mean, conv_var) = window_stats(&s, "conv2");
        let (pool_mean, pool_var) = window_stats(&s, "pool1");
        assert!(conv_mean > 2.0 * pool_mean, "conv {conv_mean} vs pool {pool_mean}");
        assert!(conv_var > 5.0 * pool_var, "conv var {conv_var} vs pool var {pool_var}");
    }

    #[test]
    fn stalls_draw_the_idle_floor() {
        let s = schedule();
        assert_eq!(current_at(&s, 0), IDLE_A);
        let after = s.window("conv1").unwrap().end_cycle() + 1;
        assert_eq!(current_at(&s, after), IDLE_A);
    }

    #[test]
    fn current_is_deterministic_and_nonnegative() {
        let s = schedule();
        for c in (0..s.total_cycles()).step_by(997) {
            let a = current_at(&s, c);
            let b = current_at(&s, c);
            assert_eq!(a, b, "cycle {c} not deterministic");
            assert!(a >= 0.0);
        }
    }

    #[test]
    fn different_stages_have_different_noise_streams() {
        // Same local cycle offset in two conv layers must not produce the
        // same draw pattern (stage seed differs).
        let s = schedule();
        let c1 = s.window("conv1").unwrap();
        let c2 = s.window("conv2").unwrap();
        let diffs = (0..200u64)
            .filter(|&k| {
                (current_at(&s, c1.start_cycle + k) - current_at(&s, c2.start_cycle + k)).abs()
                    > 1e-9
            })
            .count();
        assert!(diffs > 150, "streams look identical: only {diffs}/200 differ");
    }

    #[test]
    fn hash_noise_is_in_range_and_spread() {
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for c in 0..10_000u64 {
            let v = hash_noise(c, 12345);
            assert!((-1.0..=1.0).contains(&v));
            min = min.min(v);
            max = max.max(v);
        }
        assert!(min < -0.9 && max > 0.9, "noise poorly spread: [{min}, {max}]");
    }
}
