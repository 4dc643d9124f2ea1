//! Diagnostic: per-stage fault sensitivity of the trained victim.
//! Applies a fixed random-fault rate to exactly one stage and reports the
//! accuracy — isolates network sensitivity from the strike schedule.

use accel::executor::{infer_with_faults, FaultEvent, FaultHook, StageOps};
use accel::fault::MacFault;
use bench::{test_set, trained_lenet};
use dnn::quant::argmax;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct OneStage {
    stage: usize,
    random: f64,
    rng: StdRng,
}

impl FaultHook for OneStage {
    fn stage_faults(&mut self, stage: &StageOps<'_>, events: &mut Vec<FaultEvent>) {
        if stage.index != self.stage {
            return;
        }
        for op in 0..stage.ops {
            if self.rng.gen::<f64>() < self.random {
                let mask = self.rng.gen_range(1i32..(1 << 16));
                events.push(FaultEvent { op, kind: MacFault::Random, mask });
            }
        }
    }
}

fn main() {
    let (q, clean) = trained_lenet();
    let test = test_set();
    println!("clean {:.1}%", clean * 100.0);
    for stage in [0usize, 2, 3, 4] {
        for rate in [0.001, 0.01, 0.05] {
            let mut correct = 0usize;
            let mut faults = 0u64;
            let n = 200usize;
            for (i, (x, y)) in test.iter().take(n).enumerate() {
                let mut hook =
                    OneStage { stage, random: rate, rng: StdRng::seed_from_u64(100 + i as u64) };
                let (logits, tally) = infer_with_faults(&q, x, &mut hook);
                faults += tally.random;
                if argmax(&logits) == y {
                    correct += 1;
                }
            }
            println!(
                "stage {stage} rate {rate}: acc {:.1}% (faults/img {:.0})",
                100.0 * correct as f64 / n as f64,
                faults as f64 / n as f64
            );
        }
    }
}
