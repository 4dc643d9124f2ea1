//! Diagnostic: per-stage fault sensitivity of the trained victim.
//! Applies a fixed random-fault rate to exactly one stage and reports the
//! accuracy — isolates network sensitivity from the strike schedule.

use accel::executor::{infer_with_faults, MacHook};
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

impl MacHook for OneStage {
    fn fault(&mut self, stage: usize, _op: u64, _w: i8, _x: i8) -> MacFault {
        if stage == self.stage && self.rng.gen::<f64>() < self.random {
            MacFault::Random
        } else {
            MacFault::None
        }
    }
}

fn main() {
    let (q, clean) = trained_lenet();
    let test = test_set();
    println!("clean {:.1}%", clean * 100.0);
    for stage in [0usize, 2, 3, 4] {
        for rate in [0.001, 0.01, 0.05] {
            let mut rng = StdRng::seed_from_u64(1);
            let mut correct = 0usize;
            let mut faults = 0u64;
            let n = 200usize;
            for (i, (x, y)) in test.iter().take(n).enumerate() {
                let mut hook =
                    OneStage { stage, random: rate, rng: StdRng::seed_from_u64(100 + i as u64) };
                let (logits, tally) = infer_with_faults(&q, x, &mut hook, &mut rng);
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
