//! The paper's §IV case study end to end: train LeNet-5 on the digit
//! dataset, deploy it quantised on the simulated cloud FPGA next to the
//! attacker tenant, profile, and sweep guided strikes over each layer.
//!
//! Takes a few minutes in release mode (training + per-layer campaigns):
//!
//! ```sh
//! cargo run --release --example end_to_end_attack
//! ```

use accel::fault::FaultModel;
use accel::schedule::AccelConfig;
use deepstrike::attack::{evaluate_attack, plan_attack, plan_blind, profile_victim};
use deepstrike::cosim::{CloudFpga, CosimConfig};
use deepstrike::hypervisor::deploy;
use deepstrike::striker::StrikerBank;
use deepstrike::tdc::TdcSensor;
use dnn::digits::{Dataset, RenderParams};
use dnn::fixed::QFormat;
use dnn::lenet::{lenet5, STAGE_NAMES};
use dnn::quant::QuantizedNetwork;
use dnn::train::{train, TrainConfig};
use fpga_fabric::device::Device;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(2021);

    println!("== training the victim ==");
    let mut ds = Dataset::generate(3_000, &RenderParams::challenging(), &mut rng);
    let test = ds.split_off(400);
    let mut net = lenet5(&mut rng);
    let history = train(&mut net, &ds, Some(&test), &TrainConfig::default(), &mut rng);
    let float_acc = history.last().and_then(|e| e.eval_accuracy).unwrap_or(0.0);
    let victim = QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper())?;
    let q_acc = victim.accuracy(test.iter());
    println!(
        "float accuracy {:.2}%, deployed 8-bit accuracy {:.2}%",
        float_acc * 100.0,
        q_acc * 100.0
    );

    println!("\n== provider-side deployment checks ==");
    let device = Device::zynq_7020();
    let striker = StrikerBank::new(8_000)?;
    let tdc = TdcSensor::calibrated()?;
    let deployment = deploy(&device, &striker, &tdc)?;
    println!(
        "two-tenant image accepted; striker uses {:.2}% of slices; tenant distance {:.2}",
        device.utilization(&striker.resource_usage()).slice_pct,
        deployment.tenant_distance
    );

    println!("\n== profiling over the shared PDN ==");
    let mut fpga = CloudFpga::new(&victim, &AccelConfig::default(), 8_000, CosimConfig::default())?;
    fpga.settle(200);
    let profile = profile_victim(&mut fpga, &STAGE_NAMES, 2)?;
    for (name, start, len) in &profile.layer_windows {
        println!("  {name:6} cycles {start:6} + {len}");
    }

    println!("\n== guided campaigns (max strikes per layer) ==");
    for target in STAGE_NAMES {
        let (_, len) = profile.window(target).ok_or("profiled window missing")?;
        let strikes = ((len / 2) as u32).max(1);
        let scheme = match plan_attack(&profile, target, strikes) {
            Ok(s) => s,
            Err(e) => {
                println!("  {target:6} skipped: {e}");
                continue;
            }
        };
        fpga.scheduler_mut().load_scheme(&scheme)?;
        fpga.scheduler_mut().arm(true)?;
        let run = fpga.run_inference();
        let outcome = evaluate_attack(
            &victim,
            fpga.schedule(),
            &run,
            test.iter().take(200),
            FaultModel::paper(),
            9,
        );
        println!(
            "  {target:6} {:5} strikes: accuracy {:.1}% (drop {:.1} pts, faults/img {:.0})",
            outcome.strikes_fired,
            outcome.attacked_accuracy * 100.0,
            outcome.accuracy_drop(),
            outcome.mean_faults_per_image
        );
        fpga.scheduler_mut().arm(false)?;
    }

    println!("\n== blind baseline (4500 strikes, no TDC guidance) ==");
    let scheme = plan_blind(fpga.schedule(), 4_500);
    fpga.scheduler_mut().load_scheme(&scheme)?;
    fpga.scheduler_mut().arm(true)?;
    fpga.scheduler_mut().force_start();
    let run = fpga.run_inference();
    let outcome = evaluate_attack(
        &victim,
        fpga.schedule(),
        &run,
        test.iter().take(200),
        FaultModel::paper(),
        9,
    );
    println!(
        "  blind  {:5} strikes: accuracy {:.1}% (drop {:.1} pts)",
        outcome.strikes_fired,
        outcome.attacked_accuracy * 100.0,
        outcome.accuracy_drop()
    );
    Ok(())
}
