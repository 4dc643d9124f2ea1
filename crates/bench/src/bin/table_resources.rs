//! §IV in-text numbers: resource utilisation and deployed accuracy.
//!
//! The paper reports: the power striker consumes **15.03% of logic
//! slices**; each strike lasts **10 ns**; the untampered model reaches
//! **96.17%** test accuracy; DSPs run double data rate. This binary
//! regenerates all of them from the fabric netlists and the trained
//! deployment.

use accel::schedule::CLOCK_MHZ;
use bench::{emit_series, trained_lenet};
use deepstrike::hypervisor::{attacker_netlist, deploy, victim_netlist};
use deepstrike::striker::StrikerBank;
use deepstrike::tdc::TdcSensor;
use fpga_fabric::device::Device;

fn main() {
    let device = Device::zynq_7020();
    let striker = StrikerBank::new(8_000).expect("cells > 0");
    let tdc = TdcSensor::calibrated().expect("calibration");

    let striker_usage = striker.resource_usage();
    let striker_util = device.utilization(&striker_usage);
    let tdc_usage = tdc.netlist().resource_usage();
    let victim_usage = victim_netlist(32).resource_usage();
    let attacker_usage = attacker_netlist(&striker, &tdc).resource_usage();

    emit_series(
        "Resource utilisation on the Zynq-7020 (13,300 slices, 220 DSP, 140 BRAM36)",
        "component,luts,ffs,latches,carry4,dsp,bram,slices,slice_pct",
        [
            ("power_striker(8000 cells)", striker_usage),
            ("tdc_sensor", tdc_usage),
            ("victim_accelerator", victim_usage),
            ("attacker_total", attacker_usage),
        ]
        .iter()
        .map(|(name, u)| {
            format!(
                "{name},{},{},{},{},{},{},{},{:.2}",
                u.luts,
                u.flip_flops,
                u.latches,
                u.carry4,
                u.dsp,
                u.bram,
                u.slices(),
                device.utilization(u).slice_pct
            )
        }),
    );

    // Full two-tenant deployment must pass the provider checks.
    let deployment = deploy(&device, &striker, &tdc).expect("deployment succeeds");
    println!(
        "# hypervisor: combined image deployable, victim-attacker distance {:.2} (normalised)",
        deployment.tenant_distance
    );

    // Strike duration at the 100 MHz fSRAM clock.
    let strike_ns = 1000.0 / CLOCK_MHZ;
    println!("# strike duration: {strike_ns:.0} ns (one fSRAM cycle)");

    // Deployed accuracy.
    let (_, acc) = trained_lenet();
    println!("# untampered deployed accuracy: {:.2}% (paper: 96.17%)", acc * 100.0);

    assert!(
        (13.0..17.0).contains(&striker_util.slice_pct),
        "striker slice share {:.2}% should straddle the paper's 15.03%",
        striker_util.slice_pct
    );
    assert!((strike_ns - 10.0).abs() < 1e-9);
    assert!(acc > 0.90, "deployed accuracy {acc} must be in the paper regime");
    println!("# shape-check: PASS (≈15% slices, 10 ns strikes, mid-90s accuracy)");
}
