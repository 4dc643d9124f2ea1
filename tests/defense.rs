//! Defender-side countermeasures exercised against the real attack stack.

use accel::schedule::AccelConfig;
use deepstrike::attack::{plan_attack, profile_victim};
use deepstrike::cosim::{CloudFpga, CosimConfig};
use deepstrike::defense::GlitchWatchdog;
use deepstrike::hypervisor::{deploy, deploy_with_policy};
use deepstrike::striker::StrikerBank;
use deepstrike::tdc::TdcSensor;
use deepstrike::DeepStrikeError;
use dnn::fixed::QFormat;
use dnn::quant::QuantizedNetwork;
use dnn::zoo::mlp;
use fpga_fabric::device::Device;
use fpga_fabric::drc::DrcPolicy;
use fpga_fabric::FabricError;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn platform(cells: usize) -> CloudFpga {
    let net = mlp(&mut StdRng::seed_from_u64(0));
    let victim = QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap();
    let mut fpga = CloudFpga::new(
        &victim,
        &AccelConfig { weight_bandwidth: 16, stall_cycles: 150 },
        cells,
        CosimConfig { pdn_substeps: 4 },
    )
    .unwrap();
    fpga.settle(50);
    fpga
}

#[test]
fn watchdog_detects_a_real_strike_campaign() {
    let mut fpga = platform(14_000);
    let profile = profile_victim(&mut fpga, &["fc1", "fc2", "fc3"], 1).unwrap();
    let scheme = plan_attack(&profile, "fc1", 30).unwrap();
    fpga.scheduler_mut().load_scheme(&scheme).unwrap();
    fpga.scheduler_mut().arm(true).unwrap();
    let attacked = fpga.run_inference();
    assert_eq!(attacked.strike_cycles.len(), 30);

    let events = GlitchWatchdog::scan(&attacked.tdc_trace);
    assert!(
        events.len() >= 10,
        "watchdog must flag a large share of the 30 strikes, got {}",
        events.len()
    );
}

#[test]
fn watchdog_is_quiet_during_clean_execution() {
    let mut fpga = platform(14_000);
    let clean = fpga.run_inference();
    let events = GlitchWatchdog::scan(&clean.tdc_trace);
    assert!(events.is_empty(), "no strikes fired, but the watchdog flagged {:?}", events);
}

#[test]
fn strict_provider_policy_blocks_the_whole_attack() {
    let device = Device::zynq_7020();
    let striker = StrikerBank::new(8_000).unwrap();
    let tdc = TdcSensor::calibrated().unwrap();
    // Standard provider: attack deploys.
    deploy(&device, &striker, &tdc).unwrap();
    // Hardened provider: the latch-loop scan rejects the tenant.
    let err = deploy_with_policy(&device, &striker, &tdc, DrcPolicy::strict()).unwrap_err();
    assert!(matches!(err, DeepStrikeError::Fabric(FabricError::DrcRejected { .. })));
}
