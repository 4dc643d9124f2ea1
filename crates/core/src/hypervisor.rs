//! Provider-side deployment of the two tenants (paper §IV setup).
//!
//! "The hypervisor in the virtualized cloud-FPGA will compile and combine
//! applications of all the tenants (including the attacker's malicious
//! circuits and the victim's DNN inference), generate an unified bitstream
//! and deploy it on one FPGA device." This module builds both tenants'
//! netlists, floorplans them at opposite die ends, and runs the provider
//! checks — demonstrating that the whole DeepStrike payload passes DRC and
//! fits the PYNQ-Z1's resource budget alongside the victim.

use accel::schedule::AccelConfig;
use fpga_fabric::bitstream::{combine_with, Bitstream, TenantDesign};
use fpga_fabric::device::Device;
use fpga_fabric::drc::DrcPolicy;
use fpga_fabric::floorplan::Region;
use fpga_fabric::netlist::Netlist;
use fpga_fabric::primitive::PrimitiveKind;

use crate::error::Result;
use crate::striker::StrikerBank;
use crate::tdc::TdcSensor;

/// Synthesises a resource-accurate proxy netlist for the victim
/// accelerator: its DSP array, operand/result registers, weight BRAMs and
/// control logic.
pub fn victim_netlist(accel: &AccelConfig, weight_brams: usize) -> Netlist {
    let mut n = Netlist::new("dnn_accelerator");
    for i in 0..accel.pe_count {
        n.add_cell(&format!("pe{i}_dsp"), PrimitiveKind::Dsp48, None);
        // Operand staging + result fetch registers per PE.
        for r in 0..24 {
            n.add_cell(&format!("pe{i}_reg{r}"), PrimitiveKind::Fdre, None);
        }
        for l in 0..16 {
            n.add_cell(&format!("pe{i}_ctl{l}"), PrimitiveKind::Lut6, None);
        }
    }
    for b in 0..weight_brams {
        n.add_cell(&format!("weights{b}"), PrimitiveKind::Bram36, None);
    }
    // Global control FSM + activation LUT logic.
    for l in 0..400 {
        n.add_cell(&format!("ctrl{l}"), PrimitiveKind::Lut6, None);
    }
    n.add_cell("clk", PrimitiveKind::Bufg, None);
    n
}

/// Builds the attacker tenant: striker bank + TDC sensor + detector/
/// scheduler glue + the signal-RAM BRAM.
pub fn attacker_netlist(striker: &StrikerBank, tdc: &TdcSensor) -> Netlist {
    let mut n = striker.netlist();
    n.merge(&tdc.netlist(), "tdc");
    // Detector FSM + scheduler control (a few dozen LUTs/FFs).
    for l in 0..48 {
        n.add_cell(&format!("sched_lut{l}"), PrimitiveKind::Lut6, None);
    }
    for r in 0..32 {
        n.add_cell(&format!("sched_ff{r}"), PrimitiveKind::Fdre, None);
    }
    n.add_cell("signal_ram", PrimitiveKind::Bram36, None);
    n
}

/// A deployed two-tenant image plus its placement facts.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The combined image.
    pub bitstream: Bitstream,
    /// Normalised victim↔attacker distance (0 = same spot, 1 = corners).
    pub tenant_distance: f64,
}

/// Compiles and deploys victim + attacker on a device, placing them at
/// opposite ends as in the paper's Fig. 6a layout.
///
/// # Errors
///
/// Propagates DRC rejections and placement failures — e.g. a striker bank
/// too large for the attacker's region.
pub fn deploy(
    device: &Device,
    accel: &AccelConfig,
    striker: &StrikerBank,
    tdc: &TdcSensor,
) -> Result<Deployment> {
    deploy_with_policy(device, accel, striker, tdc, DrcPolicy::standard())
}

/// [`deploy`] under an explicit provider screening policy.
///
/// With [`DrcPolicy::strict`] the latch-loop scan catches the striker and
/// the whole deployment is rejected — the countermeasure the paper's
/// §III-C refs \[26\]\[27\] propose.
///
/// # Errors
///
/// As [`deploy`].
pub fn deploy_with_policy(
    device: &Device,
    accel: &AccelConfig,
    striker: &StrikerBank,
    tdc: &TdcSensor,
    policy: DrcPolicy,
) -> Result<Deployment> {
    let cols = device.grid().cols();
    let rows = device.grid().rows();
    // Victim on the left 40% of the die, attacker on the right 40%.
    let victim_region = Region::new(0, 0, cols * 2 / 5, rows - 1);
    let attacker_region = Region::new(cols * 3 / 5, 0, cols - 1, rows - 1);
    let tenants = vec![
        TenantDesign::new("victim", victim_netlist(accel, 32), victim_region),
        TenantDesign::new("attacker", attacker_netlist(striker, tdc), attacker_region),
    ];
    let bitstream = combine_with(device, tenants, policy)?;
    let tenant_distance = bitstream.floorplan().normalized_distance("victim", "attacker")?;
    Ok(Deployment { bitstream, tenant_distance })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::tdc::TdcConfig;
    use fpga_fabric::FabricError;

    fn tdc() -> TdcSensor {
        TdcSensor::calibrated(TdcConfig::default(), 100.0, 90).unwrap()
    }

    #[test]
    fn paper_deployment_fits_and_passes_drc() {
        let device = Device::zynq_7020();
        let striker = StrikerBank::new(8_000).unwrap();
        let deployment = deploy(&device, &AccelConfig::default(), &striker, &tdc()).unwrap();
        assert!(deployment.tenant_distance > 0.4, "tenants must be far apart");
        let usage = deployment.bitstream.total_usage();
        assert!(usage.dsp >= 8, "victim DSP array present");
        assert!(usage.latches >= 16_000, "striker latches present");
        for (_, report) in deployment.bitstream.drc_reports() {
            assert!(report.is_deployable());
        }
    }

    #[test]
    fn strict_policy_rejects_the_striker_tenant() {
        let device = Device::zynq_7020();
        let striker = StrikerBank::new(64).unwrap();
        // Standard screening admits the attack…
        deploy(&device, &AccelConfig::default(), &striker, &tdc()).unwrap();
        // …the latch-loop scanner does not.
        let err = deploy_with_policy(
            &device,
            &AccelConfig::default(),
            &striker,
            &tdc(),
            DrcPolicy::strict(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            crate::error::DeepStrikeError::Fabric(FabricError::DrcRejected { .. })
        ));
    }

    #[test]
    fn oversized_striker_is_rejected_by_placement() {
        let device = Device::zynq_7020();
        // 60k cells = 60k LUTs: more than the whole device.
        let striker = StrikerBank::new(60_000).unwrap();
        let err = deploy(&device, &AccelConfig::default(), &striker, &tdc()).unwrap_err();
        assert!(matches!(
            err,
            crate::error::DeepStrikeError::Fabric(FabricError::PlacementOverflow { .. })
        ));
    }

    #[test]
    fn victim_netlist_resources_scale_with_pes() {
        let small = victim_netlist(&AccelConfig { pe_count: 4, ..AccelConfig::default() }, 8);
        let large = victim_netlist(&AccelConfig { pe_count: 16, ..AccelConfig::default() }, 8);
        assert_eq!(small.resource_usage().dsp, 4);
        assert_eq!(large.resource_usage().dsp, 16);
        assert!(large.resource_usage().flip_flops > small.resource_usage().flip_flops);
    }

    #[test]
    fn attacker_netlist_contains_all_components() {
        let striker = StrikerBank::new(100).unwrap();
        let n = attacker_netlist(&striker, &tdc());
        let usage = n.resource_usage();
        assert_eq!(usage.latches, 200, "2 LDCE per striker cell");
        assert_eq!(usage.bram, 1, "signal RAM");
        assert_eq!(usage.carry4, 32, "TDC carry chain");
        assert!(n.cell_by_name("tdc/dl_lut0").is_some());
    }
}
