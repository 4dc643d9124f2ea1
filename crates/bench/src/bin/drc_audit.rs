//! §III-C claim — the latch-based striker passes DRC; a ring oscillator
//! does not. The striker's latched loop still oscillates when gated open.

use bench::emit_series;
use deepstrike::striker::StrikerBank;
use deepstrike::tdc::TdcSensor;
use fpga_fabric::drc::{check, Rule, Severity};
use fpga_fabric::netlist::Netlist;

fn ring_oscillator(stages: usize) -> Netlist {
    let mut n = Netlist::new("ring_oscillator");
    let cells: Vec<_> = (0..stages).map(|i| n.add_lut1_inverter(&format!("inv{i}"))).collect();
    for i in 0..stages {
        let from = cells[i];
        let to = cells[(i + 1) % stages];
        n.connect(n.output_of(from), n.input_of(to, 0)).expect("fresh pins");
    }
    n
}

fn main() {
    let designs: Vec<(&str, Netlist)> = vec![
        ("ring_oscillator_3stage", ring_oscillator(3)),
        ("power_striker_64cells", StrikerBank::new(64).expect("cells > 0").netlist()),
        ("tdc_sensor", TdcSensor::calibrated().expect("calibration").netlist()),
    ];

    let mut rows = Vec::new();
    let mut ro_rejected = false;
    let mut striker_accepted = false;
    for (name, netlist) in &designs {
        let report = check(netlist);
        let comb_loops = report.of_rule(Rule::CombinationalLoop).count();
        let latch_loops = report.of_rule(Rule::LatchInLoop).count();
        let verdict = if report.is_deployable() { "ACCEPT" } else { "REJECT" };
        if *name == "ring_oscillator_3stage" && !report.is_deployable() {
            ro_rejected = true;
        }
        if name.starts_with("power_striker") && report.is_deployable() {
            striker_accepted = true;
        }
        rows.push(format!(
            "{name},{},{},{comb_loops},{latch_loops},{verdict}",
            report.violations.len(),
            report.violations.iter().filter(|v| v.severity == Severity::Error).count(),
        ));
    }
    emit_series(
        "DRC audit (Vivado-style LUTLP-1 combinational-loop rule)",
        "design,violations,errors,comb_loops,latch_loop_advisories,verdict",
        rows,
    );

    assert!(ro_rejected, "the ring oscillator must be rejected");
    assert!(striker_accepted, "the latch-based striker must be accepted");

    // The countermeasure (paper refs [26][27]): a provider that also scans
    // latch-broken loops catches the striker at compile time.
    use fpga_fabric::drc::{check_with, DrcPolicy};
    let striker_netlist = StrikerBank::new(64).expect("cells > 0").netlist();
    let strict = check_with(&striker_netlist, DrcPolicy::strict());
    println!(
        "# strict (latch-loop scanning) policy on the striker: {} ({} errors)",
        if strict.is_deployable() { "ACCEPT" } else { "REJECT" },
        strict.error_count()
    );
    assert!(!strict.is_deployable(), "strict policy must catch the striker");

    // Passing DRC does not stop the latched loop from oscillating.
    let steps = 1000;
    let toggles = StrikerBank::simulate_cell_toggles(steps);
    println!("# behavioural check: {toggles} striker-cell toggles in {steps} gate-open steps");
    assert!(toggles >= steps * 9 / 10, "latched loops must oscillate: {toggles} in {steps}");
    println!(
        "# shape-check: PASS (RO rejected, striker + TDC accepted, strict policy catches striker)"
    );
}
