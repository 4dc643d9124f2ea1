//! Design-rule checking.
//!
//! Cloud-FPGA providers screen tenant bitstreams for circuits that can be
//! abused for power attacks; the canonical rule is the **combinational-loop
//! check** (Vivado rule `LUTLP-1`), which rejects ring oscillators. The
//! DeepStrike paper's §III-C observation is that inserting transparent
//! latches (`LDCE`) into the feedback path removes the *combinational* loop
//! — the checker sees a latch, classifies the path as sequential, and passes
//! the design — even though the latch is held transparent at run time and
//! the loop still oscillates.
//!
//! This module reproduces that checker behaviour faithfully: loops made only
//! of combinational primitives are `Error`s; loops broken by latches are
//! reported as `Info` (latch-in-loop advisory, mirroring Vivado's
//! latch-related methodology warnings) and do not reject the design.

use std::collections::HashMap;

use crate::netlist::{CellId, Netlist};
use crate::primitive::PrimitiveKind;

/// Severity of a rule violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Advisory only.
    Info,
    /// Suspicious but deployable.
    Warning,
    /// Design is rejected.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Identifier of the rule that fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Rule {
    /// `LUTLP-1`: combinational loop through LUTs/carry logic.
    CombinationalLoop,
    /// Latch present inside a feedback loop (advisory; this is the pattern
    /// DeepStrike exploits, but vendors ship it as a warning at most).
    LatchInLoop,
    /// Latch used at all (methodology advisory).
    LatchUsage,
    /// Cell input left unconnected.
    DanglingInput,
    /// Net has sinks but no driver.
    UndrivenNet,
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rule::CombinationalLoop => write!(f, "LUTLP-1"),
            Rule::LatchInLoop => write!(f, "DSTRK-LATCHLOOP"),
            Rule::LatchUsage => write!(f, "REQP-LATCH"),
            Rule::DanglingInput => write!(f, "NSTD-DANGLE"),
            Rule::UndrivenNet => write!(f, "NSTD-UNDRIVEN"),
        }
    }
}

/// One rule violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which rule fired.
    pub rule: Rule,
    /// How bad it is.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// The cells implicated (loop members, dangling cell, …).
    pub cells: Vec<CellId>,
}

/// Result of a DRC run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DrcReport {
    /// All violations found, errors first.
    pub violations: Vec<Violation>,
}

impl DrcReport {
    /// Number of `Error`-severity violations.
    pub fn error_count(&self) -> usize {
        self.violations.iter().filter(|v| v.severity == Severity::Error).count()
    }

    /// Whether the design would be accepted for deployment (no errors).
    pub fn is_deployable(&self) -> bool {
        self.error_count() == 0
    }

    /// Violations of one specific rule.
    pub fn of_rule(&self, rule: Rule) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(move |v| v.rule == rule)
    }
}

impl std::fmt::Display for DrcReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "drc: {} violation(s), {} error(s)",
            self.violations.len(),
            self.error_count()
        )?;
        for v in &self.violations {
            writeln!(f, "  [{}] {}: {}", v.severity, v.rule, v.message)?;
        }
        Ok(())
    }
}

/// Provider screening policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DrcPolicy {
    /// Escalate latch-broken feedback loops from advisories to errors —
    /// the FPGADefender-style self-oscillator scan the paper (§III-C,
    /// refs \[26\]\[27\]) names as the countermeasure that would catch its
    /// latch-based striker.
    pub ban_latch_loops: bool,
}

impl DrcPolicy {
    /// The state of practice the paper attacks: only combinational loops
    /// are rejected.
    pub fn standard() -> Self {
        DrcPolicy { ban_latch_loops: false }
    }

    /// A hardened provider that also scans for latch-broken oscillators.
    pub fn strict() -> Self {
        DrcPolicy { ban_latch_loops: true }
    }
}

/// Runs all design rules against a netlist under the standard policy.
///
/// # Example
///
/// ```
/// use fpga_fabric::netlist::Netlist;
/// use fpga_fabric::primitive::PrimitiveKind;
/// use fpga_fabric::drc::check;
///
/// // LUT -> LDCE -> back to LUT: loop is broken by the latch, design passes.
/// let mut n = Netlist::new("latched");
/// let lut = n.add_lut1_inverter("inv");
/// let latch = n.add_cell("l", PrimitiveKind::Ldce, None);
/// n.connect(n.output_of(lut), n.input_of(latch, 0)).unwrap();
/// n.connect(n.output_of(latch), n.input_of(lut, 0)).unwrap();
/// assert!(check(&n).is_deployable());
/// ```
pub fn check(netlist: &Netlist) -> DrcReport {
    check_with(netlist, DrcPolicy::standard())
}

/// Runs all design rules under an explicit policy.
pub fn check_with(netlist: &Netlist, policy: DrcPolicy) -> DrcReport {
    let mut violations = Vec::new();
    check_combinational_loops(netlist, &mut violations);
    check_latch_loops(netlist, policy, &mut violations);
    check_latch_usage(netlist, &mut violations);
    check_dangling(netlist, &mut violations);
    violations.sort_by_key(|v| std::cmp::Reverse(v.severity));
    DrcReport { violations }
}

/// Finds strongly connected components of the cell graph restricted to
/// combinational cells; any non-trivial SCC (or combinational self-loop) is
/// a `LUTLP-1` error.
fn check_combinational_loops(netlist: &Netlist, out: &mut Vec<Violation>) {
    let comb: Vec<CellId> =
        netlist.cells().filter(|(_, c)| !c.kind.is_sequential()).map(|(id, _)| id).collect();
    let sccs = sccs_over(netlist, &comb);
    for scc in sccs {
        let names: Vec<String> = scc.iter().map(|id| netlist.cell(*id).name.clone()).collect();
        out.push(Violation {
            rule: Rule::CombinationalLoop,
            severity: Severity::Error,
            message: format!(
                "combinational loop through {} cell(s): {}",
                scc.len(),
                names.join(" -> ")
            ),
            cells: scc,
        });
    }
}

/// Finds feedback loops that *do* pass through a latch. Under the standard
/// policy they are advisories (the state of practice the paper attacks);
/// under [`DrcPolicy::strict`] they are errors.
fn check_latch_loops(netlist: &Netlist, policy: DrcPolicy, out: &mut Vec<Violation>) {
    // Loops in the full graph (sequential cells included), restricted to
    // components containing at least one latch and no flip-flop-free pure
    // combinational cycle (those are already errors).
    let all: Vec<CellId> = netlist.cells().map(|(id, _)| id).collect();
    let sccs = sccs_over(netlist, &all);
    for scc in sccs {
        let has_latch = scc.iter().any(|id| netlist.cell(*id).kind == PrimitiveKind::Ldce);
        let all_comb_or_latch = scc.iter().all(|id| {
            let k = netlist.cell(*id).kind;
            !k.is_sequential() || k == PrimitiveKind::Ldce
        });
        if has_latch && all_comb_or_latch {
            out.push(Violation {
                rule: Rule::LatchInLoop,
                severity: if policy.ban_latch_loops { Severity::Error } else { Severity::Info },
                message: format!(
                    "feedback loop of {} cell(s) is broken only by transparent latches; \
                     it may self-oscillate if the gates are held open",
                    scc.len()
                ),
                cells: scc,
            });
        }
    }
}

fn check_latch_usage(netlist: &Netlist, out: &mut Vec<Violation>) {
    let latches: Vec<CellId> =
        netlist.cells().filter(|(_, c)| c.kind == PrimitiveKind::Ldce).map(|(id, _)| id).collect();
    if !latches.is_empty() {
        out.push(Violation {
            rule: Rule::LatchUsage,
            severity: Severity::Info,
            message: format!("{} latch(es) instantiated", latches.len()),
            cells: latches,
        });
    }
}

fn check_dangling(netlist: &Netlist, out: &mut Vec<Violation>) {
    for (id, cell) in netlist.cells() {
        let connected = cell.input_nets().count();
        // LUTs routinely leave upper inputs unused; only flag fully
        // unconnected cells, which indicate a broken generator.
        if connected == 0 && cell.kind.input_count() > 0 {
            out.push(Violation {
                rule: Rule::DanglingInput,
                severity: Severity::Warning,
                message: format!("cell {} has no connected inputs", cell.name),
                cells: vec![id],
            });
        }
    }
}

/// Tarjan SCC over the cell graph induced by `members`. Returns only
/// non-trivial SCCs (size > 1, or a self-loop).
fn sccs_over(netlist: &Netlist, members: &[CellId]) -> Vec<Vec<CellId>> {
    let index_of: HashMap<CellId, usize> =
        members.iter().enumerate().map(|(i, id)| (*id, i)).collect();
    let n = members.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut self_loop = vec![false; n];
    for (a, b) in netlist.cell_edges() {
        if let (Some(&ia), Some(&ib)) = (index_of.get(&a), index_of.get(&b)) {
            if ia == ib {
                self_loop[ia] = true;
            } else {
                adj[ia].push(ib);
            }
        }
    }

    // Iterative Tarjan.
    #[derive(Clone, Copy)]
    struct Frame {
        v: usize,
        edge: usize,
    }
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut result: Vec<Vec<CellId>> = Vec::new();

    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        let mut call: Vec<Frame> = vec![Frame { v: start, edge: 0 }];
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some(frame) = call.last_mut() {
            let v = frame.v;
            if frame.edge < adj[v].len() {
                let w = adj[v][frame.edge];
                frame.edge += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push(Frame { v: w, edge: 0 });
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(members[w]);
                        if w == v {
                            break;
                        }
                    }
                    if comp.len() > 1 || self_loop[index_of[&comp[0]]] {
                        result.push(comp);
                    }
                }
                let low_v = low[v];
                call.pop();
                if let Some(parent) = call.last() {
                    low[parent.v] = low[parent.v].min(low_v);
                }
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;

    fn ring_oscillator(stages: usize) -> Netlist {
        let mut n = Netlist::new("ro");
        let cells: Vec<_> = (0..stages).map(|i| n.add_lut1_inverter(&format!("inv{i}"))).collect();
        for i in 0..stages {
            let from = cells[i];
            let to = cells[(i + 1) % stages];
            n.connect(n.output_of(from), n.input_of(to, 0)).unwrap();
        }
        n
    }

    fn latched_loop() -> Netlist {
        // LUT6_2 dual inverter feeding two LDCEs, each feeding back: the
        // striker cell topology from the paper's Fig. 2.
        let mut n = Netlist::new("striker_cell");
        let lut = n.add_dual_inverter("lut");
        let l0 = n.add_cell("ldce0", PrimitiveKind::Ldce, None);
        let l1 = n.add_cell("ldce1", PrimitiveKind::Ldce, None);
        n.connect(n.output_pin(lut, 0), n.input_of(l0, 0)).unwrap(); // O6 -> D
        n.connect(n.output_pin(lut, 1), n.input_of(l1, 0)).unwrap(); // O5 -> D
        n.connect(n.output_of(l0), n.input_of(lut, 1)).unwrap(); // Q -> I1
        n.connect(n.output_of(l1), n.input_of(lut, 0)).unwrap(); // Q -> I0
        n
    }

    #[test]
    fn ring_oscillator_fails_lutlp1() {
        for stages in [1usize, 2, 3, 5] {
            let n = ring_oscillator(stages);
            let report = check(&n);
            assert!(!report.is_deployable(), "{stages}-stage RO must be rejected");
            let v = report.of_rule(Rule::CombinationalLoop).next().unwrap();
            assert_eq!(v.severity, Severity::Error);
            assert_eq!(v.cells.len(), stages);
        }
    }

    #[test]
    fn single_lut_self_loop_fails() {
        let mut n = Netlist::new("self");
        let a = n.add_lut1_inverter("a");
        n.connect(n.output_of(a), n.input_of(a, 0)).unwrap();
        assert!(!check(&n).is_deployable());
    }

    #[test]
    fn latch_based_striker_cell_passes_drc() {
        let n = latched_loop();
        let report = check(&n);
        assert!(report.is_deployable(), "latch loop must pass: {report}");
        // ...but the advisory must notice the oscillation-capable loop.
        assert!(report.of_rule(Rule::LatchInLoop).next().is_some());
        assert!(report.of_rule(Rule::LatchUsage).next().is_some());
    }

    #[test]
    fn strict_policy_catches_the_latch_loop() {
        let n = latched_loop();
        let standard = check_with(&n, DrcPolicy::standard());
        assert!(standard.is_deployable());
        let strict = check_with(&n, DrcPolicy::strict());
        assert!(!strict.is_deployable(), "hardened provider must reject: {strict}");
        let v = strict.of_rule(Rule::LatchInLoop).next().unwrap();
        assert_eq!(v.severity, Severity::Error);
        // A plain FF pipeline is unaffected by the strict policy.
        let mut ff = Netlist::new("pipe");
        let lut = ff.add_lut1_inverter("l");
        let reg = ff.add_cell("r", PrimitiveKind::Fdre, None);
        ff.connect(ff.output_of(lut), ff.input_of(reg, 0)).unwrap();
        ff.connect(ff.output_of(reg), ff.input_of(lut, 0)).unwrap();
        assert!(check_with(&ff, DrcPolicy::strict()).is_deployable());
    }

    #[test]
    fn flip_flop_pipeline_loop_is_fine_and_not_latch_flagged() {
        let mut n = Netlist::new("counter");
        let lut = n.add_lut1_inverter("inc");
        let ff = n.add_cell("ff", PrimitiveKind::Fdre, None);
        n.connect(n.output_of(lut), n.input_of(ff, 0)).unwrap();
        n.connect(n.output_of(ff), n.input_of(lut, 0)).unwrap();
        let report = check(&n);
        assert!(report.is_deployable());
        assert!(report.of_rule(Rule::LatchInLoop).next().is_none());
    }

    #[test]
    fn acyclic_design_has_no_loop_violations() {
        let mut n = Netlist::new("chain");
        let mut prev = n.add_lut1_inverter("l0");
        for i in 1..20 {
            let next = n.add_lut1_inverter(&format!("l{i}"));
            n.connect(n.output_of(prev), n.input_of(next, 0)).unwrap();
            prev = next;
        }
        let report = check(&n);
        assert!(report.of_rule(Rule::CombinationalLoop).next().is_none());
        assert!(report.is_deployable());
    }

    #[test]
    fn two_disjoint_ros_produce_two_violations() {
        let mut n = ring_oscillator(3);
        let a = n.add_lut1_inverter("x0");
        let b = n.add_lut1_inverter("x1");
        n.connect(n.output_of(a), n.input_of(b, 0)).unwrap();
        n.connect(n.output_of(b), n.input_of(a, 0)).unwrap();
        let report = check(&n);
        assert_eq!(report.of_rule(Rule::CombinationalLoop).count(), 2);
    }

    #[test]
    fn dangling_cells_warn_but_deploy() {
        let mut n = Netlist::new("d");
        n.add_lut1_inverter("floating");
        let report = check(&n);
        assert!(report.is_deployable());
        assert_eq!(report.of_rule(Rule::DanglingInput).count(), 1);
    }

    #[test]
    fn report_display_mentions_rule_ids() {
        let n = ring_oscillator(2);
        let text = check(&n).to_string();
        assert!(text.contains("LUTLP-1"));
        assert!(text.contains("error"));
    }
}
