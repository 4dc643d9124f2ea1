//! Spatial RC mesh on top of the lumped supply.
//!
//! The lumped model in [`crate::rlc`] captures the *global* droop every
//! tenant sees; this mesh adds the *local* gradient: a current transient
//! injected at the attacker's grid node droops nearby nodes more than
//! distant ones. The victim-vs-attacker floorplan distance therefore
//! modulates attack strength, as in the paper's Fig. 6a placement.
//!
//! Numerically, the node voltage is decomposed as
//! `v_node = v_die(t) + δ_node`: the *common-mode* component `v_die` comes
//! from the lumped transient model (global droop reaches every node within
//! one step, as it does physically through the power planes), while the
//! *local deviation* field `δ` solves the resistive mesh around the
//! injected currents. `δ` is quasi-static relative to the 1 ns step and is
//! relaxed by two warm-started Gauss–Seidel sweeps per step — injections
//! only change at cycle boundaries, so two sweeps track them.
//!
//! The mesh is the one modelled board's: 16×10 nodes, 5 S from each node
//! to the rail and 125 S between neighbours, fixed as private constants.

use crate::error::{PdnError, Result};
use crate::rlc::LumpedPdn;

/// Mesh nodes in x.
const NX: usize = 16;
/// Mesh nodes in y.
const NY: usize = 10;
/// Mesh node count.
const NODES: usize = NX * NY;
/// Conductance from each node up to the die-level rail, in siemens.
const G_SUPPLY: f64 = 5.0;
/// Conductance between neighbouring nodes, in siemens. With
/// λ = √(G_MESH/G_SUPPLY) ≈ 5 node spacings, local droop decays to ~1/e
/// five nodes away, so cross-die placement attenuates the local
/// component substantially while the global droop is fully shared.
const G_MESH: f64 = 125.0;
/// Gauss–Seidel sweeps per step: warm-started from the previous step's
/// field, two sweeps track the cycle-boundary load changes.
const SWEEPS: usize = 2;

/// Per-node total conductance (supply + present neighbours) — the
/// Gauss–Seidel denominator, accumulated in the same left/right/up/down
/// order the relaxation visits neighbours in.
static G_SUM: [f64; NODES] = stencil_denominators();

const fn stencil_denominators() -> [f64; NODES] {
    let mut g_sum = [0.0; NODES];
    let mut i = 0;
    while i < NODES {
        let (x, y) = (i % NX, i / NX);
        let mut g = G_SUPPLY;
        if x > 0 {
            g += G_MESH;
        }
        if x + 1 < NX {
            g += G_MESH;
        }
        if y > 0 {
            g += G_MESH;
        }
        if y + 1 < NY {
            g += G_MESH;
        }
        g_sum[i] = g;
        i += 1;
    }
    g_sum
}

/// A node coordinate on the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId {
    /// Column.
    pub x: usize,
    /// Row.
    pub y: usize,
}

/// Spatial PDN: lumped transient backbone + resistive mesh.
///
/// # Example
///
/// ```
/// use pdn::grid::{NodeId, SpatialPdn};
///
/// let mut g = SpatialPdn::new();
/// let attacker = NodeId { x: 1, y: 1 };
/// let victim = NodeId { x: 14, y: 8 };
/// g.inject(attacker, 6.0)?;
/// for _ in 0..20 { g.step(1e-9); }
/// assert!(g.voltage_at(attacker)? < g.voltage_at(victim)?);
/// # Ok::<(), pdn::PdnError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialPdn {
    lumped: LumpedPdn,
    /// Local deviation below the die rail, per node.
    delta: Vec<f64>,
    i_inj: Vec<f64>,
}

impl SpatialPdn {
    /// Creates a mesh at the unloaded operating point.
    pub fn new() -> Self {
        SpatialPdn { lumped: LumpedPdn::new(), delta: vec![0.0; NODES], i_inj: vec![0.0; NODES] }
    }

    fn index(&self, node: NodeId) -> Result<usize> {
        if node.x >= NX || node.y >= NY {
            return Err(PdnError::OutOfRange(format!("node ({}, {})", node.x, node.y)));
        }
        Ok(node.y * NX + node.x)
    }

    /// Sets the current drawn at `node` (amps); replaces any previous value
    /// for that node.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::OutOfRange`] for coordinates off the mesh and
    /// [`PdnError::InvalidParameter`] for negative or non-finite current.
    pub fn inject(&mut self, node: NodeId, amps: f64) -> Result<()> {
        if !(amps.is_finite() && amps >= 0.0) {
            return Err(PdnError::InvalidParameter { name: "amps", value: amps });
        }
        let i = self.index(node)?;
        self.i_inj[i] = amps;
        Ok(())
    }

    /// Total injected current in amps.
    pub fn total_load(&self) -> f64 {
        self.i_inj.iter().sum()
    }

    /// Advances the lumped backbone one step and relaxes the local
    /// deviation field. Returns the die-level (lumped) voltage.
    pub fn step(&mut self, dt: f64) -> f64 {
        let total = self.total_load();
        let v_die = self.lumped.step(total, dt);
        self.relax();
        v_die
    }

    /// Gauss–Seidel relaxation of the local deviation field `δ` around the
    /// injected currents (`δ = 0` where nothing is drawn).
    ///
    /// Optimised form of the original 8-branch-per-node sweep: the
    /// denominator comes from the precomputed `G_SUM` stencil, interior
    /// nodes run a branch-free inner loop, and the sweep loop exits as
    /// soon as one full sweep leaves every node bit-unchanged (a
    /// Gauss–Seidel sweep is a deterministic map, so once it is the
    /// identity every remaining sweep would be too — results are exactly
    /// those of always running `SWEEPS` sweeps). Warm-started steady
    /// states therefore pay for one sweep.
    fn relax(&mut self) {
        debug_assert_eq!(self.delta.len(), NODES);
        for _ in 0..SWEEPS {
            let mut changed = false;
            for y in 0..NY {
                let row = y * NX;
                let up = y > 0;
                let down = y + 1 < NY;
                self.relax_node(row, false, true, up, down, &mut changed);
                if up && down {
                    // Interior rows: all four neighbours exist —
                    // branch-free flow accumulation in the same
                    // left/right/up/down order as the general case.
                    for x in 1..NX - 1 {
                        let i = row + x;
                        let flow = G_MESH * self.delta[i - 1]
                            + G_MESH * self.delta[i + 1]
                            + G_MESH * self.delta[i - NX]
                            + G_MESH * self.delta[i + NX];
                        let v = (flow - self.i_inj[i]) / G_SUM[i];
                        changed |= v.to_bits() != self.delta[i].to_bits();
                        self.delta[i] = v;
                    }
                } else {
                    for x in 1..NX - 1 {
                        self.relax_node(row + x, true, true, up, down, &mut changed);
                    }
                }
                self.relax_node(row + NX - 1, true, false, up, down, &mut changed);
            }
            if !changed {
                break;
            }
        }
    }

    /// One Gauss–Seidel node update with explicit neighbour presence.
    #[inline]
    fn relax_node(
        &mut self,
        i: usize,
        left: bool,
        right: bool,
        up: bool,
        down: bool,
        changed: &mut bool,
    ) {
        let mut flow = 0.0;
        if left {
            flow += G_MESH * self.delta[i - 1];
        }
        if right {
            flow += G_MESH * self.delta[i + 1];
        }
        if up {
            flow += G_MESH * self.delta[i - NX];
        }
        if down {
            flow += G_MESH * self.delta[i + NX];
        }
        let v = (flow - self.i_inj[i]) / G_SUM[i];
        *changed |= v.to_bits() != self.delta[i].to_bits();
        self.delta[i] = v;
    }

    /// Voltage at a mesh node in volts (`v_die + δ_node`).
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::OutOfRange`] for coordinates off the mesh.
    pub fn voltage_at(&self, node: NodeId) -> Result<f64> {
        Ok(self.lumped.voltage() + self.delta[self.index(node)?])
    }

    /// Maps a normalised floorplan position (`0..=1` in both axes) to the
    /// nearest mesh node.
    pub fn node_at_fraction(&self, fx: f64, fy: f64) -> NodeId {
        let x = ((fx.clamp(0.0, 1.0)) * (NX - 1) as f64).round() as usize;
        let y = ((fy.clamp(0.0, 1.0)) * (NY - 1) as f64).round() as usize;
        NodeId { x, y }
    }
}

impl Default for SpatialPdn {
    fn default() -> Self {
        SpatialPdn::new()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn settled_grid() -> SpatialPdn {
        let mut g = SpatialPdn::new();
        for _ in 0..5000 {
            g.step(1e-9);
        }
        g
    }

    /// The original, unoptimised Gauss–Seidel sweep: always runs all
    /// `SWEEPS` passes, recomputing the stencil denominator per node.
    fn reference_relax(g: &mut SpatialPdn) {
        for _ in 0..SWEEPS {
            for y in 0..NY {
                for x in 0..NX {
                    let i = y * NX + x;
                    let mut g_sum = G_SUPPLY;
                    let mut flow = 0.0;
                    if x > 0 {
                        g_sum += G_MESH;
                        flow += G_MESH * g.delta[i - 1];
                    }
                    if x + 1 < NX {
                        g_sum += G_MESH;
                        flow += G_MESH * g.delta[i + 1];
                    }
                    if y > 0 {
                        g_sum += G_MESH;
                        flow += G_MESH * g.delta[i - NX];
                    }
                    if y + 1 < NY {
                        g_sum += G_MESH;
                        flow += G_MESH * g.delta[i + NX];
                    }
                    g.delta[i] = (flow - g.i_inj[i]) / g_sum;
                }
            }
        }
    }

    #[test]
    fn fast_relax_is_bit_identical_to_reference() {
        // Transient, steady-state (early-exit) and post-load-change
        // phases must all match the always-`SWEEPS` reference exactly.
        let mut fast = SpatialPdn::new();
        let mut reference = fast.clone();
        let node = NodeId { x: 0, y: NY - 1 };
        fast.inject(node, 2.5).unwrap();
        reference.inject(node, 2.5).unwrap();
        for step in 0..600 {
            if step == 400 {
                // Mid-run load change re-excites the field.
                fast.inject(node, 0.0).unwrap();
                reference.inject(node, 0.0).unwrap();
            }
            fast.step(1e-9);
            let v = reference.lumped.step(reference.total_load(), 1e-9);
            reference_relax(&mut reference);
            assert!(v.to_bits() == fast.lumped.voltage().to_bits());
            for (i, (a, b)) in fast.delta.iter().zip(&reference.delta).enumerate() {
                assert!(a.to_bits() == b.to_bits(), "step {step} node {i}: {a:e} vs {b:e}");
            }
        }
    }

    #[test]
    fn unloaded_mesh_sits_at_rail() {
        let g = settled_grid();
        for y in 0..NY {
            for x in 0..NX {
                let v = g.voltage_at(NodeId { x, y }).unwrap();
                assert!((v - 1.0).abs() < 1e-3, "node ({x},{y}) at {v}");
            }
        }
    }

    #[test]
    fn local_injection_droops_near_more_than_far() {
        let mut g = settled_grid();
        let near = NodeId { x: 1, y: 1 };
        let mid = NodeId { x: 8, y: 5 };
        let far = NodeId { x: 15, y: 9 };
        g.inject(near, 6.0).unwrap();
        for _ in 0..50 {
            g.step(1e-9);
        }
        let vn = g.voltage_at(near).unwrap();
        let vm = g.voltage_at(mid).unwrap();
        let vf = g.voltage_at(far).unwrap();
        assert!(vn < vm && vm < vf, "monotone decay violated: {vn} {vm} {vf}");
        // Everyone shares the global droop.
        assert!(vf < 1.0 - 0.01, "far node must still see global droop: {vf}");
    }

    #[test]
    fn injection_bookkeeping() {
        let mut g = SpatialPdn::new();
        g.inject(NodeId { x: 0, y: 0 }, 1.0).unwrap();
        g.inject(NodeId { x: 2, y: 3 }, 2.5).unwrap();
        assert!((g.total_load() - 3.5).abs() < 1e-12);
        g.inject(NodeId { x: 0, y: 0 }, 0.25).unwrap();
        assert!((g.total_load() - 2.75).abs() < 1e-12, "inject replaces");
    }

    #[test]
    fn bad_injections_rejected() {
        let mut g = SpatialPdn::new();
        assert!(g.inject(NodeId { x: 99, y: 0 }, 1.0).is_err());
        assert!(g.inject(NodeId { x: 0, y: 0 }, -1.0).is_err());
        assert!(g.inject(NodeId { x: 0, y: 0 }, f64::NAN).is_err());
        assert!(g.voltage_at(NodeId { x: 0, y: 99 }).is_err());
    }

    #[test]
    fn fraction_mapping_hits_corners() {
        let g = SpatialPdn::new();
        assert_eq!(g.node_at_fraction(0.0, 0.0), NodeId { x: 0, y: 0 });
        assert_eq!(g.node_at_fraction(1.0, 1.0), NodeId { x: 15, y: 9 });
        assert_eq!(g.node_at_fraction(-3.0, 7.0), NodeId { x: 0, y: 9 }, "clamped");
    }

    #[test]
    fn attenuation_length_is_in_design_band() {
        let lambda = (G_MESH / G_SUPPLY).sqrt();
        assert!((lambda - 5.0).abs() < 1e-12, "λ = {lambda} node spacings");
    }
}
