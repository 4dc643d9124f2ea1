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
//! Geometry and node addressing live in this module alone: the node state
//! is two `[f64; NODES]` arrays, and a [`NodeId`] is made only by
//! [`SpatialPdn::node_at_fraction`], so every `NodeId` is on the mesh and
//! [`SpatialPdn::inject`] and [`SpatialPdn::voltage_at`] cannot fail.

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

/// A mesh node. Only [`SpatialPdn::node_at_fraction`] makes one, so every
/// `NodeId` addresses a node of the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// Spatial PDN: lumped transient backbone + resistive mesh.
///
/// # Example
///
/// ```
/// use pdn::grid::SpatialPdn;
///
/// let mut g = SpatialPdn::new();
/// let attacker = g.node_at_fraction(0.1, 0.1);
/// let victim = g.node_at_fraction(0.9, 0.9);
/// g.inject(attacker, 6.0);
/// for _ in 0..20 { g.step(1e-9); }
/// assert!(g.voltage_at(attacker) < g.voltage_at(victim));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialPdn {
    lumped: LumpedPdn,
    /// Local deviation below the die rail, per node.
    delta: [f64; NODES],
    i_inj: [f64; NODES],
}

impl SpatialPdn {
    /// Creates a mesh at the unloaded operating point.
    pub fn new() -> Self {
        SpatialPdn { lumped: LumpedPdn::new(), delta: [0.0; NODES], i_inj: [0.0; NODES] }
    }

    /// Sets the current drawn at `node` (amps, finite and non-negative);
    /// replaces any previous value for that node.
    pub fn inject(&mut self, node: NodeId, amps: f64) {
        debug_assert!(amps.is_finite() && amps >= 0.0, "injected current {amps} A");
        self.i_inj[node.0] = amps;
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
    /// One loop visits every node in row-major order. A missing neighbour
    /// contributes `+0.0` to the flow, still summed in left/right/up/down
    /// order, and the denominator comes from the precomputed `G_SUM`
    /// stencil. The sweep loop exits as soon as one full sweep leaves
    /// every node bit-unchanged (a Gauss–Seidel sweep is a deterministic
    /// map, so once it is the identity every remaining sweep would be
    /// too — results are exactly those of always running `SWEEPS`
    /// sweeps). Warm-started steady states therefore pay for one sweep.
    fn relax(&mut self) {
        for _ in 0..SWEEPS {
            let mut changed = false;
            for (i, g_sum) in G_SUM.iter().enumerate() {
                let (x, y) = (i % NX, i / NX);
                let left = if x > 0 { G_MESH * self.delta[i - 1] } else { 0.0 };
                let right = if x + 1 < NX { G_MESH * self.delta[i + 1] } else { 0.0 };
                let up = if y > 0 { G_MESH * self.delta[i - NX] } else { 0.0 };
                let down = if y + 1 < NY { G_MESH * self.delta[i + NX] } else { 0.0 };
                let v = (left + right + up + down - self.i_inj[i]) / g_sum;
                changed |= v.to_bits() != self.delta[i].to_bits();
                self.delta[i] = v;
            }
            if !changed {
                break;
            }
        }
    }

    /// Voltage at a mesh node in volts (`v_die + δ_node`).
    pub fn voltage_at(&self, node: NodeId) -> f64 {
        self.lumped.voltage() + self.delta[node.0]
    }

    /// Maps a normalised floorplan position (`0..=1` in both axes, clamped)
    /// to the nearest mesh node.
    pub fn node_at_fraction(&self, fx: f64, fy: f64) -> NodeId {
        let x = ((fx.clamp(0.0, 1.0)) * (NX - 1) as f64).round() as usize;
        let y = ((fy.clamp(0.0, 1.0)) * (NY - 1) as f64).round() as usize;
        NodeId(y * NX + x)
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
    use proptest::prelude::*;

    fn node(x: usize, y: usize) -> NodeId {
        assert!(x < NX && y < NY, "({x}, {y}) is off the mesh");
        NodeId(y * NX + x)
    }

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

    proptest! {
        /// Transient, steady-state (early-exit) and post-load-change
        /// phases all match the always-`SWEEPS` reference exactly, for
        /// loads at random nodes (edges by chance, all four corners every
        /// case) that switch on, change and switch off mid-run.
        #[test]
        fn fast_relax_is_bit_identical_to_reference(
            corner_amps in prop::collection::vec(0.0f64..3.0, 4),
            changes in prop::collection::vec(
                ((0usize..NX, 0usize..NY), 0.0f64..6.0, any::<bool>(), 0usize..250),
                1..12,
            ),
        ) {
            let mut fast = SpatialPdn::new();
            let mut reference = fast.clone();
            for (&amps, (x, y)) in corner_amps.iter().zip([(0, 0), (NX - 1, 0), (0, NY - 1), (NX - 1, NY - 1)]) {
                fast.inject(node(x, y), amps);
                reference.inject(node(x, y), amps);
            }
            for step in 0..400 {
                for &((x, y), amps, off, at) in &changes {
                    if at == step {
                        let amps = if off { 0.0 } else { amps };
                        fast.inject(node(x, y), amps);
                        reference.inject(node(x, y), amps);
                    }
                }
                fast.step(1e-9);
                let v = reference.lumped.step(reference.total_load(), 1e-9);
                reference_relax(&mut reference);
                prop_assert!(v.to_bits() == fast.lumped.voltage().to_bits());
                for (i, (a, b)) in fast.delta.iter().zip(&reference.delta).enumerate() {
                    prop_assert!(a.to_bits() == b.to_bits(), "step {step} node {i}: {a:e} vs {b:e}");
                }
            }
        }
    }

    #[test]
    fn unloaded_mesh_sits_at_rail() {
        let g = settled_grid();
        for y in 0..NY {
            for x in 0..NX {
                let v = g.voltage_at(node(x, y));
                assert!((v - 1.0).abs() < 1e-3, "node ({x},{y}) at {v}");
            }
        }
    }

    #[test]
    fn local_injection_droops_near_more_than_far() {
        let mut g = settled_grid();
        let near = node(1, 1);
        let mid = node(8, 5);
        let far = node(15, 9);
        g.inject(near, 6.0);
        for _ in 0..50 {
            g.step(1e-9);
        }
        let vn = g.voltage_at(near);
        let vm = g.voltage_at(mid);
        let vf = g.voltage_at(far);
        assert!(vn < vm && vm < vf, "monotone decay violated: {vn} {vm} {vf}");
        // Everyone shares the global droop.
        assert!(vf < 1.0 - 0.01, "far node must still see global droop: {vf}");
    }

    #[test]
    fn injection_bookkeeping() {
        let mut g = SpatialPdn::new();
        g.inject(node(0, 0), 1.0);
        g.inject(node(2, 3), 2.5);
        assert!((g.total_load() - 3.5).abs() < 1e-12);
        g.inject(node(0, 0), 0.25);
        assert!((g.total_load() - 2.75).abs() < 1e-12, "inject replaces");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "injected current")]
    fn negative_injection_trips_the_debug_precondition() {
        SpatialPdn::new().inject(node(0, 0), -1.0);
    }

    #[test]
    fn fraction_mapping_hits_corners() {
        let g = SpatialPdn::new();
        assert_eq!(g.node_at_fraction(0.0, 0.0), node(0, 0));
        assert_eq!(g.node_at_fraction(1.0, 1.0), node(15, 9));
        assert_eq!(g.node_at_fraction(-3.0, 7.0), node(0, 9), "clamped");
        assert_eq!(g.node_at_fraction(f64::NAN, f64::INFINITY), node(0, 9), "non-finite");
    }

    #[test]
    fn attenuation_length_is_in_design_band() {
        let lambda = (G_MESH / G_SUPPLY).sqrt();
        assert!((lambda - 5.0).abs() < 1e-12, "λ = {lambda} node spacings");
    }
}
