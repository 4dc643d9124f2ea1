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
//! only change at cycle boundaries, so two sweeps track them. Both sweeps
//! run as one fused wavefront over the mesh's anti-diagonals (see
//! `SpatialPdn::relax`); a sweep is a deterministic map of the state, so a
//! mesh whose sweep leaves every node bit-unchanged stays pinned.
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
/// Anti-diagonals `x + y = d` of the mesh.
const DIAGS: usize = NX + NY - 1;
/// Diagonals by which sweep `s + 1` trails sweep `s` in the fused
/// wavefront. Any lag of at least 1 reads the row-major values (0 would
/// have sweep `s + 1` read diagonal `d + 1` before sweep `s` reaches it);
/// at 2 the diagonals one iteration updates never neighbour each other,
/// so their updates are independent.
const LAG: usize = 2;

/// Node indices grouped by anti-diagonal in ascending `d` (ascending `x`
/// within a diagonal), and where each diagonal's run starts:
/// diagonal `d` is `order[start[d]..start[d + 1]]`.
struct DiagonalOrder {
    order: [usize; NODES],
    start: [usize; DIAGS + 1],
}

static DIAGONALS: DiagonalOrder = diagonal_order();

const fn diagonal_order() -> DiagonalOrder {
    let mut order = [0; NODES];
    let mut start = [0; DIAGS + 1];
    let mut n = 0;
    let mut d = 0;
    while d < DIAGS {
        start[d] = n;
        let mut x = 0;
        while x < NX {
            if x <= d && d - x < NY {
                order[n] = (d - x) * NX + x;
                n += 1;
            }
            x += 1;
        }
        d += 1;
    }
    start[DIAGS] = n;
    DiagonalOrder { order, start }
}

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
    /// injected currents (`δ = 0` where nothing is drawn): `SWEEPS`
    /// row-major sweeps, run as one fused wavefront.
    ///
    /// In a row-major sweep a node reads its left and upper neighbours
    /// (anti-diagonal `d − 1`) from this sweep and its right and lower
    /// ones (`d + 1`) from the previous sweep, so the nodes of one
    /// diagonal never read each other. Iteration `k` therefore runs sweep
    /// `s` on diagonal `k − LAG·s`: each node reads exactly the values the
    /// row-major sweep gives it, the updates within an iteration are
    /// independent, and every float operation is the one the row-major
    /// sweep does. A missing neighbour contributes `+0.0` to the flow,
    /// still summed in left/right/up/down order, and the denominator comes
    /// from the precomputed `G_SUM` stencil.
    ///
    /// All `SWEEPS` always run. A sweep is a deterministic map of the
    /// state, so once one leaves every node bit-unchanged every later one
    /// does too: a settled mesh under a constant load is pinned bitwise.
    fn relax(&mut self) {
        for k in 0..DIAGS + LAG * (SWEEPS - 1) {
            for sweep in 0..SWEEPS {
                let Some(d) = k.checked_sub(LAG * sweep) else { break };
                if d < DIAGS {
                    self.relax_diagonal(d);
                }
            }
        }
    }

    /// One Gauss–Seidel update of every node on anti-diagonal `d`.
    fn relax_diagonal(&mut self, d: usize) {
        for &i in &DIAGONALS.order[DIAGONALS.start[d]..DIAGONALS.start[d + 1]] {
            let (x, y) = (i % NX, i / NX);
            let left = if x > 0 { G_MESH * self.delta[i - 1] } else { 0.0 };
            let right = if x + 1 < NX { G_MESH * self.delta[i + 1] } else { 0.0 };
            let up = if y > 0 { G_MESH * self.delta[i - NX] } else { 0.0 };
            let down = if y + 1 < NY { G_MESH * self.delta[i + NX] } else { 0.0 };
            self.delta[i] = (left + right + up + down - self.i_inj[i]) / G_SUM[i];
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
        /// Transient, steady-state and post-load-change phases of the
        /// fused wavefront all match the row-major reference exactly, for
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
    fn diagonal_table_visits_every_node_once_in_ascending_diagonals() {
        let DiagonalOrder { order, start } = &DIAGONALS;
        assert_eq!((start[0], start[DIAGS]), (0, NODES));
        let mut seen = [false; NODES];
        for d in 0..DIAGS {
            assert!(start[d] < start[d + 1], "diagonal {d} is empty");
            for &i in &order[start[d]..start[d + 1]] {
                assert_eq!(i % NX + i / NX, d, "node {i} filed under diagonal {d}");
                assert!(!seen[i], "node {i} visited twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every node is visited");
    }

    /// The premise of the snapshot engine's rejoin check: under a
    /// constant load, a mesh whose step leaves `δ` bit-unchanged stays
    /// bit-unchanged.
    #[test]
    fn settled_mesh_is_a_bitwise_fixed_point() {
        let mut g = SpatialPdn::new();
        g.inject(node(3, 7), 4.0);
        g.inject(node(12, 2), 1.5);
        let mut settled_after = None;
        for step in 0..5000 {
            let before = g.delta;
            g.step(1e-9);
            if before.map(f64::to_bits) == g.delta.map(f64::to_bits) {
                settled_after = Some(step);
                break;
            }
        }
        assert!(settled_after.is_some(), "δ still moving after 5000 steps");
        let settled = g.delta;
        for step in 0..100 {
            g.step(1e-9);
            assert!(
                settled.map(f64::to_bits) == g.delta.map(f64::to_bits),
                "δ moved {step} steps after settling"
            );
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
