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
//! only change at cycle boundaries, so two sweeps track them. A sweep is a
//! deterministic map of the state, so a mesh whose sweep leaves every node
//! bit-unchanged stays pinned.
//!
//! The mesh is the one modelled board's: 16×10 nodes, 5 S from each node
//! to the rail and 125 S between neighbours, fixed as private constants.
//! `δ` and the injected currents live in a zero-padded *diagonal-major
//! plane*: row `d + 1` holds the anti-diagonal `x + y = d` at column
//! `y + 1`, and every other cell is a pad that stays `+0.0`. A node's four
//! neighbours then sit in contiguous runs of the rows above and below it,
//! and a missing neighbour reads a pad. [`SpatialPdn::run_cycle`] advances
//! a whole victim cycle — every substep's lumped step, then all its sweeps
//! as one wavefront over the plane — and [`SpatialPdn::step`] is its
//! one-substep case. [`MeshState`] is the compact row-major copy of the
//! state, for callers that keep many.
//!
//! Geometry and node addressing live in this module alone: a [`NodeId`]
//! is made only by [`SpatialPdn::node_at_fraction`], so every `NodeId` is
//! on the mesh and [`SpatialPdn::inject`] and [`SpatialPdn::voltage_at`]
//! cannot fail.

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
/// Plane rows: one per anti-diagonal, plus a pad row at each end.
const ROWS: usize = DIAGS + 2;
/// Plane columns: one per `y`, plus a pad column at each end.
const COLS: usize = NY + 2;
/// Substeps one wavefront pass fuses; a longer cycle runs as consecutive
/// passes, which do the same float operations in the same order.
const FUSED: usize = 16;

/// A diagonal-major plane of per-node values (see the module docs).
type Plane = [[f64; COLS]; ROWS];

/// Flat plane offset of node `(x, y)`: row `x + y + 1`, column `y + 1`.
/// Its left and upper neighbours then sit on the row above at columns
/// `y + 1` and `y`, its right and lower ones on the row below at `y + 1`
/// and `y + 2`, and a neighbour off the mesh is a pad cell.
const fn cell(x: usize, y: usize) -> usize {
    (x + y + 1) * COLS + y + 1
}

/// Plane offsets of the nodes in row-major order (`y` outer, `x` inner):
/// the order the total load is summed in and [`MeshState`] stores.
static ROW_MAJOR: [usize; NODES] = row_major_offsets();

const fn row_major_offsets() -> [usize; NODES] {
    let mut offsets = [0; NODES];
    let mut i = 0;
    while i < NODES {
        offsets[i] = cell(i % NX, i / NX);
        i += 1;
    }
    offsets
}

/// Where each anti-diagonal's update runs on its row, as `(start, pairs)`:
/// columns `start..start + 2·pairs`. The window covers the diagonal's
/// nodes rounded up to whole pairs of cells, so each pair's two divides
/// pack into one `divpd`, and it stays between the pad columns; its
/// off-mesh cells are written through the `ON_MESH` mask as `+0.0`.
static WINDOWS: [(usize, usize); DIAGS] = diagonal_windows();

const fn diagonal_windows() -> [(usize, usize); DIAGS] {
    let mut windows = [(0, 0); DIAGS];
    let mut d = 0;
    while d < DIAGS {
        let y_lo = if d < NX { 0 } else { d + 1 - NX };
        let y_hi = if d < NY { d } else { NY - 1 };
        let pairs = (y_hi - y_lo + 2) / 2;
        let last_start = NY + 1 - 2 * pairs;
        windows[d] = (if y_lo + 1 < last_start { y_lo + 1 } else { last_start }, pairs);
        d += 1;
    }
    windows
}

/// Per-node total conductance (supply + present neighbours) — the
/// Gauss–Seidel denominator, accumulated in the same left/right/up/down
/// order the relaxation visits neighbours in — laid out on the plane,
/// with `1.0` in pad cells.
static G_SUM: Plane = stencil_planes().0;
/// All ones on a node's cell, zero on a pad: the mask that writes a
/// window's off-mesh cells as `+0.0`.
static ON_MESH: [[u64; COLS]; ROWS] = stencil_planes().1;

const fn stencil_planes() -> (Plane, [[u64; COLS]; ROWS]) {
    let mut g_sum = [[1.0; COLS]; ROWS];
    let mut on_mesh = [[0; COLS]; ROWS];
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
        g_sum[x + y + 1][y + 1] = g;
        on_mesh[x + y + 1][y + 1] = u64::MAX;
        i += 1;
    }
    (g_sum, on_mesh)
}

/// A mesh node: its flat offset on the plane. Only
/// [`SpatialPdn::node_at_fraction`] makes one, so every `NodeId`
/// addresses a node of the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

impl NodeId {
    /// The anti-diagonal the node lies on.
    fn diagonal(self) -> usize {
        self.0 / COLS - 1
    }
}

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
    delta: Plane,
    i_inj: Plane,
}

/// A row-major copy of a [`SpatialPdn`]'s state without the plane's pad
/// cells, about half the mesh's size: for callers that keep many states
/// and compare a live mesh against them with [`SpatialPdn::matches`].
#[derive(Debug, Clone, PartialEq)]
pub struct MeshState {
    lumped: LumpedPdn,
    delta: [f64; NODES],
    i_inj: [f64; NODES],
}

impl SpatialPdn {
    /// Creates a mesh at the unloaded operating point.
    pub fn new() -> Self {
        SpatialPdn {
            lumped: LumpedPdn::new(),
            delta: [[0.0; COLS]; ROWS],
            i_inj: [[0.0; COLS]; ROWS],
        }
    }

    /// Sets the current drawn at `node` (amps, finite and non-negative);
    /// replaces any previous value for that node.
    pub fn inject(&mut self, node: NodeId, amps: f64) {
        debug_assert!(amps.is_finite() && amps >= 0.0, "injected current {amps} A");
        self.i_inj.as_flattened_mut()[node.0] = amps;
    }

    /// Total injected current in amps, summed in row-major node order.
    pub fn total_load(&self) -> f64 {
        let i_inj = self.i_inj.as_flattened();
        ROW_MAJOR.iter().map(|&o| i_inj[o]).sum()
    }

    /// Advances the lumped backbone one step and relaxes the local
    /// deviation field: [`run_cycle`](Self::run_cycle) with one substep.
    /// Returns the die-level (lumped) voltage.
    pub fn step(&mut self, dt: f64) -> f64 {
        self.run_cycle(dt, 1, [], |_| {});
        self.lumped.voltage()
    }

    /// Advances `substeps` steps of `dt` under the present loads, calling
    /// `each` after every substep, in order, with the voltage at each of
    /// the `probes` — what [`voltage_at`](Self::voltage_at) would read
    /// after a [`step`](Self::step) per substep, bit for bit.
    ///
    /// Loads are constant for the whole call and the relax never reads
    /// the lumped state, so the total load is summed once, the lumped
    /// steps run first, and all `SWEEPS · substeps` sweeps run as one
    /// wavefront. Cycles of more than `FUSED` substeps run as consecutive
    /// passes; nothing allocates.
    pub fn run_cycle<const P: usize>(
        &mut self,
        dt: f64,
        substeps: usize,
        probes: [NodeId; P],
        mut each: impl FnMut([f64; P]),
    ) {
        let total = self.total_load();
        let mut v_die = [0.0; FUSED];
        let mut deltas = [[0.0; P]; FUSED];
        let mut left = substeps;
        while left > 0 {
            let n = left.min(FUSED);
            for v in &mut v_die[..n] {
                *v = self.lumped.step(total, dt);
            }
            self.wavefront(n, &probes, &mut deltas);
            for (&v, at) in v_die[..n].iter().zip(&deltas) {
                each(at.map(|delta| v + delta));
            }
            left -= n;
        }
    }

    /// Gauss–Seidel relaxation of `δ` around the injected currents
    /// (`δ = 0` where nothing is drawn): `SWEEPS · substeps` row-major
    /// sweeps, run as one fused wavefront, recording `δ` at each probe
    /// after each substep's last sweep.
    ///
    /// In a row-major sweep a node reads its left and upper neighbours
    /// (anti-diagonal `d − 1`) from this sweep and its right and lower
    /// ones (`d + 1`) from the previous sweep, so the nodes of one
    /// diagonal never read each other. Iteration `k` therefore runs sweep
    /// `s` on diagonal `k − LAG·s`: each node reads exactly the values the
    /// row-major sweep gives it, the updates within an iteration are
    /// independent, and every float operation is the one the row-major
    /// sweep does. Sweep `s` passes a probe on diagonal `p` in iteration
    /// `p + LAG·s`, and no sweep touches it again before iteration
    /// `p + LAG·(s + 1)`, so the probe is read at the end of that
    /// iteration.
    ///
    /// All sweeps always run. A sweep is a deterministic map of the
    /// state, so once one leaves every node bit-unchanged every later one
    /// does too: a settled mesh under a constant load is pinned bitwise.
    fn wavefront<const P: usize>(
        &mut self,
        substeps: usize,
        probes: &[NodeId; P],
        deltas: &mut [[f64; P]; FUSED],
    ) {
        let sweeps = SWEEPS * substeps;
        for k in 0..DIAGS + LAG * (sweeps - 1) {
            let first = (k + 1).saturating_sub(DIAGS).div_ceil(LAG);
            let last = (k / LAG).min(sweeps - 1);
            for s in first..=last {
                self.update_diagonal(k - LAG * s);
            }
            for (i, probe) in probes.iter().enumerate() {
                let Some(lead) = k.checked_sub(probe.diagonal()) else { continue };
                let s = lead / LAG;
                if lead % LAG == 0 && s < sweeps && s % SWEEPS == SWEEPS - 1 {
                    deltas[s / SWEEPS][i] = self.delta.as_flattened()[probe.0];
                }
            }
        }
    }

    /// One Gauss–Seidel update of every node on anti-diagonal `d`, over
    /// the diagonal's window (a constant pair count lets its loop unroll;
    /// the widest diagonal has `NY / 2` pairs).
    #[inline(always)]
    fn update_diagonal(&mut self, d: usize) {
        let (start, pairs) = WINDOWS[d];
        match pairs {
            1 => self.update_window::<1>(d, start),
            2 => self.update_window::<2>(d, start),
            3 => self.update_window::<3>(d, start),
            4 => self.update_window::<4>(d, start),
            _ => self.update_window::<{ NY / 2 }>(d, start),
        }
    }

    /// Updates the `PAIRS` pairs of cells from column `start` on row
    /// `d + 1`. Each cell reads its left and upper neighbours from the row
    /// above and its right and lower ones from the row below, as four
    /// contiguous runs; a missing neighbour reads a `+0.0` pad, so the
    /// flow is still summed in left/right/up/down order with `+0.0` in its
    /// place, and the denominator comes from the `G_SUM` plane.
    #[inline(always)]
    fn update_window<const PAIRS: usize>(&mut self, d: usize, start: usize) {
        let n = 2 * PAIRS;
        let (above, rest) = self.delta.split_at_mut(d + 1);
        let (row, below) = rest.split_at_mut(1);
        let (prev, next) = (&above[d], &below[0]);
        let cells = row[0][start..][..n]
            .chunks_exact_mut(2)
            .zip(prev[start..][..n].chunks_exact(2))
            .zip(next[start..][..n].chunks_exact(2))
            .zip(prev[start - 1..][..n].chunks_exact(2))
            .zip(next[start + 1..][..n].chunks_exact(2))
            .zip(self.i_inj[d + 1][start..][..n].chunks_exact(2))
            .zip(G_SUM[d + 1][start..][..n].chunks_exact(2))
            .zip(ON_MESH[d + 1][start..][..n].chunks_exact(2));
        for (((((((out, left), right), up), down), i_inj), g_sum), on_mesh) in cells {
            for c in 0..2 {
                let flow = G_MESH * left[c] + G_MESH * right[c] + G_MESH * up[c] + G_MESH * down[c];
                let delta = (flow - i_inj[c]) / g_sum[c];
                out[c] = f64::from_bits(delta.to_bits() & on_mesh[c]);
            }
        }
    }

    /// Voltage at a mesh node in volts (`v_die + δ_node`).
    pub fn voltage_at(&self, node: NodeId) -> f64 {
        self.lumped.voltage() + self.delta.as_flattened()[node.0]
    }

    /// Maps a normalised floorplan position (`0..=1` in both axes, clamped)
    /// to the nearest mesh node.
    pub fn node_at_fraction(&self, fx: f64, fy: f64) -> NodeId {
        let x = ((fx.clamp(0.0, 1.0)) * (NX - 1) as f64).round() as usize;
        let y = ((fy.clamp(0.0, 1.0)) * (NY - 1) as f64).round() as usize;
        NodeId(cell(x, y))
    }

    /// The mesh's state, row-major and without pads.
    pub fn state(&self) -> MeshState {
        let (delta, i_inj) = (self.delta.as_flattened(), self.i_inj.as_flattened());
        MeshState {
            lumped: self.lumped.clone(),
            delta: ROW_MAJOR.map(|o| delta[o]),
            i_inj: ROW_MAJOR.map(|o| i_inj[o]),
        }
    }

    /// Whether this mesh equals `state` field by field, with `f64`
    /// equality, as `==` compares two meshes.
    pub fn matches(&self, state: &MeshState) -> bool {
        let (delta, i_inj) = (self.delta.as_flattened(), self.i_inj.as_flattened());
        self.lumped == state.lumped
            && ROW_MAJOR.iter().zip(&state.delta).all(|(&o, &d)| delta[o] == d)
            && ROW_MAJOR.iter().zip(&state.i_inj).all(|(&o, &i)| i_inj[o] == i)
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
        NodeId(cell(x, y))
    }

    fn settled_grid() -> SpatialPdn {
        let mut g = SpatialPdn::new();
        for _ in 0..5000 {
            g.step(1e-9);
        }
        g
    }

    /// The original, unoptimised Gauss–Seidel sweep over a row-major
    /// state: always runs all `SWEEPS` passes, recomputing the stencil
    /// denominator per node.
    fn reference_relax(g: &mut MeshState) {
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

    /// One reference step: the lumped step under the row-major total
    /// load, then [`reference_relax`]. Returns the die voltage.
    fn reference_step(g: &mut MeshState, dt: f64) -> f64 {
        let total = g.i_inj.iter().sum();
        let v = g.lumped.step(total, dt);
        reference_relax(g);
        v
    }

    /// Sets a load on both meshes.
    fn inject_both(
        fast: &mut SpatialPdn,
        reference: &mut MeshState,
        (x, y): (usize, usize),
        amps: f64,
    ) {
        fast.inject(node(x, y), amps);
        reference.i_inj[y * NX + x] = amps;
    }

    /// Whether the fast mesh's whole state is bitwise the reference's.
    fn bitwise_equal(fast: &SpatialPdn, reference: &MeshState) -> Result<(), String> {
        let state = fast.state();
        let lumped = |l: &LumpedPdn| [l.voltage().to_bits(), l.inductor_current().to_bits()];
        if lumped(&state.lumped) != lumped(&reference.lumped) {
            return Err(format!("lumped {:?} vs {:?}", state.lumped, reference.lumped));
        }
        for (name, a, b) in
            [("δ", &state.delta, &reference.delta), ("i_inj", &state.i_inj, &reference.i_inj)]
        {
            for (i, (a, b)) in a.iter().zip(b).enumerate() {
                if a.to_bits() != b.to_bits() {
                    return Err(format!("{name} at node {i}: {a:e} vs {b:e}"));
                }
            }
        }
        Ok(())
    }

    /// Substep counts the cycle kernel is checked at: one pass of several
    /// lengths, a pass plus a remainder, and more than two passes.
    const SUBSTEP_CHOICES: [usize; 7] = [1, 2, 4, 10, 12, 20, 2 * FUSED + 1];

    /// A probe node: the four corners, the cosim's victim and attacker
    /// placements, or the random node `xy`.
    fn probe(pick: usize, xy: (usize, usize)) -> NodeId {
        let g = SpatialPdn::new();
        match pick {
            0 => node(0, 0),
            1 => node(NX - 1, 0),
            2 => node(0, NY - 1),
            3 => node(NX - 1, NY - 1),
            4 => g.node_at_fraction(0.12, 0.5),
            5 => g.node_at_fraction(0.88, 0.5),
            _ => node(xy.0, xy.1),
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
            let mut reference = fast.state();
            for (&amps, xy) in corner_amps.iter().zip([(0, 0), (NX - 1, 0), (0, NY - 1), (NX - 1, NY - 1)]) {
                inject_both(&mut fast, &mut reference, xy, amps);
            }
            for step in 0..400 {
                for &(xy, amps, off, at) in &changes {
                    if at == step {
                        inject_both(&mut fast, &mut reference, xy, if off { 0.0 } else { amps });
                    }
                }
                let v_fast = fast.step(1e-9);
                let v = reference_step(&mut reference, 1e-9);
                prop_assert!(v.to_bits() == v_fast.to_bits(), "step {step}: die {v:e} vs {v_fast:e}");
                let delta = fast.state().delta;
                for (i, (a, b)) in delta.iter().zip(&reference.delta).enumerate() {
                    prop_assert!(a.to_bits() == b.to_bits(), "step {step} node {i}: {a:e} vs {b:e}");
                }
            }
        }

        /// A whole-cycle wavefront equals `substeps` reference steps: the
        /// probe voltages after every substep and the end state are
        /// bitwise the reference's, for cycle lengths within one fused pass
        /// and beyond it, probes anywhere on the mesh (corners and the
        /// cosim's placements included, both probes possibly the same
        /// node), and loads that change between cycles.
        #[test]
        fn cycle_kernel_is_bit_identical_to_per_substep_reference(
            cycles in prop::collection::vec(
                (
                    0usize..SUBSTEP_CHOICES.len(),
                    ((0usize..8, (0usize..NX, 0usize..NY)), (0usize..8, (0usize..NX, 0usize..NY))),
                    prop::collection::vec(((0usize..NX, 0usize..NY), 0.0f64..6.0), 0..4),
                    1.0e-10f64..2.0e-9,
                ),
                1..8,
            ),
        ) {
            let mut fast = SpatialPdn::new();
            let mut reference = fast.state();
            inject_both(&mut fast, &mut reference, (2, 5), 1.0);
            for (cycle, (choice, ((pick_a, xy_a), (pick_b, xy_b)), loads, dt)) in cycles.iter().enumerate() {
                for &(xy, amps) in loads {
                    inject_both(&mut fast, &mut reference, xy, amps);
                }
                let probes = [probe(*pick_a, *xy_a), probe(*pick_b, *xy_b)];
                let mut readings = Vec::new();
                fast.run_cycle(*dt, SUBSTEP_CHOICES[*choice], probes, |at| readings.push(at));
                prop_assert!(readings.len() == SUBSTEP_CHOICES[*choice]);
                for (s, at) in readings.iter().enumerate() {
                    let v = reference_step(&mut reference, *dt);
                    for (probe, got) in probes.iter().zip(at) {
                        let row_major = ROW_MAJOR.iter().position(|&o| o == probe.0).unwrap();
                        let want = v + reference.delta[row_major];
                        prop_assert!(
                            want.to_bits() == got.to_bits(),
                            "cycle {cycle} substep {s} probe {probe:?}: {got:e} vs {want:e}"
                        );
                    }
                }
                if let Err(e) = bitwise_equal(&fast, &reference) {
                    prop_assert!(false, "cycle {cycle}: end state differs: {e}");
                }
            }
        }
        /// Every node sits on exactly one cell, on row `x + y + 1` inside
        /// its diagonal's window; every window lies between the pad
        /// columns and masks exactly its off-mesh cells; and every other
        /// cell is a pad that still reads `+0.0` after random loaded
        /// cycles.
        #[test]
        fn plane_files_every_node_once_on_its_diagonal_and_pads_stay_zero(
            loads in prop::collection::vec(((0usize..NX, 0usize..NY), 0.0f64..6.0, 1usize..2 * FUSED), 1..40),
        ) {
            let mut on_mesh = [false; ROWS * COLS];
            for y in 0..NY {
                for x in 0..NX {
                    let o = cell(x, y);
                    prop_assert!(o / COLS == x + y + 1, "node ({x}, {y}) on row {}", o / COLS);
                    prop_assert!(!on_mesh[o], "cell {o} holds two nodes");
                    on_mesh[o] = true;
                    let (start, pairs) = WINDOWS[x + y];
                    prop_assert!((start..start + 2 * pairs).contains(&(o % COLS)), "node ({x}, {y}) outside its window");
                }
            }
            for (d, &(start, pairs)) in WINDOWS.iter().enumerate() {
                prop_assert!(start >= 1 && start + 2 * pairs < COLS, "diagonal {d}'s window reaches a pad column");
                for (c, &mask) in ON_MESH[d + 1].iter().enumerate().skip(start).take(2 * pairs) {
                    let o = (d + 1) * COLS + c;
                    prop_assert!((mask == u64::MAX) == on_mesh[o], "cell {o} masked wrongly");
                }
            }

            let mut g = SpatialPdn::new();
            for &((x, y), amps, substeps) in &loads {
                g.inject(node(x, y), amps);
                g.run_cycle(1e-9, substeps, [], |_| {});
            }
            let (delta, i_inj) = (g.delta.as_flattened(), g.i_inj.as_flattened());
            for o in (0..ROWS * COLS).filter(|&o| !on_mesh[o]) {
                prop_assert!(
                    delta[o].to_bits() == 0 && i_inj[o].to_bits() == 0,
                    "pad cell {o} reads δ {:e}, i_inj {:e}", delta[o], i_inj[o]
                );
            }
        }
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
            let before = g.state().delta;
            g.step(1e-9);
            if before.map(f64::to_bits) == g.state().delta.map(f64::to_bits) {
                settled_after = Some(step);
                break;
            }
        }
        assert!(settled_after.is_some(), "δ still moving after 5000 steps");
        let settled = g.state().delta;
        for step in 0..100 {
            g.step(1e-9);
            assert!(
                settled.map(f64::to_bits) == g.state().delta.map(f64::to_bits),
                "δ moved {step} steps after settling"
            );
        }
    }

    #[test]
    fn compact_state_matches_its_mesh_until_the_mesh_moves() {
        let mut g = settled_grid();
        g.inject(node(4, 4), 2.0);
        let state = g.state();
        assert!(g.matches(&state));
        let mut moved = g.clone();
        moved.step(1e-9);
        assert!(!moved.matches(&state), "a step under a new load moves the mesh");
        let mut reloaded = g.clone();
        reloaded.inject(node(4, 4), 2.5);
        assert!(!reloaded.matches(&state), "a different load is a different state");
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
