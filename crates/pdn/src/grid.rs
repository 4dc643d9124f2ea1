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
//! relaxed by a few warm-started Gauss–Seidel sweeps per step — injections
//! only change at cycle boundaries, so a handful of sweeps suffices.

use crate::error::{PdnError, Result};
use crate::rlc::LumpedPdn;

/// Parameters of the spatial mesh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridParams {
    /// Nodes in x.
    pub nx: usize,
    /// Nodes in y.
    pub ny: usize,
    /// Conductance from each node up to the die-level rail, in siemens.
    pub g_supply: f64,
    /// Conductance between neighbouring nodes, in siemens.
    pub g_mesh: f64,
    /// Gauss–Seidel sweeps per step.
    pub sweeps: usize,
}

impl Default for GridParams {
    fn default() -> Self {
        // λ = √(g_mesh/g_supply) ≈ 5 node spacings: local droop decays to
        // ~1/e five nodes away, so cross-die placement attenuates the local
        // component substantially while the global droop is fully shared.
        GridParams { nx: 16, ny: 10, g_supply: 5.0, g_mesh: 125.0, sweeps: 8 }
    }
}

impl GridParams {
    /// Validates geometry and conductances.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] or [`PdnError::OutOfRange`].
    pub fn validate(&self) -> Result<()> {
        if self.nx == 0 || self.ny == 0 {
            return Err(PdnError::OutOfRange("grid dimensions".into()));
        }
        for (name, value) in [("g_supply", self.g_supply), ("g_mesh", self.g_mesh)] {
            if !(value.is_finite() && value > 0.0) {
                return Err(PdnError::InvalidParameter { name, value });
            }
        }
        if self.sweeps == 0 {
            return Err(PdnError::OutOfRange("sweeps".into()));
        }
        Ok(())
    }

    /// Characteristic attenuation length of local droop, in node spacings.
    pub fn attenuation_length(&self) -> f64 {
        (self.g_mesh / self.g_supply).sqrt()
    }
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
/// use pdn::grid::{GridParams, NodeId, SpatialPdn};
/// use pdn::rlc::LumpedPdn;
///
/// let mut g = SpatialPdn::new(LumpedPdn::zynq_like(), GridParams::default())?;
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
    params: GridParams,
    /// Local deviation below the die rail, per node.
    delta: Vec<f64>,
    i_inj: Vec<f64>,
    /// Precomputed per-node total conductance (supply + present
    /// neighbours) — the Gauss–Seidel denominator, constant per geometry.
    g_sum: Vec<f64>,
}

impl SpatialPdn {
    /// Creates a mesh at the unloaded operating point.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] / [`PdnError::OutOfRange`] for
    /// bad parameters.
    pub fn new(lumped: LumpedPdn, params: GridParams) -> Result<Self> {
        params.validate()?;
        lumped.params().validate()?;
        let n = params.nx * params.ny;
        // Stencil denominators, accumulated in the same left/right/up/down
        // order the relaxation visits neighbours in.
        let g_sum = (0..n)
            .map(|i| {
                let (x, y) = (i % params.nx, i / params.nx);
                let mut g = params.g_supply;
                if x > 0 {
                    g += params.g_mesh;
                }
                if x + 1 < params.nx {
                    g += params.g_mesh;
                }
                if y > 0 {
                    g += params.g_mesh;
                }
                if y + 1 < params.ny {
                    g += params.g_mesh;
                }
                g
            })
            .collect();
        Ok(SpatialPdn { lumped, params, delta: vec![0.0; n], i_inj: vec![0.0; n], g_sum })
    }

    /// Convenience constructor with default mesh over a Zynq-like supply.
    pub fn zynq_like() -> Self {
        // Invariant: `GridParams::default()` and the zynq parameters are
        // static, in-range literals, so validation cannot fail.
        SpatialPdn::new(LumpedPdn::zynq_like(), GridParams::default())
            .expect("default parameters are valid")
    }

    /// Mesh parameters.
    pub fn params(&self) -> &GridParams {
        &self.params
    }

    /// The lumped backbone (for inspecting the global state).
    pub fn lumped(&self) -> &LumpedPdn {
        &self.lumped
    }

    fn index(&self, node: NodeId) -> Result<usize> {
        if node.x >= self.params.nx || node.y >= self.params.ny {
            return Err(PdnError::OutOfRange(format!("node ({}, {})", node.x, node.y)));
        }
        Ok(node.y * self.params.nx + node.x)
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

    /// Clears all injected currents.
    pub fn clear_loads(&mut self) {
        self.i_inj.iter_mut().for_each(|i| *i = 0.0);
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
    /// denominator comes from the precomputed `g_sum` stencil, interior
    /// nodes run a branch-free inner loop, and the sweep loop exits as
    /// soon as one full sweep leaves every node bit-unchanged (a
    /// Gauss–Seidel sweep is a deterministic map, so once it is the
    /// identity every remaining sweep would be too — results are exactly
    /// those of always running `params.sweeps` sweeps). Warm-started
    /// steady states therefore pay for one sweep instead of eight.
    fn relax(&mut self) {
        let (nx, ny) = (self.params.nx, self.params.ny);
        debug_assert_eq!(self.delta.len(), nx * ny);
        let gm = self.params.g_mesh;
        for _ in 0..self.params.sweeps {
            let mut changed = false;
            for y in 0..ny {
                let row = y * nx;
                let up = y > 0;
                let down = y + 1 < ny;
                self.relax_node(row, false, nx > 1, up, down, &mut changed);
                if nx >= 2 {
                    if up && down {
                        // Interior rows: all four neighbours exist —
                        // branch-free flow accumulation in the same
                        // left/right/up/down order as the general case.
                        for x in 1..nx - 1 {
                            let i = row + x;
                            let flow = gm * self.delta[i - 1]
                                + gm * self.delta[i + 1]
                                + gm * self.delta[i - nx]
                                + gm * self.delta[i + nx];
                            let v = (flow - self.i_inj[i]) / self.g_sum[i];
                            changed |= v.to_bits() != self.delta[i].to_bits();
                            self.delta[i] = v;
                        }
                    } else {
                        for x in 1..nx - 1 {
                            self.relax_node(row + x, true, true, up, down, &mut changed);
                        }
                    }
                    self.relax_node(row + nx - 1, true, false, up, down, &mut changed);
                }
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
        let gm = self.params.g_mesh;
        let nx = self.params.nx;
        let mut flow = 0.0;
        if left {
            flow += gm * self.delta[i - 1];
        }
        if right {
            flow += gm * self.delta[i + 1];
        }
        if up {
            flow += gm * self.delta[i - nx];
        }
        if down {
            flow += gm * self.delta[i + nx];
        }
        let v = (flow - self.i_inj[i]) / self.g_sum[i];
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
        let x = ((fx.clamp(0.0, 1.0)) * (self.params.nx - 1) as f64).round() as usize;
        let y = ((fy.clamp(0.0, 1.0)) * (self.params.ny - 1) as f64).round() as usize;
        NodeId { x, y }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn settled_grid() -> SpatialPdn {
        let mut g = SpatialPdn::zynq_like();
        for _ in 0..5000 {
            g.step(1e-9);
        }
        g
    }

    #[test]
    fn validates_parameters() {
        let bad = GridParams { nx: 0, ..GridParams::default() };
        assert!(SpatialPdn::new(LumpedPdn::zynq_like(), bad).is_err());
        let bad = GridParams { g_mesh: -1.0, ..GridParams::default() };
        assert!(SpatialPdn::new(LumpedPdn::zynq_like(), bad).is_err());
        let bad = GridParams { sweeps: 0, ..GridParams::default() };
        assert!(SpatialPdn::new(LumpedPdn::zynq_like(), bad).is_err());
    }

    #[test]
    fn validate_rejects_each_bad_field() {
        let good = GridParams::default();
        assert!(good.validate().is_ok());
        assert!(GridParams { nx: 0, ..good }.validate().is_err(), "nx = 0");
        assert!(GridParams { ny: 0, ..good }.validate().is_err(), "ny = 0");
        assert!(GridParams { sweeps: 0, ..good }.validate().is_err(), "sweeps = 0");
        for bad in [f64::NAN, f64::INFINITY, 0.0, -3.0] {
            assert!(GridParams { g_supply: bad, ..good }.validate().is_err(), "g_supply {bad}");
            assert!(GridParams { g_mesh: bad, ..good }.validate().is_err(), "g_mesh {bad}");
        }
    }

    #[test]
    fn construction_rejects_bad_rlc_backbone_params() {
        let good = *LumpedPdn::zynq_like().params();
        assert!(good.validate().is_ok());
        // Non-finite or non-positive capacitance/inductance (and the rest
        // of the RLC backbone) must never reach the mesh solver.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1e-9] {
            for field in 0..4 {
                let mut p = good;
                match field {
                    0 => p.vdd = bad,
                    1 => p.r = bad,
                    2 => p.l = bad,
                    _ => p.c = bad,
                }
                assert!(p.validate().is_err(), "field {field} = {bad}");
                assert!(LumpedPdn::new(p).is_err(), "LumpedPdn must reject field {field}");
            }
        }
    }

    /// The original, unoptimised Gauss–Seidel sweep: always runs all
    /// `sweeps` passes, recomputing the stencil denominator per node.
    fn reference_relax(g: &mut SpatialPdn) {
        let (nx, ny) = (g.params.nx, g.params.ny);
        let gs = g.params.g_supply;
        let gm = g.params.g_mesh;
        for _ in 0..g.params.sweeps {
            for y in 0..ny {
                for x in 0..nx {
                    let i = y * nx + x;
                    let mut g_sum = gs;
                    let mut flow = 0.0;
                    if x > 0 {
                        g_sum += gm;
                        flow += gm * g.delta[i - 1];
                    }
                    if x + 1 < nx {
                        g_sum += gm;
                        flow += gm * g.delta[i + 1];
                    }
                    if y > 0 {
                        g_sum += gm;
                        flow += gm * g.delta[i - nx];
                    }
                    if y + 1 < ny {
                        g_sum += gm;
                        flow += gm * g.delta[i + nx];
                    }
                    g.delta[i] = (flow - g.i_inj[i]) / g_sum;
                }
            }
        }
    }

    #[test]
    fn fast_relax_is_bit_identical_to_reference() {
        // Transient, steady-state (early-exit) and post-load-change
        // phases must all match the always-8-sweeps reference exactly,
        // on the default mesh and on degenerate 1-wide/1-tall meshes.
        for params in [
            GridParams::default(),
            GridParams { nx: 1, ny: 7, ..GridParams::default() },
            GridParams { nx: 7, ny: 1, ..GridParams::default() },
            GridParams { nx: 2, ny: 2, ..GridParams::default() },
        ] {
            let mut fast = SpatialPdn::new(LumpedPdn::zynq_like(), params).unwrap();
            let mut reference = fast.clone();
            let node = NodeId { x: 0, y: params.ny - 1 };
            fast.inject(node, 2.5).unwrap();
            reference.inject(node, 2.5).unwrap();
            for step in 0..600 {
                if step == 400 {
                    // Mid-run load change re-excites the field.
                    fast.clear_loads();
                    reference.clear_loads();
                }
                fast.step(1e-9);
                let v = reference.lumped.step(reference.total_load(), 1e-9);
                reference_relax(&mut reference);
                assert!(v.to_bits() == fast.lumped.voltage().to_bits());
                for (i, (a, b)) in fast.delta.iter().zip(&reference.delta).enumerate() {
                    assert!(
                        a.to_bits() == b.to_bits(),
                        "nx={} ny={} step {step} node {i}: {a:e} vs {b:e}",
                        params.nx,
                        params.ny
                    );
                }
            }
        }
    }

    #[test]
    fn unloaded_mesh_sits_at_rail() {
        let g = settled_grid();
        for y in 0..g.params().ny {
            for x in 0..g.params().nx {
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
        let mut g = SpatialPdn::zynq_like();
        g.inject(NodeId { x: 0, y: 0 }, 1.0).unwrap();
        g.inject(NodeId { x: 2, y: 3 }, 2.5).unwrap();
        assert!((g.total_load() - 3.5).abs() < 1e-12);
        g.inject(NodeId { x: 0, y: 0 }, 0.25).unwrap();
        assert!((g.total_load() - 2.75).abs() < 1e-12, "inject replaces");
        g.clear_loads();
        assert_eq!(g.total_load(), 0.0);
    }

    #[test]
    fn bad_injections_rejected() {
        let mut g = SpatialPdn::zynq_like();
        assert!(g.inject(NodeId { x: 99, y: 0 }, 1.0).is_err());
        assert!(g.inject(NodeId { x: 0, y: 0 }, -1.0).is_err());
        assert!(g.inject(NodeId { x: 0, y: 0 }, f64::NAN).is_err());
        assert!(g.voltage_at(NodeId { x: 0, y: 99 }).is_err());
    }

    #[test]
    fn fraction_mapping_hits_corners() {
        let g = SpatialPdn::zynq_like();
        assert_eq!(g.node_at_fraction(0.0, 0.0), NodeId { x: 0, y: 0 });
        assert_eq!(g.node_at_fraction(1.0, 1.0), NodeId { x: 15, y: 9 });
        assert_eq!(g.node_at_fraction(-3.0, 7.0), NodeId { x: 0, y: 9 }, "clamped");
    }

    #[test]
    fn attenuation_length_is_in_design_band() {
        let p = GridParams::default();
        let lambda = p.attenuation_length();
        assert!((3.0..8.0).contains(&lambda), "λ = {lambda}");
    }
}
