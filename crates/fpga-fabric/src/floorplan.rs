//! Site grid, tenant regions and placement.
//!
//! Multi-tenant cloud FPGAs partition the die into rectangular regions, one
//! per tenant, with no routing between them. What the tenants *do* share is
//! the power distribution network; the PDN crate uses the region geometry
//! from this module to decide how strongly a current transient in one region
//! droops the voltage seen in another (the paper places the victim "far from
//! the attacker circuit to minimize the influence of temperature changes",
//! Fig. 6a).

use crate::error::{FabricError, Result};
use crate::netlist::ResourceUsage;

/// What a site in the fabric grid can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteKind {
    /// A logic slice: 4 LUTs, 8 storage elements, one carry chain.
    Slice,
    /// A DSP48 slice.
    Dsp,
    /// A 36 Kb block RAM.
    Bram,
}

/// A rectangular region of the site grid, inclusive of both corners.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Region {
    /// Left column.
    pub x0: u32,
    /// Bottom row.
    pub y0: u32,
    /// Right column (inclusive).
    pub x1: u32,
    /// Top row (inclusive).
    pub y1: u32,
}

impl Region {
    /// Creates a region, normalising corner order.
    pub fn new(x0: u32, y0: u32, x1: u32, y1: u32) -> Self {
        Region { x0: x0.min(x1), y0: y0.min(y1), x1: x0.max(x1), y1: y0.max(y1) }
    }

    /// Width in columns.
    pub fn width(&self) -> u32 {
        self.x1 - self.x0 + 1
    }

    /// Height in rows.
    pub fn height(&self) -> u32 {
        self.y1 - self.y0 + 1
    }

    /// Number of sites covered.
    pub fn area(&self) -> u64 {
        u64::from(self.width()) * u64::from(self.height())
    }

    /// Whether the two regions share any site.
    pub fn overlaps(&self, other: &Region) -> bool {
        self.x0 <= other.x1 && other.x0 <= self.x1 && self.y0 <= other.y1 && other.y0 <= self.y1
    }

    /// Geometric centre, in site coordinates.
    pub fn center(&self) -> (f64, f64) {
        (f64::from(self.x0 + self.x1) / 2.0, f64::from(self.y0 + self.y1) / 2.0)
    }

    /// Euclidean centre-to-centre distance in site units.
    pub fn distance_to(&self, other: &Region) -> f64 {
        let (ax, ay) = self.center();
        let (bx, by) = other.center();
        ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
    }
}

/// The fabric site grid of one device.
///
/// Columns follow the 7-series pattern: mostly slice columns with periodic
/// DSP and BRAM columns.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteGrid {
    cols: u32,
    rows: u32,
    dsp_period: u32,
    bram_period: u32,
}

impl SiteGrid {
    /// Creates a grid. `dsp_period`/`bram_period` say that every k-th column
    /// is a DSP (resp. BRAM) column; they must differ and be ≥ 2.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::InvalidArgument`] for degenerate geometry.
    pub fn new(cols: u32, rows: u32, dsp_period: u32, bram_period: u32) -> Result<Self> {
        if cols == 0 || rows == 0 {
            return Err(FabricError::InvalidArgument("grid must be non-empty".into()));
        }
        if dsp_period < 2 || bram_period < 2 || dsp_period == bram_period {
            return Err(FabricError::InvalidArgument(
                "column periods must be >= 2 and distinct".into(),
            ));
        }
        Ok(SiteGrid { cols, rows, dsp_period, bram_period })
    }

    /// Grid width in columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Grid height in rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Site kind at a column.
    pub fn column_kind(&self, x: u32) -> SiteKind {
        // BRAM takes precedence at coincident columns (cannot happen when
        // the periods are coprime, but be deterministic anyway).
        if x % self.bram_period == self.bram_period - 1 {
            SiteKind::Bram
        } else if x % self.dsp_period == self.dsp_period - 1 {
            SiteKind::Dsp
        } else {
            SiteKind::Slice
        }
    }

    /// Counts sites of each kind inside `region`.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::InvalidArgument`] if the region exceeds the grid.
    pub fn capacity(&self, region: &Region) -> Result<RegionCapacity> {
        if region.x1 >= self.cols || region.y1 >= self.rows {
            return Err(FabricError::InvalidArgument(format!(
                "region ({},{})-({},{}) exceeds {}x{} grid",
                region.x0, region.y0, region.x1, region.y1, self.cols, self.rows
            )));
        }
        let mut cap = RegionCapacity::default();
        for x in region.x0..=region.x1 {
            let n = u64::from(region.height());
            match self.column_kind(x) {
                SiteKind::Slice => cap.slices += n as usize,
                // One DSP48 / RAMB36 spans several rows of fabric; 7-series
                // packs 2.5 slices of height per DSP, model as 1 per 2 rows.
                SiteKind::Dsp => cap.dsp += (n as usize).div_ceil(2),
                SiteKind::Bram => cap.bram += (n as usize).div_ceil(5),
            }
        }
        Ok(cap)
    }
}

/// Sites available inside a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegionCapacity {
    /// Logic slices.
    pub slices: usize,
    /// DSP48 slices.
    pub dsp: usize,
    /// Block RAMs.
    pub bram: usize,
}

impl RegionCapacity {
    /// Whether `usage` fits in this capacity.
    pub fn fits(&self, usage: &ResourceUsage) -> bool {
        usage.slices() <= self.slices && usage.dsp <= self.dsp && usage.bram <= self.bram
    }

    /// First resource that does not fit, with requested/available counts.
    pub fn first_overflow(&self, usage: &ResourceUsage) -> Option<(String, usize, usize)> {
        if usage.slices() > self.slices {
            return Some(("slices".into(), usage.slices(), self.slices));
        }
        if usage.dsp > self.dsp {
            return Some(("DSP48".into(), usage.dsp, self.dsp));
        }
        if usage.bram > self.bram {
            return Some(("BRAM36".into(), usage.bram, self.bram));
        }
        None
    }
}

/// A named tenant slot: a region plus the usage placed into it.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSlot {
    /// Tenant name.
    pub name: String,
    /// Assigned region.
    pub region: Region,
    /// Resources the tenant's netlist consumes.
    pub usage: ResourceUsage,
}

/// A floorplan: grid plus non-overlapping tenant slots.
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    grid: SiteGrid,
    slots: Vec<TenantSlot>,
}

impl Floorplan {
    /// Creates an empty floorplan over `grid`.
    pub fn new(grid: SiteGrid) -> Self {
        Floorplan { grid, slots: Vec::new() }
    }

    /// The underlying grid.
    pub fn grid(&self) -> &SiteGrid {
        &self.grid
    }

    /// Currently placed tenants.
    pub fn slots(&self) -> &[TenantSlot] {
        &self.slots
    }

    /// Places a tenant into `region`.
    ///
    /// # Errors
    ///
    /// * [`FabricError::RegionOverlap`] if the region intersects an existing
    ///   tenant;
    /// * [`FabricError::PlacementOverflow`] if `usage` exceeds the region's
    ///   site capacity;
    /// * [`FabricError::InvalidArgument`] if the region exceeds the grid.
    pub fn place(
        &mut self,
        name: impl Into<String>,
        region: Region,
        usage: ResourceUsage,
    ) -> Result<()> {
        let name = name.into();
        for s in &self.slots {
            if s.region.overlaps(&region) {
                return Err(FabricError::RegionOverlap { a: s.name.clone(), b: name });
            }
        }
        let cap = self.grid.capacity(&region)?;
        if let Some((what, requested, available)) = cap.first_overflow(&usage) {
            return Err(FabricError::PlacementOverflow { requested, available, what });
        }
        self.slots.push(TenantSlot { name, region, usage });
        Ok(())
    }

    /// Looks up a tenant slot by name.
    pub fn slot(&self, name: &str) -> Option<&TenantSlot> {
        self.slots.iter().find(|s| s.name == name)
    }

    /// Centre-to-centre distance between two tenants, in site units.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::NotFound`] if either tenant is absent.
    pub fn tenant_distance(&self, a: &str, b: &str) -> Result<f64> {
        let sa = self.slot(a).ok_or_else(|| FabricError::NotFound(format!("tenant {a}")))?;
        let sb = self.slot(b).ok_or_else(|| FabricError::NotFound(format!("tenant {b}")))?;
        Ok(sa.region.distance_to(&sb.region))
    }

    /// Normalised distance in `[0, 1]`: 0 = same spot, 1 = opposite corners.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::NotFound`] if either tenant is absent.
    pub fn normalized_distance(&self, a: &str, b: &str) -> Result<f64> {
        let d = self.tenant_distance(a, b)?;
        let diag = (f64::from(self.grid.cols).powi(2) + f64::from(self.grid.rows).powi(2)).sqrt();
        Ok((d / diag).clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> SiteGrid {
        SiteGrid::new(100, 50, 12, 25).unwrap()
    }

    #[test]
    fn region_geometry() {
        let r = Region::new(10, 10, 4, 2);
        assert_eq!((r.x0, r.y0, r.x1, r.y1), (4, 2, 10, 10), "corners normalised");
        assert_eq!(r.width(), 7);
        assert_eq!(r.height(), 9);
        assert_eq!(r.area(), 63);
    }

    #[test]
    fn overlap_detection() {
        let a = Region::new(0, 0, 10, 10);
        let b = Region::new(10, 10, 20, 20);
        let c = Region::new(11, 0, 20, 9);
        assert!(a.overlaps(&b), "corner touch counts as overlap");
        assert!(!a.overlaps(&c));
        assert!(c.overlaps(&c));
    }

    #[test]
    fn grid_capacity_counts_columns() {
        let g = grid();
        let cap = g.capacity(&Region::new(0, 0, 99, 49)).unwrap();
        assert!(cap.slices > 0 && cap.dsp > 0 && cap.bram > 0);
        // Slice columns dominate.
        assert!(cap.slices > cap.dsp * 10);
    }

    #[test]
    fn degenerate_grids_rejected() {
        assert!(SiteGrid::new(0, 10, 12, 25).is_err());
        assert!(SiteGrid::new(10, 10, 12, 12).is_err());
        assert!(SiteGrid::new(10, 10, 1, 25).is_err());
    }

    #[test]
    fn placement_respects_overlap_and_capacity() {
        let mut fp = Floorplan::new(grid());
        let usage = ResourceUsage { luts: 100, ..Default::default() };
        fp.place("victim", Region::new(0, 0, 40, 49), usage).unwrap();
        // Overlapping second tenant is rejected.
        let err = fp.place("attacker", Region::new(40, 0, 99, 49), usage).unwrap_err();
        assert!(matches!(err, FabricError::RegionOverlap { .. }));
        // Non-overlapping fits.
        fp.place("attacker", Region::new(41, 0, 99, 49), usage).unwrap();
        assert_eq!(fp.slots().len(), 2);
    }

    #[test]
    fn oversized_usage_overflows() {
        let mut fp = Floorplan::new(grid());
        let huge = ResourceUsage { luts: 1_000_000, ..Default::default() };
        let err = fp.place("fat", Region::new(0, 0, 5, 5), huge).unwrap_err();
        assert!(matches!(err, FabricError::PlacementOverflow { .. }));
    }

    #[test]
    fn distances_are_symmetric_and_normalised() {
        let mut fp = Floorplan::new(grid());
        let usage = ResourceUsage::default();
        fp.place("a", Region::new(0, 0, 9, 9), usage).unwrap();
        fp.place("b", Region::new(90, 40, 99, 49), usage).unwrap();
        let d_ab = fp.tenant_distance("a", "b").unwrap();
        let d_ba = fp.tenant_distance("b", "a").unwrap();
        assert!((d_ab - d_ba).abs() < 1e-12);
        let nd = fp.normalized_distance("a", "b").unwrap();
        assert!(nd > 0.5 && nd <= 1.0, "far corners: {nd}");
        assert!(fp.tenant_distance("a", "zz").is_err());
    }
}
