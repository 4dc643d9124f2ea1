//! Cell/net graph representation of a tenant design.
//!
//! A [`Netlist`] is a flat list of primitive cells connected by nets. It is
//! deliberately simple — just enough structure for the design-rule checker
//! to find combinational loops, for the floorplanner to count sites, and for
//! the DeepStrike crate to emit the striker and TDC circuits as auditable
//! netlists.

use std::collections::HashMap;

use crate::error::{FabricError, Result};
use crate::primitive::PrimitiveKind;

/// Identifier of a cell within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub usize);

/// Identifier of a net within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub usize);

/// A pin reference: `cell` plus a direction-tagged pin index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PinRef {
    /// Owning cell.
    pub cell: CellId,
    /// Pin within the cell.
    pub pin: Pin,
}

/// Direction-tagged pin index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pin {
    /// `In(k)` is the cell's k-th logic input.
    In(u8),
    /// `Out(k)` is the cell's k-th output (`Out(0)` = `O`/`O6`/`Q`).
    Out(u8),
}

/// One primitive instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Instance name, unique within the netlist.
    pub name: String,
    /// Primitive kind.
    pub kind: PrimitiveKind,
    /// Optional LUT `INIT` word (LUT kinds only).
    pub init: Option<u64>,
    nets_in: Vec<Option<NetId>>,
    nets_out: Vec<Option<NetId>>,
}

impl Cell {
    /// All connected input nets.
    pub fn input_nets(&self) -> impl Iterator<Item = NetId> + '_ {
        self.nets_in.iter().filter_map(|n| *n)
    }
}

/// One net: a single driver pin fanning out to sink pins.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Net {
    /// Net name (generated).
    pub name: String,
    /// Driving output pin, if any.
    pub driver: Option<PinRef>,
    /// Input pins this net fans out to.
    pub sinks: Vec<PinRef>,
}

/// Per-kind resource usage of a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResourceUsage {
    /// LUTs of any flavour (`LUT6`, `LUT6_2`).
    pub luts: usize,
    /// Flip-flops (`FDRE`).
    pub flip_flops: usize,
    /// Latches (`LDCE`).
    pub latches: usize,
    /// Carry-chain elements (`CARRY4`).
    pub carry4: usize,
    /// DSP slices.
    pub dsp: usize,
    /// Block RAMs.
    pub bram: usize,
    /// I/O and clock buffers.
    pub buffers: usize,
}

impl ResourceUsage {
    /// Estimated logic-slice count: a 7-series slice holds 4 LUTs and
    /// 8 storage elements, and one `CARRY4` occupies one slice's chain.
    ///
    /// The estimate takes the max over the three packing constraints, which
    /// mirrors how a real packer bounds slice usage from below.
    pub fn slices(&self) -> usize {
        let by_lut = self.luts.div_ceil(4);
        let by_ff = (self.flip_flops + self.latches).div_ceil(8);
        let by_carry = self.carry4;
        by_lut.max(by_ff).max(by_carry)
    }

    /// Component-wise sum.
    pub fn merged(&self, other: &ResourceUsage) -> ResourceUsage {
        ResourceUsage {
            luts: self.luts + other.luts,
            flip_flops: self.flip_flops + other.flip_flops,
            latches: self.latches + other.latches,
            carry4: self.carry4 + other.carry4,
            dsp: self.dsp + other.dsp,
            bram: self.bram + other.bram,
            buffers: self.buffers + other.buffers,
        }
    }
}

/// A flat primitive netlist.
///
/// # Example
///
/// ```
/// use fpga_fabric::netlist::Netlist;
/// use fpga_fabric::primitive::PrimitiveKind;
///
/// let mut n = Netlist::new("demo");
/// let lut = n.add_lut1_inverter("inv");
/// let ff = n.add_cell("ff", PrimitiveKind::Fdre, None);
/// n.connect(n.output_of(lut), n.input_of(ff, 0)).unwrap();
/// assert_eq!(n.cell_count(), 2);
/// assert_eq!(n.resource_usage().luts, 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    names: HashMap<String, CellId>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist { name: name.into(), cells: Vec::new(), nets: Vec::new(), names: HashMap::new() }
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Adds a primitive cell and returns its id.
    ///
    /// If `name` collides with an existing cell a numeric suffix is
    /// appended, so generated circuits can use repetitive base names freely.
    pub fn add_cell(&mut self, name: &str, kind: PrimitiveKind, init: Option<u64>) -> CellId {
        let mut unique = name.to_string();
        let mut k = 1usize;
        while self.names.contains_key(&unique) {
            unique = format!("{name}_{k}");
            k += 1;
        }
        let id = CellId(self.cells.len());
        self.cells.push(Cell {
            name: unique.clone(),
            kind,
            init,
            nets_in: vec![None; kind.input_count()],
            nets_out: vec![None; kind.output_count()],
        });
        self.names.insert(unique, id);
        id
    }

    /// Adds a LUT configured as an inverter on `I0` — the building block of
    /// a classic ring oscillator.
    pub fn add_lut1_inverter(&mut self, name: &str) -> CellId {
        let init = crate::primitive::Lut6::inverter().init();
        self.add_cell(name, PrimitiveKind::Lut6, Some(init))
    }

    /// Adds a `LUT6_2` configured as the striker's dual inverter.
    pub fn add_dual_inverter(&mut self, name: &str) -> CellId {
        let init = crate::primitive::Lut6_2::dual_inverter().init();
        self.add_cell(name, PrimitiveKind::Lut6_2, Some(init))
    }

    /// Reference to output pin `k` of `cell`.
    pub fn output_pin(&self, cell: CellId, k: u8) -> PinRef {
        PinRef { cell, pin: Pin::Out(k) }
    }

    /// Reference to output pin 0 of `cell` (the common case).
    pub fn output_of(&self, cell: CellId) -> PinRef {
        self.output_pin(cell, 0)
    }

    /// Reference to input pin `k` of `cell`.
    pub fn input_of(&self, cell: CellId, k: u8) -> PinRef {
        PinRef { cell, pin: Pin::In(k) }
    }

    /// Cell lookup by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids are only minted by this netlist).
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.0]
    }

    /// Cell lookup by instance name.
    pub fn cell_by_name(&self, name: &str) -> Option<(CellId, &Cell)> {
        self.names.get(name).map(|id| (*id, &self.cells[id.0]))
    }

    /// Net lookup by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0]
    }

    /// Iterates over `(CellId, &Cell)`.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells.iter().enumerate().map(|(i, c)| (CellId(i), c))
    }

    /// Iterates over `(NetId, &Net)`.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets.iter().enumerate().map(|(i, n)| (NetId(i), n))
    }

    /// Connects an output pin to an input pin, creating or extending the
    /// driver's net.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::InvalidArgument`] if `from` is not an output or
    /// `to` is not an input or either pin index is out of range, and
    /// [`FabricError::PinAlreadyDriven`] if `to` already has a driver.
    pub fn connect(&mut self, from: PinRef, to: PinRef) -> Result<NetId> {
        let out_k = match from.pin {
            Pin::Out(k) => k as usize,
            Pin::In(_) => {
                return Err(FabricError::InvalidArgument("connect source must be an output".into()))
            }
        };
        let in_k = match to.pin {
            Pin::In(k) => k as usize,
            Pin::Out(_) => {
                return Err(FabricError::InvalidArgument("connect target must be an input".into()))
            }
        };
        if from.cell.0 >= self.cells.len() || to.cell.0 >= self.cells.len() {
            return Err(FabricError::NotFound("cell".into()));
        }
        if out_k >= self.cells[from.cell.0].nets_out.len() {
            return Err(FabricError::InvalidArgument(format!(
                "output pin {out_k} out of range for {}",
                self.cells[from.cell.0].name
            )));
        }
        if in_k >= self.cells[to.cell.0].nets_in.len() {
            return Err(FabricError::InvalidArgument(format!(
                "input pin {in_k} out of range for {}",
                self.cells[to.cell.0].name
            )));
        }
        if self.cells[to.cell.0].nets_in[in_k].is_some() {
            return Err(FabricError::PinAlreadyDriven {
                cell: self.cells[to.cell.0].name.clone(),
                pin: format!("I{in_k}"),
            });
        }
        let net_id = match self.cells[from.cell.0].nets_out[out_k] {
            Some(id) => id,
            None => {
                let id = NetId(self.nets.len());
                self.nets.push(Net {
                    name: format!("{}_o{}", self.cells[from.cell.0].name, out_k),
                    driver: Some(from),
                    sinks: Vec::new(),
                });
                self.cells[from.cell.0].nets_out[out_k] = Some(id);
                id
            }
        };
        self.nets[net_id.0].sinks.push(to);
        self.cells[to.cell.0].nets_in[in_k] = Some(net_id);
        Ok(net_id)
    }

    /// Counts cells by resource class.
    pub fn resource_usage(&self) -> ResourceUsage {
        let mut u = ResourceUsage::default();
        for c in &self.cells {
            match c.kind {
                PrimitiveKind::Lut6 | PrimitiveKind::Lut6_2 => u.luts += 1,
                PrimitiveKind::Fdre => u.flip_flops += 1,
                PrimitiveKind::Ldce => u.latches += 1,
                PrimitiveKind::Carry4 => u.carry4 += 1,
                PrimitiveKind::Dsp48 => u.dsp += 1,
                PrimitiveKind::Bram36 => u.bram += 1,
                PrimitiveKind::Ibuf | PrimitiveKind::Obuf | PrimitiveKind::Bufg => u.buffers += 1,
            }
        }
        u
    }

    /// Appends every cell and net of `other` into `self`, prefixing instance
    /// names with `prefix/`. Returns the id offset applied to `other`'s
    /// cells (i.e. `other`'s `CellId(k)` becomes `CellId(k + offset)`).
    ///
    /// This is what the hypervisor uses to combine tenant designs into one
    /// image.
    pub fn merge(&mut self, other: &Netlist, prefix: &str) -> usize {
        let cell_off = self.cells.len();
        let net_off = self.nets.len();
        for c in &other.cells {
            let name = format!("{prefix}/{}", c.name);
            let id = CellId(self.cells.len());
            self.cells.push(Cell {
                name: name.clone(),
                kind: c.kind,
                init: c.init,
                nets_in: c.nets_in.iter().map(|n| n.map(|NetId(i)| NetId(i + net_off))).collect(),
                nets_out: c.nets_out.iter().map(|n| n.map(|NetId(i)| NetId(i + net_off))).collect(),
            });
            self.names.insert(name, id);
        }
        for n in &other.nets {
            let remap = |p: PinRef| PinRef { cell: CellId(p.cell.0 + cell_off), pin: p.pin };
            self.nets.push(Net {
                name: format!("{prefix}/{}", n.name),
                driver: n.driver.map(remap),
                sinks: n.sinks.iter().copied().map(remap).collect(),
            });
        }
        cell_off
    }

    /// Directed cell-level connectivity: for every net, one edge from the
    /// driver cell to each sink cell. Used by the DRC loop finder.
    pub fn cell_edges(&self) -> Vec<(CellId, CellId)> {
        let mut edges = Vec::new();
        for n in &self.nets {
            if let Some(drv) = n.driver {
                for s in &n.sinks {
                    edges.push((drv.cell, s.cell));
                }
            }
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_builds_fanout_net() {
        let mut n = Netlist::new("t");
        let a = n.add_lut1_inverter("a");
        let b = n.add_lut1_inverter("b");
        let c = n.add_lut1_inverter("c");
        let net1 = n.connect(n.output_of(a), n.input_of(b, 0)).unwrap();
        let net2 = n.connect(n.output_of(a), n.input_of(c, 0)).unwrap();
        assert_eq!(net1, net2, "same driver reuses the net");
        assert_eq!(n.net(net1).sinks.len(), 2);
        assert_eq!(n.net(net1).driver.unwrap().cell, a);
    }

    #[test]
    fn double_driving_an_input_is_rejected() {
        let mut n = Netlist::new("t");
        let a = n.add_lut1_inverter("a");
        let b = n.add_lut1_inverter("b");
        let c = n.add_lut1_inverter("c");
        n.connect(n.output_of(a), n.input_of(c, 0)).unwrap();
        let err = n.connect(n.output_of(b), n.input_of(c, 0)).unwrap_err();
        assert!(matches!(err, FabricError::PinAlreadyDriven { .. }));
    }

    #[test]
    fn wrong_pin_directions_are_rejected() {
        let mut n = Netlist::new("t");
        let a = n.add_lut1_inverter("a");
        let b = n.add_lut1_inverter("b");
        assert!(n.connect(n.input_of(a, 0), n.input_of(b, 0)).is_err());
        assert!(n.connect(n.output_of(a), n.output_of(b)).is_err());
    }

    #[test]
    fn name_collisions_get_suffixes() {
        let mut n = Netlist::new("t");
        let a = n.add_lut1_inverter("inv");
        let b = n.add_lut1_inverter("inv");
        assert_ne!(n.cell(a).name, n.cell(b).name);
        assert!(n.cell_by_name("inv").is_some());
        assert!(n.cell_by_name("inv_1").is_some());
    }

    #[test]
    fn resource_usage_counts_and_slice_estimate() {
        let mut n = Netlist::new("t");
        for i in 0..8 {
            n.add_lut1_inverter(&format!("l{i}"));
        }
        for i in 0..3 {
            n.add_cell(&format!("ff{i}"), PrimitiveKind::Fdre, None);
        }
        n.add_cell("latch", PrimitiveKind::Ldce, None);
        n.add_cell("c4", PrimitiveKind::Carry4, None);
        let u = n.resource_usage();
        assert_eq!(u.luts, 8);
        assert_eq!(u.flip_flops, 3);
        assert_eq!(u.latches, 1);
        assert_eq!(u.carry4, 1);
        assert_eq!(u.slices(), 2, "8 LUTs / 4 per slice dominates");
    }

    #[test]
    fn merge_remaps_ids_and_names() {
        let mut host = Netlist::new("host");
        host.add_lut1_inverter("x");
        let mut tenant = Netlist::new("tenant");
        let a = tenant.add_lut1_inverter("a");
        let b = tenant.add_lut1_inverter("b");
        tenant.connect(tenant.output_of(a), tenant.input_of(b, 0)).unwrap();
        let off = host.merge(&tenant, "t0");
        assert_eq!(off, 1);
        let (id, cell) = host.cell_by_name("t0/a").expect("merged cell renamed");
        assert_eq!(id, CellId(1));
        assert_eq!(cell.kind, PrimitiveKind::Lut6);
        // The merged edge must connect the remapped cells.
        let edges = host.cell_edges();
        assert!(edges.contains(&(CellId(1), CellId(2))));
    }
}
