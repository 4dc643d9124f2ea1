//! Transient power-distribution-network (PDN) simulation.
//!
//! Every tenant on a multi-tenant FPGA shares the PDN; that shared
//! impedance is DeepStrike's attack surface. This crate provides the
//! electrical substrate the attack runs on:
//!
//! * [`rlc`] — a second-order lumped model of the package + die supply
//!   (series R–L into the on-die decoupling capacitance). A sudden current
//!   step produces the classic transient droop `ΔV ≈ ΔI·√(L/C)` followed by
//!   a damped recovery — exactly the glitch the power striker manufactures.
//! * [`grid`] — a spatial RC mesh layered on top of the lumped model, so a
//!   current transient injected in the attacker's region is seen attenuated
//!   in the victim's region depending on floorplan distance. Its 16×10
//!   node state lives in a zero-padded diagonal-major plane that one
//!   Gauss–Seidel wavefront relaxes for a whole victim cycle per call,
//!   and a [`grid::NodeId`] comes only from
//!   [`grid::SpatialPdn::node_at_fraction`], so injecting at a node and
//!   reading it back cannot fail.
//! * [`delay`] — the alpha-power voltage→delay law that converts droop into
//!   timing-margin loss (and therefore DSP faults).
//! * [`thermal`] — a first-order thermal RC model; sustained striker
//!   activity heats the die, which the paper warns "may increase the
//!   temperature of the FPGA chip or even crash it".
//! * [`analysis`] — glitch windows over a per-cycle voltage series.
//!
//! The crate models one board, the paper's PYNQ-Z1 (Zynq-7020): every
//! physical value — the supply's `VDD`, `R`, `L` and `C`, the mesh
//! geometry, conductances and sweep count, the delay law's `V_NOM`,
//! `V_TH`, `ALPHA` and `MAX_FACTOR`, and the thermal RC — is a named
//! constant in the module that owns it, so the constructors take no
//! parameters and cannot fail, and the crate has no error type.
//!
//! # Example
//!
//! ```
//! use pdn::rlc::LumpedPdn;
//!
//! let mut pdn = LumpedPdn::new();
//! // 1 µs of quiet, then a 5 A striker burst for 10 ns.
//! let dt = 1e-9;
//! for _ in 0..1000 { pdn.step(0.5, dt); }
//! let quiet = pdn.voltage();
//! let mut worst = quiet;
//! for _ in 0..10 { worst = worst.min(pdn.step(5.5, dt)); }
//! assert!(worst < quiet - 0.02, "burst must droop the rail");
//! ```

#![deny(clippy::unwrap_used)]

pub mod analysis;
pub mod delay;
pub mod grid;
pub mod rlc;
pub mod thermal;
