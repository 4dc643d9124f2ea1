//! Cycle-level DNN accelerator simulator — the DeepStrike victim.
//!
//! The paper's victim is an open-source FPGA CNN engine whose processing
//! elements are DSP48 slices configured as `(A + D) × B` with a
//! fetch-after-five-cycles result path, clocked double data rate. This
//! crate models that machine at the level the attack interacts with it:
//!
//! * [`dsp`] — the `(A + D) × B` op and the Fig. 6b fault
//!   characterisation, which applies faults through the executor's own
//!   datapath.
//! * [`fault`] — the voltage → {duplication, random} fault model (§IV-A),
//!   with closed-form probabilities and a sampling path that agree.
//! * [`schedule`] — per-layer cycle windows with conv-compute-bound /
//!   FC-bandwidth-bound throughput, reproducing the paper's layer-duration
//!   ordering (FC1 longest; CONV2 the longest conv).
//! * [`power`] — activity-based current signatures (conv ≫ pool
//!   fluctuation) that give the TDC its per-layer fingerprints.
//! * [`executor`] — fault-aware integer inference that replays
//!   [`dnn::quant`] arithmetic exactly, consulting a per-MAC fault hook.
//!
//! # Example: fault characterisation at a fixed droop
//!
//! ```
//! use accel::dsp::{characterize, DspOp};
//! use accel::fault::FaultModel;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let ops = (0..2000).map(|i| DspOp { a: i, b: 7, d: 3 });
//! let tally = characterize(&FaultModel::paper(), ops, 0.83, &mut rng);
//! assert!(tally.total_fault_rate() > 0.0);
//! ```

#![deny(clippy::unwrap_used)]

pub mod dsp;
pub mod executor;
pub mod fault;
pub mod power;
pub mod schedule;
