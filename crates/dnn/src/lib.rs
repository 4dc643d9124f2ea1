//! Deep-learning substrate for the DeepStrike reproduction.
//!
//! The paper's victim is "a LeNet-5 neural network trained with the MNIST
//! dataset", deployed in 8-bit fixed point on an FPGA accelerator. This
//! crate builds that entire stack from scratch:
//!
//! * [`tensor`] — a minimal dense `f32` tensor.
//! * [`layers`] — conv / max-pool / dense / tanh with forward *and*
//!   backward passes (verified against finite differences).
//! * [`network`] — sequential container, softmax cross-entropy, SGD with
//!   momentum.
//! * [`lenet`] — the paper's exact victim architecture (Fig. 5a).
//! * [`digits`] — a procedurally generated MNIST substitute (the original
//!   dataset is not available in the reproduction environment; see
//!   DESIGN.md for why the substitution preserves the attack-relevant
//!   behaviour).
//! * [`fixed`] — the paper's 8-bit fixed-point format (3 integer bits,
//!   5-bit mantissa).
//! * [`quant`] — post-training quantisation and an *integer* reference
//!   inference pipeline whose MAC-level arithmetic is exactly what the
//!   `accel` crate replays on its DSP model.
//! * [`train`] — training loop and evaluation.
//! * [`zoo`] — additional victim architectures (paper §V future work).
//!
//! # Example: train, quantise, deploy
//!
//! ```no_run
//! use dnn::digits::{Dataset, RenderParams};
//! use dnn::fixed::QFormat;
//! use dnn::lenet::lenet5;
//! use dnn::quant::QuantizedNetwork;
//! use dnn::train::{train, TrainConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let mut ds = Dataset::generate(2200, &RenderParams::default(), &mut rng);
//! let test = ds.split_off(200);
//! let mut net = lenet5(&mut rng);
//! train(&mut net, &ds, Some(&test), &TrainConfig::default(), &mut rng);
//! let q = QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper())?;
//! println!("deployed accuracy: {:.2}%", 100.0 * q.accuracy(test.iter()));
//! # Ok::<(), dnn::quant::QuantError>(())
//! ```

pub mod digits;
pub mod fixed;
pub mod layers;
pub mod lenet;
pub mod network;
pub mod quant;
pub mod tensor;
pub mod train;
pub mod zoo;
