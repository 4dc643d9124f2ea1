//! Shared harness code for the figure-regeneration binaries and Criterion
//! benches.
//!
//! Every quantitative result in the paper maps to one binary here (see
//! DESIGN.md §3):
//!
//! | paper result | binary |
//! |---|---|
//! | Fig. 1b (TDC layer traces) | `fig1b` |
//! | Fig. 3 (start-detector input) | `fig3` |
//! | Fig. 5b (accuracy vs strikes per layer) | `fig5b` |
//! | Fig. 6b (DSP fault rates vs striker cells) | `fig6b` |
//! | §IV in-text resources/accuracy | `table_resources` |
//! | §III-C DRC claim | `drc_audit` |
//! | §V future work (3 tenants, more DNNs) | `multi_tenant`, `arch_sweep` |

pub mod golden;
pub mod supervisor;

use std::fs;
use std::path::PathBuf;

use dnn::digits::{Dataset, RenderParams};
use dnn::fixed::QFormat;
use dnn::lenet::lenet5;
use dnn::quant::QuantizedNetwork;
use dnn::train::{train, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed used throughout the harness so every figure regenerates
/// identically.
pub const HARNESS_SEED: u64 = 2021;

/// Training-set size for the LeNet victim (scaled from the paper's 60,000
/// MNIST images to keep regeneration minutes-fast; accuracy lands in the
/// same mid-90s regime).
pub const TRAIN_SAMPLES: usize = 4_000;

/// Held-out test-set size.
pub const TEST_SAMPLES: usize = 1_000;

/// Where trained models are cached between harness runs.
fn cache_path(name: &str) -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // repo root
    p.push("target");
    p.push("deepstrike-cache");
    fs::create_dir_all(&p).expect("cache directory is creatable");
    p.push(name);
    p
}

/// FNV-1a over the little-endian encoding of each word.
fn fnv1a(words: &[u64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// Cache key of the trained LeNet victim: a hash of everything that
/// changes the trained weights (seed, dataset sizes, every training
/// hyperparameter, quantisation format). Changing any of these switches
/// to a fresh cache file instead of silently reusing a stale model.
fn lenet_cache_key(config: &TrainConfig, quant: QFormat) -> u64 {
    fnv1a(&[
        HARNESS_SEED,
        TRAIN_SAMPLES as u64,
        TEST_SAMPLES as u64,
        config.epochs as u64,
        config.batch_size as u64,
        u64::from(config.sgd.lr.to_bits()),
        u64::from(config.sgd.momentum.to_bits()),
        u64::from(quant.is_signed()),
        u64::from(quant.frac_bits()),
    ])
}

/// The deterministic held-out test set used by all figures.
pub fn test_set() -> Dataset {
    let mut rng = StdRng::seed_from_u64(HARNESS_SEED ^ 0x07E5_75E7);
    Dataset::generate(TEST_SAMPLES, &RenderParams::challenging(), &mut rng)
}

/// Trains (or loads from cache) the paper's quantised LeNet-5 victim.
/// Returns the deployed network and its test accuracy.
///
/// The cache file name embeds `lenet_cache_key`, so editing the seed or
/// any training hyperparameter invalidates the cache automatically.
pub fn trained_lenet() -> (QuantizedNetwork, f64) {
    let config = TrainConfig::default();
    let quant = QFormat::paper();
    let path = cache_path(&format!("lenet_q_{:016x}.bin", lenet_cache_key(&config, quant)));
    let test = test_set();
    if let Ok(bytes) = fs::read(&path) {
        if let Ok(q) = QuantizedNetwork::from_bytes(&bytes) {
            let acc = q.accuracy(test.iter());
            if acc > 0.85 {
                return (q, acc);
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(HARNESS_SEED);
    let mut train_set = Dataset::generate(TRAIN_SAMPLES, &RenderParams::challenging(), &mut rng);
    let eval = train_set.split_off(TRAIN_SAMPLES / 10);
    let mut net = lenet5(&mut rng);
    train(&mut net, &train_set, Some(&eval), &config, &mut rng);
    let q =
        QuantizedNetwork::from_sequential(&net, &[1, 28, 28], quant).expect("LeNet-5 quantises");
    let _ = fs::write(&path, q.to_bytes());
    let acc = q.accuracy(test.iter());
    (q, acc)
}

/// Prints a CSV header + rows through a closure, prefixed with a title —
/// uniform output shape for all the figure binaries.
pub fn emit_series(title: &str, header: &str, rows: impl IntoIterator<Item = String>) {
    println!("# {title}");
    println!("{header}");
    for row in rows {
        println!("{row}");
    }
    println!();
}
