//! Sequential network container, softmax and cross-entropy training.

use crate::layers::{Layer, LayerKind};
use crate::tensor::Tensor;

/// Numerically stable softmax over a logit vector.
///
/// # Example
///
/// ```
/// use dnn::network::softmax;
/// use dnn::tensor::Tensor;
///
/// let p = softmax(&Tensor::from_vec(vec![1.0, 1.0], &[2]));
/// assert!((p.data()[0] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax(logits: &Tensor) -> Tensor {
    let max = logits.data().iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.data().iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    Tensor::from_vec(exps.into_iter().map(|e| e / sum).collect(), logits.shape())
}

/// Cross-entropy loss of a probability vector against an integer label.
///
/// # Panics
///
/// Panics if `label` is out of range.
pub fn cross_entropy(probs: &Tensor, label: usize) -> f32 {
    assert!(label < probs.len(), "label {label} out of range");
    -(probs.data()[label].max(1e-12)).ln()
}

/// SGD hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub momentum: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig { lr: 0.05, momentum: 0.9 }
    }
}

/// A feed-forward stack of layers trained with softmax cross-entropy.
///
/// # Example
///
/// ```
/// use dnn::layers::{Dense, Tanh};
/// use dnn::network::Sequential;
/// use dnn::tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = Sequential::new("mlp");
/// net.push(Box::new(Dense::new("fc1", 4, 8, &mut rng)));
/// net.push(Box::new(Tanh::new("t1")));
/// net.push(Box::new(Dense::new("fc2", 8, 2, &mut rng)));
/// let logits = net.forward(&Tensor::zeros(&[4]));
/// assert_eq!(logits.shape(), &[2]);
/// ```
pub struct Sequential {
    name: String,
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        write!(f, "Sequential({} [{}])", self.name, names.join(" -> "))
    }
}

impl Sequential {
    /// Creates an empty network.
    pub fn new(name: impl Into<String>) -> Self {
        Sequential { name: name.into(), layers: Vec::new() }
    }

    /// Network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// The layer stack.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Structural description of every layer, in order.
    pub fn kinds(&self) -> Vec<LayerKind> {
        self.layers.iter().map(|l| l.kind()).collect()
    }

    /// Total learned parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Forward pass producing logits.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Class prediction (argmax of logits).
    pub fn predict(&mut self, input: &Tensor) -> usize {
        self.forward(input).argmax().expect("network produced empty logits").0
    }

    /// One forward/backward pass accumulating gradients; returns the loss.
    ///
    /// # Panics
    ///
    /// Panics if `label` exceeds the output dimension.
    pub fn accumulate(&mut self, input: &Tensor, label: usize) -> f32 {
        let logits = self.forward(input);
        let probs = softmax(&logits);
        let loss = cross_entropy(&probs, label);
        // ∂L/∂logits for softmax + CE is simply p − one_hot(label).
        let mut grad = probs;
        grad.data_mut()[label] -= 1.0;
        let mut g = grad;
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        loss
    }

    /// Applies accumulated gradients, scaled by `1/batch_size`.
    pub fn apply(&mut self, config: &SgdConfig, batch_size: usize) {
        let lr = config.lr / batch_size.max(1) as f32;
        for layer in &mut self.layers {
            layer.apply_gradients(lr, config.momentum);
        }
    }

    /// Trains on one mini-batch; returns the mean loss.
    pub fn train_batch(&mut self, batch: &[(&Tensor, usize)], config: &SgdConfig) -> f32 {
        if batch.is_empty() {
            return 0.0;
        }
        let mut total = 0.0;
        for (x, y) in batch {
            total += self.accumulate(x, *y);
        }
        self.apply(config, batch.len());
        total / batch.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Tanh};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn xor_net(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new("xor");
        net.push(Box::new(Dense::new("fc1", 2, 8, &mut rng)));
        net.push(Box::new(Tanh::new("t1")));
        net.push(Box::new(Dense::new("fc2", 8, 2, &mut rng)));
        net
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let p = softmax(&Tensor::from_vec(vec![1000.0, 1001.0, 999.0], &[3]));
        assert!((p.sum() - 1.0).abs() < 1e-6);
        assert!(p.data().iter().all(|&v| v.is_finite() && v >= 0.0));
        assert_eq!(p.argmax().unwrap().0, 1);
    }

    #[test]
    fn cross_entropy_of_certain_prediction_is_zero() {
        let p = Tensor::from_vec(vec![0.0, 1.0, 0.0], &[3]);
        assert!(cross_entropy(&p, 1) < 1e-6);
        assert!(cross_entropy(&p, 0) > 10.0, "confidently wrong is expensive");
    }

    #[test]
    fn learns_xor() {
        let mut net = xor_net(11);
        let data = [
            (Tensor::from_vec(vec![0.0, 0.0], &[2]), 0usize),
            (Tensor::from_vec(vec![0.0, 1.0], &[2]), 1),
            (Tensor::from_vec(vec![1.0, 0.0], &[2]), 1),
            (Tensor::from_vec(vec![1.0, 1.0], &[2]), 0),
        ];
        let config = SgdConfig { lr: 0.5, momentum: 0.9 };
        let mut last = f32::INFINITY;
        for _ in 0..300 {
            let batch: Vec<(&Tensor, usize)> = data.iter().map(|(x, y)| (x, *y)).collect();
            last = net.train_batch(&batch, &config);
        }
        assert!(last < 0.1, "loss failed to converge: {last}");
        for (x, y) in &data {
            assert_eq!(net.predict(x), *y);
        }
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut net = xor_net(1);
        assert_eq!(net.train_batch(&[], &SgdConfig::default()), 0.0);
    }

    #[test]
    fn structure_reports() {
        let net = xor_net(2);
        assert_eq!(net.kinds().len(), 3);
        assert_eq!(net.param_count(), (2 * 8 + 8) + (8 * 2 + 2));
        let dbg = format!("{net:?}");
        assert!(dbg.contains("fc1 -> t1 -> fc2"));
    }
}
