//! Post-training quantisation and integer reference inference.
//!
//! Deployment follows the paper: parameters and activations are 8-bit
//! fixed point ([`QFormat::paper`]); MAC accumulation happens on the raw
//! integer codes exactly as a DSP48 does it. This is the one copy of that
//! clean arithmetic ([`QConv::accumulators`], [`QDense::accumulators`],
//! [`QuantizedNetwork::requantize`], [`argmax`]): the `accel` crate's
//! fault-aware executor sums every stage with it and then corrects the
//! outputs its faults touch.
//!
//! Scale conventions (for the 5-fraction-bit format):
//!
//! * activation/weight codes are `i8` with value `code / 32`;
//! * products and accumulators are `i32` at scale `1/1024` (Q·10);
//! * biases are pre-scaled to the accumulator scale;
//! * `tanh` is applied on the dequantised accumulator and re-quantised —
//!   on the FPGA this is a block-RAM lookup table, with identical results.

use crate::fixed::QFormat;
use crate::layers::LayerKind;
use crate::network::Sequential;
use crate::tensor::Tensor;

use std::error::Error;
use std::fmt;

/// Errors from quantised-model construction and decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QuantError {
    /// The float network has a structure the quantiser cannot map.
    UnsupportedStructure(String),
    /// Encoded model bytes are truncated or malformed.
    MalformedModel(String),
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::UnsupportedStructure(msg) => write!(f, "unsupported structure: {msg}"),
            QuantError::MalformedModel(msg) => write!(f, "malformed model: {msg}"),
        }
    }
}

impl Error for QuantError {}

/// Whether a compute stage applies `tanh` to its accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Re-quantised `tanh` (hidden stages).
    Tanh,
    /// Raw accumulator passes through as a logit (final stage).
    None,
}

/// A quantised convolution stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QConv {
    /// Stage name (e.g. `conv1`).
    pub name: String,
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel side.
    pub kernel: usize,
    /// Weight codes, layout `[out, in, k, k]` row-major.
    pub weights: Vec<i8>,
    /// Bias at accumulator scale, one per output channel.
    pub bias: Vec<i32>,
    /// Activation applied to each accumulator.
    pub activation: Activation,
}

/// A quantised fully connected stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QDense {
    /// Stage name (e.g. `fc1`).
    pub name: String,
    /// Flattened input size.
    pub inputs: usize,
    /// Output size.
    pub outputs: usize,
    /// Weight codes, layout `[out, in]` row-major.
    pub weights: Vec<i8>,
    /// Bias at accumulator scale.
    pub bias: Vec<i32>,
    /// Activation applied to each accumulator.
    pub activation: Activation,
}

impl QConv {
    /// Output shape `[out_channels, oh, ow]` of the stage over `input`.
    pub fn output_shape(&self, input: &CodeMap) -> [usize; 3] {
        let (h, w) = (input.shape[1], input.shape[2]);
        [self.out_channels, h - self.kernel + 1, w - self.kernel + 1]
    }

    /// Every output's accumulator in `(oc, oy, ox)` order: the bias plus
    /// the weight × activation code products of its `(ic, ky, kx)` taps,
    /// wrapping on overflow like the i32 datapath (so the summation order
    /// is free). Each tap's weight is applied to a whole output row at a
    /// time, which the compiler vectorises.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not have the stage's input channels.
    pub fn accumulators(&self, input: &CodeMap) -> Vec<i32> {
        assert_eq!(input.shape[0], self.in_channels, "conv input channels");
        let (h, w) = (input.shape[1], input.shape[2]);
        let [_, oh, ow] = self.output_shape(input);
        let k = self.kernel;
        let taps = self.in_channels * k * k;
        let mut accs = vec![0i32; self.out_channels * oh * ow];
        for (oc, plane) in accs.chunks_exact_mut(oh * ow).enumerate() {
            plane.fill(self.bias[oc]);
            for (tap, &wv) in self.weights[oc * taps..(oc + 1) * taps].iter().enumerate() {
                let (ic, ky, kx) = (tap / (k * k), (tap / k) % k, tap % k);
                let wv = i32::from(wv);
                for (oy, row) in plane.chunks_exact_mut(ow).enumerate() {
                    let xrow = &input.codes[(ic * h + oy + ky) * w + kx..][..ow];
                    for (acc, &xv) in row.iter_mut().zip(xrow) {
                        *acc = acc.wrapping_add(wv * i32::from(xv));
                    }
                }
            }
        }
        accs
    }
}

impl QDense {
    /// The accumulator of output `o` over input codes `x`: the bias plus
    /// the row's products in input order, wrapping on overflow.
    #[inline]
    pub fn accumulate(&self, x: &[i8], o: usize) -> i32 {
        let row = &self.weights[o * self.inputs..(o + 1) * self.inputs];
        let mut acc = self.bias[o];
        for (wv, xv) in row.iter().zip(x) {
            acc = acc.wrapping_add(i32::from(*wv) * i32::from(*xv));
        }
        acc
    }

    /// Every output's accumulator ([`Self::accumulate`]) over input codes
    /// `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have the stage's input size.
    pub fn accumulators(&self, x: &[i8]) -> Vec<i32> {
        assert_eq!(x.len(), self.inputs, "dense input size");
        (0..self.outputs).map(|o| self.accumulate(x, o)).collect()
    }
}

/// One stage of the quantised pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QLayer {
    /// Convolution (+ optional tanh).
    Conv(QConv),
    /// Non-overlapping max pooling on codes.
    MaxPool {
        /// Stage name (e.g. `pool1`).
        name: String,
        /// Window side.
        window: usize,
    },
    /// Fully connected (+ optional tanh).
    Dense(QDense),
}

impl QLayer {
    /// Stage name.
    pub fn name(&self) -> &str {
        match self {
            QLayer::Conv(c) => &c.name,
            QLayer::MaxPool { name, .. } => name,
            QLayer::Dense(d) => &d.name,
        }
    }
}

/// A fully quantised feed-forward network.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedNetwork {
    format: QFormat,
    input_shape: Vec<usize>,
    layers: Vec<QLayer>,
}

/// Activation codes plus their feature-map shape, flowing between stages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeMap {
    /// Shape (`[c, h, w]` for maps, `[n]` for vectors).
    pub shape: Vec<usize>,
    /// Row-major activation codes.
    pub codes: Vec<i8>,
}

impl QuantizedNetwork {
    /// Quantises a trained float network.
    ///
    /// The float network must be a strict alternation of parameterised /
    /// pooling stages with optional `Tanh` layers after conv/dense stages
    /// (which LeNet-5 and everything in [`crate::zoo`] satisfies).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedStructure`] otherwise, or if the
    /// network has no stages.
    pub fn from_sequential(
        net: &Sequential,
        input_shape: &[usize],
        format: QFormat,
    ) -> Result<Self, QuantError> {
        let scale = format.scale();
        let acc_scale = scale * scale;
        let quant_w = |t: &Tensor| -> Vec<i8> {
            t.data().iter().map(|&v| format.quantize(v).code() as i8).collect()
        };
        let quant_b = |t: &Tensor| -> Vec<i32> {
            t.data().iter().map(|&v| (v * acc_scale).round() as i32).collect()
        };

        let layers_f = net.layers();
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < layers_f.len() {
            let layer = &layers_f[i];
            // Peek for a following Tanh.
            let followed_by_tanh =
                matches!(layers_f.get(i + 1).map(|l| l.kind()), Some(LayerKind::Tanh));
            match layer.kind() {
                LayerKind::Conv { in_channels, out_channels, kernel } => {
                    let p = layer.params().ok_or_else(|| {
                        QuantError::UnsupportedStructure(format!(
                            "conv {} has no parameters",
                            layer.name()
                        ))
                    })?;
                    out.push(QLayer::Conv(QConv {
                        name: layer.name().to_string(),
                        in_channels,
                        out_channels,
                        kernel,
                        weights: quant_w(&p.weights),
                        bias: quant_b(&p.bias),
                        activation: if followed_by_tanh {
                            Activation::Tanh
                        } else {
                            Activation::None
                        },
                    }));
                    i += if followed_by_tanh { 2 } else { 1 };
                }
                LayerKind::Dense { inputs, outputs } => {
                    let p = layer.params().ok_or_else(|| {
                        QuantError::UnsupportedStructure(format!(
                            "dense {} has no parameters",
                            layer.name()
                        ))
                    })?;
                    out.push(QLayer::Dense(QDense {
                        name: layer.name().to_string(),
                        inputs,
                        outputs,
                        weights: quant_w(&p.weights),
                        bias: quant_b(&p.bias),
                        activation: if followed_by_tanh {
                            Activation::Tanh
                        } else {
                            Activation::None
                        },
                    }));
                    i += if followed_by_tanh { 2 } else { 1 };
                }
                LayerKind::MaxPool { window } => {
                    out.push(QLayer::MaxPool { name: layer.name().to_string(), window });
                    i += 1;
                }
                LayerKind::Tanh => {
                    return Err(QuantError::UnsupportedStructure(format!(
                        "stray activation {} not preceded by conv/dense",
                        layer.name()
                    )));
                }
            }
        }
        if out.is_empty() {
            return Err(QuantError::UnsupportedStructure("network has no stages".into()));
        }
        Ok(QuantizedNetwork { format, input_shape: input_shape.to_vec(), layers: out })
    }

    /// The quantisation format.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Expected input shape.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// The stage pipeline.
    pub fn layers(&self) -> &[QLayer] {
        &self.layers
    }

    /// Names of the compute stages in order.
    pub fn stage_names(&self) -> Vec<&str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Quantises an input tensor into activation codes.
    ///
    /// # Panics
    ///
    /// Panics if the tensor shape does not match [`Self::input_shape`].
    pub fn quantize_input(&self, input: &Tensor) -> CodeMap {
        assert_eq!(input.shape(), self.input_shape.as_slice(), "input shape mismatch");
        CodeMap {
            shape: input.shape().to_vec(),
            codes: input.data().iter().map(|&v| self.format.quantize(v).code() as i8).collect(),
        }
    }

    /// Reference (fault-free) execution of one stage.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match the stage's expected geometry.
    pub fn run_stage(&self, stage: &QLayer, input: &CodeMap) -> CodeMap {
        match stage {
            QLayer::Conv(c) => self.run_conv(c, input),
            QLayer::MaxPool { window, .. } => run_pool(*window, input),
            QLayer::Dense(d) => self.run_dense(d, input),
        }
    }

    fn run_conv(&self, c: &QConv, input: &CodeMap) -> CodeMap {
        let accs = c.accumulators(input);
        self.requantize_map(c.output_shape(input).to_vec(), &accs, c.activation)
    }

    fn run_dense(&self, d: &QDense, input: &CodeMap) -> CodeMap {
        self.requantize_map(vec![d.outputs], &d.accumulators(&input.codes), d.activation)
    }

    /// The activation map of a stage's accumulators: [`Self::requantize`]
    /// of each, in order.
    pub fn requantize_map(&self, shape: Vec<usize>, accs: &[i32], act: Activation) -> CodeMap {
        CodeMap { shape, codes: accs.iter().map(|&acc| self.requantize(acc, act)).collect() }
    }

    /// Accumulator → activation code: `tanh` of the dequantised
    /// accumulator, re-quantised (the BRAM LUT on the FPGA), or for
    /// `Activation::None` the accumulator rescaled and saturated to code
    /// range. Logits should instead be read through [`Self::infer_logits`],
    /// which keeps full precision.
    pub fn requantize(&self, acc: i32, act: Activation) -> i8 {
        let scale = self.format.scale();
        match act {
            Activation::Tanh => {
                self.format.quantize((acc as f32 / (scale * scale)).tanh()).code() as i8
            }
            Activation::None => (acc as f32 / scale).round().clamp(-128.0, 127.0) as i8,
        }
    }

    /// Full-precision logits for one input (final-stage accumulators at
    /// accumulator scale).
    ///
    /// # Panics
    ///
    /// Panics on input shape mismatch.
    pub fn infer_logits(&self, input: &Tensor) -> Vec<i32> {
        let (last, hidden) = self.layers.split_last().expect("construction rejects empty networks");
        let map = hidden.iter().fold(self.quantize_input(input), |map, s| self.run_stage(s, &map));
        match last {
            // Keep the final accumulators at full precision.
            QLayer::Dense(d) => d.accumulators(&map.codes),
            _ => self.run_stage(last, &map).codes.iter().map(|&c| i32::from(c)).collect(),
        }
    }

    /// Predicted class for one input.
    pub fn predict(&self, input: &Tensor) -> usize {
        let predicted = argmax(&self.infer_logits(input));
        trace::emit(|| trace::Event::Inference { predicted: predicted as u32 });
        predicted
    }

    /// Classification accuracy over `(image, label)` pairs.
    pub fn accuracy<'a>(&self, samples: impl Iterator<Item = (&'a Tensor, usize)>) -> f64 {
        let mut total = 0usize;
        let mut correct = 0usize;
        for (x, y) in samples {
            total += 1;
            if self.predict(x) == y {
                correct += 1;
            }
        }
        if total == 0 {
            return 0.0;
        }
        correct as f64 / total as f64
    }
}

/// Index of the largest logit; the lowest such index on ties.
///
/// # Panics
///
/// Panics if `logits` is empty.
pub fn argmax(logits: &[i32]) -> usize {
    logits
        .iter()
        .enumerate()
        .max_by_key(|(i, &v)| (v, std::cmp::Reverse(*i)))
        .map(|(i, _)| i)
        .expect("non-empty logits")
}

fn run_pool(window: usize, input: &CodeMap) -> CodeMap {
    let (c, h, w) = (input.shape[0], input.shape[1], input.shape[2]);
    assert!(h % window == 0 && w % window == 0, "pool input not divisible");
    let (oh, ow) = (h / window, w / window);
    let mut codes = vec![0i8; c * oh * ow];
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = i8::MIN;
                for ky in 0..window {
                    for kx in 0..window {
                        let v = input.codes[(ch * h + oy * window + ky) * w + ox * window + kx];
                        best = best.max(v);
                    }
                }
                codes[(ch * oh + oy) * ow + ox] = best;
            }
        }
    }
    CodeMap { shape: vec![c, oh, ow], codes }
}

// ---------------------------------------------------------------------------
// Binary model codec (for caching trained models between runs).
// ---------------------------------------------------------------------------

const MODEL_MAGIC: &[u8; 4] = b"DSQ1";

impl QuantizedNetwork {
    /// Serialises the model to a compact binary blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MODEL_MAGIC);
        out.push(u8::from(self.format.is_signed()));
        out.push(self.format.frac_bits());
        push_usize(&mut out, self.input_shape.len());
        for &d in &self.input_shape {
            push_usize(&mut out, d);
        }
        push_usize(&mut out, self.layers.len());
        for layer in &self.layers {
            match layer {
                QLayer::Conv(c) => {
                    out.push(0);
                    push_str(&mut out, &c.name);
                    push_usize(&mut out, c.in_channels);
                    push_usize(&mut out, c.out_channels);
                    push_usize(&mut out, c.kernel);
                    out.push(u8::from(c.activation == Activation::Tanh));
                    push_i8s(&mut out, &c.weights);
                    push_i32s(&mut out, &c.bias);
                }
                QLayer::MaxPool { name, window } => {
                    out.push(1);
                    push_str(&mut out, name);
                    push_usize(&mut out, *window);
                }
                QLayer::Dense(d) => {
                    out.push(2);
                    push_str(&mut out, &d.name);
                    push_usize(&mut out, d.inputs);
                    push_usize(&mut out, d.outputs);
                    out.push(u8::from(d.activation == Activation::Tanh));
                    push_i8s(&mut out, &d.weights);
                    push_i32s(&mut out, &d.bias);
                }
            }
        }
        out
    }

    /// Decodes a model serialised with [`Self::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::MalformedModel`] on truncation, bad magic,
    /// inconsistent geometry, no stages, or a stage chain that does not fit
    /// the input shape. Never panics, whatever the bytes: a decoded model
    /// runs [`Self::infer_logits`] on any input of its shape.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, QuantError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(4)? != MODEL_MAGIC {
            return Err(QuantError::MalformedModel("bad magic".into()));
        }
        let signed = r.u8()? != 0;
        let frac = r.u8()?;
        if frac >= 8 {
            return Err(QuantError::MalformedModel("bad format".into()));
        }
        let format = QFormat::new(signed, frac);
        // Counts come from the file: grow the vectors as items decode
        // rather than reserving what a corrupt count claims.
        let rank = r.usize_()?;
        let mut input_shape = Vec::new();
        for _ in 0..rank {
            input_shape.push(r.usize_()?);
        }
        let n_layers = r.usize_()?;
        let mut layers = Vec::new();
        for _ in 0..n_layers {
            match r.u8()? {
                0 => {
                    let name = r.string()?;
                    let in_channels = r.usize_()?;
                    let out_channels = r.usize_()?;
                    let kernel = r.usize_()?;
                    let activation = if r.u8()? != 0 { Activation::Tanh } else { Activation::None };
                    let weights = r.i8s()?;
                    let bias = r.i32s()?;
                    let taps = checked_product(&[out_channels, in_channels, kernel, kernel]);
                    if taps != Some(weights.len()) || bias.len() != out_channels {
                        return Err(QuantError::MalformedModel("conv geometry".into()));
                    }
                    layers.push(QLayer::Conv(QConv {
                        name,
                        in_channels,
                        out_channels,
                        kernel,
                        weights,
                        bias,
                        activation,
                    }));
                }
                1 => {
                    let name = r.string()?;
                    let window = r.usize_()?;
                    layers.push(QLayer::MaxPool { name, window });
                }
                2 => {
                    let name = r.string()?;
                    let inputs = r.usize_()?;
                    let outputs = r.usize_()?;
                    let activation = if r.u8()? != 0 { Activation::Tanh } else { Activation::None };
                    let weights = r.i8s()?;
                    let bias = r.i32s()?;
                    if checked_product(&[inputs, outputs]) != Some(weights.len())
                        || bias.len() != outputs
                    {
                        return Err(QuantError::MalformedModel("dense geometry".into()));
                    }
                    layers.push(QLayer::Dense(QDense {
                        name,
                        inputs,
                        outputs,
                        weights,
                        bias,
                        activation,
                    }));
                }
                tag => {
                    return Err(QuantError::MalformedModel(format!("unknown layer tag {tag}")));
                }
            }
        }
        if layers.is_empty() {
            return Err(QuantError::MalformedModel("network has no stages".into()));
        }
        check_chain(&input_shape, &layers)?;
        Ok(QuantizedNetwork { format, input_shape, layers })
    }
}

/// Largest feature map, in codes, a decoded model may declare (the blob
/// limit of [`Reader::i8s`]).
const MAX_CODES: usize = 1 << 28;

/// The product of `dims`, or `None` on overflow.
fn checked_product(dims: &[usize]) -> Option<usize> {
    dims.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d))
}

/// Checks that each stage accepts the map the previous one produces,
/// starting from `input_shape` (conv kernels and pool windows non-zero and
/// fitting the map), and that every map has at least one dimension and
/// between 1 and [`MAX_CODES`] codes.
fn check_chain(input_shape: &[usize], layers: &[QLayer]) -> Result<(), QuantError> {
    let check_size = |shape: &[usize]| match checked_product(shape) {
        Some(n) if !shape.is_empty() && (1..=MAX_CODES).contains(&n) => Ok(()),
        _ => Err(QuantError::MalformedModel(format!("feature map {shape:?}"))),
    };
    let misfit = |name: &str| QuantError::MalformedModel(format!("{name} does not fit its input"));
    let mut shape = input_shape.to_vec();
    check_size(&shape)?;
    for layer in layers {
        shape = match (layer, &shape[..]) {
            (QLayer::Conv(c), &[ch, h, w])
                if ch == c.in_channels && (1..=h.min(w)).contains(&c.kernel) =>
            {
                vec![c.out_channels, h - c.kernel + 1, w - c.kernel + 1]
            }
            (&QLayer::MaxPool { window, .. }, &[ch, h, w])
                if window > 0 && h % window == 0 && w % window == 0 =>
            {
                vec![ch, h / window, w / window]
            }
            (QLayer::Dense(d), _) if checked_product(&shape) == Some(d.inputs) => vec![d.outputs],
            _ => return Err(misfit(layer.name())),
        };
        check_size(&shape)?;
    }
    Ok(())
}

fn push_usize(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u64).to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_usize(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn push_i8s(out: &mut Vec<u8>, v: &[i8]) {
    push_usize(out, v.len());
    out.extend(v.iter().map(|&b| b as u8));
}

fn push_i32s(out: &mut Vec<u8>, v: &[i32]) {
    push_usize(out, v.len());
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], QuantError> {
        if n > self.bytes.len() - self.pos {
            return Err(QuantError::MalformedModel("truncated".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, QuantError> {
        Ok(self.take(1)?[0])
    }

    fn usize_(&mut self) -> Result<usize, QuantError> {
        let b = self.take(8)?;
        let v = u64::from_le_bytes(b.try_into().expect("len 8"));
        usize::try_from(v).map_err(|_| QuantError::MalformedModel("size overflow".into()))
    }

    fn string(&mut self) -> Result<String, QuantError> {
        let n = self.usize_()?;
        if n > 1 << 20 {
            return Err(QuantError::MalformedModel("name too long".into()));
        }
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| QuantError::MalformedModel("bad utf8".into()))
    }

    fn i8s(&mut self) -> Result<Vec<i8>, QuantError> {
        let n = self.usize_()?;
        if n > 1 << 28 {
            return Err(QuantError::MalformedModel("blob too long".into()));
        }
        Ok(self.take(n)?.iter().map(|&b| b as i8).collect())
    }

    fn i32s(&mut self) -> Result<Vec<i32>, QuantError> {
        let n = self.usize_()?;
        if n > 1 << 26 {
            return Err(QuantError::MalformedModel("blob too long".into()));
        }
        let b = self.take(n * 4)?;
        Ok(b.chunks_exact(4).map(|c| i32::from_le_bytes(c.try_into().expect("len 4"))).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, MaxPool2d, Tanh};
    use crate::lenet::lenet5;
    use crate::network::Sequential;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quantized_lenet(seed: u64) -> (Sequential, QuantizedNetwork) {
        let net = lenet5(&mut StdRng::seed_from_u64(seed));
        let q = QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap();
        (net, q)
    }

    #[test]
    fn structure_mapping() {
        let (_, q) = quantized_lenet(0);
        let names = q.stage_names();
        assert_eq!(names, vec!["conv1", "pool1", "conv2", "fc1", "fc2"]);
        match &q.layers()[0] {
            QLayer::Conv(c) => {
                assert_eq!(c.activation, Activation::Tanh);
                assert_eq!(c.weights.len(), 6 * 25);
            }
            other => panic!("expected conv, got {other:?}"),
        }
        match &q.layers()[4] {
            QLayer::Dense(d) => assert_eq!(d.activation, Activation::None),
            other => panic!("expected dense, got {other:?}"),
        }
    }

    #[test]
    fn quantized_agrees_with_float_on_most_predictions() {
        let (mut net, q) = quantized_lenet(7);
        let mut rng = StdRng::seed_from_u64(123);
        let ds =
            crate::digits::Dataset::generate(40, &crate::digits::RenderParams::default(), &mut rng);
        let mut agree = 0usize;
        for (x, _) in ds.iter() {
            if net.predict(x) == q.predict(x) {
                agree += 1;
            }
        }
        // Untrained nets have near-arbitrary logits; quantisation noise can
        // flip close calls, but the two pipelines must broadly agree.
        assert!(agree >= 28, "agreement too low: {agree}/40");
    }

    #[test]
    fn codec_round_trip() {
        let (_, q) = quantized_lenet(5);
        let bytes = q.to_bytes();
        let q2 = QuantizedNetwork::from_bytes(&bytes).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn codec_rejects_corruption() {
        let (_, q) = quantized_lenet(5);
        let bytes = q.to_bytes();
        assert!(QuantizedNetwork::from_bytes(&bytes[..10]).is_err(), "truncated");
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(QuantizedNetwork::from_bytes(&bad_magic).is_err(), "magic");
        assert!(QuantizedNetwork::from_bytes(&[]).is_err(), "empty");
        // Bit 62 of `rank`, the u64 after the magic and the format bytes.
        let mut huge_rank = bytes.clone();
        huge_rank[6 + 7] ^= 1 << 6;
        assert!(QuantizedNetwork::from_bytes(&huge_rank).is_err(), "rank");
    }

    #[test]
    fn codec_rejects_a_pool_window_that_breaks_the_chain() {
        let (_, q) = quantized_lenet(5);
        let mut widened = q.clone();
        match &mut widened.layers[1] {
            QLayer::MaxPool { window, .. } => *window = 3,
            other => panic!("expected pool1, got {other:?}"),
        }
        let flipped_bits: u32 =
            q.to_bytes().iter().zip(widened.to_bytes()).map(|(a, b)| (a ^ b).count_ones()).sum();
        assert_eq!(flipped_bits, 1, "window 2 -> 3 is a single bit flip");
        assert!(matches!(
            QuantizedNetwork::from_bytes(&widened.to_bytes()),
            Err(QuantError::MalformedModel(_))
        ));
    }

    #[test]
    fn no_single_bit_flip_makes_decoding_or_inference_panic() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = Sequential::new("small");
        net.push(Box::new(Conv2d::new("conv1", 1, 2, 3, &mut rng)));
        net.push(Box::new(Tanh::new("t1")));
        net.push(Box::new(MaxPool2d::new("pool1", 2)));
        net.push(Box::new(Dense::new("fc1", 8, 3, &mut rng)));
        let q = QuantizedNetwork::from_sequential(&net, &[1, 6, 6], QFormat::paper()).unwrap();
        let bytes = q.to_bytes();
        let mut decoded = 0usize;
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(model) = QuantizedNetwork::from_bytes(&flipped) {
                model.infer_logits(&Tensor::zeros(model.input_shape()));
                decoded += 1;
            }
        }
        // Weight, bias and activation flips still decode.
        assert!(decoded > bytes.len(), "only {decoded} flips decoded");
    }

    #[test]
    fn empty_networks_are_rejected() {
        let empty = Sequential::new("empty");
        assert!(QuantizedNetwork::from_sequential(&empty, &[1, 28, 28], QFormat::paper()).is_err());
        let (_, q) = quantized_lenet(5);
        let stageless = QuantizedNetwork { layers: Vec::new(), ..q };
        assert!(QuantizedNetwork::from_bytes(&stageless.to_bytes()).is_err());
    }

    #[test]
    fn argmax_takes_the_lowest_index_on_ties() {
        assert_eq!(argmax(&[3, 7, 7, -1]), 1);
        assert_eq!(argmax(&[-9, -2, -5, -2]), 1);
        assert_eq!(argmax(&[i32::MIN, i32::MIN]), 0);
        assert_eq!(argmax(&[4]), 0);
    }

    #[test]
    fn tanh_code_saturates_and_is_monotone() {
        let (_, q) = quantized_lenet(1);
        let tanh_code = |acc| q.requantize(acc, Activation::Tanh);
        assert_eq!(tanh_code(1_000_000), q.format().quantize(1.0).code() as i8);
        assert_eq!(tanh_code(-1_000_000), q.format().quantize(-1.0).code() as i8);
        let mut prev = i8::MIN;
        for acc in (-4096..4096).step_by(64) {
            let c = tanh_code(acc);
            assert!(c >= prev, "tanh code must be monotone");
            prev = c;
        }
    }

    #[test]
    fn pool_on_codes_matches_semantics() {
        let input = CodeMap { shape: vec![1, 2, 2], codes: vec![-5, 3, 2, -1] };
        let out = run_pool(2, &input);
        assert_eq!(out.codes, vec![3]);
        assert_eq!(out.shape, vec![1, 1, 1]);
    }

    #[test]
    fn logits_have_full_precision() {
        let (_, q) = quantized_lenet(2);
        let x = crate::tensor::Tensor::full(&[1, 28, 28], 0.3);
        let logits = q.infer_logits(&x);
        assert_eq!(logits.len(), 10);
        // At accumulator scale, non-trivial logits are way beyond i8 range.
        assert!(logits.iter().any(|&v| v.abs() > 127), "{logits:?}");
    }

    #[test]
    fn accuracy_counts() {
        let (_, q) = quantized_lenet(3);
        let mut rng = StdRng::seed_from_u64(4);
        let ds =
            crate::digits::Dataset::generate(20, &crate::digits::RenderParams::default(), &mut rng);
        let acc = q.accuracy(ds.iter());
        assert!((0.0..=1.0).contains(&acc));
        assert_eq!(q.accuracy(std::iter::empty()), 0.0);
    }
}
