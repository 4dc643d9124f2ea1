//! Per-layer execution schedules.
//!
//! The victim accelerator executes one layer at a time (the paper's Fig. 1b
//! shows clean per-layer phases with "stalls" between them). The schedule
//! maps each stage of a quantised network to a cycle window, using a
//! throughput model with the two properties the paper's §IV analysis rests
//! on:
//!
//! * convolutions are compute-bound on the DSP array (all PEs busy, double
//!   data rate ⇒ 2 MACs/DSP/cycle), while
//! * fully connected layers are weight-bandwidth-bound (each weight is used
//!   once, so the memory interface, not the DSP array, sets the pace) —
//!   which is why FC1 "takes the longest time to execute" despite fewer
//!   MACs than CONV2.

use dnn::quant::{QLayer, QuantizedNetwork};

/// What kind of compute a stage performs (drives power + fault modelling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// DSP-array convolution.
    Conv,
    /// Fabric (LUT) max-pooling.
    Pool,
    /// DSP fully connected, bandwidth-bound.
    Dense,
}

/// Number of DSP processing elements.
pub const PE_COUNT: usize = 8;
/// MACs per DSP per cycle: the DSPs run double data rate.
pub const MACS_PER_DSP: usize = 2;
/// Pooling comparators operating per cycle.
pub const POOL_LANES: usize = 4;
/// Accelerator clock in MHz (10 ns cycles).
pub const CLOCK_MHZ: f64 = 100.0;

/// The accelerator parameters callers vary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelConfig {
    /// Weights the memory interface can stream per cycle (bounds FC).
    pub weight_bandwidth: usize,
    /// Idle cycles inserted between layers (the Fig. 1b "stalls").
    pub stall_cycles: u64,
}

impl Default for AccelConfig {
    fn default() -> Self {
        AccelConfig { weight_bandwidth: 4, stall_cycles: 600 }
    }
}

/// One stage's cycle window.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWindow {
    /// Stage name (e.g. `conv2`).
    pub name: String,
    /// Compute class.
    pub kind: StageKind,
    /// First cycle of the window.
    pub start_cycle: u64,
    /// Window length in cycles.
    pub cycles: u64,
    /// MAC (or comparator) operations executed in the window.
    pub ops: u64,
    /// Output elements produced.
    pub outputs: u64,
}

impl LayerWindow {
    /// One past the last cycle of the window.
    pub fn end_cycle(&self) -> u64 {
        self.start_cycle + self.cycles
    }

    /// Whether `cycle` falls inside the window.
    pub fn contains(&self, cycle: u64) -> bool {
        (self.start_cycle..self.end_cycle()).contains(&cycle)
    }

    /// The cycle at which op `i` executes (ops spread uniformly).
    ///
    /// # Panics
    ///
    /// Panics if `i >= ops`.
    pub fn cycle_of_op(&self, i: u64) -> u64 {
        assert!(i < self.ops, "op {i} out of range ({} ops)", self.ops);
        self.start_cycle + i * self.cycles / self.ops.max(1)
    }
}

/// The full execution schedule of one inference.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    config: AccelConfig,
    windows: Vec<LayerWindow>,
    total_cycles: u64,
}

impl Schedule {
    /// Builds the schedule for a quantised network.
    ///
    /// # Panics
    ///
    /// Panics if the network input shape is not `[c, h, w]`.
    pub fn for_network(net: &QuantizedNetwork, config: &AccelConfig) -> Self {
        let shape = net.input_shape();
        assert_eq!(shape.len(), 3, "expected [c, h, w] input");
        let mut cur = [shape[0], shape[1], shape[2]];
        let mut cycle = config.stall_cycles; // initial load stall
        let mut windows = Vec::new();
        for layer in net.layers() {
            let (kind, ops, outputs, next) = match layer {
                QLayer::Conv(c) => {
                    let oh = cur[1] - c.kernel + 1;
                    let ow = cur[2] - c.kernel + 1;
                    let outputs = (c.out_channels * oh * ow) as u64;
                    let ops = outputs * (c.in_channels * c.kernel * c.kernel) as u64;
                    (StageKind::Conv, ops, outputs, [c.out_channels, oh, ow])
                }
                QLayer::MaxPool { window, .. } => {
                    let oh = cur[1] / window;
                    let ow = cur[2] / window;
                    let outputs = (cur[0] * oh * ow) as u64;
                    let ops = outputs * (window * window) as u64;
                    (StageKind::Pool, ops, outputs, [cur[0], oh, ow])
                }
                QLayer::Dense(d) => {
                    let ops = (d.inputs * d.outputs) as u64;
                    (StageKind::Dense, ops, d.outputs as u64, [d.outputs, 1, 1])
                }
            };
            let throughput = match kind {
                StageKind::Conv => (PE_COUNT * MACS_PER_DSP) as u64,
                StageKind::Pool => POOL_LANES as u64,
                StageKind::Dense => config.weight_bandwidth as u64,
            }
            .max(1);
            let cycles = ops.div_ceil(throughput).max(1);
            windows.push(LayerWindow {
                name: layer.name().to_string(),
                kind,
                start_cycle: cycle,
                cycles,
                ops,
                outputs,
            });
            cycle += cycles + config.stall_cycles;
            cur = next;
        }
        Schedule { config: *config, windows, total_cycles: cycle }
    }

    /// Throughput configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// Stage windows in execution order.
    pub fn windows(&self) -> &[LayerWindow] {
        &self.windows
    }

    /// Window of the named stage.
    pub fn window(&self, name: &str) -> Option<&LayerWindow> {
        self.windows.iter().find(|w| w.name == name)
    }

    /// Total cycles for one inference, including stalls.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Total wall-clock time for one inference in microseconds.
    pub fn total_us(&self) -> f64 {
        self.total_cycles as f64 * (1000.0 / CLOCK_MHZ) / 1000.0
    }

    /// Which stage (if any) is executing at `cycle`; `None` means a stall.
    pub fn stage_at(&self, cycle: u64) -> Option<&LayerWindow> {
        self.windows.iter().find(|w| w.contains(cycle))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use dnn::fixed::QFormat;
    use dnn::lenet::lenet5;
    use dnn::quant::QuantizedNetwork;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lenet_schedule() -> Schedule {
        let net = lenet5(&mut StdRng::seed_from_u64(0));
        let q = QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap();
        Schedule::for_network(&q, &AccelConfig::default())
    }

    #[test]
    fn lenet_windows_have_paper_op_counts() {
        let s = lenet_schedule();
        let names: Vec<&str> = s.windows().iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, vec!["conv1", "pool1", "conv2", "fc1", "fc2"]);
        assert_eq!(s.window("conv1").unwrap().ops, 6 * 24 * 24 * 25);
        assert_eq!(s.window("conv2").unwrap().ops, 16 * 8 * 8 * 6 * 25);
        assert_eq!(s.window("fc1").unwrap().ops, 1024 * 120);
        assert_eq!(s.window("fc2").unwrap().ops, 120 * 10);
    }

    #[test]
    fn fc1_is_the_longest_layer_and_conv2_longest_conv() {
        // The paper: "FC1 takes the longest time to execute", while CONV2
        // is the biggest conv and receives the most strikes.
        let s = lenet_schedule();
        let fc1 = s.window("fc1").unwrap().cycles;
        for w in s.windows() {
            if w.name != "fc1" {
                assert!(w.cycles < fc1, "{} ({} cycles) >= fc1 ({fc1})", w.name, w.cycles);
            }
        }
        let conv1 = s.window("conv1").unwrap().cycles;
        let conv2 = s.window("conv2").unwrap().cycles;
        assert!(conv2 > conv1, "conv2 must run longer than conv1");
    }

    #[test]
    fn conv2_window_supports_thousands_of_strikes() {
        // The paper applies up to 4500 strikes while CONV2 executes; with a
        // one-cycle strike and one-cycle recovery that needs >= 9000 cycles.
        let s = lenet_schedule();
        assert!(
            s.window("conv2").unwrap().cycles >= 9000,
            "conv2 window too short: {}",
            s.window("conv2").unwrap().cycles
        );
    }

    #[test]
    fn windows_are_disjoint_and_ordered_with_stalls() {
        let s = lenet_schedule();
        let stall = s.config().stall_cycles;
        let mut prev_end = 0u64;
        for w in s.windows() {
            assert_eq!(w.start_cycle, prev_end + stall, "stall before {}", w.name);
            prev_end = w.end_cycle();
        }
        assert_eq!(s.total_cycles(), prev_end + stall);
    }

    #[test]
    fn stage_lookup() {
        let s = lenet_schedule();
        let conv1 = s.window("conv1").unwrap();
        assert_eq!(s.stage_at(conv1.start_cycle).unwrap().name, "conv1");
        assert!(s.stage_at(conv1.start_cycle - 1).is_none(), "stall before conv1");
        assert!(s.window("nonexistent").is_none());
    }

    #[test]
    fn op_cycles_are_within_window_and_monotone() {
        let s = lenet_schedule();
        let w = s.window("conv2").unwrap();
        let mut prev = 0u64;
        for i in [0, 1, w.ops / 2, w.ops - 1] {
            let c = w.cycle_of_op(i);
            assert!(w.contains(c), "op {i} cycle {c} outside window");
            assert!(c >= prev);
            prev = c;
        }
    }

    #[test]
    fn total_time_is_sub_millisecond() {
        let s = lenet_schedule();
        let us = s.total_us();
        assert!((50.0..2000.0).contains(&us), "inference {us} µs out of plausible range");
    }
}
