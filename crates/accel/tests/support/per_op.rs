//! The per-op reference executor: the fault-event executor's oracle.
//!
//! It asks the hook for each stage's fault events like
//! `accel::executor::infer_with_faults`, then walks every op of the stage
//! in its own loop nest: each product goes through a [`DupRing`] of per-PE
//! P registers, a duplication sums the ring's stale product (op j − 8)
//! unless a dense chain absorbs it mid-chain, and a random fault XORs the
//! event's mask into the product. Its loops share nothing with the clean
//! kernels of `dnn::quant` or the executor's corrections, so agreement is a
//! check on both.

use accel::dsp::DupRing;
use accel::executor::{AppliedFaults, FaultEvent, FaultHook, StageOps};
use accel::fault::MacFault;
use dnn::quant::{CodeMap, QLayer, QuantizedNetwork};
use dnn::tensor::Tensor;

/// Runs one inference op by op under `hook`'s events; returns the
/// final-stage accumulators and the tally, as `infer_with_faults` does.
pub fn infer_per_op(
    net: &QuantizedNetwork,
    input: &Tensor,
    hook: &mut dyn FaultHook,
) -> (Vec<i32>, AppliedFaults) {
    let mut map = net.quantize_input(input);
    let mut tally = AppliedFaults::default();
    let last = net.layers().len() - 1;
    for (index, layer) in net.layers().iter().enumerate() {
        let Some(stage) = StageOps::new(index, layer, &map) else {
            map = net.run_stage(layer, &map);
            continue;
        };
        let mut events = Vec::new();
        hook.stage_faults(&stage, &mut events);
        let mut datapath =
            Datapath { op: 0, ring: DupRing::default(), events: events.into_iter().peekable() };
        let (shape, accs, activation) = match layer {
            QLayer::Conv(c) => {
                let (h, w, k) = (map.shape[1], map.shape[2], c.kernel);
                let (oh, ow) = (h - k + 1, w - k + 1);
                let mut accs = Vec::new();
                for oc in 0..c.out_channels {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc = c.bias[oc];
                            for ic in 0..c.in_channels {
                                for ky in 0..k {
                                    for kx in 0..k {
                                        let wv = c.weights
                                            [((oc * c.in_channels + ic) * k + ky) * k + kx];
                                        let xv = map.codes[(ic * h + oy + ky) * w + ox + kx];
                                        let product = i32::from(wv) * i32::from(xv);
                                        let captured = datapath.issue(product, false, &mut tally);
                                        acc = acc.wrapping_add(captured);
                                    }
                                }
                            }
                            accs.push(acc);
                        }
                    }
                }
                (vec![c.out_channels, oh, ow], accs, c.activation)
            }
            QLayer::Dense(d) => {
                let mut accs = Vec::new();
                for o in 0..d.outputs {
                    let mut acc = d.bias[o];
                    for k in 0..d.inputs {
                        let product =
                            i32::from(d.weights[o * d.inputs + k]) * i32::from(map.codes[k]);
                        let mid_chain = k + 1 < d.inputs;
                        acc = acc.wrapping_add(datapath.issue(product, mid_chain, &mut tally));
                    }
                    accs.push(acc);
                }
                (vec![d.outputs], accs, d.activation)
            }
            QLayer::MaxPool { .. } => unreachable!("pooling stages have no ops"),
        };
        assert_eq!(datapath.op, stage.ops, "stage {index}: op count");
        assert!(datapath.events.next().is_none(), "stage {index}: events out of order or range");
        if index == last && matches!(layer, QLayer::Dense(_)) {
            return (accs, tally);
        }
        map = CodeMap {
            shape,
            codes: accs.iter().map(|&acc| net.requantize(acc, activation)).collect(),
        };
    }
    (map.codes.iter().map(|&c| i32::from(c)).collect(), tally)
}

/// One stage's DSP array: the op counter, the P registers and the events
/// still to come.
struct Datapath {
    op: u64,
    ring: DupRing,
    events: std::iter::Peekable<std::vec::IntoIter<FaultEvent>>,
}

impl Datapath {
    /// Issues the next op's product; returns what the accumulator receives.
    fn issue(&mut self, product: i32, absorbed: bool, tally: &mut AppliedFaults) -> i32 {
        let op = self.op;
        self.op += 1;
        let stale = self.ring.exchange(product);
        match self.events.next_if(|e| e.op == op).map(|e| (e.kind, e.mask)) {
            None | Some((MacFault::None, _)) => product,
            Some((MacFault::Duplicate, _)) => {
                tally.duplicate += 1;
                if absorbed {
                    product
                } else {
                    stale
                }
            }
            Some((MacFault::Random, mask)) => {
                tally.random += 1;
                product ^ mask
            }
        }
    }
}
