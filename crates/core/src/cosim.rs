//! The prototyped cloud FPGA: victim + attacker co-simulation.
//!
//! This is the paper's experimental platform in software. One shared
//! [`SpatialPdn`] couples two tenants placed at opposite ends of the die:
//!
//! * the **victim** — a DNN accelerator whose per-layer schedule and
//!   activity model turn execution into a current waveform;
//! * the **attacker** — TDC sensor, DNN start detector, signal RAM and
//!   power striker, wired together by the [`AttackScheduler`].
//!
//! Each victim clock cycle (10 ns at 100 MHz) the loop: reads the victim's
//! current draw, asks the scheduler for the striker `Start` level, injects
//! both currents into the PDN mesh, advances the mesh in 1 ns substeps,
//! lets the TDC sample the attacker-side rail at 200 MHz, and records the
//! worst victim-side voltage of the cycle (what the in-flight DSP ops
//! experience). The recorded [`InferenceRun`] is everything the attack
//! evaluation needs: the TDC trace (Fig. 1b), the detector trigger point
//! (Fig. 3) and the per-cycle victim voltage under strikes (Figs. 5b, 6b).

use std::collections::VecDeque;

use accel::power;
use accel::schedule::{AccelConfig, Schedule, CLOCK_MHZ};
use dnn::quant::QuantizedNetwork;
use pdn::grid::{NodeId, SpatialPdn};
use pdn::thermal::ThermalModel;
use uart::proto::StatusInfo;
use uart::transport::ShellHandler;

use crate::detector::StartDetector;
use crate::error::{DeepStrikeError, Result};
use crate::scheduler::AttackScheduler;
use crate::signal_ram::{AttackScheme, SignalRam};
use crate::striker::StrikerBank;
use crate::tdc::{TdcSensor, SAMPLES_PER_CYCLE};

/// Victim placement as a fraction of the die (x, y).
const VICTIM_POS: (f64, f64) = (0.12, 0.5);
/// Attacker placement as a fraction of the die (x, y).
const ATTACKER_POS: (f64, f64) = (0.88, 0.5);
/// TDC readout ring-buffer capacity for UART reads, in samples.
const TRACE_CAPACITY: usize = 1 << 20;

/// Co-simulation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosimConfig {
    /// PDN integration substeps per victim cycle: a positive multiple of
    /// [`SAMPLES_PER_CYCLE`], so the TDC samples on a substep boundary.
    pub pdn_substeps: usize,
}

impl Default for CosimConfig {
    fn default() -> Self {
        CosimConfig { pdn_substeps: 10 }
    }
}

/// A square-wave background tenant (the §V multi-tenant extension).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bystander {
    /// Placement as a die fraction.
    pub pos: (f64, f64),
    /// Draw while on, in amps.
    pub amps: f64,
    /// Full on/off period in victim cycles.
    pub period_cycles: u64,
}

/// Everything recorded during one victim inference.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceRun {
    /// TDC readouts, one per 5 ns sample.
    pub tdc_trace: Vec<u8>,
    /// Worst victim-rail voltage per victim cycle.
    pub victim_voltage: Vec<f64>,
    /// Victim cycles during which the striker was enabled.
    pub strike_cycles: Vec<u64>,
    /// Victim cycle at which the detector latched, if it did.
    pub triggered_cycle: Option<u64>,
    /// Junction temperature at the end of the run, °C.
    pub final_temp_c: f64,
}

impl InferenceRun {
    /// Worst voltage an op issued at `cycle` can see while in flight
    /// (`latency` cycles).
    pub fn min_voltage_in_flight(&self, cycle: u64, latency: u64) -> f64 {
        let start = cycle as usize;
        let end = ((cycle + latency) as usize + 1).min(self.victim_voltage.len());
        self.victim_voltage[start.min(self.victim_voltage.len().saturating_sub(1))..end]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

/// The prototyped multi-tenant cloud FPGA.
///
/// `Clone` snapshots the whole platform state; campaign drivers clone one
/// profiled instance per sweep point so points can run on the worker pool
/// without sharing mutable state.
#[derive(Clone)]
pub struct CloudFpga {
    pub(crate) config: CosimConfig,
    pub(crate) schedule: Schedule,
    pub(crate) pdn: SpatialPdn,
    pub(crate) victim_node: NodeId,
    pub(crate) attacker_node: NodeId,
    pub(crate) tdc: TdcSensor,
    pub(crate) striker: StrikerBank,
    pub(crate) scheduler: AttackScheduler,
    pub(crate) thermal: ThermalModel,
    /// Background tenants with the mesh node each draws at, resolved
    /// once when the tenant is added.
    pub(crate) bystanders: Vec<(Bystander, NodeId)>,
    pub(crate) trace_buf: VecDeque<u8>,
}

impl std::fmt::Debug for CloudFpga {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CloudFpga(striker {} cells, schedule {} cycles)",
            self.striker.cells(),
            self.schedule.total_cycles()
        )
    }
}

impl CloudFpga {
    /// Assembles the platform around a quantised victim network.
    ///
    /// # Errors
    ///
    /// Returns [`DeepStrikeError::InvalidConfig`] unless `pdn_substeps` is
    /// a positive multiple of [`SAMPLES_PER_CYCLE`]; propagates TDC
    /// calibration and striker configuration failures.
    pub fn new(
        victim: &QuantizedNetwork,
        accel_config: &AccelConfig,
        striker_cells: usize,
        config: CosimConfig,
    ) -> Result<Self> {
        if config.pdn_substeps == 0 || !config.pdn_substeps.is_multiple_of(SAMPLES_PER_CYCLE) {
            return Err(DeepStrikeError::InvalidConfig(format!(
                "pdn_substeps {} is not a positive multiple of {SAMPLES_PER_CYCLE}",
                config.pdn_substeps
            )));
        }
        let schedule = Schedule::for_network(victim, accel_config);
        let pdn = SpatialPdn::new();
        let victim_node = pdn.node_at_fraction(VICTIM_POS.0, VICTIM_POS.1);
        let attacker_node = pdn.node_at_fraction(ATTACKER_POS.0, ATTACKER_POS.1);
        let tdc = TdcSensor::calibrated()?;
        let striker = StrikerBank::new(striker_cells)?;
        let scheduler = AttackScheduler::new(StartDetector::new(), SignalRam::new());
        Ok(CloudFpga {
            config,
            schedule,
            pdn,
            victim_node,
            attacker_node,
            tdc,
            striker,
            scheduler,
            thermal: ThermalModel::new(),
            bystanders: Vec::new(),
            trace_buf: VecDeque::new(),
        })
    }

    /// The victim's execution schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The attack scheduler (for direct, non-UART control).
    pub fn scheduler_mut(&mut self) -> &mut AttackScheduler {
        &mut self.scheduler
    }

    /// The TDC sensor.
    pub fn tdc(&self) -> &TdcSensor {
        &self.tdc
    }

    /// The striker bank.
    pub fn striker(&self) -> &StrikerBank {
        &self.striker
    }

    /// Adds a background tenant (multi-tenant extension) at the mesh node
    /// nearest its placement.
    ///
    /// # Errors
    ///
    /// Returns [`DeepStrikeError::InvalidConfig`] unless `amps` is finite
    /// and non-negative and both `pos` coordinates are finite.
    pub fn add_bystander(&mut self, bystander: Bystander) -> Result<()> {
        let Bystander { pos: (fx, fy), amps, .. } = bystander;
        if !(amps.is_finite() && amps >= 0.0 && fx.is_finite() && fy.is_finite()) {
            return Err(DeepStrikeError::InvalidConfig(format!(
                "bystander at ({fx}, {fy}) drawing {amps} A: the draw must be finite and \
                 non-negative and the placement finite"
            )));
        }
        let node = self.pdn.node_at_fraction(fx, fy);
        self.bystanders.push((bystander, node));
        Ok(())
    }

    /// Lets the PDN settle at idle load for `cycles` victim cycles.
    pub fn settle(&mut self, cycles: u64) {
        let dt = self.substep_dt();
        for _ in 0..cycles {
            self.pdn.inject(self.victim_node, power::IDLE_A);
            self.pdn.run_cycle(dt, self.config.pdn_substeps, [], |_| {});
        }
    }

    pub(crate) fn substep_dt(&self) -> f64 {
        let period_s = 1.0e-6 / CLOCK_MHZ;
        period_s / self.config.pdn_substeps as f64
    }

    /// Runs one full victim inference, recording everything.
    pub fn run_inference(&mut self) -> InferenceRun {
        self.scheduler.rearm();
        let total = self.schedule.total_cycles();
        let mut rec = RunRecorder::new(total, false);
        for cycle in 0..total {
            self.step_cycle(cycle, &mut rec);
        }
        self.finish_run(rec)
    }

    /// Advances the platform by exactly one victim cycle.
    ///
    /// This is the loop body of [`run_inference`](Self::run_inference),
    /// factored out so the snapshot engine (`crate::snapshot`) can resume
    /// the identical cycle sequence from a mid-run fork. The operation
    /// order here is load-bearing: any reordering changes float rounding
    /// and breaks the bit-identity contract between forked suffix runs
    /// and naive full replays.
    pub(crate) fn step_cycle(&mut self, cycle: u64, rec: &mut RunRecorder) {
        let dt = self.substep_dt();
        let substeps = self.config.pdn_substeps;
        let tdc_every = substeps / SAMPLES_PER_CYCLE;

        // Victim current for this cycle.
        let i_victim = power::current_at(&self.schedule, cycle);
        // Scheduler decides the striker level using the latest sample.
        let was_triggered = self.scheduler.detector().is_triggered();
        let enable = self.scheduler.clock(rec.last_raw.take());
        if !was_triggered && self.scheduler.detector().is_triggered() {
            rec.triggered_cycle = Some(cycle);
        }
        if enable {
            if !self.striker.is_enabled() {
                trace::emit(|| trace::Event::StrikeIssued { cycle });
            }
            rec.strike_cycles.push(cycle);
        }
        // Inject all loads at their mesh nodes.
        self.pdn.inject(self.victim_node, i_victim);
        let v_att_now = self.pdn.voltage_at(self.attacker_node);
        self.striker.set_enabled(enable);
        let i_striker = self.striker.current_a(v_att_now);
        self.pdn.inject(self.attacker_node, i_striker);
        for &(b, node) in &self.bystanders {
            let on = (cycle / (b.period_cycles / 2).max(1)).is_multiple_of(2);
            self.pdn.inject(node, if on { b.amps } else { 0.0 });
        }

        // Advance the mesh a whole cycle; take the worst victim voltage
        // and sample the TDC mid-cycle and at cycle end.
        let mut v_victim_min = f64::INFINITY;
        let mut s = 0;
        let (tdc, trace_buf) = (&mut self.tdc, &mut self.trace_buf);
        let probes = [self.victim_node, self.attacker_node];
        self.pdn.run_cycle(dt, substeps, probes, |[v_victim, v_attacker]| {
            v_victim_min = v_victim_min.min(v_victim);
            s += 1;
            if s % tdc_every == 0 {
                let reading = tdc.sample(v_attacker);
                rec.tdc_trace.push(reading.count);
                buffer_readout(trace_buf, reading.count);
                rec.last_raw = Some(reading.raw);
            }
        });
        rec.victim_voltage.push(v_victim_min);

        // Thermal integration (victim + striker dissipation).
        let v_now = self.pdn.voltage_at(self.victim_node);
        let power = i_victim * v_now + self.striker.power_w(v_now);
        self.thermal.step(power, dt * substeps as f64);
        if let Some(powers) = rec.powers.as_mut() {
            powers.push(power);
        }
    }

    /// Runs the post-loop conformance pass and packages the recording.
    pub(crate) fn finish_run(&mut self, rec: RunRecorder) -> InferenceRun {
        // Post-run PDN conformance pass: when recording, summarise every
        // victim-rail excursion below the DSP fault threshold (the
        // emission lives in `pdn::analysis::glitch_windows`).
        if trace::is_collecting() {
            let safe = accel::fault::FaultModel::paper().safe_voltage();
            let _ = pdn::analysis::glitch_windows(&rec.victim_voltage, safe);
        }
        InferenceRun {
            tdc_trace: rec.tdc_trace,
            victim_voltage: rec.victim_voltage,
            strike_cycles: rec.strike_cycles,
            triggered_cycle: rec.triggered_cycle,
            final_temp_c: self.thermal.junction_temp(),
        }
    }

    /// Behavioural state equality: every field that influences future
    /// dynamics, i.e. everything except the UART readout ring buffer
    /// (`trace_buf` only feeds `ReadTrace` drains, never the physics).
    pub fn state_eq(&self, other: &CloudFpga) -> bool {
        self.config == other.config
            && self.schedule == other.schedule
            && self.pdn == other.pdn
            && self.victim_node == other.victim_node
            && self.attacker_node == other.attacker_node
            && self.tdc == other.tdc
            && self.striker == other.striker
            && self.scheduler == other.scheduler
            && self.thermal == other.thermal
            && self.bystanders == other.bystanders
    }
}

/// Appends one readout to a platform's UART ring buffer, dropping the
/// oldest sample once it holds [`TRACE_CAPACITY`].
pub(crate) fn buffer_readout(trace_buf: &mut VecDeque<u8>, count: u8) {
    if trace_buf.len() == TRACE_CAPACITY {
        trace_buf.pop_front();
    }
    trace_buf.push_back(count);
}

/// Per-run recording state for the cycle loop, factored out of
/// [`CloudFpga::run_inference`] so a forked suffix run can seed it from a
/// snapshot (`last_raw` and `triggered_cycle` are carried machine state;
/// the vectors are the recording so far).
#[derive(Debug, Clone)]
pub(crate) struct RunRecorder {
    pub(crate) tdc_trace: Vec<u8>,
    pub(crate) victim_voltage: Vec<f64>,
    pub(crate) strike_cycles: Vec<u64>,
    pub(crate) triggered_cycle: Option<u64>,
    /// Raw TDC word sampled last; consumed by the scheduler next cycle.
    pub(crate) last_raw: Option<u128>,
    /// When `Some`, per-cycle thermal power is recorded (reference pass).
    pub(crate) powers: Option<Vec<f64>>,
}

impl RunRecorder {
    pub(crate) fn new(total: u64, record_powers: bool) -> Self {
        RunRecorder {
            tdc_trace: Vec::with_capacity(total as usize * SAMPLES_PER_CYCLE),
            victim_voltage: Vec::with_capacity(total as usize),
            strike_cycles: Vec::new(),
            triggered_cycle: None,
            last_raw: None,
            powers: record_powers.then(Vec::new),
        }
    }

    /// A recorder resuming mid-run from a fork point: the vectors start
    /// empty (the engine splices the shared prefix back in afterwards)
    /// while the carried machine state is restored from the snapshot.
    pub(crate) fn resume(triggered_cycle: Option<u64>, last_raw: Option<u128>) -> Self {
        RunRecorder {
            tdc_trace: Vec::new(),
            victim_voltage: Vec::new(),
            strike_cycles: Vec::new(),
            triggered_cycle,
            last_raw,
            powers: None,
        }
    }
}

impl ShellHandler for CloudFpga {
    /// Drains up to `max_samples` oldest readouts from the ring buffer.
    /// Streaming semantics (rather than a peek at the tail) let a remote
    /// client reconstruct the full trace chunk by chunk without loss —
    /// and the reliable transport's replay cache makes the drain safe to
    /// retransmit.
    fn read_trace(&mut self, max_samples: usize) -> Vec<u8> {
        let n = self.trace_buf.len().min(max_samples);
        self.trace_buf.drain(..n).collect()
    }

    fn load_scheme(&mut self, data: &[u8]) -> std::result::Result<(), u8> {
        let scheme = AttackScheme::from_bytes(data).map_err(|_| 1u8)?;
        self.scheduler.load_scheme(&scheme).map_err(|_| 2u8)
    }

    fn arm(&mut self, enabled: bool) -> std::result::Result<(), u8> {
        self.scheduler.arm(enabled).map_err(|_| 3u8)
    }

    fn status(&mut self) -> StatusInfo {
        self.scheduler.status()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use dnn::fixed::QFormat;
    use dnn::quant::QuantizedNetwork;
    use dnn::zoo::mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A small victim + fast co-sim settings so debug-mode tests stay quick.
    fn small_platform(striker_cells: usize) -> CloudFpga {
        let net = mlp(&mut StdRng::seed_from_u64(0));
        let q = QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap();
        let accel = AccelConfig { weight_bandwidth: 16, stall_cycles: 150 };
        let mut fpga =
            CloudFpga::new(&q, &accel, striker_cells, CosimConfig { pdn_substeps: 4 }).unwrap();
        fpga.settle(50);
        fpga
    }

    #[test]
    fn substeps_must_be_a_positive_multiple_of_the_tdc_rate() {
        let net = mlp(&mut StdRng::seed_from_u64(0));
        let q = QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap();
        for (pdn_substeps, valid) in
            [(0, false), (1, false), (3, false), (5, false), (2, true), (4, true), (10, true)]
        {
            let built =
                CloudFpga::new(&q, &AccelConfig::default(), 8_000, CosimConfig { pdn_substeps });
            match built {
                Ok(_) => assert!(valid, "{pdn_substeps} substeps accepted"),
                Err(DeepStrikeError::InvalidConfig(_)) => {
                    assert!(!valid, "{pdn_substeps} substeps rejected");
                }
                Err(e) => panic!("{pdn_substeps} substeps: unexpected error {e}"),
            }
        }
    }

    #[test]
    fn idle_tdc_reads_near_calibration_target() {
        let mut fpga = small_platform(8_000);
        let run = fpga.run_inference();
        // The first stall samples (before fc1 starts) sit near 90.
        let head: Vec<u8> = run.tdc_trace.iter().copied().take(100).collect();
        let mean = head.iter().map(|&v| f64::from(v)).sum::<f64>() / head.len() as f64;
        assert!((85.0..93.0).contains(&mean), "idle mean {mean}");
    }

    #[test]
    fn layer_execution_depresses_the_readout() {
        let mut fpga = small_platform(8_000);
        let run = fpga.run_inference();
        let w = fpga.schedule().window("fc1").unwrap();
        let mid = (w.start_cycle + w.cycles / 2) as usize * SAMPLES_PER_CYCLE;
        let exec_mean =
            run.tdc_trace[mid..mid + 200].iter().map(|&v| f64::from(v)).sum::<f64>() / 200.0;
        assert!(exec_mean < 86.0, "execution should droop the readout: {exec_mean}");
    }

    #[test]
    fn unarmed_attack_never_strikes_and_voltage_stays_safe() {
        let mut fpga = small_platform(8_000);
        let run = fpga.run_inference();
        assert!(run.strike_cycles.is_empty());
        assert!(run.triggered_cycle.is_none());
        let v_min = run.victim_voltage.iter().copied().fold(f64::INFINITY, f64::min);
        // The victim's own activity must never cross the DSP fault
        // threshold (the deployed design meets timing on its own).
        let safe = accel::fault::FaultModel::paper().safe_voltage();
        assert!(v_min > safe, "victim-only droop {v_min} crosses fault threshold {safe}");
    }

    #[test]
    fn armed_attack_triggers_and_droops_the_victim_rail() {
        let mut fpga = small_platform(12_000);
        fpga.scheduler_mut()
            .load_scheme(&AttackScheme {
                delay_cycles: 10,
                strikes: 50,
                strike_cycles: 1,
                gap_cycles: 1,
            })
            .unwrap();
        fpga.scheduler_mut().arm(true).unwrap();
        let run = fpga.run_inference();
        let trig = run.triggered_cycle.expect("detector must fire");
        let w = fpga.schedule().windows()[0].clone();
        assert!(
            trig >= w.start_cycle && trig < w.start_cycle + w.cycles / 2,
            "trigger {trig} not near the start of {} ({}..{})",
            w.name,
            w.start_cycle,
            w.end_cycle()
        );
        assert_eq!(run.strike_cycles.len(), 50);
        // Struck cycles droop well below the victim-only floor.
        let struck_min = run
            .strike_cycles
            .iter()
            .map(|&c| run.victim_voltage[c as usize])
            .fold(f64::INFINITY, f64::min);
        assert!(struck_min < 0.93, "strikes must droop the victim rail: {struck_min}");
        assert!(run.final_temp_c < 85.0, "short campaign must not overheat");
    }

    #[test]
    fn min_voltage_in_flight_scans_the_window() {
        let run = InferenceRun {
            tdc_trace: vec![],
            victim_voltage: vec![1.0, 1.0, 0.8, 1.0, 1.0, 1.0, 0.9],
            strike_cycles: vec![],
            triggered_cycle: None,
            final_temp_c: 25.0,
        };
        assert!((run.min_voltage_in_flight(0, 5) - 0.8).abs() < 1e-12);
        assert!((run.min_voltage_in_flight(3, 2) - 1.0).abs() < 1e-12);
        assert!((run.min_voltage_in_flight(5, 5) - 0.9).abs() < 1e-12, "clamps at end");
    }

    #[test]
    fn uart_shell_controls_the_platform() {
        use uart::link::Endpoint;
        use uart::proto::{Command, Response};
        use uart::transport::{TransportClient, TransportShell};

        let mut fpga = small_platform(8_000);
        let (a, b) = Endpoint::pair();
        let mut client = TransportClient::new(a);
        let mut shell = TransportShell::new(b);
        // Upload a scheme and arm over the wire.
        let scheme = AttackScheme::single(5);
        client
            .upload_scheme(&scheme.to_bytes(), || {
                shell.poll(&mut fpga);
            })
            .unwrap();
        let r = client
            .transact(&Command::Arm { enabled: true }, || {
                shell.poll(&mut fpga);
            })
            .unwrap();
        assert_eq!(r, Response::Ack);
        // Run an inference, then read the TDC trace back.
        let run = fpga.run_inference();
        assert!(!run.strike_cycles.is_empty());
        let r = client
            .transact(&Command::ReadTrace { max_samples: 256 }, || {
                shell.poll(&mut fpga);
            })
            .unwrap();
        match r {
            Response::Trace(samples) => {
                assert_eq!(samples.len(), 256);
            }
            other => panic!("expected trace, got {other:?}"),
        }
        // Status reflects the fired strikes.
        let r = client
            .transact(&Command::Status, || {
                shell.poll(&mut fpga);
            })
            .unwrap();
        match r {
            Response::Status(st) => {
                assert!(st.armed && st.triggered);
                assert_eq!(st.strikes_fired, 1);
            }
            other => panic!("expected status, got {other:?}"),
        }
        // Garbage scheme bytes pass the upload CRC but are rejected by
        // `AttackScheme::from_bytes` with an error code.
        let err = client
            .upload_scheme(&[1, 2, 3], || {
                shell.poll(&mut fpga);
            })
            .unwrap_err();
        assert_eq!(err, uart::UartError::Remote(1));
    }

    #[test]
    fn bystander_load_adds_droop() {
        let mut quiet = small_platform(8_000);
        let quiet_run = quiet.run_inference();
        let mut busy = small_platform(8_000);
        busy.add_bystander(Bystander { pos: (0.5, 0.2), amps: 1.0, period_cycles: 64 }).unwrap();
        let busy_run = busy.run_inference();
        let mean =
            |r: &InferenceRun| r.victim_voltage.iter().sum::<f64>() / r.victim_voltage.len() as f64;
        assert!(mean(&busy_run) < mean(&quiet_run), "third tenant must add droop");
    }

    #[test]
    fn bystander_input_is_checked_where_it_enters() {
        let mut fpga = small_platform(8_000);
        let before = fpga.clone();
        let tenant = |pos, amps| Bystander { pos, amps, period_cycles: 64 };
        for bad in [
            tenant((0.5, 0.2), f64::NAN),
            tenant((0.5, 0.2), f64::INFINITY),
            tenant((0.5, 0.2), -1.0),
            tenant((f64::NAN, 0.2), 1.0),
            tenant((0.5, f64::NEG_INFINITY), 1.0),
        ] {
            match fpga.add_bystander(bad) {
                Err(DeepStrikeError::InvalidConfig(_)) => {}
                other => panic!("{bad:?} must be refused, got {other:?}"),
            }
        }
        assert!(fpga.state_eq(&before), "a refused tenant leaves the platform unchanged");
        // Off-die placements clamp to the edge and a zero draw is a valid
        // (idle) tenant; the run then completes.
        fpga.add_bystander(tenant((-3.0, 7.0), 0.0)).unwrap();
        fpga.add_bystander(tenant((0.5, 0.2), 1.0)).unwrap();
        let run = fpga.run_inference();
        assert_eq!(run.victim_voltage.len() as u64, fpga.schedule().total_cycles());
    }
}
