//! The remotely-guided campaign driver (§IV run end-to-end over UART).
//!
//! The paper's adversary never touches the platform directly: it "connects
//! to this prototyped cloud-FPGA from the UART serial port, with which the
//! adversary can gather on-chip side-channel leakage … and dynamically
//! configure the attacking scheme file". [`RemoteCampaign`] is that
//! adversary: every phase of profile → plan → upload → arm → strike →
//! evaluate runs through a [`TransportClient`]/[`TransportShell`] pair over
//! a (possibly lossy) [`uart::link`] channel.
//!
//! # Checkpoint / resume
//!
//! The campaign checkpoints its state after every completed phase (the
//! collected profiling traces, the learned profile, the compiled scheme).
//! When the reliable transport gives up on an outage
//! ([`uart::UartError::LinkDown`]), [`RemoteCampaign::run`] returns
//! [`DeepStrikeError::Interrupted`] with the failed phase — the checkpoint
//! is intact, and calling `run` again *resumes from that phase* instead of
//! restarting. Completed profiling runs are never re-read; an interrupted
//! scheme upload continues from the shell's staging watermark.
//!
//! The checkpoint lives in memory only. A campaign is deterministic in its
//! config, platform and link, so one lost with its process is simply rerun
//! and reproduces the same result byte for byte.
//!
//! # Degradation ladder
//!
//! Repeated outages during profiling walk the guidance ladder recorded as
//! [`trace::Event::GuidanceDegraded`] events:
//!
//! 1. [`trace::GuidanceLevel::Fresh`] — all requested profiling runs
//!    streamed; plan from the full profile.
//! 2. [`trace::GuidanceLevel::Checkpoint`] — profiling keeps dying after
//!    [`RemoteConfig::guidance_attempts`] resumes: plan from whatever
//!    complete traces the checkpoint already holds.
//! 3. [`trace::GuidanceLevel::Blind`] — not a single trace survived: spray
//!    the strike budget over [`RemoteConfig::blind_spray_cycles`] (the
//!    attacker's estimate of the inference length), the paper's unguided
//!    baseline.

use accel::fault::FaultModel;
use dnn::quant::QuantizedNetwork;
use dnn::tensor::Tensor;
use uart::proto::{Command, Response};
use uart::transport::{TransportClient, TransportShell};
use uart::UartError;

use crate::attack::{
    plan_attack, plan_blind_cycles, profile_from_traces, AttackOutcome, VictimProfile,
};
use crate::cosim::{CloudFpga, InferenceRun};
use crate::error::{DeepStrikeError, Result};
use crate::signal_ram::AttackScheme;

/// Campaign phases, re-exported from the bottom-of-stack [`trace`] crate
/// so checkpoints and trace events share one vocabulary.
pub use trace::{GuidanceLevel, RemotePhase};

/// Tunables of a remote campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteConfig {
    /// Expected layer names in execution order (the architecture family
    /// the attacker is hunting, as in [`crate::attack::profile_victim`]).
    pub layer_names: Vec<String>,
    /// Layer the guided plan targets.
    pub target: String,
    /// Strike budget.
    pub strikes: u32,
    /// Unarmed profiling inferences to stream.
    pub profile_runs: usize,
    /// TDC samples per `ReadTrace` exchange. Small reads keep response
    /// frames short enough to survive lossy links.
    pub read_chunk: u32,
    /// Interrupted-profiling resumes tolerated before walking down the
    /// guidance ladder.
    pub guidance_attempts: u32,
    /// Blind-fallback estimate of the inference length in victim cycles.
    pub blind_spray_cycles: u64,
    /// Seed for the host-side attack evaluation.
    pub eval_seed: u64,
}

impl RemoteConfig {
    /// A config with the documented defaults: 2 profiling runs, 64-sample
    /// trace reads, 2 tolerated profiling outages, a 4096-cycle blind
    /// estimate and evaluation seed 7.
    pub fn new(layer_names: &[&str], target: &str, strikes: u32) -> Self {
        RemoteConfig {
            layer_names: layer_names.iter().map(|s| s.to_string()).collect(),
            target: target.to_string(),
            strikes,
            profile_runs: 2,
            read_chunk: 64,
            guidance_attempts: 2,
            blind_spray_cycles: 4096,
            eval_seed: 7,
        }
    }
}

/// What the campaign driver needs from the far side of the link beyond the
/// protocol itself: something must run the FPGA-side transport shell, the
/// victim must execute its workload, and the attack is ultimately scored
/// by observing the victim's outputs.
pub trait CampaignHost {
    /// Services the FPGA-side transport shell once (one poll). Must be a
    /// no-op while no byte has arrived toward the shell: the transport's
    /// event-driven clock skips the pump on such ticks (see
    /// [`TransportClient::transact`]).
    fn pump(&mut self);

    /// Runs one victim inference on the platform (the tenant's own
    /// workload; the attacker only awaits it).
    fn victim_inference(&mut self);

    /// Scores the most recent victim inference against the clean model —
    /// the victim-side observable the paper reports as accuracy drop.
    ///
    /// # Errors
    ///
    /// Implementation-defined; the simulator host fails if no inference
    /// has run yet.
    fn evaluate(&mut self, seed: u64) -> Result<AttackOutcome>;
}

/// The co-simulated host: a [`CloudFpga`] behind a [`TransportShell`],
/// plus the evaluation set. This is the whole "far side" of the chaos
/// tests — the campaign driver itself only ever sees the [`CampaignHost`]
/// trait and the serial link.
#[derive(Debug)]
pub struct SimHost {
    fpga: CloudFpga,
    shell: TransportShell,
    net: QuantizedNetwork,
    images: Vec<(Tensor, usize)>,
    fault_model: FaultModel,
    last_run: Option<InferenceRun>,
    memo: Option<std::sync::Arc<crate::snapshot::RunMemo>>,
}

impl SimHost {
    /// Assembles the host around a platform and its victim network.
    pub fn new(
        fpga: CloudFpga,
        shell: TransportShell,
        net: QuantizedNetwork,
        images: Vec<(Tensor, usize)>,
        fault_model: FaultModel,
    ) -> Self {
        SimHost { fpga, shell, net, images, fault_model, last_run: None, memo: None }
    }

    /// Shares a [`crate::snapshot::RunMemo`] across hosts: campaign grids
    /// (e.g. `remote_campaign`'s link-fault sweep) drive bit-identical
    /// victim platforms at every point, so each distinct inference
    /// simulates once and every other point replays the recorded bytes.
    /// Serving is gated on exact behavioural state match, so results are
    /// unchanged — only the wall-clock is.
    #[must_use]
    pub fn with_run_memo(mut self, memo: std::sync::Arc<crate::snapshot::RunMemo>) -> Self {
        self.memo = Some(memo);
        self
    }

    /// The platform (schedule inspection in tests).
    pub fn fpga(&self) -> &CloudFpga {
        &self.fpga
    }

    /// The FPGA-side transport shell (replay/corruption counters).
    pub fn shell(&self) -> &TransportShell {
        &self.shell
    }
}

impl CampaignHost for SimHost {
    fn pump(&mut self) {
        self.shell.poll(&mut self.fpga);
    }

    fn victim_inference(&mut self) {
        self.last_run = Some(match &self.memo {
            Some(memo) => memo.run_inference(&mut self.fpga),
            None => self.fpga.run_inference(),
        });
    }

    fn evaluate(&mut self, seed: u64) -> Result<AttackOutcome> {
        let run = self.last_run.as_ref().ok_or_else(|| {
            DeepStrikeError::InvalidConfig("no victim inference has run yet".into())
        })?;
        Ok(crate::attack::evaluate_attack(
            &self.net,
            self.fpga.schedule(),
            run,
            self.images.iter().map(|(t, y)| (t, *y)),
            self.fault_model,
            seed,
        ))
    }
}

/// A snapshot of the campaign's resumable state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The next phase to execute.
    pub phase: RemotePhase,
    /// Complete profiling traces collected so far.
    pub completed_traces: usize,
    /// The learned profile, once the profile phase finished (or degraded).
    pub profile: Option<VictimProfile>,
    /// The compiled scheme, once planning finished.
    pub scheme: Option<AttackScheme>,
    /// Where the campaign sits on the guidance ladder.
    pub guidance: GuidanceLevel,
}

/// Result of a completed remote campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteOutcome {
    /// The scheme that was uploaded and armed.
    pub scheme: AttackScheme,
    /// Host-side evaluation of the armed run.
    pub outcome: AttackOutcome,
    /// Final guidance level (Fresh unless the campaign degraded).
    pub guidance: GuidanceLevel,
    /// Strikes the scheduler reported over the link after the armed run.
    pub remote_strikes_fired: u32,
}

/// The remotely-guided campaign state machine. See the module docs for
/// the checkpoint/resume and degradation semantics.
#[derive(Debug)]
pub struct RemoteCampaign {
    config: RemoteConfig,
    phase: RemotePhase,
    traces: Vec<Vec<u8>>,
    profile: Option<VictimProfile>,
    scheme: Option<AttackScheme>,
    guidance: GuidanceLevel,
    profile_outages: u32,
    interrupted: bool,
}

impl RemoteCampaign {
    /// A fresh campaign at the start of its profile phase.
    pub fn new(config: RemoteConfig) -> Self {
        RemoteCampaign {
            config,
            phase: RemotePhase::Profile,
            traces: Vec::new(),
            profile: None,
            scheme: None,
            guidance: GuidanceLevel::Fresh,
            profile_outages: 0,
            interrupted: false,
        }
    }

    /// The current resumable state.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            phase: self.phase,
            completed_traces: self.traces.len(),
            profile: self.profile.clone(),
            scheme: self.scheme,
            guidance: self.guidance,
        }
    }

    /// Drives the campaign to completion over `link`, resuming from the
    /// checkpointed phase if a previous call was interrupted.
    ///
    /// # Errors
    ///
    /// [`DeepStrikeError::Interrupted`] when the transport gives up on an
    /// outage (call `run` again to resume); [`DeepStrikeError::Link`] on
    /// protocol-level failures; planning and evaluation errors pass
    /// through.
    pub fn run(
        &mut self,
        link: &mut TransportClient,
        host: &mut dyn CampaignHost,
    ) -> Result<RemoteOutcome> {
        if self.interrupted {
            self.interrupted = false;
            let phase = self.phase;
            trace::emit(|| trace::Event::CampaignResumed { phase });
        }
        loop {
            match self.phase {
                RemotePhase::Profile => {
                    match self.profile_phase(link, host) {
                        Ok(profile) => {
                            self.profile = Some(profile);
                            self.advance(RemotePhase::Plan);
                        }
                        // Degrade, don't die: tolerate `guidance_attempts`
                        // outages, then walk the guidance ladder instead
                        // of hanging forever.
                        Err(DeepStrikeError::Link(UartError::LinkDown { .. })) => {
                            self.profile_outages += 1;
                            if self.profile_outages > self.config.guidance_attempts {
                                self.degrade();
                            } else {
                                return self.interrupt();
                            }
                        }
                        Err(e) => return Err(e),
                    }
                }
                RemotePhase::Plan => {
                    // Planning is local to the attacker; it cannot be
                    // interrupted by the link.
                    let scheme = match (&self.guidance, &self.profile) {
                        (GuidanceLevel::Blind, _) | (_, None) => {
                            plan_blind_cycles(self.config.blind_spray_cycles, self.config.strikes)
                        }
                        (_, Some(profile)) => {
                            plan_attack(profile, &self.config.target, self.config.strikes)?
                        }
                    };
                    self.scheme = Some(scheme);
                    self.advance(RemotePhase::Upload);
                }
                RemotePhase::Upload => {
                    let bytes = self.scheme()?.to_bytes();
                    match link.upload_scheme(&bytes, || host.pump()) {
                        Ok(()) => self.advance(RemotePhase::Arm),
                        Err(e) => return self.fail(e),
                    }
                }
                RemotePhase::Arm => {
                    match link.transact(&Command::Arm { enabled: true }, || host.pump()) {
                        Ok(Response::Ack) => self.advance(RemotePhase::Strike),
                        Ok(other) => {
                            return Err(DeepStrikeError::Link(UartError::UnexpectedResponse(
                                format!("arm answered {other:?}"),
                            )))
                        }
                        Err(e) => return self.fail(e),
                    }
                }
                RemotePhase::Strike => {
                    // The victim runs its workload; the armed scheduler
                    // strikes on its own. Confirm over the link.
                    host.victim_inference();
                    match link.transact(&Command::Status, || host.pump()) {
                        Ok(Response::Status(status)) => {
                            self.advance(RemotePhase::Evaluate);
                            return self.evaluate(host, status.strikes_fired);
                        }
                        Ok(other) => {
                            return Err(DeepStrikeError::Link(UartError::UnexpectedResponse(
                                format!("status answered {other:?}"),
                            )))
                        }
                        Err(e) => return self.fail(e),
                    }
                }
                RemotePhase::Evaluate => {
                    // Only reachable by resuming after an interrupt that
                    // landed exactly on the evaluate phase; the strike run
                    // is re-confirmed by re-running the strike phase.
                    self.phase = RemotePhase::Strike;
                }
            }
        }
    }

    fn evaluate(
        &mut self,
        host: &mut dyn CampaignHost,
        strikes_fired: u32,
    ) -> Result<RemoteOutcome> {
        let outcome = host.evaluate(self.config.eval_seed)?;
        trace::emit(|| trace::Event::CheckpointSaved { phase: RemotePhase::Evaluate });
        Ok(RemoteOutcome {
            scheme: *self.scheme()?,
            outcome,
            guidance: self.guidance,
            remote_strikes_fired: strikes_fired,
        })
    }

    fn scheme(&self) -> Result<&AttackScheme> {
        self.scheme
            .as_ref()
            .ok_or_else(|| DeepStrikeError::InvalidConfig("no scheme checkpointed".into()))
    }

    /// Marks `self.phase` complete and checkpoints.
    fn advance(&mut self, next: RemotePhase) {
        let done = self.phase;
        trace::emit(|| trace::Event::CheckpointSaved { phase: done });
        self.phase = next;
    }

    /// Converts a transport error into the resumable interrupt (link
    /// outage) or a hard failure (protocol error).
    fn fail(&mut self, e: UartError) -> Result<RemoteOutcome> {
        match e {
            UartError::LinkDown { .. } => self.interrupt(),
            other => Err(DeepStrikeError::Link(other)),
        }
    }

    fn interrupt(&mut self) -> Result<RemoteOutcome> {
        self.interrupted = true;
        Err(DeepStrikeError::Interrupted { phase: self.phase })
    }

    /// Walks one step down the guidance ladder after profiling kept
    /// failing: checkpointed traces if any segment cleanly, else blind.
    fn degrade(&mut self) {
        let names: Vec<&str> = self.config.layer_names.iter().map(String::as_str).collect();
        let level = match profile_from_traces(&self.traces, &names) {
            Ok(profile) if !self.traces.is_empty() => {
                self.profile = Some(profile);
                GuidanceLevel::Checkpoint
            }
            _ => {
                self.profile = None;
                GuidanceLevel::Blind
            }
        };
        self.guidance = level;
        trace::emit(|| trace::Event::GuidanceDegraded { level });
        self.phase = RemotePhase::Plan;
    }

    /// Streams the profiling traces: drain stale samples, let the victim
    /// run, then read the fresh trace chunk by chunk until empty.
    /// Completed traces are checkpointed; an interrupted read only costs
    /// the in-flight run.
    fn profile_phase(
        &mut self,
        link: &mut TransportClient,
        host: &mut dyn CampaignHost,
    ) -> Result<VictimProfile> {
        let want = self.config.profile_runs.max(1);
        while self.traces.len() < want {
            // Stale samples: idle noise, or the tail of a run whose read
            // an outage cut short (that run is redone from scratch).
            while !self.read_chunk(link, host)?.is_empty() {}
            host.victim_inference();
            let mut tdc_trace = Vec::new();
            loop {
                let chunk = self.read_chunk(link, host)?;
                if chunk.is_empty() {
                    break;
                }
                tdc_trace.extend(chunk);
            }
            self.traces.push(tdc_trace);
        }
        let names: Vec<&str> = self.config.layer_names.iter().map(String::as_str).collect();
        profile_from_traces(&self.traces, &names)
    }

    fn read_chunk(
        &self,
        link: &mut TransportClient,
        host: &mut dyn CampaignHost,
    ) -> Result<Vec<u8>> {
        match link
            .transact(&Command::ReadTrace { max_samples: self.config.read_chunk }, || host.pump())?
        {
            Response::Trace(samples) => Ok(samples),
            other => Err(DeepStrikeError::Link(UartError::UnexpectedResponse(format!(
                "read_trace answered {other:?}"
            )))),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::attack::{evaluate_attack, profile_victim};
    use crate::cosim::CosimConfig;
    use accel::schedule::AccelConfig;
    use dnn::fixed::QFormat;
    use dnn::layers::{Dense, Tanh};
    use dnn::network::Sequential;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uart::link::{Endpoint, FaultConfig};
    use uart::transport::TransportConfig;

    fn tiny_victim(seed: u64) -> QuantizedNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Sequential::new("remote_dense");
        net.push(Box::new(Dense::new("fc1", 36, 16, &mut rng)));
        net.push(Box::new(Tanh::new("fc1_tanh")));
        net.push(Box::new(Dense::new("fc2", 16, 10, &mut rng)));
        QuantizedNetwork::from_sequential(&net, &[1, 6, 6], QFormat::paper()).unwrap()
    }

    fn platform(q: &QuantizedNetwork) -> CloudFpga {
        let accel = AccelConfig { weight_bandwidth: 16, stall_cycles: 150 };
        let mut fpga = CloudFpga::new(q, &accel, 16_000, CosimConfig { pdn_substeps: 4 }).unwrap();
        fpga.settle(30);
        fpga
    }

    fn eval_images(n: usize) -> Vec<(Tensor, usize)> {
        (0..n)
            .map(|i| {
                let data: Vec<f32> =
                    (0..36).map(|j| ((i * 31 + j * 7) % 17) as f32 / 16.0).collect();
                (Tensor::from_vec(data, &[1, 6, 6]), i % 10)
            })
            .collect()
    }

    #[test]
    fn remote_campaign_matches_the_local_driver_on_a_clean_link() {
        let q = tiny_victim(11);
        let config = RemoteConfig::new(&["fc1", "fc2"], "fc1", 6);

        // Local reference: the crate's direct driver, same platform state.
        let mut local = platform(&q);
        let profile = profile_victim(&mut local, &["fc1", "fc2"], config.profile_runs).unwrap();
        let local_scheme = plan_attack(&profile, "fc1", 6).unwrap();
        local.scheduler_mut().load_scheme(&local_scheme).unwrap();
        local.scheduler_mut().arm(true).unwrap();
        let run = local.run_inference();
        let local_outcome = evaluate_attack(
            &q,
            local.schedule(),
            &run,
            eval_images(6).iter().map(|(t, y)| (t, *y)),
            FaultModel::paper(),
            config.eval_seed,
        );

        // Remote: identical platform, everything through the link.
        let (a, b) = Endpoint::pair();
        let mut link = TransportClient::new(a);
        let mut host = SimHost::new(
            platform(&q),
            TransportShell::new(b),
            q.clone(),
            eval_images(6),
            FaultModel::paper(),
        );
        let mut campaign = RemoteCampaign::new(config);
        let remote = campaign.run(&mut link, &mut host).unwrap();

        assert_eq!(remote.scheme, local_scheme, "same bytes must compile to the same scheme");
        assert_eq!(remote.guidance, GuidanceLevel::Fresh);
        assert_eq!(remote.outcome, local_outcome, "same armed run must score identically");
        assert!(remote.remote_strikes_fired >= 1);
    }

    #[test]
    fn repeated_outages_degrade_to_blind_and_still_complete() {
        let q = tiny_victim(11);
        // The link is dead for its first 60 ticks — longer than the tiny
        // retry span below, so early transactions give up with LinkDown.
        let fault = FaultConfig { disconnects: vec![(0, 60)], ..FaultConfig::default() };
        let (a, b) = Endpoint::faulty_pair(fault, 5);
        let mut link = TransportClient::with_config(
            a,
            TransportConfig { pump_budget: 2, max_retries: 1, backoff_cap: 4, chunk_len: 16 },
        );
        let mut host = SimHost::new(
            platform(&q),
            TransportShell::new(b),
            q.clone(),
            eval_images(4),
            FaultModel::paper(),
        );
        let mut config = RemoteConfig::new(&["fc1", "fc2"], "fc1", 6);
        config.guidance_attempts = 1;
        config.blind_spray_cycles = 600;
        let mut campaign = RemoteCampaign::new(config);

        let mut interrupts = 0u32;
        let outcome = loop {
            match campaign.run(&mut link, &mut host) {
                Ok(o) => break o,
                Err(DeepStrikeError::Interrupted { phase }) => {
                    interrupts += 1;
                    if interrupts == 1 {
                        assert_eq!(phase, RemotePhase::Profile);
                        assert_eq!(campaign.checkpoint().phase, RemotePhase::Profile);
                    }
                    assert!(interrupts < 40, "campaign never recovered");
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        assert!(interrupts >= 2, "the dead window must interrupt repeatedly");
        assert_eq!(outcome.guidance, GuidanceLevel::Blind);
        assert_eq!(outcome.scheme.delay_cycles, 0, "blind spray launches immediately");
        assert!(outcome.remote_strikes_fired >= 1, "the blind spray still fires");
        assert_eq!(campaign.checkpoint().completed_traces, 0, "no trace ever survived");
    }
}
