//! Failure-path tests: corrupted links, oversized schemes, rejected
//! bitstreams, unstable configurations.

use accel::fault::FaultModel;
use accel::schedule::AccelConfig;
use bench::golden::{accel_config, cosim_config, golden_images, tiny_dense_victim};
use deepstrike::cosim::{CloudFpga, CosimConfig};
use deepstrike::remote::{RemoteCampaign, RemoteConfig, RemotePhase, SimHost};
use deepstrike::signal_ram::{AttackScheme, SignalRam, CAPACITY_BITS};
use deepstrike::DeepStrikeError;
use dnn::fixed::QFormat;
use dnn::quant::{QuantError, QuantizedNetwork};
use dnn::zoo::mlp;
use fpga_fabric::bitstream::{combine, TenantDesign};
use fpga_fabric::device::Device;
use fpga_fabric::floorplan::Region;
use fpga_fabric::netlist::Netlist;
use fpga_fabric::FabricError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use uart::link::{Endpoint, FaultConfig};
use uart::proto::{Command, Response};
use uart::transport::{TransportClient, TransportConfig, TransportShell};
use uart::UartError;

fn small_victim() -> QuantizedNetwork {
    let net = mlp(&mut StdRng::seed_from_u64(0));
    QuantizedNetwork::from_sequential(&net, &[1, 28, 28], QFormat::paper()).unwrap()
}

fn fast_platform() -> CloudFpga {
    let mut fpga = CloudFpga::new(
        &small_victim(),
        &AccelConfig { weight_bandwidth: 16, stall_cycles: 150 },
        8_000,
        CosimConfig { pdn_substeps: 4 },
    )
    .unwrap();
    fpga.settle(20);
    fpga
}

#[test]
fn corrupted_uart_traffic_is_contained() {
    let mut fpga = fast_platform();
    let (a, b) = Endpoint::pair();
    let mut client = TransportClient::new(a);
    let mut shell = TransportShell::new(b);

    // Corrupt the first transmission of a command: the shell drops the
    // frame without answering and the transport retransmits.
    client.endpoint_mut().corrupt_next_sends(&[0x5A, 0xA5]);
    let r = client
        .transact(&Command::Status, || {
            shell.poll(&mut fpga);
        })
        .unwrap();
    assert!(matches!(r, Response::Status(_)));
    assert_eq!(shell.corrupt_frames(), 1);
    assert_eq!(client.stats().retransmissions, 1);

    // The link still works afterwards.
    let r = client
        .transact(&Command::Status, || {
            shell.poll(&mut fpga);
        })
        .unwrap();
    assert!(matches!(r, Response::Status(_)));
    assert_eq!(client.stats().retransmissions, 1, "a clean exchange needs no retry");
}

#[test]
fn dead_fpga_times_out_cleanly() {
    let (a, _b) = Endpoint::pair();
    let mut client = TransportClient::new(a);
    let err = client.transact(&Command::Status, || {}).unwrap_err();
    let attempts = TransportConfig::default().max_retries + 1;
    assert_eq!(err, UartError::LinkDown { attempts });
}

#[test]
fn oversized_scheme_rejected_locally_and_remotely() {
    // Locally: the signal RAM refuses to load it.
    let mut ram = SignalRam::new();
    let huge = AttackScheme {
        delay_cycles: CAPACITY_BITS as u32,
        strikes: 10,
        strike_cycles: 1,
        gap_cycles: 0,
    };
    assert!(matches!(ram.load(huge.into()), Err(DeepStrikeError::SchemeTooLarge { .. })));

    // Remotely: the shell answers with an application error code.
    let mut fpga = fast_platform();
    let (a, b) = Endpoint::pair();
    let mut client = TransportClient::new(a);
    let mut shell = TransportShell::new(b);
    let giant = AttackScheme {
        delay_cycles: CAPACITY_BITS as u32,
        strikes: 1,
        strike_cycles: 1,
        gap_cycles: 0,
    };
    let err = client
        .upload_scheme(&giant.to_bytes(), || {
            shell.poll(&mut fpga);
        })
        .unwrap_err();
    assert_eq!(err, UartError::Remote(2));
}

#[test]
fn truncated_scheme_bytes_rejected_remotely() {
    let mut fpga = fast_platform();
    let (a, b) = Endpoint::pair();
    let mut client = TransportClient::new(a);
    let mut shell = TransportShell::new(b);
    let err = client
        .upload_scheme(&[1, 2, 3], || {
            shell.poll(&mut fpga);
        })
        .unwrap_err();
    assert_eq!(err, UartError::Remote(1));
}

#[test]
fn arming_without_scheme_fails_remotely() {
    let mut fpga = fast_platform();
    let (a, b) = Endpoint::pair();
    let mut client = TransportClient::new(a);
    let mut shell = TransportShell::new(b);
    let err = client
        .transact(&Command::Arm { enabled: true }, || {
            shell.poll(&mut fpga);
        })
        .unwrap_err();
    assert_eq!(err, UartError::Remote(3));
}

#[test]
fn hypervisor_rejects_ring_oscillator_tenant() {
    let device = Device::zynq_7020();
    let mut benign = Netlist::new("victim");
    benign.add_lut1_inverter("l");
    let mut mal = Netlist::new("mal");
    let a = mal.add_lut1_inverter("a");
    let b = mal.add_lut1_inverter("b");
    mal.connect(mal.output_of(a), mal.input_of(b, 0)).unwrap();
    mal.connect(mal.output_of(b), mal.input_of(a, 0)).unwrap();
    let cols = device.grid().cols();
    let rows = device.grid().rows();
    let err = combine(
        &device,
        vec![
            TenantDesign::new("victim", benign, Region::new(0, 0, cols / 2 - 1, rows - 1)),
            TenantDesign::new("mal", mal, Region::new(cols / 2, 0, cols - 1, rows - 1)),
        ],
    )
    .unwrap_err();
    assert!(matches!(err, FabricError::DrcRejected { .. }));
}

/// A tiny-victim platform on the shared golden fixtures, for the remote
/// checkpoint/resume tests below.
fn remote_platform() -> CloudFpga {
    let mut fpga = CloudFpga::new(&tiny_dense_victim(), &accel_config(), 16_000, cosim_config())
        .expect("platform assembles");
    fpga.settle(30);
    fpga
}

/// Transport tuned so a disconnect window comfortably outlasts the whole
/// retry span (4 + 8 + 16 pumps), forcing a resumable `LinkDown`. The
/// tiny chunks stretch the upload phase across several exchanges so the
/// disconnect window below can be aimed into it.
fn brittle_transport() -> TransportConfig {
    TransportConfig { pump_budget: 4, max_retries: 2, backoff_cap: 16, chunk_len: 4 }
}

fn remote_config() -> RemoteConfig {
    let mut config = RemoteConfig::new(&["fc1", "fc2"], "fc1", 6);
    config.read_chunk = 32;
    config
}

fn remote_host(endpoint: Endpoint) -> SimHost {
    SimHost::new(
        remote_platform(),
        TransportShell::new(endpoint),
        tiny_dense_victim(),
        golden_images(6),
        FaultModel::paper(),
    )
}

#[test]
fn disconnect_resumes_from_checkpoint_to_the_uninterrupted_result() {
    // Reference: the same campaign on a clean link. Besides the expected
    // outcome this yields the campaign's tick footprint, which is used to
    // aim the disconnect window at the post-profile phases (after the
    // plan is checkpointed, so the interrupted run must not re-plan).
    let (a, b) = Endpoint::pair();
    let mut clean_link = TransportClient::with_config(a, brittle_transport());
    let mut clean_host = remote_host(b);
    let reference = RemoteCampaign::new(remote_config())
        .run(&mut clean_link, &mut clean_host)
        .expect("clean campaign completes");
    let total_ticks = clean_link.endpoint_mut().now();

    // Same campaign, but the link dies shortly before the clean campaign
    // would have finished and stays dead past several retry spans.
    // The clean campaign ends with 9 post-profile exchanges (upload
    // status + begin + four 4-byte chunks + commit, then arm, then the
    // strike status), one link tick each; 7 ticks back sits mid-upload.
    let fault = FaultConfig {
        disconnects: vec![(total_ticks.saturating_sub(7), 90)],
        ..FaultConfig::default()
    };
    let (a, b) = Endpoint::faulty_pair(fault, 17);
    let mut link = TransportClient::with_config(a, brittle_transport());
    let mut host = remote_host(b);
    let mut campaign = RemoteCampaign::new(remote_config());

    let mut interrupted_phases = Vec::new();
    let (outcome, log) = trace::capture(1 << 16, || loop {
        match campaign.run(&mut link, &mut host) {
            Ok(o) => break o,
            Err(DeepStrikeError::Interrupted { phase }) => {
                interrupted_phases.push(phase);
                assert!(interrupted_phases.len() < 40, "campaign never recovered");
            }
            Err(e) => panic!("unexpected hard failure: {e}"),
        }
    });

    assert!(!interrupted_phases.is_empty(), "the dead window must interrupt the campaign");
    assert_eq!(log.dropped, 0);
    // Every interrupt is followed by exactly one announced resume, at the
    // phase that was cut.
    let resumed: Vec<RemotePhase> = log
        .events
        .iter()
        .filter_map(|e| match e {
            trace::Event::CampaignResumed { phase } => Some(*phase),
            _ => None,
        })
        .collect();
    assert_eq!(resumed, interrupted_phases, "one campaign_resumed event per interrupt");
    // The window is aimed past profiling: the checkpointed profile and
    // plan must survive every interrupt (this is what "resume" means —
    // the campaign picks up mid-sequence instead of starting over).
    for phase in &interrupted_phases {
        assert!(
            matches!(phase, RemotePhase::Upload | RemotePhase::Arm | RemotePhase::Strike),
            "interrupt landed before the plan was checkpointed: {interrupted_phases:?}"
        );
    }
    let ckpt = campaign.checkpoint();
    assert_eq!(ckpt.completed_traces, remote_config().profile_runs, "profile survived");
    assert_eq!(outcome.guidance, deepstrike::remote::GuidanceLevel::Fresh);
    assert_eq!(outcome.scheme, reference.scheme, "resume must not re-plan a different scheme");
    assert_eq!(outcome.outcome, reference.outcome, "resume must reproduce the uninterrupted score");
}

#[test]
fn aborted_mid_transfer_upload_leaves_the_armed_scheme_untouched() {
    let mut fpga = remote_platform();
    let (a, b) = Endpoint::pair();
    let mut link = TransportClient::new(a);
    let mut shell = TransportShell::new(b);

    // Establish an armed baseline over the transport.
    let scheme = AttackScheme { delay_cycles: 24, strikes: 4, strike_cycles: 1, gap_cycles: 9 };
    link.upload_scheme(&scheme.to_bytes(), || {
        shell.poll(&mut fpga);
    })
    .expect("baseline upload");
    let armed = link
        .transact(&Command::Arm { enabled: true }, || {
            shell.poll(&mut fpga);
        })
        .expect("arms");
    assert_eq!(armed, Response::Ack);
    let baseline = match link
        .transact(&Command::Status, || {
            shell.poll(&mut fpga);
        })
        .expect("status")
    {
        Response::Status(s) => s,
        other => panic!("status answered {other:?}"),
    };
    assert!(baseline.armed);

    // A replacement upload starts, stages one chunk — and the attacker
    // vanishes before commit.
    let replacement = AttackScheme { delay_cycles: 0, strikes: 9, strike_cycles: 2, gap_cycles: 1 };
    let bytes = replacement.to_bytes();
    let begin = link
        .transact(
            &Command::UploadBegin { total_len: bytes.len() as u32, crc: ckpt::crc32(&bytes) },
            || {
                shell.poll(&mut fpga);
            },
        )
        .expect("upload opens");
    assert_eq!(begin, Response::Upload { received: 0, total: bytes.len() as u32 });
    let staged = link
        .transact(&Command::UploadChunk { offset: 0, data: bytes[..8].to_vec() }, || {
            shell.poll(&mut fpga);
        })
        .expect("chunk stages");
    assert_eq!(staged, Response::Upload { received: 8, total: bytes.len() as u32 });
    assert_eq!(shell.staged_bytes(), Some(8), "transfer died mid-flight");

    // The armed state is exactly what it was: staging is not loading.
    let after = match link
        .transact(&Command::Status, || {
            shell.poll(&mut fpga);
        })
        .expect("status after abort")
    {
        Response::Status(s) => s,
        other => panic!("status answered {other:?}"),
    };
    assert_eq!(after, baseline, "an uncommitted upload must not disturb the scheduler");

    // And the strike run that follows executes the *old* scheme: the
    // first strike honours the baseline's 24-cycle delay, which the
    // staged replacement (delay 0) would not.
    let run = fpga.run_inference();
    let trigger = run.triggered_cycle.expect("detector latches");
    let first_strike = *run.strike_cycles.first().expect("armed scheduler still strikes");
    assert!(
        first_strike >= trigger + u64::from(scheme.delay_cycles),
        "first strike at {first_strike} ignores the armed scheme's delay (trigger {trigger})"
    );
}

/// One sweep point of plausible per-item work for the supervisor tests:
/// a short PDN droop transient, deterministic in the cell count.
fn droop_point(&cells: &usize) -> (f64, f64) {
    let mut pdn = pdn::rlc::LumpedPdn::new();
    pdn.settle(0.35);
    let mut v_min = pdn.voltage();
    for _ in 0..10 {
        v_min = v_min.min(pdn.step(0.35 + cells as f64 * 1e-5, 1e-9));
    }
    (pdn.voltage(), v_min)
}

#[test]
fn kill_mid_sweep_resumes_to_byte_identical_results() {
    use bench::supervisor::{run_sliced, SweepRun};
    use std::sync::atomic::{AtomicUsize, Ordering};

    let cells: Vec<usize> = (1..=12).map(|k| k * 1_000).collect();
    let reference = match run_sliced(&cells, droop_point, None, 4, None) {
        SweepRun::Complete(o) => o.into_complete(),
        other => panic!("unexpected {other:?}"),
    };

    // "kill -9" after one durably-checkpointed slice …
    let dir =
        std::env::temp_dir().join(format!("deepstrike-failure-injection-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = ckpt::CheckpointStore::new(&dir, "droop").expect("store");
    match run_sliced(&cells, droop_point, Some(&mut store), 4, Some(1)) {
        SweepRun::Aborted { completed, generation } => {
            assert_eq!(completed, 4, "one slice of four must be durable");
            assert_eq!(generation, 1);
        }
        other => panic!("expected a simulated kill, got {other:?}"),
    }
    drop(store);

    // … then the restarted process resumes: the checkpointed prefix is
    // not recomputed and the merged output is bit-identical to the
    // uninterrupted sweep.
    let computed = AtomicUsize::new(0);
    let mut store = ckpt::CheckpointStore::new(&dir, "droop").expect("store reopens");
    let resumed = match run_sliced(
        &cells,
        |c| {
            computed.fetch_add(1, Ordering::Relaxed);
            droop_point(c)
        },
        Some(&mut store),
        4,
        None,
    ) {
        SweepRun::Complete(o) => o.into_complete(),
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(resumed, reference, "resumed sweep must reproduce the uninterrupted one");
    assert_eq!(computed.load(Ordering::Relaxed), cells.len() - 4, "prefix must not be recomputed");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poison_item_quarantine_is_identical_at_every_thread_count() {
    // A deterministic poison point: item 9 of 24 always panics. The
    // sweep must complete around it with the same typed quarantine
    // report and the same surviving results at any worker count.
    let run_once = || {
        let outcome = par::try_map(24, |i| {
            assert!(i != 9, "poison point");
            droop_point(&(i * 500))
        });
        let quarantine: Vec<(usize, String)> =
            outcome.quarantine.iter().map(|q| (q.index, q.message.clone())).collect();
        (outcome.results, quarantine)
    };

    let prev = std::env::var("DEEPSTRIKE_THREADS").ok();
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    std::env::set_var("DEEPSTRIKE_THREADS", "1");
    let reference = run_once();
    assert_eq!(reference.1.len(), 1, "exactly the poison point is quarantined");
    assert_eq!(reference.1[0].0, 9);
    assert!(reference.0[9].is_none() && reference.0.iter().filter(|r| r.is_some()).count() == 23);
    for threads in ["2", "8"] {
        std::env::set_var("DEEPSTRIKE_THREADS", threads);
        assert_eq!(run_once(), reference, "sweep outcome differs at {threads} workers");
    }
    std::panic::set_hook(hook);
    match prev {
        Some(v) => std::env::set_var("DEEPSTRIKE_THREADS", v),
        None => std::env::remove_var("DEEPSTRIKE_THREADS"),
    }
}

#[test]
fn malformed_model_bytes_are_rejected() {
    let q = small_victim();
    let mut bytes = q.to_bytes();
    // Truncations at every structural boundary must error, not panic.
    for cut in [0, 1, 3, 5, 20, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            matches!(
                QuantizedNetwork::from_bytes(&bytes[..cut]),
                Err(QuantError::MalformedModel(_))
            ),
            "cut at {cut} must be rejected"
        );
    }
    // Corrupting the layer tag must be rejected too.
    bytes[46] = 0x7F; // first layer tag (after magic+format+rank+shape+count)
    assert!(QuantizedNetwork::from_bytes(&bytes).is_err());
}
