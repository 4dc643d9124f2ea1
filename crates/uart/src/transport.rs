//! Reliable stop-and-wait transport over the (lossy) serial link.
//!
//! This is the one protocol stack between the attacker and the FPGA:
//! [`TransportClient`] on the attacker side, [`TransportShell`] on the
//! FPGA side dispatching commands into a [`ShellHandler`]. A raw frame on
//! the link can be lost, corrupted or delayed; this layer makes the
//! remotely guided loop survive a degraded link:
//!
//! * every request carries a **sequence number**; the response echoes it,
//!   so stale answers to retransmitted requests are discarded. A packet
//!   is `[seq u16 LE] ‖ message` and needs no kind byte: each direction
//!   of the duplex link carries one kind, requests to the shell and
//!   responses back;
//! * a lost exchange is **retransmitted** with capped exponential backoff
//!   (the per-attempt pump budget doubles up to [`TransportConfig::
//!   backoff_cap`]), and gives up with [`UartError::LinkDown`] once
//!   [`TransportConfig::max_retries`] is exhausted;
//! * the shell keeps a depth-1 **response replay cache**: a retransmitted
//!   request whose response was lost is answered from the cache without
//!   re-executing the command, making side-effectful commands (draining
//!   trace reads, upload chunks) exactly-once. Depth 1 suffices because
//!   the client is stop-and-wait and the link preserves byte order, so
//!   every copy of request *n* arrives before request *n + 1*. The cache
//!   is keyed on the whole request packet, so only an exact duplicate is
//!   replayed;
//! * scheme uploads are **chunked and resumable**: `UploadBegin` declares
//!   length and [`ckpt::crc32`], in-order `UploadChunk`s fill a staging
//!   buffer, `UploadStatus` reports the watermark so a reconnecting client
//!   resumes mid-transfer, and only a CRC-verified `UploadCommit`
//!   atomically installs the scheme — an aborted transfer leaves the
//!   armed state untouched.
//!
//! Transport retries and upload progress are emitted as [`trace`] events
//! (`link_retry`, `link_gave_up`, `upload_progress`) so the golden-trace
//! suite conformance-checks the degradation behaviour like any other
//! pipeline stage.

use ckpt::crc32;

use crate::error::{Result, UartError};
use crate::frame::{encode_frame, FrameDecoder};
use crate::link::Endpoint;
use crate::proto::{Command, Response, StatusInfo};

/// Application error: upload chunk/commit without an open upload.
pub const ERR_NO_UPLOAD: u8 = 0x10;
/// Application error: upload chunk leaves a gap before the watermark.
pub const ERR_UPLOAD_ORDER: u8 = 0x11;
/// Application error: committed bytes fail the declared CRC or length.
pub const ERR_UPLOAD_CRC: u8 = 0x12;
/// Application error: upload chunk overflows the declared total.
pub const ERR_UPLOAD_OVERFLOW: u8 = 0x13;
/// Application error: frame verified but the payload failed protocol
/// decoding.
pub const ERR_PROTOCOL: u8 = 0xFE;

/// What the FPGA side must implement to service the protocol.
pub trait ShellHandler {
    /// Returns up to `max_samples` of the most recent TDC readouts.
    fn read_trace(&mut self, max_samples: usize) -> Vec<u8>;

    /// Replaces the attack-scheme file with a CRC-verified upload
    /// (called on `UploadCommit`).
    ///
    /// # Errors
    ///
    /// Returns an application error code on rejection (e.g. oversized).
    fn load_scheme(&mut self, data: &[u8]) -> std::result::Result<(), u8>;

    /// Arms or disarms the attack scheduler.
    ///
    /// # Errors
    ///
    /// Returns an application error code on rejection (e.g. no scheme).
    fn arm(&mut self, enabled: bool) -> std::result::Result<(), u8>;

    /// Scheduler status snapshot.
    fn status(&mut self) -> StatusInfo;
}

/// Tunables of the reliable transport. The defaults suit the in-memory
/// link: budgets are counted in link ticks, not wall-clock time, and the
/// transport pumps the shell at most once per tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportConfig {
    /// Link ticks to wait for a response before the *first*
    /// retransmission. Default 100.
    pub pump_budget: u32,
    /// Retransmissions after the initial send before giving up with
    /// [`UartError::LinkDown`]. Default 6.
    pub max_retries: u32,
    /// Upper bound on the per-attempt tick budget as backoff doubles it
    /// (`100, 200, 400, 800, 800, …` with the defaults). Default 800.
    pub backoff_cap: u32,
    /// Bytes per `UploadChunk`. Small chunks keep frames short enough to
    /// survive lossy links (frame loss is exponential in frame length).
    /// Default 16.
    pub chunk_len: usize,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig { pump_budget: 100, max_retries: 6, backoff_cap: 800, chunk_len: 16 }
    }
}

/// Wraps a protocol message in a transport packet: `[seq u16 LE] ‖
/// message`.
fn wrap(seq: u16, message: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(2 + message.len());
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(message);
    v
}

/// Splits a transport packet into `(seq, message)`.
fn unwrap(packet: &[u8]) -> Option<(u16, &[u8])> {
    let (seq, message) = packet.split_first_chunk::<2>()?;
    Some((u16::from_le_bytes(*seq), message))
}

/// Cumulative transport counters (client side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportStats {
    /// Completed request/response exchanges.
    pub exchanges: u64,
    /// Retransmissions across all exchanges.
    pub retransmissions: u64,
    /// Exchanges abandoned with [`UartError::LinkDown`].
    pub gave_up: u64,
}

/// The attacker-side reliable client.
#[derive(Debug)]
pub struct TransportClient {
    endpoint: Endpoint,
    decoder: FrameDecoder,
    config: TransportConfig,
    next_seq: u16,
    stats: TransportStats,
    /// Runs [`Self::transact`] on the per-tick reference clock.
    #[cfg(test)]
    per_tick: bool,
}

impl TransportClient {
    /// Wraps a link endpoint with the default [`TransportConfig`].
    pub fn new(endpoint: Endpoint) -> Self {
        TransportClient::with_config(endpoint, TransportConfig::default())
    }

    /// Wraps a link endpoint with explicit transport tunables.
    pub fn with_config(endpoint: Endpoint, config: TransportConfig) -> Self {
        TransportClient {
            endpoint,
            decoder: FrameDecoder::new(),
            config,
            next_seq: 0,
            stats: TransportStats::default(),
            #[cfg(test)]
            per_tick: false,
        }
    }

    /// Cumulative transport counters.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }

    /// Direct access to the underlying link endpoint.
    pub fn endpoint_mut(&mut self) -> &mut Endpoint {
        &mut self.endpoint
    }

    /// Sends `command` reliably: transmits, pumps the FPGA side, and
    /// retransmits with capped exponential backoff until the matching
    /// response arrives.
    ///
    /// Budgets are link ticks, and the link clock is event-driven: the
    /// wait jumps to the tick before the next byte arrival
    /// ([`Endpoint::next_arrival`]), or to the attempt's deadline when no
    /// byte is in flight, and pumps once per tick from there. Jittered
    /// bytes land and disconnect windows close on the same ticks as with
    /// one pump per tick, so the transport *rides out* outages shorter
    /// than its total retry span.
    ///
    /// `pump` runs the FPGA side once (a [`TransportShell::poll`]). It
    /// must be a no-op while no byte has arrived toward the shell, since
    /// the transport skips it only on such ticks.
    ///
    /// # Errors
    ///
    /// [`UartError::LinkDown`] once every attempt is exhausted;
    /// [`UartError::Remote`] if the shell answered with an error code;
    /// [`UartError::MalformedMessage`] if a verified response frame fails
    /// protocol decoding.
    pub fn transact(&mut self, command: &Command, mut pump: impl FnMut()) -> Result<Response> {
        #[cfg(test)]
        if self.per_tick {
            return self.transact_per_tick(command, pump);
        }
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let wire = encode_frame(&wrap(seq, &command.to_bytes()));
        let mut budget = self.config.pump_budget.max(1);
        let attempts = self.config.max_retries + 1;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.stats.retransmissions += 1;
                trace::emit(|| trace::Event::LinkRetry { seq: u64::from(seq), attempt });
            }
            self.endpoint.send(&wire);
            let mut left = u64::from(budget);
            while left > 0 {
                // A tick before the next arrival changes nothing: the shell
                // takes bytes due by `now`, the client bytes due by
                // `now + 1`, and windows and fault draws act only on send.
                let idle = match self.endpoint.next_arrival() {
                    Some(at) => at.saturating_sub(self.endpoint.now()).saturating_sub(1).min(left),
                    None => left,
                };
                if idle > 0 {
                    self.endpoint.advance(idle);
                    left -= idle;
                    continue;
                }
                left -= 1;
                pump();
                self.endpoint.advance(1);
                let bytes = self.endpoint.recv_all();
                for frame in self.decoder.push_bytes(&bytes) {
                    let Some((rseq, inner)) = unwrap(&frame) else { continue };
                    if rseq != seq {
                        continue; // stale answer to an earlier retransmission
                    }
                    self.stats.exchanges += 1;
                    return match Response::from_bytes(inner)? {
                        Response::Error(code) => Err(UartError::Remote(code)),
                        r => Ok(r),
                    };
                }
            }
            budget = budget.saturating_mul(2).min(self.config.backoff_cap.max(1));
        }
        self.stats.gave_up += 1;
        trace::emit(|| trace::Event::LinkGaveUp { seq: u64::from(seq), attempts });
        Err(UartError::LinkDown { attempts })
    }

    /// The reference for [`Self::transact`]: the clock ticks once per
    /// pump, whether or not anything is in flight.
    #[cfg(test)]
    fn transact_per_tick(&mut self, command: &Command, mut pump: impl FnMut()) -> Result<Response> {
        let seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let wire = encode_frame(&wrap(seq, &command.to_bytes()));
        let mut budget = self.config.pump_budget.max(1);
        let attempts = self.config.max_retries + 1;
        for attempt in 0..attempts {
            if attempt > 0 {
                self.stats.retransmissions += 1;
                trace::emit(|| trace::Event::LinkRetry { seq: u64::from(seq), attempt });
            }
            self.endpoint.send(&wire);
            for _ in 0..budget {
                pump();
                self.endpoint.advance(1);
                let bytes = self.endpoint.recv_all();
                for frame in self.decoder.push_bytes(&bytes) {
                    let Some((rseq, inner)) = unwrap(&frame) else { continue };
                    if rseq != seq {
                        continue; // stale answer to an earlier retransmission
                    }
                    self.stats.exchanges += 1;
                    return match Response::from_bytes(inner)? {
                        Response::Error(code) => Err(UartError::Remote(code)),
                        r => Ok(r),
                    };
                }
            }
            budget = budget.saturating_mul(2).min(self.config.backoff_cap.max(1));
        }
        self.stats.gave_up += 1;
        trace::emit(|| trace::Event::LinkGaveUp { seq: u64::from(seq), attempts });
        Err(UartError::LinkDown { attempts })
    }

    /// Uploads scheme bytes with the chunked, resumable protocol: resume
    /// an open transfer of the same payload from the shell's watermark,
    /// otherwise start fresh; then stream in-order chunks and commit.
    ///
    /// If the commit reports a CRC mismatch (a stale staging buffer from
    /// a *different* aborted payload of the same length), the transfer is
    /// restarted from scratch once.
    ///
    /// `pump` follows the contract of [`Self::transact`]: a no-op while no
    /// byte has arrived toward the shell.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::transact`] errors; [`UartError::Remote`] with
    /// the shell's code if the scheme itself is rejected.
    pub fn upload_scheme(&mut self, data: &[u8], mut pump: impl FnMut()) -> Result<()> {
        let total = data.len() as u32;
        let crc = crc32(data);
        for fresh_start in [false, true] {
            let staged = if fresh_start {
                0
            } else {
                match self.transact(&Command::UploadStatus, &mut pump)? {
                    Response::Upload { received, total: t } if t == total && t > 0 => received,
                    _ => 0,
                }
            };
            let mut offset = staged;
            if staged == 0 {
                match self.transact(&Command::UploadBegin { total_len: total, crc }, &mut pump)? {
                    Response::Upload { .. } => {}
                    other => {
                        return Err(UartError::UnexpectedResponse(format!(
                            "upload_begin answered {other:?}"
                        )))
                    }
                }
            }
            while (offset as usize) < data.len() {
                let end = (offset as usize + self.config.chunk_len.max(1)).min(data.len());
                let chunk = data[offset as usize..end].to_vec();
                match self.transact(&Command::UploadChunk { offset, data: chunk }, &mut pump)? {
                    Response::Upload { received, .. } => {
                        offset = received;
                        trace::emit(|| trace::Event::UploadProgress {
                            offset: u64::from(received),
                            total: u64::from(total),
                        });
                    }
                    other => {
                        return Err(UartError::UnexpectedResponse(format!(
                            "upload_chunk answered {other:?}"
                        )))
                    }
                }
            }
            match self.transact(&Command::UploadCommit, &mut pump) {
                Ok(Response::Ack) => return Ok(()),
                Ok(other) => {
                    return Err(UartError::UnexpectedResponse(format!(
                        "upload_commit answered {other:?}"
                    )))
                }
                // Stale staging from a different payload: restart once.
                Err(UartError::Remote(ERR_UPLOAD_CRC)) if !fresh_start => continue,
                Err(e) => return Err(e),
            }
        }
        unreachable!("second pass either commits or returns an error")
    }
}

/// In-flight upload staging on the FPGA side.
#[derive(Debug)]
struct Staging {
    total: u32,
    crc: u32,
    buf: Vec<u8>,
}

/// The FPGA-side transport shell: seq-aware dispatch with a depth-1
/// response replay cache, plus the upload staging state machine.
#[derive(Debug)]
pub struct TransportShell {
    endpoint: Endpoint,
    decoder: FrameDecoder,
    staging: Option<Staging>,
    /// `(request packet, encoded response frame)` of the most recent
    /// execution. Keying on the whole packet, not the 16-bit sequence
    /// number alone, tells a retransmitted duplicate from a *different*
    /// request that lands on the same sequence number after counter
    /// wraparound — replaying a cached response to the latter would
    /// silently answer the wrong command.
    last: Option<(Vec<u8>, Vec<u8>)>,
    replayed: u64,
}

impl TransportShell {
    /// Wraps a link endpoint.
    pub fn new(endpoint: Endpoint) -> Self {
        TransportShell {
            endpoint,
            decoder: FrameDecoder::new(),
            staging: None,
            last: None,
            replayed: 0,
        }
    }

    /// Frames dropped by the decoder due to corruption.
    pub fn corrupt_frames(&self) -> u64 {
        self.decoder.corrupt_frames()
    }

    /// Responses served from the replay cache (lost-response recoveries).
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Bytes staged by an open upload, if any.
    pub fn staged_bytes(&self) -> Option<usize> {
        self.staging.as_ref().map(|s| s.buf.len())
    }

    /// Services every pending request; returns how many were *executed*
    /// (replayed duplicates are answered but not counted).
    pub fn poll(&mut self, handler: &mut dyn ShellHandler) -> usize {
        let bytes = self.endpoint.recv_all();
        let frames = self.decoder.push_bytes(&bytes);
        let mut handled = 0usize;
        for frame in frames {
            let Some((seq, inner)) = unwrap(&frame) else { continue };
            if let Some((request, cached)) = &self.last {
                if *request == frame {
                    // The response was lost in transit: replay it without
                    // re-executing the (side-effectful) command.
                    self.endpoint.send(cached);
                    self.replayed += 1;
                    continue;
                }
            }
            let response = self.dispatch(inner, handler);
            let wire = encode_frame(&wrap(seq, &response.to_bytes()));
            self.endpoint.send(&wire);
            self.last = Some((frame, wire));
            handled += 1;
        }
        handled
    }

    fn dispatch(&mut self, inner: &[u8], handler: &mut dyn ShellHandler) -> Response {
        match Command::from_bytes(inner) {
            Ok(Command::ReadTrace { max_samples }) => {
                Response::Trace(handler.read_trace(max_samples as usize))
            }
            Ok(Command::Arm { enabled }) => match handler.arm(enabled) {
                Ok(()) => Response::Ack,
                Err(code) => Response::Error(code),
            },
            Ok(Command::Status) => Response::Status(handler.status()),
            Ok(Command::UploadBegin { total_len, crc }) => {
                // Staging grows with accepted chunks only: the declared
                // length comes from the remote side and reserves nothing.
                self.staging = Some(Staging { total: total_len, crc, buf: Vec::new() });
                Response::Upload { received: 0, total: total_len }
            }
            Ok(Command::UploadChunk { offset, data }) => match &mut self.staging {
                None => Response::Error(ERR_NO_UPLOAD),
                Some(st) => {
                    let have = st.buf.len() as u32;
                    if offset > have {
                        Response::Error(ERR_UPLOAD_ORDER)
                    } else if offset as usize + data.len() > st.total as usize {
                        Response::Error(ERR_UPLOAD_OVERFLOW)
                    } else {
                        // Overlapping bytes below the watermark are already
                        // staged; only the fresh tail extends the buffer.
                        let fresh_from = (have - offset) as usize;
                        if fresh_from < data.len() {
                            st.buf.extend_from_slice(&data[fresh_from..]);
                        }
                        Response::Upload { received: st.buf.len() as u32, total: st.total }
                    }
                }
            },
            Ok(Command::UploadCommit) => match self.staging.take() {
                None => Response::Error(ERR_NO_UPLOAD),
                Some(st) => {
                    if st.buf.len() as u32 != st.total || crc32(&st.buf) != st.crc {
                        Response::Error(ERR_UPLOAD_CRC)
                    } else {
                        match handler.load_scheme(&st.buf) {
                            Ok(()) => Response::Ack,
                            Err(code) => Response::Error(code),
                        }
                    }
                }
            },
            Ok(Command::UploadStatus) => match &self.staging {
                Some(st) => Response::Upload { received: st.buf.len() as u32, total: st.total },
                None => Response::Upload { received: 0, total: 0 },
            },
            Err(_) => Response::Error(ERR_PROTOCOL),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::link::FaultConfig;
    use proptest::prelude::*;

    /// Counts executions so duplicate suppression is observable.
    #[derive(Debug, Default, PartialEq)]
    struct CountingFpga {
        scheme: Vec<u8>,
        armed: bool,
        trace_reads: u32,
        scheme_loads: u32,
        trace: Vec<u8>,
    }

    impl ShellHandler for CountingFpga {
        fn read_trace(&mut self, max_samples: usize) -> Vec<u8> {
            self.trace_reads += 1;
            let n = self.trace.len().min(max_samples);
            self.trace.drain(..n).collect()
        }
        fn load_scheme(&mut self, data: &[u8]) -> std::result::Result<(), u8> {
            self.scheme_loads += 1;
            if data.len() > 64 {
                return Err(2);
            }
            self.scheme = data.to_vec();
            Ok(())
        }
        fn arm(&mut self, enabled: bool) -> std::result::Result<(), u8> {
            if self.scheme.is_empty() {
                return Err(3);
            }
            self.armed = enabled;
            Ok(())
        }
        fn status(&mut self) -> StatusInfo {
            StatusInfo {
                armed: self.armed,
                triggered: false,
                strikes_fired: 0,
                scheme_bits: (self.scheme.len() * 8) as u32,
            }
        }
    }

    fn clean_rig() -> (TransportClient, TransportShell, CountingFpga) {
        let (a, b) = Endpoint::pair();
        (TransportClient::new(a), TransportShell::new(b), CountingFpga::default())
    }

    #[test]
    fn clean_link_round_trip() {
        let (mut client, mut shell, mut fpga) = clean_rig();
        fpga.trace = vec![90, 89, 88];
        let r = client
            .transact(&Command::ReadTrace { max_samples: 2 }, || {
                shell.poll(&mut fpga);
            })
            .unwrap();
        assert_eq!(r, Response::Trace(vec![90, 89]));
        assert_eq!(client.stats().retransmissions, 0);
    }

    #[test]
    fn undecodable_command_is_answered_with_protocol_error() {
        let (mut client, mut shell, mut fpga) = clean_rig();
        // A verified frame whose payload is not a valid command.
        let seq = 0x1234;
        client.endpoint_mut().send(&encode_frame(&wrap(seq, &[0x77, 1, 2, 3])));
        assert_eq!(shell.poll(&mut fpga), 1);
        let bytes = client.endpoint_mut().recv_all();
        let frames = client.decoder.push_bytes(&bytes);
        let [frame] = frames.as_slice() else { panic!("expected one response, got {frames:?}") };
        let (rseq, inner) = unwrap(frame).unwrap();
        assert_eq!(rseq, seq, "the request's seq is echoed");
        assert_eq!(Response::from_bytes(inner).unwrap(), Response::Error(ERR_PROTOCOL));
    }

    #[test]
    fn handler_rejections_reach_the_client_as_remote_errors() {
        let (mut client, mut shell, mut fpga) = clean_rig();
        // Arming with no scheme loaded: the handler answers Err(3).
        let err = client
            .transact(&Command::Arm { enabled: true }, || {
                shell.poll(&mut fpga);
            })
            .unwrap_err();
        assert_eq!(err, UartError::Remote(3));
        // A CRC-clean upload the handler refuses (oversized): Err(2).
        let err = client
            .upload_scheme(&[0; 65], || {
                shell.poll(&mut fpga);
            })
            .unwrap_err();
        assert_eq!(err, UartError::Remote(2));
        assert!(fpga.scheme.is_empty() && !fpga.armed);
        assert_eq!(client.stats().retransmissions, 0, "rejections are answers, not losses");
    }

    #[test]
    fn lost_request_is_retransmitted() {
        let (mut client, mut shell, mut fpga) = clean_rig();
        // Kill the first request frame (first wire byte flipped breaks
        // its COBS structure or CRC); later sends are untouched.
        client.endpoint_mut().corrupt_next_sends(&[0xFF]);
        let r = client
            .transact(&Command::Status, || {
                shell.poll(&mut fpga);
            })
            .unwrap();
        assert!(matches!(r, Response::Status(_)));
        assert!(client.stats().retransmissions >= 1);
        assert_eq!(shell.corrupt_frames(), 1, "the damaged request was dropped silently");
        assert_eq!(shell.replayed(), 0, "request loss does not hit the replay cache");
    }

    #[test]
    fn lost_response_is_replayed_without_reexecution() {
        let (a, b) = Endpoint::pair();
        let mut client = TransportClient::new(a);
        let mut shell = TransportShell::new(b);
        let mut fpga = CountingFpga { trace: vec![1, 2, 3, 4], ..CountingFpga::default() };
        // Kill the first *response* frame: the client retries and the
        // shell must replay, not drain the trace buffer twice.
        shell.endpoint.corrupt_next_sends(&[0xFF]);
        let r = client
            .transact(&Command::ReadTrace { max_samples: 2 }, || {
                shell.poll(&mut fpga);
            })
            .unwrap();
        assert_eq!(r, Response::Trace(vec![1, 2]));
        assert_eq!(fpga.trace_reads, 1, "exactly-once execution");
        assert_eq!(shell.replayed(), 1);
        // The next exchange continues from where the drain left off.
        let r = client
            .transact(&Command::ReadTrace { max_samples: 2 }, || {
                shell.poll(&mut fpga);
            })
            .unwrap();
        assert_eq!(r, Response::Trace(vec![3, 4]));
    }

    #[test]
    fn dead_link_gives_up_with_link_down() {
        let config =
            TransportConfig { pump_budget: 3, max_retries: 2, backoff_cap: 6, chunk_len: 16 };
        // A silent peer: every request sits unread toward the shell, so
        // the transport pumps on every tick of the 3 + 6 + 6 budget.
        let (a, _b) = Endpoint::pair();
        let mut client = TransportClient::with_config(a, config.clone());
        let mut pumps = 0;
        let err = client.transact(&Command::Status, || pumps += 1).unwrap_err();
        assert_eq!(err, UartError::LinkDown { attempts: 3 });
        assert_eq!(client.stats().gave_up, 1);
        assert_eq!((pumps, client.endpoint_mut().now()), (15, 15));
        // A wire that drops every byte: nothing is ever in flight, so each
        // attempt's whole budget passes in one jump, with no pump at all.
        let dead = FaultConfig { disconnects: vec![(0, u64::MAX)], ..FaultConfig::default() };
        let (a, _b) = Endpoint::faulty_pair(dead, 1);
        let mut client = TransportClient::with_config(a, config);
        let mut pumps = 0;
        let err = client.transact(&Command::Status, || pumps += 1).unwrap_err();
        assert_eq!(err, UartError::LinkDown { attempts: 3 });
        assert_eq!(client.stats().gave_up, 1);
        assert_eq!((pumps, client.endpoint_mut().now()), (0, 3 + 6 + 6));
    }

    #[test]
    fn a_clean_exchange_pumps_once() {
        let (mut client, mut shell, mut fpga) = clean_rig();
        let mut pumps = 0;
        let r = client
            .transact(&Command::Status, || {
                pumps += 1;
                shell.poll(&mut fpga);
            })
            .unwrap();
        assert!(matches!(r, Response::Status(_)));
        assert_eq!((pumps, client.endpoint_mut().now()), (1, 1));
    }

    #[test]
    fn backoff_rides_out_a_disconnect_window() {
        // The link is dead for the first 40 ticks; the transport's
        // retries span well past that, so the exchange succeeds without
        // the caller ever seeing an error.
        let config = FaultConfig { disconnects: vec![(0, 40)], ..FaultConfig::default() };
        let (a, b) = Endpoint::faulty_pair(config, 1);
        let mut client = TransportClient::with_config(
            a,
            TransportConfig { pump_budget: 10, max_retries: 6, backoff_cap: 80, chunk_len: 16 },
        );
        let mut shell = TransportShell::new(b);
        let mut fpga = CountingFpga::default();
        let r = client
            .transact(&Command::Status, || {
                shell.poll(&mut fpga);
            })
            .unwrap();
        assert!(matches!(r, Response::Status(_)));
        assert!(client.stats().retransmissions >= 1, "the outage forced a retry");
    }

    #[test]
    fn chunked_upload_commits_atomically() {
        let (mut client, mut shell, mut fpga) = clean_rig();
        let data: Vec<u8> = (0..40u8).collect();
        client
            .upload_scheme(&data, || {
                shell.poll(&mut fpga);
            })
            .unwrap();
        assert_eq!(fpga.scheme, data);
        assert_eq!(fpga.scheme_loads, 1, "exactly one atomic install");
        assert_eq!(shell.staged_bytes(), None, "staging cleared after commit");
    }

    #[test]
    fn aborted_upload_leaves_scheme_untouched_and_resumes() {
        let (a, b) = Endpoint::pair();
        let mut client = TransportClient::with_config(
            a,
            TransportConfig { chunk_len: 8, ..TransportConfig::default() },
        );
        let mut shell = TransportShell::new(b);
        let mut fpga = CountingFpga::default();
        // Preload a scheme so "unchanged" is observable.
        let old: Vec<u8> = vec![7; 16];
        client
            .upload_scheme(&old, || {
                shell.poll(&mut fpga);
            })
            .unwrap();

        // Manually begin + send one chunk of a new payload, then abort.
        let new: Vec<u8> = (100..140u8).collect();
        let crc = crc32(&new);
        client
            .transact(&Command::UploadBegin { total_len: 40, crc }, || {
                shell.poll(&mut fpga);
            })
            .unwrap();
        client
            .transact(&Command::UploadChunk { offset: 0, data: new[..8].to_vec() }, || {
                shell.poll(&mut fpga);
            })
            .unwrap();
        assert_eq!(fpga.scheme, old, "aborted transfer must not touch the scheme");
        assert_eq!(shell.staged_bytes(), Some(8));

        // A later upload_scheme of the same payload resumes at the
        // watermark instead of restarting.
        client
            .upload_scheme(&new, || {
                shell.poll(&mut fpga);
            })
            .unwrap();
        assert_eq!(fpga.scheme, new);
    }

    #[test]
    fn upload_chunk_order_is_enforced_and_overlap_is_idempotent() {
        let (mut client, mut shell, mut fpga) = clean_rig();
        let data: Vec<u8> = (0..24u8).collect();
        client
            .transact(&Command::UploadBegin { total_len: 24, crc: crc32(&data) }, || {
                shell.poll(&mut fpga);
            })
            .unwrap();
        // Gap: offset 16 with watermark 0.
        let err = client
            .transact(&Command::UploadChunk { offset: 16, data: data[16..].to_vec() }, || {
                shell.poll(&mut fpga);
            })
            .unwrap_err();
        assert_eq!(err, UartError::Remote(ERR_UPLOAD_ORDER));
        // In-order, then an overlapping duplicate, then the tail.
        for (offset, chunk) in [(0u32, &data[..16]), (0u32, &data[..16]), (16u32, &data[16..])] {
            client
                .transact(&Command::UploadChunk { offset, data: chunk.to_vec() }, || {
                    shell.poll(&mut fpga);
                })
                .unwrap();
        }
        let r = client
            .transact(&Command::UploadCommit, || {
                shell.poll(&mut fpga);
            })
            .unwrap();
        assert_eq!(r, Response::Ack);
        assert_eq!(fpga.scheme, data);
    }

    #[test]
    fn commit_without_begin_and_crc_mismatch_are_rejected() {
        let (mut client, mut shell, mut fpga) = clean_rig();
        let err = client
            .transact(&Command::UploadCommit, || {
                shell.poll(&mut fpga);
            })
            .unwrap_err();
        assert_eq!(err, UartError::Remote(ERR_NO_UPLOAD));
        // Declare one payload, stage different bytes of the same length.
        let declared: Vec<u8> = vec![1; 8];
        let staged: Vec<u8> = vec![2; 8];
        client
            .transact(&Command::UploadBegin { total_len: 8, crc: crc32(&declared) }, || {
                shell.poll(&mut fpga);
            })
            .unwrap();
        client
            .transact(&Command::UploadChunk { offset: 0, data: staged }, || {
                shell.poll(&mut fpga);
            })
            .unwrap();
        let err = client
            .transact(&Command::UploadCommit, || {
                shell.poll(&mut fpga);
            })
            .unwrap_err();
        assert_eq!(err, UartError::Remote(ERR_UPLOAD_CRC));
        assert_eq!(fpga.scheme_loads, 0, "a bad CRC never reaches the handler");
    }

    #[test]
    fn declared_upload_length_reserves_nothing_up_front() {
        let (mut client, mut shell, mut fpga) = clean_rig();
        let r = client
            .transact(&Command::UploadBegin { total_len: u32::MAX, crc: 0 }, || {
                shell.poll(&mut fpga);
            })
            .unwrap();
        assert_eq!(r, Response::Upload { received: 0, total: u32::MAX });
        let r = client
            .transact(&Command::UploadChunk { offset: 0, data: vec![9; 8] }, || {
                shell.poll(&mut fpga);
            })
            .unwrap();
        assert!(matches!(r, Response::Upload { received: 8, .. }), "{r:?}");
        assert_eq!(shell.staged_bytes(), Some(8));
        let err = client
            .transact(&Command::UploadCommit, || {
                shell.poll(&mut fpga);
            })
            .unwrap_err();
        assert_eq!(err, UartError::Remote(ERR_UPLOAD_CRC));
        assert_eq!(fpga.scheme_loads, 0);
    }

    #[test]
    fn upload_survives_a_heavily_lossy_link() {
        let config = FaultConfig {
            loss: 0.08,
            corrupt: 0.08,
            burst_len: 12.0,
            max_jitter: 2,
            ..FaultConfig::default()
        };
        let (a, b) = Endpoint::faulty_pair(config, 99);
        let mut client = TransportClient::with_config(
            a,
            TransportConfig { pump_budget: 12, max_retries: 30, backoff_cap: 48, chunk_len: 8 },
        );
        let mut shell = TransportShell::new(b);
        let mut fpga = CountingFpga::default();
        let data: Vec<u8> = (0..48u8).collect();
        client
            .upload_scheme(&data, || {
                shell.poll(&mut fpga);
            })
            .unwrap();
        assert_eq!(fpga.scheme, data);
        assert_eq!(fpga.scheme_loads, 1);
        assert!(client.stats().retransmissions > 0, "a lossy link must force retries");
    }

    /// A faulty rig whose client waits on the event-driven clock, or on
    /// the per-tick reference when `per_tick` is set.
    fn faulty_rig(
        faults: &FaultConfig,
        seed: u64,
        config: &TransportConfig,
        per_tick: bool,
    ) -> (TransportClient, TransportShell, CountingFpga) {
        let (a, b) = Endpoint::faulty_pair(faults.clone(), seed);
        let mut client = TransportClient::with_config(a, config.clone());
        client.per_tick = per_tick;
        let fpga = CountingFpga { trace: (0..=255).collect(), ..CountingFpga::default() };
        (client, TransportShell::new(b), fpga)
    }

    proptest! {
        /// Jumping idle ticks is exact: on identically seeded lossy,
        /// jittery links with outages, every command gives the same
        /// result at the same tick as pumping once per tick, with the
        /// same transport and link counters and the same shell and
        /// handler state.
        #[test]
        fn event_clock_is_tick_identical_to_the_per_tick_reference(
            rates in (0.0f64..0.2, 0.0f64..0.2, 1.0f64..24.0, 0u64..5),
            windows in prop::collection::vec((0u64..3000, 0u64..600), 0..3),
            budgets in (0u32..40, 0u32..8, 0u32..200, 0usize..24),
            seed in any::<u64>(),
            commands in prop::collection::vec(
                (0u8..4, 0u32..100, prop::collection::vec(any::<u8>(), 0..80)),
                1..10,
            ),
        ) {
            let (loss, corrupt, burst_len, max_jitter) = rates;
            let faults = FaultConfig { loss, corrupt, burst_len, max_jitter, disconnects: windows };
            let (pump_budget, max_retries, backoff_cap, chunk_len) = budgets;
            let config = TransportConfig { pump_budget, max_retries, backoff_cap, chunk_len };
            let mut event = faulty_rig(&faults, seed, &config, false);
            let mut per_tick = faulty_rig(&faults, seed, &config, true);
            for (i, (kind, arg, data)) in commands.iter().enumerate() {
                let [a, b] = [&mut event, &mut per_tick].map(|(client, shell, fpga)| {
                    let mut pump = || {
                        shell.poll(fpga);
                    };
                    let result = match kind {
                        0 => client.transact(&Command::Status, &mut pump),
                        1 => client.transact(&Command::ReadTrace { max_samples: *arg }, &mut pump),
                        2 => client.transact(&Command::Arm { enabled: arg % 2 == 0 }, &mut pump),
                        _ => client.upload_scheme(data, &mut pump).map(|()| Response::Ack),
                    };
                    (
                        result,
                        client.stats(),
                        client.endpoint.now(),
                        (client.endpoint.tx_stats(), shell.endpoint.tx_stats()),
                        (shell.corrupt_frames(), shell.replayed()),
                    )
                });
                prop_assert_eq!(a, b, "command {i} (kind {kind})");
                prop_assert_eq!(&event.2, &per_tick.2, "handler state after command {i}");
            }
        }
    }
}
