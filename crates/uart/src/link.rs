//! In-memory full-duplex byte link standing in for the physical UART.
//!
//! Two channel grades are available:
//!
//! * [`Endpoint::pair`] — a perfect wire (plus the deterministic
//!   [`Endpoint::corrupt_next_sends`] rig for targeted tests);
//! * [`Endpoint::faulty_pair`] — a seeded stochastic channel with
//!   per-byte loss, bit-flip corruption, latency jitter and hard
//!   disconnect windows, all drawn from a `StdRng` so a `(traffic,
//!   seed)` pair replays bit-identically.
//!
//! Errors cluster in bursts (a two-state Gilbert–Elliott model): real
//! serial links fail in glitches, not as independent coin flips, and
//! burstiness is what makes frame retransmission effective. Time is a
//! shared tick counter advanced by [`Endpoint::advance`], which drives
//! jitter delivery and disconnect windows deterministically. A tick on
//! which no byte arrives changes nothing, so the transport jumps the
//! clock straight to the next arrival ([`Endpoint::next_arrival`]) or
//! retransmit deadline.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stochastic channel-fault model for [`Endpoint::faulty_pair`].
///
/// `loss` and `corrupt` are *long-run per-byte* rates; `burst_len`
/// controls how strongly the errors cluster (mean length of a bad burst
/// in bytes; `<= 1.0` degenerates to independent per-byte draws).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Long-run fraction of bytes dropped on the wire.
    pub loss: f64,
    /// Long-run fraction of bytes XOR-corrupted with a random mask.
    pub corrupt: f64,
    /// Mean bad-burst length in bytes (Gilbert–Elliott); `<= 1.0` means
    /// independent per-byte errors.
    pub burst_len: f64,
    /// Maximum extra delivery latency per byte, in link ticks (delivery
    /// order is preserved; jitter only stretches the queue).
    pub max_jitter: u64,
    /// Hard outage windows `(start_tick, len_ticks)`: every byte sent
    /// while a window is open is dropped, in both directions.
    pub disconnects: Vec<(u64, u64)>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            loss: 0.0,
            corrupt: 0.0,
            burst_len: 16.0,
            max_jitter: 0,
            disconnects: Vec::new(),
        }
    }
}

impl FaultConfig {
    /// True while tick `now` falls inside a disconnect window. A window
    /// may reach past `u64::MAX`; it then stays open to the end of time.
    pub fn disconnected_at(&self, now: u64) -> bool {
        self.disconnects.iter().any(|&(start, len)| now >= start && now - start < len)
    }
}

/// Byte counters for one link direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Bytes handed to `send`.
    pub sent: u64,
    /// Bytes dropped (loss or disconnect window).
    pub dropped: u64,
    /// Bytes delivered with a corrupted value.
    pub corrupted: u64,
}

/// Per-direction stochastic fault state.
#[derive(Debug)]
struct Faults {
    config: FaultConfig,
    rng: StdRng,
    /// Gilbert–Elliott state: in a bad burst.
    bad: bool,
    /// Delivery tick of the most recently queued byte (FIFO order).
    last_deliver: u64,
    stats: LinkStats,
}

impl Faults {
    fn new(config: FaultConfig, seed: u64) -> Self {
        Faults {
            config,
            rng: StdRng::seed_from_u64(seed),
            bad: false,
            last_deliver: 0,
            stats: LinkStats::default(),
        }
    }

    /// Long-run fraction of bytes inside a bad burst.
    fn duty(&self) -> f64 {
        (self.config.loss + self.config.corrupt).min(0.5)
    }

    /// Advances the burst state machine one byte.
    fn step_state(&mut self) {
        let duty = self.duty();
        if duty <= 0.0 || self.config.burst_len <= 1.0 {
            self.bad = false;
            return;
        }
        let p_leave_bad = 1.0 / self.config.burst_len;
        let p_enter_bad = duty / (1.0 - duty) * p_leave_bad;
        if self.bad {
            if self.rng.gen_bool(p_leave_bad.clamp(0.0, 1.0)) {
                self.bad = false;
            }
        } else if self.rng.gen_bool(p_enter_bad.clamp(0.0, 1.0)) {
            self.bad = true;
        }
    }

    /// Per-byte loss/corruption draw. Returns `None` for a dropped byte,
    /// otherwise the (possibly corrupted) value.
    fn filter(&mut self, byte: u8) -> Option<u8> {
        let duty = self.duty();
        if duty <= 0.0 {
            return Some(byte);
        }
        self.step_state();
        let (p_loss, p_corrupt) = if self.config.burst_len <= 1.0 {
            (self.config.loss, self.config.corrupt)
        } else if self.bad {
            // Scale so the long-run averages match the configured rates.
            (self.config.loss / duty, self.config.corrupt / duty)
        } else {
            (0.0, 0.0)
        };
        if p_loss > 0.0 && self.rng.gen_bool(p_loss.clamp(0.0, 1.0)) {
            self.stats.dropped += 1;
            return None;
        }
        if p_corrupt > 0.0
            && self.rng.gen_bool((p_corrupt / (1.0 - p_loss).max(1e-12)).clamp(0.0, 1.0))
        {
            self.stats.corrupted += 1;
            return Some(byte ^ self.rng.gen_range(1..=255u8));
        }
        Some(byte)
    }
}

#[derive(Debug, Default)]
struct Wire {
    /// `(deliver_at_tick, byte)` in FIFO order.
    bytes: VecDeque<(u64, u8)>,
    /// Bit-corruption masks applied to the next bytes written (test rig).
    pending_corruption: VecDeque<u8>,
    /// Stochastic fault state, present on faulty pairs only.
    faults: Option<Faults>,
}

/// One endpoint of a duplex byte link.
///
/// # Example
///
/// ```
/// use uart::link::Endpoint;
///
/// let (mut a, mut b) = Endpoint::pair();
/// a.send(b"ping");
/// assert_eq!(b.recv_all(), b"ping");
/// b.send(b"pong");
/// assert_eq!(a.recv_all(), b"pong");
/// ```
#[derive(Debug, Clone)]
pub struct Endpoint {
    tx: Arc<Mutex<Wire>>,
    rx: Arc<Mutex<Wire>>,
    clock: Arc<AtomicU64>,
}

impl Endpoint {
    /// Creates a perfectly reliable endpoint pair.
    pub fn pair() -> (Endpoint, Endpoint) {
        let ab = Arc::new(Mutex::new(Wire::default()));
        let ba = Arc::new(Mutex::new(Wire::default()));
        let clock = Arc::new(AtomicU64::new(0));
        (
            Endpoint { tx: Arc::clone(&ab), rx: Arc::clone(&ba), clock: Arc::clone(&clock) },
            Endpoint { tx: ba, rx: ab, clock },
        )
    }

    /// Creates an endpoint pair over a seeded stochastic channel. Each
    /// direction draws from its own deterministic stream, so a given
    /// `(traffic, seed)` pair replays bit-identically.
    pub fn faulty_pair(config: FaultConfig, seed: u64) -> (Endpoint, Endpoint) {
        let ab = Arc::new(Mutex::new(Wire {
            faults: Some(Faults::new(config.clone(), seed)),
            ..Wire::default()
        }));
        let ba = Arc::new(Mutex::new(Wire {
            faults: Some(Faults::new(config, seed ^ 0x9E37_79B9_7F4A_7C15)),
            ..Wire::default()
        }));
        let clock = Arc::new(AtomicU64::new(0));
        (
            Endpoint { tx: Arc::clone(&ab), rx: Arc::clone(&ba), clock: Arc::clone(&clock) },
            Endpoint { tx: ba, rx: ab, clock },
        )
    }

    /// Current link tick (shared by both endpoints).
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Advances the shared link clock. Jittered bytes are delivered once
    /// the clock passes their arrival tick; disconnect windows open and
    /// close against this clock.
    pub fn advance(&self, ticks: u64) {
        self.clock.fetch_add(ticks, Ordering::Relaxed);
    }

    /// Earliest delivery tick of any byte in flight in either direction,
    /// or `None` when both wires are empty. Delivery ticks are monotone
    /// along each FIFO wire, so each front holds its wire's minimum.
    pub fn next_arrival(&self) -> Option<u64> {
        let front = |wire: &Mutex<Wire>| {
            wire.lock().expect("wire poisoned").bytes.front().map(|&(at, _)| at)
        };
        // One lock at a time: never hold both wires at once.
        let tx = front(&self.tx);
        let rx = front(&self.rx);
        tx.into_iter().chain(rx).min()
    }

    /// Writes bytes toward the peer.
    pub fn send(&mut self, bytes: &[u8]) {
        let now = self.now();
        let mut wire = self.tx.lock().expect("wire poisoned");
        let Wire { bytes: queue, pending_corruption, faults } = &mut *wire;
        // `now` is fixed for the call, so one window check covers it.
        let down = faults.as_ref().is_some_and(|f| f.config.disconnected_at(now));
        for &b in bytes {
            // The deterministic rig applies first (it models the sender's
            // own line driver glitching, independent of channel state).
            let rigged = match pending_corruption.pop_front() {
                Some(mask) => b ^ mask,
                None => b,
            };
            match faults {
                Some(f) => {
                    f.stats.sent += 1;
                    if down {
                        f.stats.dropped += 1;
                        continue;
                    }
                    let Some(byte) = f.filter(rigged) else { continue };
                    let jitter = if f.config.max_jitter > 0 {
                        f.rng.gen_range(0..=f.config.max_jitter)
                    } else {
                        0
                    };
                    let at = (now + jitter).max(f.last_deliver);
                    f.last_deliver = at;
                    queue.push_back((at, byte));
                }
                None => queue.push_back((now, rigged)),
            }
        }
    }

    /// Drains every byte that has *arrived* (delivery tick ≤ now).
    pub fn recv_all(&mut self) -> Vec<u8> {
        let now = self.now();
        let mut wire = self.rx.lock().expect("wire poisoned");
        let mut out = Vec::new();
        while let Some(&(at, b)) = wire.bytes.front() {
            if at > now {
                break;
            }
            out.push(b);
            wire.bytes.pop_front();
        }
        out
    }

    /// Byte counters for this endpoint's outbound direction (zeroes on a
    /// perfect pair).
    pub fn tx_stats(&self) -> LinkStats {
        let wire = self.tx.lock().expect("wire poisoned");
        wire.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Test rig: XOR-corrupts the next `masks.len()` bytes this endpoint
    /// sends (one mask per byte; `0` leaves a byte intact).
    pub fn corrupt_next_sends(&mut self, masks: &[u8]) {
        let mut wire = self.tx.lock().expect("wire poisoned");
        wire.pending_corruption.extend(masks.iter().copied());
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn duplex_is_independent_per_direction() {
        let (mut a, mut b) = Endpoint::pair();
        a.send(&[1, 2]);
        b.send(&[9]);
        assert_eq!(a.recv_all(), vec![9]);
        assert_eq!(b.recv_all(), vec![1, 2]);
        assert_eq!(a.recv_all(), Vec::<u8>::new(), "drained");
    }

    #[test]
    fn corruption_masks_apply_in_order() {
        let (mut a, mut b) = Endpoint::pair();
        a.corrupt_next_sends(&[0xFF, 0x00]);
        a.send(&[0x0F, 0x0F, 0x0F]);
        assert_eq!(b.recv_all(), vec![0xF0, 0x0F, 0x0F]);
    }

    #[test]
    fn clone_shares_the_wire() {
        let (mut a, mut b) = Endpoint::pair();
        let mut a2 = a.clone();
        a.send(&[1]);
        a2.send(&[2]);
        assert_eq!(b.recv_all(), vec![1, 2]);
    }

    #[test]
    fn faulty_pair_with_zero_rates_is_transparent() {
        let (mut a, mut b) = Endpoint::faulty_pair(FaultConfig::default(), 7);
        a.send(&[1, 2, 3]);
        assert_eq!(b.recv_all(), vec![1, 2, 3]);
        assert_eq!(a.tx_stats(), LinkStats { sent: 3, dropped: 0, corrupted: 0 });
    }

    #[test]
    fn loss_rate_is_roughly_honoured_and_deterministic() {
        let config = FaultConfig { loss: 0.1, ..FaultConfig::default() };
        let run = |seed| {
            let (mut a, mut b) = Endpoint::faulty_pair(config.clone(), seed);
            for _ in 0..100 {
                a.send(&[0xAA; 100]);
            }
            b.recv_all()
        };
        let got = run(42);
        let frac = got.len() as f64 / 10_000.0;
        assert!((0.82..=0.97).contains(&frac), "delivered fraction {frac}");
        assert_eq!(got, run(42), "same seed must replay bit-identically");
        assert_ne!(got.len(), run(43).len(), "different seed, different draw");
        let stats = {
            let (mut a, _b) = Endpoint::faulty_pair(config, 42);
            for _ in 0..100 {
                a.send(&[0xAA; 100]);
            }
            a.tx_stats()
        };
        assert_eq!(stats.sent, 10_000);
        assert_eq!(stats.dropped as usize, 10_000 - got.len());
    }

    #[test]
    fn corruption_is_bursty_and_counted() {
        let config = FaultConfig { corrupt: 0.1, burst_len: 16.0, ..FaultConfig::default() };
        let (mut a, mut b) = Endpoint::faulty_pair(config, 5);
        a.send(&[0u8; 20_000]);
        let got = b.recv_all();
        assert_eq!(got.len(), 20_000, "corruption never drops bytes");
        let bad: Vec<usize> =
            got.iter().enumerate().filter(|(_, &b)| b != 0).map(|(i, _)| i).collect();
        let frac = bad.len() as f64 / 20_000.0;
        assert!((0.05..=0.16).contains(&frac), "corrupted fraction {frac}");
        assert_eq!(a.tx_stats().corrupted as usize, bad.len());
        // Burstiness: corrupted bytes cluster, so the mean gap between
        // *consecutive* corruptions is far below the iid expectation
        // (1/rate = 10): most corrupt bytes sit right next to another one.
        let adjacent =
            bad.windows(2).filter(|w| w[1] - w[0] <= 3).count() as f64 / bad.len().max(1) as f64;
        assert!(adjacent > 0.5, "bursty errors must cluster: adjacency {adjacent}");
    }

    #[test]
    fn jitter_delays_but_preserves_order() {
        let config = FaultConfig { max_jitter: 5, ..FaultConfig::default() };
        let (mut a, mut b) = Endpoint::faulty_pair(config, 11);
        a.send(&[1, 2, 3, 4, 5]);
        // Nothing may arrive before the clock advances past the jitter.
        let early = b.recv_all();
        let mut got = early.clone();
        for _ in 0..5 {
            b.advance(1);
            got.extend(b.recv_all());
        }
        assert_eq!(got, vec![1, 2, 3, 4, 5], "delivery preserves order");
        assert!(early.len() < 5, "jitter must delay at least one byte");
    }

    #[test]
    fn disconnect_window_drops_everything_then_recovers() {
        let config = FaultConfig { disconnects: vec![(5, 10)], ..FaultConfig::default() };
        let (mut a, mut b) = Endpoint::faulty_pair(config, 3);
        a.send(&[1]);
        a.advance(5); // into the window
        a.send(&[2, 3]);
        assert_eq!(a.tx_stats().dropped, 2, "the window drops every byte sent in it");
        a.advance(10); // past the window
        a.send(&[4]);
        assert_eq!(a.tx_stats().dropped, 2, "the link recovers after the window");
        assert_eq!(b.recv_all(), vec![1, 4], "window bytes are gone for good");
    }

    #[test]
    fn a_window_reaching_past_the_end_of_time_stays_open() {
        let config =
            FaultConfig { disconnects: vec![(u64::MAX - 5, 100)], ..FaultConfig::default() };
        assert!(!config.disconnected_at(0));
        assert!(!config.disconnected_at(u64::MAX - 6));
        assert!(config.disconnected_at(u64::MAX - 5));
        assert!(config.disconnected_at(u64::MAX));
    }

    #[test]
    fn next_arrival_is_the_earliest_front_of_either_wire() {
        let config = FaultConfig { max_jitter: 4, ..FaultConfig::default() };
        let (mut a, mut b) = Endpoint::faulty_pair(config, 17);
        assert_eq!(a.next_arrival(), None, "empty wires");
        a.advance(10);
        a.send(&[1, 2, 3]);
        b.send(&[4]);
        let fronts = [a.tx.lock().unwrap().bytes[0].0, b.tx.lock().unwrap().bytes[0].0];
        let want = fronts.into_iter().min();
        assert!(want.is_some_and(|at| (10..=14).contains(&at)));
        assert_eq!(a.next_arrival(), want);
        assert_eq!(b.next_arrival(), want, "both endpoints see the same wires");
        a.advance(4);
        b.recv_all();
        a.recv_all();
        assert_eq!(a.next_arrival(), None, "everything arrived by now + max_jitter");
    }
}
