//! Property fuzz of the COBS+CRC-32 frame codec: arbitrary corruption,
//! truncation and concatenation must never panic the decoder and must
//! never make it accept a payload nobody sent.
//!
//! (The guard here is real: fuzzing this surface found an out-of-bounds
//! slice in `cobs_decode` for blocks whose code byte overclaims the
//! remaining length.)

use proptest::prelude::*;
use uart::frame::{encode_frame, FrameDecoder};

proptest! {
    /// Arbitrary byte soup — any corruption, any framing garbage — must
    /// never panic, and every frame the decoder *does* accept must carry
    /// a valid CRC by construction, so re-encoding it must round-trip.
    #[test]
    fn arbitrary_soup_never_panics(soup in prop::collection::vec(any::<u8>(), 0..2048)) {
        let mut dec = FrameDecoder::new();
        for frame in dec.push_bytes(&soup) {
            let mut check = FrameDecoder::new();
            prop_assert_eq!(check.push_bytes(&encode_frame(&frame)), vec![frame]);
        }
        // The decoder must stay functional after the soup: a clean frame
        // on the tail (after a resynchronising delimiter) still decodes.
        dec.push_bytes(&[0]);
        let got = dec.push_bytes(&encode_frame(b"after the storm"));
        prop_assert_eq!(got, vec![b"after the storm".to_vec()]);
    }

    /// Truncating a multi-frame stream anywhere yields exactly the frames
    /// whose delimiter survived, in order — never a partial or altered
    /// payload.
    #[test]
    fn truncation_only_loses_the_tail(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 1..6),
        cut_frac in 0u32..=1000,
    ) {
        let mut wire = Vec::new();
        let mut ends = Vec::new();
        for p in &payloads {
            wire.extend(encode_frame(p));
            ends.push(wire.len());
        }
        let cut = (wire.len() as u64 * u64::from(cut_frac) / 1000) as usize;
        let complete = ends.iter().filter(|&&e| e <= cut).count();
        let mut dec = FrameDecoder::new();
        let got = dec.push_bytes(&wire[..cut]);
        prop_assert_eq!(got.len(), complete);
        for (g, p) in got.iter().zip(&payloads) {
            prop_assert_eq!(g, p);
        }
    }

    /// Decoding is invariant to how the stream is chunked: byte-at-a-time
    /// delivery produces exactly the one-shot result, including the
    /// corrupt-frame count.
    #[test]
    fn chunking_is_transparent(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 0..5),
        noise in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let mut wire = Vec::new();
        for p in &payloads {
            wire.extend(encode_frame(p));
        }
        wire.extend(&noise); // trailing garbage must not matter either
        let mut one_shot = FrameDecoder::new();
        let all = one_shot.push_bytes(&wire);
        let mut streaming = FrameDecoder::new();
        let mut collected = Vec::new();
        for &b in &wire {
            collected.extend(streaming.push_bytes(&[b]));
        }
        prop_assert_eq!(collected, all);
        prop_assert_eq!(streaming.corrupt_frames(), one_shot.corrupt_frames());
    }

    /// A corruption burst of up to four adjacent bytes is either detected
    /// (frame dropped, counter bumped) or harmless to the *other* frames:
    /// the decoder never emits a payload that differs from every input.
    /// CRC-32 detects every burst of 32 bits or fewer.
    #[test]
    fn burst_corruption_never_forges(
        before in prop::collection::vec(any::<u8>(), 0..32),
        victim in prop::collection::vec(any::<u8>(), 1..64),
        after in prop::collection::vec(any::<u8>(), 0..32),
        pos in 0usize..256,
        mask_a in 1u8..=255,
        mask_b in 0u8..=255,
        mask_c in 0u8..=255,
        mask_d in 0u8..=255,
    ) {
        let mut wire = encode_frame(&before);
        let start = wire.len();
        wire.extend(encode_frame(&victim));
        let end = wire.len();
        wire.extend(encode_frame(&after));
        // Corrupt inside the victim frame (delimiter included: hitting it
        // merges two frames, which the CRC must then reject).
        let idx = start + pos % (end - start);
        wire[idx] ^= mask_a;
        for (byte, mask) in wire[idx + 1..].iter_mut().zip([mask_b, mask_c, mask_d]) {
            *byte ^= mask;
        }
        let mut dec = FrameDecoder::new();
        let got = dec.push_bytes(&wire);
        for frame in &got {
            prop_assert!(
                frame == &before || frame == &victim || frame == &after,
                "decoder forged a payload nobody sent: {:?}",
                frame
            );
        }
        prop_assert!(!got.is_empty(), "untouched frames must survive");
        prop_assert!(got.len() + dec.corrupt_frames() as usize >= 3 - 1,
            "at most the victim and one neighbour may vanish silently");
    }
}

/// The CRC-16/CCITT generator `0x11021`, written MSB-first over three
/// bytes: a 17-bit burst. Added to a payload at any byte offset it leaves
/// a CRC-16/CCITT check unchanged, which is how the old frame check came
/// to accept damaged frames on lossy links.
const CCITT_GENERATOR_BURST: [u8; 3] = [0x01, 0x10, 0x21];

/// Deterministic regression for the frame check: a generator-shaped burst
/// inside the payload must be caught at every offset. The payload bytes
/// all have the top bit set, so the burst keeps them non-zero and the
/// COBS structure around them is untouched: only the check can notice.
#[test]
fn generator_shaped_burst_is_rejected_at_every_offset() {
    let payload: Vec<u8> = (0..20u8).map(|i| 0x80 | i.wrapping_mul(37)).collect();
    let wire = encode_frame(&payload);
    // No zero precedes the payload, so it sits verbatim after the first
    // COBS code byte.
    assert_eq!(&wire[1..=payload.len()], &payload[..]);
    for offset in 0..=payload.len() - CCITT_GENERATOR_BURST.len() {
        let mut damaged = wire.clone();
        for (k, mask) in CCITT_GENERATOR_BURST.iter().enumerate() {
            damaged[1 + offset + k] ^= mask;
        }
        let mut dec = FrameDecoder::new();
        let got = dec.push_bytes(&damaged);
        assert!(got.is_empty(), "offset {offset}: damaged frame accepted as {got:?}");
        assert_eq!(dec.corrupt_frames(), 1, "offset {offset}: the frame must count as corrupt");
    }
}

/// Deterministic regression for the transport shell's replay cache, which
/// used to key on the 16-bit sequence number alone: once the counter
/// wrapped, a *different* request landing on the cached seq was answered
/// with the previous command's stale response instead of being executed.
/// The cache now keys on the whole request packet, an exact match.
mod replay_cache_wraparound {
    use uart::frame::{encode_frame, FrameDecoder};
    use uart::link::Endpoint;
    use uart::proto::{Command, Response, StatusInfo};
    use uart::transport::ShellHandler;
    use uart::transport::TransportShell;

    #[derive(Default)]
    struct CountingFpga {
        status_calls: u32,
        arm_calls: u32,
    }

    impl ShellHandler for CountingFpga {
        fn read_trace(&mut self, _max_samples: usize) -> Vec<u8> {
            Vec::new()
        }
        fn load_scheme(&mut self, _data: &[u8]) -> Result<(), u8> {
            Ok(())
        }
        fn arm(&mut self, _enabled: bool) -> Result<(), u8> {
            self.arm_calls += 1;
            Ok(())
        }
        fn status(&mut self) -> StatusInfo {
            self.status_calls += 1;
            StatusInfo { armed: false, triggered: false, strikes_fired: 0, scheme_bits: 0 }
        }
    }

    /// Raw transport request packet: `[seq u16 LE] ‖ message`.
    fn request(seq: u16, command: &Command) -> Vec<u8> {
        let mut packet = seq.to_le_bytes().to_vec();
        packet.extend(command.to_bytes());
        encode_frame(&packet)
    }

    fn exchange(
        driver: &mut Endpoint,
        shell: &mut TransportShell,
        fpga: &mut CountingFpga,
        decoder: &mut FrameDecoder,
        wire: &[u8],
    ) -> Vec<Response> {
        driver.send(wire);
        driver.advance(1);
        shell.poll(fpga);
        driver.advance(1);
        decoder
            .push_bytes(&driver.recv_all())
            .iter()
            .map(|frame| Response::from_bytes(&frame[2..]).expect("well-formed response"))
            .collect()
    }

    #[test]
    fn wrapped_seq_with_different_request_executes_instead_of_replaying() {
        let (mut driver, shell_end) = Endpoint::pair();
        let mut shell = TransportShell::new(shell_end);
        let mut fpga = CountingFpga::default();
        let mut decoder = FrameDecoder::new();

        // Exchange at seq 7.
        let status_req = request(7, &Command::Status);
        let got = exchange(&mut driver, &mut shell, &mut fpga, &mut decoder, &status_req);
        assert!(matches!(got.as_slice(), [Response::Status(_)]));
        assert_eq!(fpga.status_calls, 1);

        // A retransmitted duplicate is replayed, not re-executed.
        let got = exchange(&mut driver, &mut shell, &mut fpga, &mut decoder, &status_req);
        assert!(matches!(got.as_slice(), [Response::Status(_)]));
        assert_eq!(fpga.status_calls, 1, "duplicate must not re-execute");
        assert_eq!(shell.replayed(), 1);

        // 65,536 exchanges later the counter lands on 7 again, but the
        // request differs: it must execute and must not be answered with
        // the cached Status response.
        let arm_req = request(7, &Command::Arm { enabled: true });
        let got = exchange(&mut driver, &mut shell, &mut fpga, &mut decoder, &arm_req);
        assert!(matches!(got.as_slice(), [Response::Ack]), "stale replay answered: {got:?}");
        assert_eq!(fpga.arm_calls, 1, "new command on a wrapped seq must execute");
        assert_eq!(shell.replayed(), 1, "wrapped seq must miss the replay cache");
    }
}
