//! COBS framing with CRC-32 integrity.
//!
//! Frames on the wire are `COBS(payload ‖ CRC32(payload)) ‖ 0x00`, the
//! check being [`ckpt::crc32`] in little-endian byte order. COBS
//! (consistent-overhead byte stuffing) guarantees the encoded body contains
//! no zero bytes, so a single `0x00` unambiguously delimits frames and the
//! decoder resynchronises after arbitrary corruption by skipping to the
//! next delimiter. The 32-bit check detects every error burst of 32 bits
//! or fewer, and a verified frame delimits its message exactly, so the
//! messages inside carry no length of their own.

use ckpt::crc32;

/// Bytes of the frame check appended to every payload.
const CHECK_LEN: usize = 4;

/// COBS-encodes `data` (no trailing delimiter).
fn cobs_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + data.len() / 254 + 2);
    let mut code_pos = 0usize;
    out.push(0); // placeholder for the first code byte
    let mut code: u8 = 1;
    for &b in data {
        if b == 0 {
            out[code_pos] = code;
            code_pos = out.len();
            out.push(0);
            code = 1;
        } else {
            out.push(b);
            code += 1;
            if code == 0xFF {
                out[code_pos] = code;
                code_pos = out.len();
                out.push(0);
                code = 1;
            }
        }
    }
    out[code_pos] = code;
    out
}

/// COBS-decodes a delimiter-free block. Returns `None` on structure errors.
fn cobs_decode(data: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(data.len());
    let mut i = 0usize;
    while i < data.len() {
        let code = data[i] as usize;
        // A valid block is fully contained: `code - 1` data bytes must
        // follow the code byte (`i + code == data.len()` exactly at the
        // final block). A truncated/corrupted block that claims more is a
        // structure error, not a panic.
        if code == 0 || i + code > data.len() {
            return None;
        }
        for &b in &data[i + 1..i + code] {
            if b == 0 {
                return None;
            }
            out.push(b);
        }
        i += code;
        if code != 0xFF && i < data.len() {
            out.push(0);
        }
    }
    Some(out)
}

/// Encodes one payload into its on-wire representation
/// (`COBS(payload ‖ crc32) ‖ 0x00`).
///
/// # Example
///
/// ```
/// use uart::frame::{encode_frame, FrameDecoder};
///
/// let wire = encode_frame(&[1, 2, 0, 3]);
/// assert_eq!(wire.last(), Some(&0u8), "zero-delimited");
/// assert!(!wire[..wire.len() - 1].contains(&0u8), "body is zero-free");
/// let mut dec = FrameDecoder::new();
/// assert_eq!(dec.push_bytes(&wire), vec![vec![1, 2, 0, 3]]);
/// ```
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(payload.len() + CHECK_LEN);
    body.extend_from_slice(payload);
    body.extend_from_slice(&crc32(payload).to_le_bytes());
    let mut out = cobs_encode(&body);
    out.push(0);
    out
}

/// Streaming frame decoder: feed bytes, collect whole verified payloads.
///
/// Corrupt frames (bad COBS structure or CRC mismatch) are counted and
/// dropped; decoding resynchronises at the next delimiter.
#[derive(Debug, Clone, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    corrupt_frames: u64,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Number of frames dropped due to corruption so far.
    pub fn corrupt_frames(&self) -> u64 {
        self.corrupt_frames
    }

    /// Consumes raw bytes; returns every complete, CRC-verified payload.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        for &b in bytes {
            if b != 0 {
                self.buf.push(b);
                continue;
            }
            if self.buf.is_empty() {
                continue; // idle delimiter
            }
            let block = std::mem::take(&mut self.buf);
            let body = cobs_decode(&block);
            match body.as_deref().and_then(<[u8]>::split_last_chunk::<CHECK_LEN>) {
                Some((payload, check)) if crc32(payload) == u32::from_le_bytes(*check) => {
                    frames.push(payload.to_vec());
                }
                _ => self.corrupt_frames += 1,
            }
        }
        frames
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn cobs_round_trip_including_zeros() {
        for payload in [
            vec![],
            vec![0u8],
            vec![0, 0, 0],
            vec![1, 2, 3],
            vec![1, 0, 2, 0, 3],
            (0..=255u8).collect::<Vec<u8>>(),
            vec![7u8; 600], // exercises the 254-byte COBS block split
        ] {
            let enc = cobs_encode(&payload);
            assert!(!enc.contains(&0), "encoded body must be zero-free");
            assert_eq!(cobs_decode(&enc), Some(payload));
        }
    }

    #[test]
    fn frame_round_trip_multiple_frames() {
        let mut wire = Vec::new();
        let payloads: Vec<Vec<u8>> = vec![b"abc".to_vec(), vec![0, 0], vec![42u8; 300]];
        for p in &payloads {
            wire.extend(encode_frame(p));
        }
        let mut dec = FrameDecoder::new();
        // Feed one byte at a time to exercise streaming.
        let mut got = Vec::new();
        for b in wire {
            got.extend(dec.push_bytes(&[b]));
        }
        assert_eq!(got, payloads);
        assert_eq!(dec.corrupt_frames(), 0);
    }

    #[test]
    fn corruption_is_detected_and_resynchronised() {
        let mut wire = encode_frame(b"first");
        wire[2] ^= 0x5A; // corrupt mid-frame
        wire.extend(encode_frame(b"second"));
        let mut dec = FrameDecoder::new();
        let got = dec.push_bytes(&wire);
        assert_eq!(got, vec![b"second".to_vec()]);
        assert_eq!(dec.corrupt_frames(), 1);
    }

    #[test]
    fn truncated_frame_then_recovery() {
        let full = encode_frame(b"payload");
        let mut dec = FrameDecoder::new();
        // Half a frame, then a hard delimiter (e.g. line glitch), then a
        // good frame.
        let mut wire = full[..3].to_vec();
        wire.push(0);
        wire.extend(encode_frame(b"ok"));
        let got = dec.push_bytes(&wire);
        assert_eq!(got, vec![b"ok".to_vec()]);
        assert_eq!(dec.corrupt_frames(), 1);
    }

    #[test]
    fn overclaiming_code_byte_is_rejected_not_panicking() {
        // Regression: a code byte claiming one more data byte than the
        // block holds used to slice past the end. `[3, 1]` says "2 data
        // bytes follow" but only 1 does.
        assert_eq!(cobs_decode(&[3, 1]), None);
        assert_eq!(cobs_decode(&[2]), None);
        assert_eq!(cobs_decode(&[0xFF, 1, 2]), None);
    }

    #[test]
    fn idle_delimiters_are_ignored() {
        let mut dec = FrameDecoder::new();
        assert!(dec.push_bytes(&[0, 0, 0]).is_empty());
        assert_eq!(dec.corrupt_frames(), 0);
    }

    #[test]
    fn empty_payload_frame_round_trips() {
        let wire = encode_frame(b"");
        let mut dec = FrameDecoder::new();
        assert_eq!(dec.push_bytes(&wire), vec![Vec::<u8>::new()]);
    }
}
