//! Little-endian wire codec shared by the sweep-slice checkpoint payloads
//! (`bench::supervisor`) and the UART link (the `uart::proto`
//! command/response messages and the
//! `deepstrike::signal_ram::AttackScheme` file they upload).
//!
//! Writers are free functions appending to a `Vec<u8>`; the [`Reader`]
//! returns `Option` from every take so a truncated or garbled payload
//! decodes to `None` instead of panicking — a checkpoint caller treats
//! that as "no usable checkpoint" and starts fresh, a UART caller as a
//! malformed message. Decoders finish with [`Reader::is_empty`] so a
//! payload with trailing bytes is rejected too.

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a `bool` as one byte (0/1).
pub fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

/// Appends a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern, little-endian — the
/// round-trip is bit-exact, which the byte-identical-resume guarantee
/// depends on.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends a length-prefixed (`u32`) byte string.
pub fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_u32(out, v.len() as u32);
    out.extend_from_slice(v);
}

/// Cursor over an encoded payload; every `take_*` returns `None` once
/// the input is exhausted or malformed.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the front of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// True when every byte has been consumed — decoders check this to
    /// reject payloads with trailing garbage.
    pub fn is_empty(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Reads a `u8`.
    pub fn take_u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Reads a `bool` (any non-zero byte is `true`).
    pub fn take_bool(&mut self) -> Option<bool> {
        self.take_u8().map(|b| b != 0)
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Reads an `f64` from its stored bit pattern (bit-exact).
    pub fn take_f64(&mut self) -> Option<f64> {
        self.take_u64().map(f64::from_bits)
    }

    /// Reads a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.take_u32()? as usize;
        self.take(len)
    }

    /// Reads every remaining byte: the last field of a message whose end
    /// is already delimited (a UART frame), so it needs no length prefix.
    pub fn take_rest(&mut self) -> &'a [u8] {
        let rest = &self.bytes[self.pos..];
        self.pos = self.bytes.len();
        rest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_bool(&mut buf, true);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, 1.5e-300);
        put_bytes(&mut buf, b"payload");
        buf.extend_from_slice(b"tail");
        let mut r = Reader::new(&buf);
        assert_eq!(r.take_u8(), Some(0xAB));
        assert_eq!(r.take_bool(), Some(true));
        assert_eq!(r.take_u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.take_u64(), Some(u64::MAX - 1));
        assert_eq!(r.take_f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(r.take_f64(), Some(1.5e-300));
        assert_eq!(r.take_bytes(), Some(&b"payload"[..]));
        assert!(!r.is_empty());
        assert_eq!(r.take_rest(), b"tail");
        assert!(r.is_empty());
        assert_eq!(r.take_rest(), b"", "an exhausted reader has an empty rest");
    }

    #[test]
    fn truncated_input_returns_none_not_panic() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 7);
        let mut r = Reader::new(&buf[..5]);
        assert_eq!(r.take_u64(), None);
        // A length prefix pointing past the end is also rejected.
        let mut buf = Vec::new();
        put_u32(&mut buf, 1000);
        buf.extend_from_slice(b"short");
        let mut r = Reader::new(&buf);
        assert_eq!(r.take_bytes(), None);
    }

    #[test]
    fn nan_payload_bits_survive_roundtrip() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut buf = Vec::new();
        put_f64(&mut buf, weird);
        let mut r = Reader::new(&buf);
        assert_eq!(r.take_f64().map(f64::to_bits), Some(weird.to_bits()));
    }
}
