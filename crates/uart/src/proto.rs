//! Command/response protocol between the remote adversary and the FPGA
//! shell.
//!
//! The paper gives the adversary exactly two capabilities over UART:
//! reading the TDC side-channel stream and configuring the attack-scheme
//! file in the signal RAM (through the chunked `Upload*` commands).
//! `Arm`/`Status` round out the operational loop (the scheme does nothing
//! until the DNN-start detector is armed).
//!
//! Every message is a tag byte followed by its fields in the
//! little-endian [`ckpt::wire`] encoding. A message fills its verified
//! frame exactly: a trailing byte string (`Trace` samples, `UploadChunk`
//! data) runs to the frame's end with no length prefix, and a decoder
//! rejects any message that is short or has bytes left over.

use ckpt::wire::{self, Reader};

use crate::error::UartError;

/// Attacker → FPGA commands.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Command {
    /// Stream back up to `max_samples` of the most recent TDC readouts.
    ReadTrace {
        /// Upper bound on returned samples.
        max_samples: u32,
    },
    /// Arm or disarm the attack scheduler.
    Arm {
        /// `true` to arm.
        enabled: bool,
    },
    /// Query scheduler status.
    Status,
    /// Open a chunked scheme upload: declares the total length and the
    /// CRC-32 the assembled bytes must match at commit.
    UploadBegin {
        /// Total scheme length in bytes.
        total_len: u32,
        /// [`ckpt::crc32`] of the whole scheme.
        crc: u32,
    },
    /// One in-order slice of an open upload (`offset` = bytes already
    /// staged; slices at or before the staging watermark are idempotent).
    UploadChunk {
        /// Byte offset of this slice within the scheme.
        offset: u32,
        /// Slice bytes.
        data: Vec<u8>,
    },
    /// Verify the staged bytes against the declared CRC and atomically
    /// load them as the attack scheme.
    UploadCommit,
    /// Query upload staging progress (used to resume after a dropout).
    UploadStatus,
}

/// FPGA → attacker responses.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Response {
    /// TDC samples, one byte each (the 8-bit encoder output).
    Trace(Vec<u8>),
    /// Command accepted.
    Ack,
    /// Scheduler status.
    Status(StatusInfo),
    /// Upload staging progress: bytes received so far out of the declared
    /// total (`0/0` when no upload is open).
    Upload {
        /// Bytes staged so far.
        received: u32,
        /// Declared total, 0 when no upload is open.
        total: u32,
    },
    /// Application-level error code.
    Error(u8),
}

/// Scheduler status snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatusInfo {
    /// Whether the scheduler is armed.
    pub armed: bool,
    /// Whether the DNN start detector has triggered since arming.
    pub triggered: bool,
    /// Power strikes fired since arming.
    pub strikes_fired: u32,
    /// Scheme-file length loaded in the signal RAM, in bits.
    pub scheme_bits: u32,
}

const TAG_READ_TRACE: u8 = 0x01;
// 0x02 stays unassigned: a peer still sending the old one-shot scheme
// write gets a protocol error, never a different command.
const TAG_ARM: u8 = 0x03;
const TAG_STATUS: u8 = 0x04;
const TAG_UPLOAD_BEGIN: u8 = 0x05;
const TAG_UPLOAD_CHUNK: u8 = 0x06;
const TAG_UPLOAD_COMMIT: u8 = 0x07;
const TAG_UPLOAD_STATUS: u8 = 0x08;
const TAG_R_TRACE: u8 = 0x81;
const TAG_R_ACK: u8 = 0x82;
const TAG_R_STATUS: u8 = 0x84;
const TAG_R_UPLOAD: u8 = 0x85;
const TAG_R_ERROR: u8 = 0xFF;

impl Command {
    /// Serialises the command to a frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::new();
        match self {
            Command::ReadTrace { max_samples } => {
                wire::put_u8(&mut v, TAG_READ_TRACE);
                wire::put_u32(&mut v, *max_samples);
            }
            Command::Arm { enabled } => {
                wire::put_u8(&mut v, TAG_ARM);
                wire::put_bool(&mut v, *enabled);
            }
            Command::Status => wire::put_u8(&mut v, TAG_STATUS),
            Command::UploadBegin { total_len, crc } => {
                wire::put_u8(&mut v, TAG_UPLOAD_BEGIN);
                wire::put_u32(&mut v, *total_len);
                wire::put_u32(&mut v, *crc);
            }
            Command::UploadChunk { offset, data } => {
                wire::put_u8(&mut v, TAG_UPLOAD_CHUNK);
                wire::put_u32(&mut v, *offset);
                v.extend_from_slice(data);
            }
            Command::UploadCommit => wire::put_u8(&mut v, TAG_UPLOAD_COMMIT),
            Command::UploadStatus => wire::put_u8(&mut v, TAG_UPLOAD_STATUS),
        }
        v
    }

    /// Parses a command from a frame payload.
    ///
    /// # Errors
    ///
    /// Returns [`UartError::MalformedMessage`] on an unknown tag, or on a
    /// body that is short or has bytes left over.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, UartError> {
        decode(bytes, "command", |tag, r| {
            Some(match tag {
                TAG_READ_TRACE => Command::ReadTrace { max_samples: r.take_u32()? },
                TAG_ARM => Command::Arm { enabled: r.take_bool()? },
                TAG_STATUS => Command::Status,
                TAG_UPLOAD_BEGIN => {
                    Command::UploadBegin { total_len: r.take_u32()?, crc: r.take_u32()? }
                }
                TAG_UPLOAD_CHUNK => {
                    Command::UploadChunk { offset: r.take_u32()?, data: r.take_rest().to_vec() }
                }
                TAG_UPLOAD_COMMIT => Command::UploadCommit,
                TAG_UPLOAD_STATUS => Command::UploadStatus,
                _ => return None,
            })
        })
    }
}

impl Response {
    /// Serialises the response to a frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::new();
        match self {
            Response::Trace(samples) => {
                wire::put_u8(&mut v, TAG_R_TRACE);
                v.extend_from_slice(samples);
            }
            Response::Ack => wire::put_u8(&mut v, TAG_R_ACK),
            Response::Status(s) => {
                wire::put_u8(&mut v, TAG_R_STATUS);
                wire::put_bool(&mut v, s.armed);
                wire::put_bool(&mut v, s.triggered);
                wire::put_u32(&mut v, s.strikes_fired);
                wire::put_u32(&mut v, s.scheme_bits);
            }
            Response::Upload { received, total } => {
                wire::put_u8(&mut v, TAG_R_UPLOAD);
                wire::put_u32(&mut v, *received);
                wire::put_u32(&mut v, *total);
            }
            Response::Error(code) => {
                wire::put_u8(&mut v, TAG_R_ERROR);
                wire::put_u8(&mut v, *code);
            }
        }
        v
    }

    /// Parses a response from a frame payload.
    ///
    /// # Errors
    ///
    /// Returns [`UartError::MalformedMessage`] on an unknown tag, or on a
    /// body that is short or has bytes left over.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, UartError> {
        decode(bytes, "response", |tag, r| {
            Some(match tag {
                TAG_R_TRACE => Response::Trace(r.take_rest().to_vec()),
                TAG_R_ACK => Response::Ack,
                TAG_R_STATUS => Response::Status(StatusInfo {
                    armed: r.take_bool()?,
                    triggered: r.take_bool()?,
                    strikes_fired: r.take_u32()?,
                    scheme_bits: r.take_u32()?,
                }),
                TAG_R_UPLOAD => Response::Upload { received: r.take_u32()?, total: r.take_u32()? },
                TAG_R_ERROR => Response::Error(r.take_u8()?),
                _ => return None,
            })
        })
    }
}

/// Decodes one `[tag] ‖ fields` message: `fields` answers `None` for an
/// unknown tag or a short body, and the fields must end exactly where the
/// message does.
fn decode<T>(
    bytes: &[u8],
    what: &str,
    fields: impl FnOnce(u8, &mut Reader<'_>) -> Option<T>,
) -> Result<T, UartError> {
    let mut r = Reader::new(bytes);
    let tag = r.take_u8().ok_or_else(|| UartError::MalformedMessage(format!("empty {what}")))?;
    match fields(tag, &mut r) {
        Some(message) if r.is_empty() => Ok(message),
        _ => Err(UartError::MalformedMessage(format!(
            "{what} tag {tag:#x} with a {}-byte body",
            bytes.len() - 1
        ))),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn command_round_trips() {
        let cmds = [
            Command::ReadTrace { max_samples: 4096 },
            Command::Arm { enabled: true },
            Command::Arm { enabled: false },
            Command::Status,
            Command::UploadBegin { total_len: 48, crc: 0xDEAD_BEEF },
            Command::UploadChunk { offset: 16, data: vec![9, 8, 7] },
            Command::UploadChunk { offset: 0, data: vec![] },
            Command::UploadCommit,
            Command::UploadStatus,
        ];
        for c in cmds {
            let bytes = c.to_bytes();
            assert_eq!(Command::from_bytes(&bytes).unwrap(), c);
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = [
            Response::Trace(vec![90, 88, 70, 91]),
            Response::Trace(vec![]),
            Response::Ack,
            Response::Status(StatusInfo {
                armed: true,
                triggered: true,
                strikes_fired: 4500,
                scheme_bits: 9000,
            }),
            Response::Upload { received: 32, total: 48 },
            Response::Upload { received: 0, total: 0 },
            Response::Error(7),
        ];
        for r in resps {
            let bytes = r.to_bytes();
            assert_eq!(Response::from_bytes(&bytes).unwrap(), r);
        }
    }

    #[test]
    fn malformed_messages_are_rejected() {
        assert!(Command::from_bytes(&[]).is_err());
        assert!(Command::from_bytes(&[0x77]).is_err());
        assert!(Command::from_bytes(&[0x01, 1, 2]).is_err(), "short read_trace");
        assert!(Command::from_bytes(&[0x02, 1, 0, 0, 0, 1]).is_err(), "retired tag 0x02");
        assert!(Response::from_bytes(&[]).is_err());
        assert!(Response::from_bytes(&[0x84, 1]).is_err(), "short status");
        assert!(Command::from_bytes(&[0x05, 1, 2]).is_err(), "short upload_begin");
        assert!(Command::from_bytes(&[0x05, 1, 0, 0, 0, 2, 0]).is_err(), "u16 upload_begin crc");
        assert!(Command::from_bytes(&[0x06, 0, 0, 0]).is_err(), "short chunk offset");
        assert!(Command::from_bytes(&[0x07, 1]).is_err(), "commit takes no payload");
        assert!(Response::from_bytes(&[0x85, 1, 0, 0]).is_err(), "short upload state");
    }

    #[test]
    fn extra_payload_is_rejected() {
        assert!(Command::from_bytes(&[0x04, 9]).is_err());
        assert!(Response::from_bytes(&[0x82, 1]).is_err());
        assert!(Command::from_bytes(&[0x03, 1, 0]).is_err(), "long arm");
        assert!(Command::from_bytes(&[0x05, 1, 0, 0, 0, 2, 0, 0, 0, 3]).is_err(), "long begin");
        assert!(Response::from_bytes(&[0xFF, 7, 0]).is_err(), "long error");
    }

    #[test]
    fn unprefixed_byte_strings_run_to_the_frame_end() {
        // Trace samples and chunk data carry no length: every byte after
        // the fixed fields belongs to them.
        assert_eq!(Response::Trace(vec![5, 0, 7]).to_bytes(), [0x81, 5, 0, 7]);
        assert_eq!(
            Response::from_bytes(&[0x81, 5, 0, 0, 0]).unwrap(),
            Response::Trace(vec![5, 0, 0, 0])
        );
        assert_eq!(
            Command::from_bytes(&[0x06, 2, 0, 0, 0, 9, 1]).unwrap(),
            Command::UploadChunk { offset: 2, data: vec![9, 1] }
        );
    }
}
