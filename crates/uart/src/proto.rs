//! Command/response protocol between the remote adversary and the FPGA
//! shell.
//!
//! The paper gives the adversary exactly two capabilities over UART:
//! reading the TDC side-channel stream and configuring the attack-scheme
//! file in the signal RAM (through the chunked `Upload*` commands).
//! `Arm`/`Status` round out the operational loop (the scheme does nothing
//! until the DNN-start detector is armed).

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
    /// CRC-16 the assembled bytes must match at commit.
    UploadBegin {
        /// Total scheme length in bytes.
        total_len: u32,
        /// CRC-16/CCITT-FALSE of the whole scheme.
        crc: u16,
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
        match self {
            Command::ReadTrace { max_samples } => {
                let mut v = vec![TAG_READ_TRACE];
                v.extend_from_slice(&max_samples.to_le_bytes());
                v
            }
            Command::Arm { enabled } => vec![TAG_ARM, u8::from(*enabled)],
            Command::Status => vec![TAG_STATUS],
            Command::UploadBegin { total_len, crc } => {
                let mut v = vec![TAG_UPLOAD_BEGIN];
                v.extend_from_slice(&total_len.to_le_bytes());
                v.extend_from_slice(&crc.to_le_bytes());
                v
            }
            Command::UploadChunk { offset, data } => {
                let mut v = vec![TAG_UPLOAD_CHUNK];
                v.extend_from_slice(&offset.to_le_bytes());
                v.extend_from_slice(&(data.len() as u32).to_le_bytes());
                v.extend_from_slice(data);
                v
            }
            Command::UploadCommit => vec![TAG_UPLOAD_COMMIT],
            Command::UploadStatus => vec![TAG_UPLOAD_STATUS],
        }
    }

    /// Parses a command from a frame payload.
    ///
    /// # Errors
    ///
    /// Returns [`UartError::MalformedMessage`] on bad tags or truncation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, UartError> {
        let (&tag, rest) = bytes
            .split_first()
            .ok_or_else(|| UartError::MalformedMessage("empty command".into()))?;
        match tag {
            TAG_READ_TRACE => {
                let arr: [u8; 4] = rest
                    .try_into()
                    .map_err(|_| UartError::MalformedMessage("read_trace length".into()))?;
                Ok(Command::ReadTrace { max_samples: u32::from_le_bytes(arr) })
            }
            TAG_ARM => match rest {
                [flag] => Ok(Command::Arm { enabled: *flag != 0 }),
                _ => Err(UartError::MalformedMessage("arm flag".into())),
            },
            TAG_STATUS => {
                if rest.is_empty() {
                    Ok(Command::Status)
                } else {
                    Err(UartError::MalformedMessage("status takes no payload".into()))
                }
            }
            TAG_UPLOAD_BEGIN => {
                if rest.len() != 6 {
                    return Err(UartError::MalformedMessage("upload_begin length".into()));
                }
                Ok(Command::UploadBegin {
                    total_len: u32::from_le_bytes(rest[..4].try_into().expect("len 4")),
                    crc: u16::from_le_bytes(rest[4..6].try_into().expect("len 2")),
                })
            }
            TAG_UPLOAD_CHUNK => {
                if rest.len() < 8 {
                    return Err(UartError::MalformedMessage("upload_chunk header".into()));
                }
                let offset = u32::from_le_bytes(rest[..4].try_into().expect("len 4"));
                let len = u32::from_le_bytes(rest[4..8].try_into().expect("len 4")) as usize;
                if rest.len() != 8 + len {
                    return Err(UartError::MalformedMessage("upload_chunk body length".into()));
                }
                Ok(Command::UploadChunk { offset, data: rest[8..].to_vec() })
            }
            TAG_UPLOAD_COMMIT => {
                if rest.is_empty() {
                    Ok(Command::UploadCommit)
                } else {
                    Err(UartError::MalformedMessage("upload_commit takes no payload".into()))
                }
            }
            TAG_UPLOAD_STATUS => {
                if rest.is_empty() {
                    Ok(Command::UploadStatus)
                } else {
                    Err(UartError::MalformedMessage("upload_status takes no payload".into()))
                }
            }
            other => Err(UartError::MalformedMessage(format!("unknown command tag {other:#x}"))),
        }
    }
}

impl Response {
    /// Serialises the response to a frame payload.
    pub fn to_bytes(&self) -> Vec<u8> {
        match self {
            Response::Trace(samples) => {
                let mut v = vec![TAG_R_TRACE];
                v.extend_from_slice(&(samples.len() as u32).to_le_bytes());
                v.extend_from_slice(samples);
                v
            }
            Response::Ack => vec![TAG_R_ACK],
            Response::Status(s) => {
                let mut v = vec![TAG_R_STATUS, u8::from(s.armed), u8::from(s.triggered)];
                v.extend_from_slice(&s.strikes_fired.to_le_bytes());
                v.extend_from_slice(&s.scheme_bits.to_le_bytes());
                v
            }
            Response::Upload { received, total } => {
                let mut v = vec![TAG_R_UPLOAD];
                v.extend_from_slice(&received.to_le_bytes());
                v.extend_from_slice(&total.to_le_bytes());
                v
            }
            Response::Error(code) => vec![TAG_R_ERROR, *code],
        }
    }

    /// Parses a response from a frame payload.
    ///
    /// # Errors
    ///
    /// Returns [`UartError::MalformedMessage`] on bad tags or truncation.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, UartError> {
        let (&tag, rest) = bytes
            .split_first()
            .ok_or_else(|| UartError::MalformedMessage("empty response".into()))?;
        match tag {
            TAG_R_TRACE => {
                if rest.len() < 4 {
                    return Err(UartError::MalformedMessage("trace header".into()));
                }
                let len = u32::from_le_bytes(rest[..4].try_into().expect("len 4")) as usize;
                if rest.len() != 4 + len {
                    return Err(UartError::MalformedMessage("trace body length".into()));
                }
                Ok(Response::Trace(rest[4..].to_vec()))
            }
            TAG_R_ACK => {
                if rest.is_empty() {
                    Ok(Response::Ack)
                } else {
                    Err(UartError::MalformedMessage("ack takes no payload".into()))
                }
            }
            TAG_R_STATUS => {
                if rest.len() != 10 {
                    return Err(UartError::MalformedMessage("status length".into()));
                }
                Ok(Response::Status(StatusInfo {
                    armed: rest[0] != 0,
                    triggered: rest[1] != 0,
                    strikes_fired: u32::from_le_bytes(rest[2..6].try_into().expect("len 4")),
                    scheme_bits: u32::from_le_bytes(rest[6..10].try_into().expect("len 4")),
                }))
            }
            TAG_R_UPLOAD => {
                if rest.len() != 8 {
                    return Err(UartError::MalformedMessage("upload status length".into()));
                }
                Ok(Response::Upload {
                    received: u32::from_le_bytes(rest[..4].try_into().expect("len 4")),
                    total: u32::from_le_bytes(rest[4..8].try_into().expect("len 4")),
                })
            }
            TAG_R_ERROR => match rest {
                [code] => Ok(Response::Error(*code)),
                _ => Err(UartError::MalformedMessage("error code".into())),
            },
            other => Err(UartError::MalformedMessage(format!("unknown response tag {other:#x}"))),
        }
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
            Command::UploadBegin { total_len: 48, crc: 0xBEEF },
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
        assert!(Response::from_bytes(&[0x81, 5, 0, 0, 0]).is_err(), "short trace");
        assert!(Response::from_bytes(&[0x84, 1]).is_err(), "short status");
        assert!(Command::from_bytes(&[0x05, 1, 2]).is_err(), "short upload_begin");
        assert!(Command::from_bytes(&[0x06, 0, 0, 0, 0, 9, 0, 0, 0, 1]).is_err(), "short chunk");
        assert!(Command::from_bytes(&[0x07, 1]).is_err(), "commit takes no payload");
        assert!(Response::from_bytes(&[0x85, 1, 0, 0]).is_err(), "short upload state");
    }

    #[test]
    fn extra_payload_is_rejected() {
        assert!(Command::from_bytes(&[0x04, 9]).is_err());
        assert!(Response::from_bytes(&[0x82, 1]).is_err());
    }
}
