//! Serial remote-control channel.
//!
//! In the paper's prototype "the adversary connects to this prototyped
//! cloud-FPGA from the UART serial port, with which the adversary can
//! gather on-chip side-channel leakage from the TDC-based delay-sensor and
//! dynamically configure the attacking scheme file" (§IV). This crate is
//! that channel:
//!
//! * [`frame`] — byte-stream framing (COBS encoding, zero delimiters) with
//!   a CRC-32 integrity check ([`ckpt::crc32`]), resilient to mid-stream
//!   corruption;
//! * [`proto`] — the command/response protocol, encoded with
//!   [`ckpt::wire`]: stream TDC traces out, upload scheme files in,
//!   arm/disarm, query status;
//! * [`link`] — an in-memory full-duplex byte link standing in for the
//!   physical UART (with fault injection for tests);
//! * [`transport`] — the one protocol stack over that link: the
//!   attacker-side [`transport::TransportClient`] and the FPGA-side
//!   [`transport::TransportShell`], which dispatches commands into
//!   whatever implements [`transport::ShellHandler`]. Sequence-numbered
//!   frames, ack/retransmit with capped exponential backoff, a response
//!   replay cache for exactly-once execution, and a chunked, resumable,
//!   CRC-verified scheme upload.
//!
//! # Example
//!
//! ```
//! use uart::frame::{encode_frame, FrameDecoder};
//!
//! let wire = encode_frame(b"hello");
//! let mut dec = FrameDecoder::new();
//! let frames = dec.push_bytes(&wire);
//! assert_eq!(frames, vec![b"hello".to_vec()]);
//! ```

#![deny(clippy::unwrap_used)]

pub mod frame;
pub mod link;
pub mod proto;
pub mod transport;

mod error;

pub use error::{Result, UartError};
