use std::error::Error;
use std::fmt;

/// Errors raised by the serial channel.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum UartError {
    /// A frame decoded but its payload is not a valid protocol message.
    MalformedMessage(String),
    /// The peer answered with a different message than the protocol allows.
    UnexpectedResponse(String),
    /// The reliable transport exhausted every retransmission attempt.
    LinkDown {
        /// Total transmissions tried (initial send + retries).
        attempts: u32,
    },
    /// The peer reported an application-level error code.
    Remote(u8),
}

impl fmt::Display for UartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UartError::MalformedMessage(msg) => write!(f, "malformed message: {msg}"),
            UartError::UnexpectedResponse(msg) => write!(f, "unexpected response: {msg}"),
            UartError::LinkDown { attempts } => {
                write!(f, "link down: no response after {attempts} transmissions")
            }
            UartError::Remote(code) => write!(f, "remote error code {code}"),
        }
    }
}

impl Error for UartError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, UartError>;
