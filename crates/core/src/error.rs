use std::error::Error;
use std::fmt;

use fpga_fabric::FabricError;
use uart::UartError;

/// Errors raised by the attack stack.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DeepStrikeError {
    /// Fabric-model failure (clocking, DRC, placement).
    Fabric(FabricError),
    /// A component was configured with impossible parameters.
    InvalidConfig(String),
    /// TDC calibration could not reach its target readout.
    Calibration(String),
    /// An attack scheme does not fit the signal RAM.
    SchemeTooLarge { bits: usize, capacity: usize },
    /// Scheme bytes failed to decode.
    MalformedScheme(String),
    /// Profiling could not identify the requested layer.
    LayerNotFound(String),
    /// The UART link failed (transport gave up, peer rejected a command).
    Link(UartError),
    /// A remote campaign was interrupted by a link outage; its checkpoint
    /// is intact and [`crate::remote::RemoteCampaign::run`] can be called
    /// again to resume from `phase`.
    Interrupted {
        /// The campaign phase that was executing when the link died.
        phase: trace::RemotePhase,
    },
}

impl fmt::Display for DeepStrikeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeepStrikeError::Fabric(e) => write!(f, "fabric: {e}"),
            DeepStrikeError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            DeepStrikeError::Calibration(msg) => write!(f, "calibration failed: {msg}"),
            DeepStrikeError::SchemeTooLarge { bits, capacity } => {
                write!(f, "attack scheme of {bits} bits exceeds signal ram capacity {capacity}")
            }
            DeepStrikeError::MalformedScheme(msg) => write!(f, "malformed scheme: {msg}"),
            DeepStrikeError::LayerNotFound(name) => {
                write!(f, "layer {name} not found in the profile")
            }
            DeepStrikeError::Link(e) => write!(f, "uart link: {e}"),
            DeepStrikeError::Interrupted { phase } => {
                write!(
                    f,
                    "campaign interrupted during the {} phase; resume to continue",
                    phase.name()
                )
            }
        }
    }
}

impl Error for DeepStrikeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DeepStrikeError::Fabric(e) => Some(e),
            DeepStrikeError::Link(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<FabricError> for DeepStrikeError {
    fn from(e: FabricError) -> Self {
        DeepStrikeError::Fabric(e)
    }
}

#[doc(hidden)]
impl From<UartError> for DeepStrikeError {
    fn from(e: UartError) -> Self {
        DeepStrikeError::Link(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, DeepStrikeError>;

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = DeepStrikeError::from(FabricError::NotFound("net".into()));
        assert!(e.to_string().contains("fabric"));
        assert!(e.source().is_some());
        let e = DeepStrikeError::SchemeTooLarge { bits: 100_000, capacity: 36_864 };
        assert!(e.to_string().contains("36864"));
        assert!(e.source().is_none());
    }
}
