use std::error::Error;
use std::fmt;

/// Errors raised by PDN simulation setup.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PdnError {
    /// A physical parameter was non-positive or non-finite.
    InvalidParameter { name: &'static str, value: f64 },
    /// A grid coordinate or node index was out of range.
    OutOfRange(String),
}

impl fmt::Display for PdnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdnError::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
            PdnError::OutOfRange(what) => write!(f, "{what} out of range"),
        }
    }
}

impl Error for PdnError {}

/// Convenience alias used across the crate.
pub type Result<T> = std::result::Result<T, PdnError>;

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = PdnError::InvalidParameter { name: "c_die", value: -1.0 };
        assert!(e.to_string().contains("c_die"));
        let e = PdnError::OutOfRange("node (3, 4)".into());
        assert_eq!(e.to_string(), "node (3, 4) out of range");
    }
}
