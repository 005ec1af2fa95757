//! Error types for the mapping crate.

use eb_xbar::XbarError;
use std::error::Error;
use std::fmt;

/// Errors produced while programming or executing a mapped layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MappingError {
    /// Weight matrix had zero rows or columns.
    EmptyWeights,
    /// Crossbar configuration cannot hold a single mapped bit.
    CrossbarTooSmall {
        /// Configured rows.
        rows: usize,
        /// Configured columns.
        cols: usize,
    },
    /// Input vector length did not match the mapped fan-in.
    InputLength {
        /// Mapped fan-in.
        expected: usize,
        /// Received length.
        got: usize,
    },
    /// An underlying crossbar error.
    Xbar(XbarError),
}

impl fmt::Display for MappingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyWeights => write!(f, "weight matrix is empty"),
            Self::CrossbarTooSmall { rows, cols } => {
                write!(f, "{rows}×{cols} crossbar cannot hold the mapping")
            }
            Self::InputLength { expected, got } => {
                write!(f, "input has length {got}, mapped fan-in is {expected}")
            }
            Self::Xbar(e) => write!(f, "crossbar error: {e}"),
        }
    }
}

impl Error for MappingError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Xbar(e) => Some(e),
            _ => None,
        }
    }
}

impl From<XbarError> for MappingError {
    fn from(e: XbarError) -> Self {
        Self::Xbar(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_xbar_errors_with_source() {
        let inner = XbarError::DimensionMismatch {
            what: "row drive",
            expected: 4,
            got: 5,
        };
        let e = MappingError::from(inner.clone());
        assert!(e.to_string().contains("crossbar error"));
        assert!(e.source().is_some());
        assert_eq!(e, MappingError::Xbar(inner));
    }
}
