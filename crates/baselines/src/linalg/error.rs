//! Error type shared by the fallible linear-algebra routines.

use std::error::Error;
use std::fmt;

/// Errors produced by the decomposition and statistics routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum LinalgError {
    /// Operand dimensions are incompatible for the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        op: &'static str,
        /// Dimensions of the left operand as `(rows, cols)`.
        left: (usize, usize),
        /// Dimensions of the right operand as `(rows, cols)`.
        right: (usize, usize),
    },
    /// The matrix was expected to be square.
    NotSquare {
        /// Dimensions of the offending matrix.
        dims: (usize, usize),
    },
    /// An iterative algorithm failed to converge within its iteration budget.
    NoConvergence {
        /// Name of the algorithm.
        algorithm: &'static str,
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// The input was empty where at least one element is required.
    EmptyInput {
        /// Description of the operation that required non-empty input.
        op: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch { op, left, right } => write!(
                f,
                "dimension mismatch in {op}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            LinalgError::NotSquare { dims } => {
                write!(f, "matrix must be square, got {}x{}", dims.0, dims.1)
            }
            LinalgError::NoConvergence {
                algorithm,
                iterations,
            } => write!(
                f,
                "{algorithm} did not converge after {iterations} iterations"
            ),
            LinalgError::EmptyInput { op } => write!(f, "empty input for {op}"),
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = LinalgError::DimensionMismatch {
            op: "from_vec",
            left: (2, 3),
            right: (4, 5),
        };
        let msg = e.to_string();
        assert!(msg.contains("from_vec"));
        assert!(msg.contains("2x3"));
        assert!(msg.contains("4x5"));

        let e = LinalgError::NotSquare { dims: (2, 3) };
        assert!(e.to_string().contains("2x3"));

        let e = LinalgError::NoConvergence {
            algorithm: "jacobi",
            iterations: 100,
        };
        assert!(e.to_string().contains("jacobi"));

        let e = LinalgError::EmptyInput { op: "column_means" };
        assert!(e.to_string().contains("column_means"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinalgError>();
    }
}
