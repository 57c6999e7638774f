use std::fmt;

/// Errors produced by the sparse-matrix substrate.
///
/// The fallible constructors [`crate::DenseMatrix::from_vec`] and
/// [`crate::SparseVec::from_parts`] report mismatched lengths through this
/// type instead of panicking, so callers can surface them gracefully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// Parallel arrays (indices/values) had different lengths.
    LengthMismatch {
        /// Length of the index array.
        indices: usize,
        /// Length of the value array.
        values: usize,
    },
    /// Matrix dimensions do not match for the requested operation.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Actual dimension.
        actual: usize,
    },
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::LengthMismatch { indices, values } => write!(
                f,
                "index array has length {indices} but value array has length {values}"
            ),
            SparseError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
        }
    }
}

impl std::error::Error for SparseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SparseError::DimensionMismatch {
            expected: 7,
            actual: 3,
        };
        assert!(e.to_string().contains('7'));
        assert!(e.to_string().contains('3'));
        let e = SparseError::LengthMismatch {
            indices: 1,
            values: 2,
        };
        assert!(e.to_string().contains("length 1"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SparseError>();
    }
}
