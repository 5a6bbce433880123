//! Error types for the quantum simulator.

use std::error::Error;
use std::fmt;

/// Errors produced by state-vector operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QuantumError {
    /// A qubit index exceeded the register size.
    QubitOutOfRange {
        /// Offending qubit index (or first index past the window).
        qubit: usize,
        /// Register size.
        n: usize,
    },
    /// Two states of different sizes were combined.
    QubitCountMismatch {
        /// Left operand size.
        left: usize,
        /// Right operand size.
        right: usize,
    },
    /// A register larger than the simulator supports was requested.
    TooManyQubits {
        /// Requested size.
        n: usize,
        /// Supported maximum.
        max: usize,
    },
    /// Raw amplitudes were rejected.
    InvalidAmplitudes {
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for QuantumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QubitOutOfRange { qubit, n } => {
                write!(f, "qubit {qubit} out of range for {n}-qubit register")
            }
            Self::QubitCountMismatch { left, right } => {
                write!(f, "qubit count mismatch: {left} vs {right}")
            }
            Self::TooManyQubits { n, max } => {
                write!(f, "register of {n} qubits exceeds supported maximum {max}")
            }
            Self::InvalidAmplitudes { reason } => write!(f, "invalid amplitudes: {reason}"),
        }
    }
}

impl Error for QuantumError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            QuantumError::QubitOutOfRange { qubit: 4, n: 3 }.to_string(),
            "qubit 4 out of range for 3-qubit register"
        );
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<QuantumError>();
    }
}
