//! Error types for the SAT substrate.

use std::error::Error;
use std::fmt;

/// Errors produced by CNF parsing and the reduction machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SatError {
    /// A DIMACS document could not be parsed.
    ParseDimacs {
        /// 1-based line number.
        line_no: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// A planted-instance generator gave up after too many attempts.
    GenerationFailed {
        /// Attempts performed.
        attempts: usize,
        /// What was being generated.
        what: String,
    },
    /// A solver-backend name did not parse (expected `dpll` or `cdcl`).
    UnknownBackend {
        /// The unrecognized name.
        name: String,
    },
    /// A DRAT proof failed verification.
    ProofRejected {
        /// 0-based index of the offending proof step.
        step: usize,
        /// Human-readable reason.
        reason: String,
    },
}

impl fmt::Display for SatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ParseDimacs { line_no, reason } => {
                write!(f, "invalid DIMACS at line {line_no}: {reason}")
            }
            Self::GenerationFailed { attempts, what } => {
                write!(f, "failed to generate {what} after {attempts} attempts")
            }
            Self::UnknownBackend { name } => {
                write!(f, "unknown solver backend {name:?} (expected dpll or cdcl)")
            }
            Self::ProofRejected { step, reason } => {
                write!(f, "DRAT proof rejected at step {step}: {reason}")
            }
        }
    }
}

impl Error for SatError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SatError::ParseDimacs {
            line_no: 2,
            reason: "boom".to_owned(),
        };
        assert_eq!(e.to_string(), "invalid DIMACS at line 2: boom");
    }
}
