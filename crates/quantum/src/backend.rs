//! Quantum simulation backend dispatch.
//!
//! Two substrates execute the paper's quantum algorithms, mirroring the
//! `SolverBackend`/`Kernel` dispatch patterns elsewhere in the
//! workspace:
//!
//! * [`QuantumBackend::Dense`] — the reference `2^n`-amplitude
//!   [`crate::StateVector`] (exact, but capped at
//!   [`crate::MAX_QUBITS`] qubits and `O(2^n)` per gate). Every swap
//!   test runs here: the controlled-SWAP is not Clifford, and a box
//!   applies to a probe as one permutation of its amplitudes;
//! * [`QuantumBackend::Stabilizer`] — Clifford-only circuits: the Simon
//!   sampling round is pure H/CNOT/X, so the matcher samples its
//!   outcome in closed form, `O(n)` per round at any width up to 62
//!   lines. The CHP tableau ([`crate::Tableau`]) is the reference that
//!   closed form is diffed against.
//!
//! The choice only matters for the Simon matcher: it takes an explicit
//! pin from its configuration, or else runs on Stabilizer. Both
//! backends recover identical Simon witnesses on identical instances —
//! the differential suites hold them to that.

/// The quantum simulation substrate executing a Simon matcher's rounds
/// (swap tests always run on [`QuantumBackend::Dense`]).
///
/// Both backends recover the same witnesses — the choice trades
/// generality for throughput and reachable width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantumBackend {
    /// Dense `2^n`-amplitude state vector (the reference substrate).
    Dense,
    /// Stabilizer formalism — Clifford circuits only (H/CNOT/X and
    /// computational-basis measurement), any width up to 63 qubits. The
    /// Simon matcher samples the round's outcome in closed form;
    /// [`crate::Tableau`] is its reference.
    Stabilizer,
}

impl QuantumBackend {
    /// Every backend, in escalation order.
    pub const ALL: [QuantumBackend; 2] = [QuantumBackend::Dense, QuantumBackend::Stabilizer];

    /// The backend's name (`dense`, `stabilizer`), as metric labels and
    /// the service's backend info gauge print it.
    pub fn name(self) -> &'static str {
        match self {
            QuantumBackend::Dense => "dense",
            QuantumBackend::Stabilizer => "stabilizer",
        }
    }

    /// Dense index of the backend (for per-backend metric arrays).
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&b| b == self).expect("in ALL")
    }
}

impl std::fmt::Display for QuantumBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for b in QuantumBackend::ALL {
            assert_eq!(b.to_string(), b.name());
            let named = QuantumBackend::ALL
                .into_iter()
                .find(|o| o.name() == b.name());
            assert_eq!(named, Some(b), "{b}: the name picks the backend back out");
        }
    }

    #[test]
    fn indices_are_dense() {
        for (i, b) in QuantumBackend::ALL.into_iter().enumerate() {
            assert_eq!(b.index(), i);
        }
    }
}
