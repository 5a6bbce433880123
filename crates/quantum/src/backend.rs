//! Quantum simulation backend dispatch.
//!
//! Three interchangeable substrates execute the paper's quantum
//! algorithms, mirroring the `SolverBackend`/`Kernel` dispatch patterns
//! elsewhere in the workspace:
//!
//! * [`QuantumBackend::Dense`] — the reference `2^n`-amplitude
//!   [`crate::StateVector`] (exact, but capped at
//!   [`crate::MAX_QUBITS`] qubits and `O(2^n)` per gate);
//! * [`QuantumBackend::Sparse`] — a map-keyed
//!   [`crate::SparseStateVector`] holding only nonzero amplitudes
//!   (XOR-oracle states after a Hadamard layer have ≤ `2^n` nonzeros,
//!   not `2^(2n)`);
//! * [`QuantumBackend::Stabilizer`] — a CHP-style tableau
//!   ([`crate::Tableau`]) for Clifford-only circuits: the Simon
//!   sampling round is pure H/CNOT/X, so it runs in `O(n²)` bit-packed
//!   row updates at any width.
//!
//! Callers pick the backend: the matchers take an explicit pin from
//! their configuration, or else apply a per-algorithm auto policy
//! (Stabilizer for Simon-style Clifford sampling, Sparse for swap-test
//! probes). Every backend recovers identical Simon witnesses on
//! identical instances — the differential suites hold them to that.

/// The quantum simulation substrate executing a matcher's circuit runs.
///
/// All backends recover the same witnesses — the choice trades
/// generality for throughput and reachable width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantumBackend {
    /// Dense `2^n`-amplitude state vector (the reference substrate).
    Dense,
    /// Map-keyed sparse state vector: only nonzero amplitudes stored.
    Sparse,
    /// CHP stabilizer tableau — Clifford circuits only (H/CNOT/X and
    /// computational-basis measurement), any width up to 63 qubits.
    Stabilizer,
}

impl QuantumBackend {
    /// Every backend, in escalation order.
    pub const ALL: [QuantumBackend; 3] = [
        QuantumBackend::Dense,
        QuantumBackend::Sparse,
        QuantumBackend::Stabilizer,
    ];

    /// The backend's name (`dense`, `sparse`, `stabilizer`), as
    /// parsed back by [`FromStr`](std::str::FromStr).
    pub fn name(self) -> &'static str {
        match self {
            QuantumBackend::Dense => "dense",
            QuantumBackend::Sparse => "sparse",
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

impl std::str::FromStr for QuantumBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        QuantumBackend::ALL
            .into_iter()
            .find(|b| b.name() == s)
            .ok_or_else(|| {
                format!("unknown quantum backend {s:?} (expected dense | sparse | stabilizer)")
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for b in QuantumBackend::ALL {
            assert_eq!(b.name().parse::<QuantumBackend>().unwrap(), b);
            assert_eq!(b.to_string(), b.name());
        }
        assert!("qft".parse::<QuantumBackend>().is_err());
    }

    #[test]
    fn indices_are_dense() {
        for (i, b) in QuantumBackend::ALL.into_iter().enumerate() {
            assert_eq!(b.index(), i);
        }
    }
}
