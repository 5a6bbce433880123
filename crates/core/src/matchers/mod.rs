//! Matching algorithms for the tractable equivalences (paper §4).
//!
//! One module per equivalence type, implementing every variant of Table 1:
//!
//! | Equivalence | Inverse available | Without inverses |
//! |---|---|---|
//! | I-N  | `O(1)` classical ([`match_i_n`])  | same |
//! | I-P  | `O(log n)` ([`match_i_p_via_c2_inverse`]) | `O(log n + log 1/ε)` randomized ([`match_i_p_randomized`]) |
//! | I-NP | `O(log n)` ([`match_i_np_via_c2_inverse`]) | `O(log n + log 1/ε)` randomized ([`match_i_np_randomized`]) |
//! | P-I  | `O(log n)` ([`match_p_i_via_c2_inverse`]) | `O(n)` one-hot ([`match_p_i_one_hot`]) |
//! | N-I  | `O(1)` ([`match_n_i_via_c2_inverse`]) | quantum `O(n log 1/ε)` ([`match_n_i_quantum`], Algorithm 1); Simon-style `~2(n+1)` ([`match_n_i_simon`], footnote 2); classical `Θ(2^{n/2})` collision ([`match_n_i_collision`], Theorem 1) |
//! | NP-I | `O(log n)` ([`match_np_i_via_c2_inverse`]) | quantum `O(n² log 1/ε)` ([`match_np_i_quantum`]) |
//! | P-N  | `O(log n)` ([`match_p_n_via_inverses`]) | `O(n)` ([`match_p_n`]) |
//! | N-P  | `O(log n)`, both inverses ([`match_n_p_via_inverses`]) | open problem |
//!
//! The [`solve_promise`] dispatcher picks the best available variant given
//! the supplied resources, and [`brute_force_match`] provides the
//! exponential baseline usable for every equivalence (including the
//! UNIQUE-SAT-hard ones) at tiny widths.
//!
//! Dispatch runs through the [`MatcherRegistry`]: every algorithm is
//! one [`Matcher`] entry keyed by `(Equivalence,
//! InverseAvailability, Path)` and returns a uniform [`MatchReport`];
//! [`solve_promise`] and [`solve_promise_report`] are thin wrappers over
//! [`MatcherRegistry::global`].

mod brute;
mod i_n;
mod i_np;
mod i_p;
mod n_i;
mod n_i_simon;
mod n_p;
mod np_i;
mod p_i;
mod p_n;
mod registry;

pub use brute::{
    brute_force_match, brute_force_match_tables, count_witnesses, BRUTE_FORCE_MAX_WIDTH,
};
pub use i_n::match_i_n;
pub use i_np::{match_i_np_randomized, match_i_np_via_c1_inverse, match_i_np_via_c2_inverse};
pub use i_p::{match_i_p_randomized, match_i_p_via_c1_inverse, match_i_p_via_c2_inverse};
pub use n_i::{
    match_n_i_collision, match_n_i_quantum, match_n_i_via_c1_inverse, match_n_i_via_c2_inverse,
};
pub use n_i_simon::{match_n_i_simon, match_n_i_simon_with};
pub use n_p::match_n_p_via_inverses;
pub use np_i::{match_np_i_quantum, match_np_i_via_c1_inverse, match_np_i_via_c2_inverse};
pub use p_i::{match_p_i_one_hot, match_p_i_via_c1_inverse, match_p_i_via_c2_inverse};
pub use p_n::{match_p_n, match_p_n_via_inverses};
pub use registry::{InverseAvailability, MatchReport, Matcher, MatcherRegistry, Path, Verdict};

use rand::Rng;
use revmatch_quantum::{QuantumBackend, SwapTestMethod};

use crate::equivalence::Equivalence;
use crate::error::MatchError;
use crate::oracle::{ClassicalOracle, Oracle};
use crate::witness::MatchWitness;

/// Tuning knobs shared by the randomized and quantum matchers.
#[derive(Debug, Clone, PartialEq)]
pub struct MatcherConfig {
    /// Failure-probability budget `ε` for the randomized classical
    /// matchers (Eq. 1).
    pub epsilon: f64,
    /// Swap-test repetitions `k` per decision (paper: `k = ⌈log2(1/ε)⌉`).
    pub quantum_k: usize,
    /// How swap tests are executed.
    pub swap_method: SwapTestMethod,
    /// Quantum simulation substrate of the Simon sampler. `None` (the
    /// default) picks Stabilizer, since the round is Clifford-only.
    /// Swap-test probes run on the dense state vector whatever the pin:
    /// the controlled-SWAP is not Clifford.
    pub quantum_backend: Option<QuantumBackend>,
}

impl Default for MatcherConfig {
    fn default() -> Self {
        Self {
            epsilon: 1e-6,
            quantum_k: 20,
            swap_method: SwapTestMethod::Analytic,
            quantum_backend: None,
        }
    }
}

impl MatcherConfig {
    /// A config with failure budget `ε` (sets `quantum_k = ⌈log2(1/ε)⌉`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ε < 1`.
    pub fn with_epsilon(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        Self {
            epsilon,
            quantum_k: (1.0 / epsilon).log2().ceil() as usize,
            ..Self::default()
        }
    }

    /// The resolved substrate for the Simon hidden-shift sampler: the
    /// config's pin, else Stabilizer (the round is pure Clifford, so its
    /// outcome is sampled in closed form, `O(n)` per round at every
    /// width).
    pub fn simon_backend(&self) -> QuantumBackend {
        self.quantum_backend.unwrap_or(QuantumBackend::Stabilizer)
    }
}

/// The resources handed to the dispatcher: the two black boxes and
/// optionally their inverses.
#[derive(Debug)]
pub struct ProblemOracles<'a> {
    /// The transformed circuit.
    pub c1: &'a Oracle,
    /// The base circuit.
    pub c2: &'a Oracle,
    /// `C1⁻¹`, if available.
    pub c1_inv: Option<&'a Oracle>,
    /// `C2⁻¹`, if available.
    pub c2_inv: Option<&'a Oracle>,
}

impl<'a> ProblemOracles<'a> {
    /// Oracles without inverses.
    pub fn without_inverses(c1: &'a Oracle, c2: &'a Oracle) -> Self {
        Self {
            c1,
            c2,
            c1_inv: None,
            c2_inv: None,
        }
    }

    /// Oracles with both inverses.
    pub fn with_inverses(
        c1: &'a Oracle,
        c2: &'a Oracle,
        c1_inv: &'a Oracle,
        c2_inv: &'a Oracle,
    ) -> Self {
        Self {
            c1,
            c2,
            c1_inv: Some(c1_inv),
            c2_inv: Some(c2_inv),
        }
    }

    /// Every supplied oracle: `c1`, `c2`, then the inverses present.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &'a Oracle> {
        [Some(self.c1), Some(self.c2), self.c1_inv, self.c2_inv]
            .into_iter()
            .flatten()
    }

    /// Total queries across all supplied oracles.
    pub fn total_queries(&self) -> u64 {
        self.iter().map(Oracle::queries).sum()
    }

    /// Resets every counter.
    pub fn reset_queries(&self) {
        self.iter().for_each(Oracle::reset_queries);
    }
}

/// Solves the promise problem for any tractable equivalence, picking the
/// cheapest variant the supplied resources allow (Table 1).
///
/// This is [`MatcherRegistry::solve`] on the global registry, keeping
/// only the witness; use [`solve_promise_report`] for the full
/// [`MatchReport`] (query accounting, rounds, verdict quality).
///
/// # Errors
///
/// * [`MatchError::Intractable`] for the UNIQUE-SAT-hard types (use
///   [`brute_force_match`] at tiny widths instead);
/// * [`MatchError::OpenProblem`] for N-P without both inverses;
/// * errors from the underlying matchers (randomized failure, promise
///   violation, width mismatch).
pub fn solve_promise(
    equivalence: Equivalence,
    oracles: &ProblemOracles<'_>,
    config: &MatcherConfig,
    rng: &mut impl Rng,
) -> Result<MatchWitness, MatchError> {
    solve_promise_report(equivalence, oracles, config, rng).map(|report| report.witness)
}

/// [`solve_promise`] with the full [`MatchReport`] instead of the bare
/// witness.
///
/// # Errors
///
/// Same as [`solve_promise`].
pub fn solve_promise_report(
    equivalence: Equivalence,
    oracles: &ProblemOracles<'_>,
    config: &MatcherConfig,
    rng: &mut impl Rng,
) -> Result<MatchReport, MatchError> {
    MatcherRegistry::global().solve(equivalence, oracles, config, rng as &mut dyn rand::RngCore)
}

// ---------------------------------------------------------------------------
// Shared helpers.

/// `⌈log2 n⌉` (0 for `n <= 1`) — the probe count of the binary-code
/// decoding scheme (§4.2).
pub fn ceil_log2(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// The binary-code probe patterns of §4.2: pattern `t` has bit `j` equal to
/// bit `t` of the binary code of `j`.
pub(crate) fn binary_code_patterns(n: usize) -> Vec<u64> {
    let rounds = ceil_log2(n);
    (0..rounds)
        .map(|t| {
            let mut p = 0u64;
            for j in 0..n {
                if (j >> t) & 1 == 1 {
                    p |= 1 << j;
                }
            }
            p
        })
        .collect()
}

/// Decodes a permutation from binary-code responses: `responses[t]` is the
/// oracle's output on `binary_code_patterns(n)[t]`, for an oracle computing
/// a pure wire permutation. Returns `π` with `π(p) = q` when input line `p`
/// feeds output line `q`.
pub(crate) fn decode_permutation(
    n: usize,
    responses: &[u64],
) -> Result<revmatch_circuit::LinePermutation, MatchError> {
    // Signature of output line q: the bits observed across rounds, which
    // spell the binary code of the input line feeding it.
    let mut map = vec![usize::MAX; n];
    for q in 0..n {
        let mut p = 0usize;
        for (t, resp) in responses.iter().enumerate() {
            if (resp >> q) & 1 == 1 {
                p |= 1 << t;
            }
        }
        if p >= n {
            return Err(MatchError::PromiseViolated);
        }
        if map[p] != usize::MAX {
            return Err(MatchError::PromiseViolated);
        }
        map[p] = q;
    }
    revmatch_circuit::LinePermutation::new(map).map_err(|_| MatchError::PromiseViolated)
}

/// The number of random probe rounds `k` needed for success probability
/// `1 − ε` in the signature-matching argument of Eq. (1):
/// `k = ⌈log2(n(n−1)/ε)⌉`, at least 1.
pub(crate) fn randomized_rounds(n: usize, epsilon: f64) -> usize {
    assert!(epsilon > 0.0 && epsilon < 1.0);
    let pairs = (n.max(2) * (n.max(2) - 1)) as f64;
    ((pairs / epsilon).log2().ceil() as usize).clamp(1, 127)
}

/// Runs one swap test between `c1(probe1)` and `c2(probe2)` on the
/// dense state vector, returning the measured ancilla bit. One query to
/// each box.
pub(crate) fn swap_test_probes(
    c1: &dyn crate::oracle::QuantumOracle,
    probe1: &revmatch_quantum::ProductState,
    c2: &dyn crate::oracle::QuantumOracle,
    probe2: &revmatch_quantum::ProductState,
    config: &MatcherConfig,
    rng: &mut impl Rng,
) -> Result<bool, MatchError> {
    let out1 = c1.query_quantum(probe1)?;
    let out2 = c2.query_quantum(probe2)?;
    Ok(revmatch_quantum::swap_test(
        config.swap_method,
        &out1,
        &out2,
        rng,
    )?)
}

pub(crate) fn ensure_same_width(
    a: &dyn ClassicalOracle,
    b: &dyn ClassicalOracle,
) -> Result<usize, MatchError> {
    if a.width() != b.width() {
        Err(MatchError::WidthMismatch {
            left: a.width(),
            right: b.width(),
        })
    } else {
        Ok(a.width())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(64), 6);
        assert_eq!(ceil_log2(65), 7);
    }

    #[test]
    fn binary_code_patterns_spell_line_indices() {
        let n = 6;
        let pats = binary_code_patterns(n);
        assert_eq!(pats.len(), 3);
        for j in 0..n {
            let mut code = 0usize;
            for (t, p) in pats.iter().enumerate() {
                if (p >> j) & 1 == 1 {
                    code |= 1 << t;
                }
            }
            assert_eq!(code, j);
        }
    }

    #[test]
    fn decode_permutation_round_trip() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for n in [1usize, 2, 3, 5, 8, 13] {
            let pi = revmatch_circuit::LinePermutation::random(n, &mut rng);
            let pats = binary_code_patterns(n);
            let responses: Vec<u64> = pats.iter().map(|&p| pi.apply(p)).collect();
            let decoded = decode_permutation(n, &responses).unwrap();
            assert_eq!(decoded, pi, "n={n}");
        }
    }

    #[test]
    fn decode_detects_garbage() {
        // Constant-zero responses make every output line decode to input 0.
        assert!(decode_permutation(3, &[0, 0]).is_err());
    }

    #[test]
    fn randomized_rounds_grows_with_n_and_shrinks_with_eps() {
        assert!(randomized_rounds(8, 1e-3) < randomized_rounds(64, 1e-3));
        assert!(randomized_rounds(8, 1e-3) < randomized_rounds(8, 1e-9));
        assert!(randomized_rounds(2, 0.5) >= 1);
    }

    #[test]
    fn config_with_epsilon_sets_k() {
        let c = MatcherConfig::with_epsilon(1e-3);
        assert_eq!(c.quantum_k, 10);
    }
}
