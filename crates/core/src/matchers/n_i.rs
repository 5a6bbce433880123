//! N-I equivalence: `C1 = C2 C_ν` (paper §4.5, Theorem 1, Algorithm 1).
//!
//! Input negation only. This is the headline case of the paper:
//!
//! * with an inverse, `ν = C2⁻¹(C1(0))` — `O(1)` queries;
//! * **without** inverses, any classical algorithm needs `Ω(2^{n/2})`
//!   queries (Theorem 1, a birthday bound); [`match_n_i_collision`]
//!   implements the optimal collision strategy and exposes its count;
//! * the quantum Algorithm 1 solves it in `O(n log 1/ε)` queries using
//!   `|+⟩`-blanket probes and the swap test — an exponential speedup.

use std::collections::HashMap;

use rand::Rng;
use revmatch_circuit::{width_mask, NegationMask};
use revmatch_quantum::{ProductState, Qubit};

use crate::error::MatchError;
use crate::matchers::{ensure_same_width, MatchReport, MatcherConfig, Verdict};
use crate::oracle::{ClassicalOracle, QuantumOracle};
use crate::witness::MatchWitness;

/// The direction-shared core of the two inverse-assisted variants:
/// `ν = inv(forward(0))` in one query to each box (`C_ν⁻¹ = C_ν` makes
/// the two directions literal mirror images).
fn match_n_i_via_inverse(
    forward: &dyn ClassicalOracle,
    inv: &dyn ClassicalOracle,
) -> Result<NegationMask, MatchError> {
    let n = ensure_same_width(forward, inv)?;
    let nu = inv.query(forward.query(0));
    NegationMask::new(nu, n).map_err(|_| MatchError::PromiseViolated)
}

/// Finds `ν` with `C1 = C2 C_ν`, given `C2⁻¹` — `O(1)` queries
/// (`ν = C2⁻¹(C1(0))`).
///
/// # Errors
///
/// Returns [`MatchError::WidthMismatch`] on width disagreement.
pub fn match_n_i_via_c2_inverse(
    c1: &dyn ClassicalOracle,
    c2_inv: &dyn ClassicalOracle,
) -> Result<NegationMask, MatchError> {
    match_n_i_via_inverse(c1, c2_inv)
}

/// Finds `ν` with `C1 = C2 C_ν`, given `C1⁻¹` — `O(1)` queries
/// (`ν = C1⁻¹(C2(0))`, using `C_ν⁻¹ = C_ν`).
///
/// # Errors
///
/// Returns [`MatchError::WidthMismatch`] on width disagreement.
pub fn match_n_i_via_c1_inverse(
    c1_inv: &dyn ClassicalOracle,
    c2: &dyn ClassicalOracle,
) -> Result<NegationMask, MatchError> {
    match_n_i_via_inverse(c2, c1_inv)
}

/// Probes per oracle per batched collision round: `max(4, 2^(n/2) / 4)`,
/// a quarter of the birthday scale, so a typical search spends a handful
/// of rounds and overshoots the first collision by at most one round.
fn collision_round_size(n: usize) -> usize {
    (1usize << (n / 2)).div_ceil(4).max(4)
}

/// Builds the uniform report of a collision search: the witness is the
/// input negation, `queries` is the Theorem-1 metric (stops at the
/// colliding pair), `charged_queries` counts whole batched rounds.
fn collision_report(
    nu: NegationMask,
    queries: u64,
    charged_queries: u64,
    rounds: u64,
) -> MatchReport {
    MatchReport {
        witness: MatchWitness::input_negation(nu),
        queries,
        charged_queries,
        rounds,
        verdict: Verdict::Definitive,
    }
}

/// The optimal classical strategy without inverses: query both oracles on
/// random inputs until an output collision `C1(x1) = C2(x2)` reveals
/// `ν = x1 ⊕ x2`. Expected `Θ(2^{n/2})` queries (Theorem 1 / Eq. 2).
///
/// The report's `queries` field is the Theorem-1 metric (probes up to and
/// including the colliding pair, exactly what the per-probe scalar loop
/// would have charged); `charged_queries` counts the batched rounds
/// actually issued (the oracle-counter delta), overshooting the first
/// collision by at most one round; `rounds` is the number of birthday
/// rounds.
///
/// # Errors
///
/// Returns [`MatchError::WidthMismatch`] on width disagreement. Does not
/// terminate if the promise is violated and no collision ever occurs —
/// callers outside experiments should bound `n`.
///
/// # Examples
///
/// ```
/// use revmatch::{match_n_i_collision, Oracle};
/// use revmatch_circuit::{Circuit, Gate};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let c2 = Circuit::from_gates(4, [Gate::cnot(0, 3)])?;
/// let c1 = Circuit::from_gates(4, [Gate::not(1)])?.then(&c2)?;
/// let report = match_n_i_collision(&Oracle::new(c1), &Oracle::new(c2), &mut rng)?;
/// assert_eq!(report.witness.nu_x().mask(), 0b0010);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn match_n_i_collision(
    c1: &dyn ClassicalOracle,
    c2: &dyn ClassicalOracle,
    rng: &mut impl Rng,
) -> Result<MatchReport, MatchError> {
    let n = ensure_same_width(c1, c2)?;
    let mask = width_mask(n);
    let round = collision_round_size(n);
    let mut seen1: HashMap<u64, u64> = HashMap::new(); // output -> input of C1
    let mut seen2: HashMap<u64, u64> = HashMap::new();
    let mut charged_queries = 0u64;
    let mut rounds = 0u64;
    loop {
        rounds += 1;
        // Draw one round of probe pairs in the same interleaved order the
        // per-probe loop used (x1_0, x2_0, x1_1, …), then issue each
        // oracle's probes as one batch. Responses are scanned back in
        // pair order against the same seen-sets, so the recovered ν is
        // identical to the scalar path's under a fixed RNG seed.
        let mut xs1 = Vec::with_capacity(round);
        let mut xs2 = Vec::with_capacity(round);
        for _ in 0..round {
            xs1.push(rng.gen::<u64>() & mask);
            xs2.push(rng.gen::<u64>() & mask);
        }
        let ys1 = c1.query_batch(&xs1);
        let ys2 = c2.query_batch(&xs2);
        let round_base = charged_queries;
        charged_queries += 2 * round as u64;
        for t in 0..round {
            if let Some(&x2) = seen2.get(&ys1[t]) {
                let nu =
                    NegationMask::new(xs1[t] ^ x2, n).map_err(|_| MatchError::PromiseViolated)?;
                return Ok(collision_report(
                    nu,
                    round_base + 2 * t as u64 + 1,
                    charged_queries,
                    rounds,
                ));
            }
            seen1.insert(ys1[t], xs1[t]);
            if let Some(&x1) = seen1.get(&ys2[t]) {
                let nu =
                    NegationMask::new(x1 ^ xs2[t], n).map_err(|_| MatchError::PromiseViolated)?;
                return Ok(collision_report(
                    nu,
                    round_base + 2 * t as u64 + 2,
                    charged_queries,
                    rounds,
                ));
            }
            seen2.insert(ys2[t], xs2[t]);
        }
    }
}

/// **Algorithm 1**: the quantum N-I matcher — `O(n log 1/ε)` queries.
///
/// For each line `i`, both circuits are run on the probe
/// `|+⟩ ⊗ … ⊗ |0⟩_i ⊗ … ⊗ |+⟩`: NOT gates on `|+⟩` lines vanish
/// (`X|+⟩ = |+⟩`), so only a negation on line `i` has an effect, making the
/// two outputs orthogonal. Up to `k` swap tests distinguish orthogonal from
/// identical: any `1` outcome proves `ν(i) = 1`; `k` zeros give
/// `ν(i) = 0` with confidence `1 − 2^{-k}`.
///
/// Probes and swap tests run on the dense state vector whatever
/// [`MatcherConfig::quantum_backend`] pins (the controlled-SWAP is not
/// Clifford), up to [`revmatch_quantum::MAX_QUBITS`] lines; each box
/// applies to its probe as one permutation of the amplitudes, read from
/// the oracle's truth table when it holds or buys one.
///
/// # Errors
///
/// Returns width or simulation errors from the quantum substrate.
pub fn match_n_i_quantum(
    c1: &dyn QuantumOracle,
    c2: &dyn QuantumOracle,
    config: &MatcherConfig,
    rng: &mut impl Rng,
) -> Result<NegationMask, MatchError> {
    let n = c1.width();
    if n != c2.width() {
        return Err(MatchError::WidthMismatch {
            left: n,
            right: c2.width(),
        });
    }
    let mut nu = 0u64;
    for i in 0..n {
        let probe = ProductState::uniform(n, Qubit::Plus).with_qubit(i, Qubit::Zero);
        for _ in 0..config.quantum_k {
            if crate::matchers::swap_test_probes(c1, &probe, c2, &probe, config, rng)? {
                nu |= 1 << i;
                break;
            }
        }
    }
    NegationMask::new(nu, n).map_err(|_| MatchError::PromiseViolated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::{Equivalence, Side};
    use crate::oracle::Oracle;
    use crate::promise::random_instance;
    use rand::SeedableRng;
    use revmatch_quantum::SwapTestMethod;

    fn planted_nu(inst: &crate::promise::PromiseInstance) -> NegationMask {
        inst.witness.nu_x()
    }

    #[test]
    fn via_c2_inverse() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for w in 1..=8 {
            let inst = random_instance(Equivalence::new(Side::N, Side::I), w, &mut rng);
            let c1 = Oracle::new(inst.c1.clone());
            let c2_inv = Oracle::new(inst.c2.inverse());
            let nu = match_n_i_via_c2_inverse(&c1, &c2_inv).unwrap();
            assert_eq!(nu, planted_nu(&inst), "width {w}");
            assert_eq!(c1.queries() + c2_inv.queries(), 2, "O(1) queries");
        }
    }

    #[test]
    fn via_c1_inverse() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for w in 1..=8 {
            let inst = random_instance(Equivalence::new(Side::N, Side::I), w, &mut rng);
            let c1_inv = Oracle::new(inst.c1.inverse());
            let c2 = Oracle::new(inst.c2.clone());
            let nu = match_n_i_via_c1_inverse(&c1_inv, &c2).unwrap();
            assert_eq!(nu, planted_nu(&inst), "width {w}");
        }
    }

    #[test]
    fn collision_baseline_recovers_nu() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for w in 2..=8 {
            let inst = random_instance(Equivalence::new(Side::N, Side::I), w, &mut rng);
            let c1 = Oracle::new(inst.c1.clone());
            let c2 = Oracle::new(inst.c2.clone());
            let outcome = match_n_i_collision(&c1, &c2, &mut rng).unwrap();
            assert_eq!(outcome.witness.nu_x(), planted_nu(&inst), "width {w}");
            assert!(outcome.verdict.is_definitive());
            // Every issued probe lands on the oracle counters; the
            // Theorem-1 metric stops at the colliding pair and trails by
            // at most one round of overshoot.
            assert_eq!(outcome.charged_queries, c1.queries() + c2.queries());
            assert!(outcome.queries >= 1 && outcome.queries <= outcome.charged_queries);
            let round = 2 * super::collision_round_size(w) as u64;
            assert!(outcome.charged_queries - outcome.queries < round);
            assert_eq!(outcome.rounds * round, outcome.charged_queries);
        }
    }

    #[test]
    fn collision_query_count_grows_exponentially() {
        // Birthday scaling: median queries at width 2w should exceed the
        // median at width w by roughly 2^{w/2}. We check a weak monotone
        // version over several trials to keep the test robust.
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let median = |w: usize, rng: &mut rand::rngs::StdRng| {
            let mut counts: Vec<u64> = (0..15)
                .map(|_| {
                    let inst = random_instance(Equivalence::new(Side::N, Side::I), w, rng);
                    let c1 = Oracle::new(inst.c1);
                    let c2 = Oracle::new(inst.c2);
                    match_n_i_collision(&c1, &c2, rng).unwrap().queries
                })
                .collect();
            counts.sort_unstable();
            counts[counts.len() / 2]
        };
        let small = median(4, &mut rng);
        let large = median(10, &mut rng);
        assert!(
            large > 2 * small,
            "collision cost did not grow: {small} -> {large}"
        );
    }

    #[test]
    fn quantum_algorithm1_recovers_nu() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let config = MatcherConfig::with_epsilon(1e-6);
        for w in 1..=7 {
            let inst = random_instance(Equivalence::new(Side::N, Side::I), w, &mut rng);
            let c1 = Oracle::new(inst.c1.clone());
            let c2 = Oracle::new(inst.c2.clone());
            let nu = match_n_i_quantum(&c1, &c2, &config, &mut rng).unwrap();
            assert_eq!(nu, planted_nu(&inst), "width {w}");
            // Query bound: per line at most 2k queries.
            assert!(c1.queries() + c2.queries() <= 2 * (w as u64) * config.quantum_k as u64);
        }
    }

    #[test]
    fn quantum_with_full_circuit_swap_test() {
        // The honest 2n+1-qubit simulation agrees with the analytic path.
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let config = MatcherConfig {
            swap_method: SwapTestMethod::FullCircuit,
            ..MatcherConfig::default()
        };
        for w in 1..=4 {
            let inst = random_instance(Equivalence::new(Side::N, Side::I), w, &mut rng);
            let c1 = Oracle::new(inst.c1.clone());
            let c2 = Oracle::new(inst.c2.clone());
            let nu = match_n_i_quantum(&c1, &c2, &config, &mut rng).unwrap();
            assert_eq!(nu, planted_nu(&inst), "width {w}");
        }
    }

    #[test]
    fn quantum_query_count_is_linear_not_exponential() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let config = MatcherConfig::with_epsilon(1e-3);
        let inst = random_instance(Equivalence::new(Side::N, Side::I), 8, &mut rng);
        let c1 = Oracle::new(inst.c1.clone());
        let c2 = Oracle::new(inst.c2.clone());
        let nu = match_n_i_quantum(&c1, &c2, &config, &mut rng).unwrap();
        assert_eq!(nu, planted_nu(&inst));
        let total = c1.queries() + c2.queries();
        // 2^{8/2} = 16 is the birthday scale; linear-in-n quantum cost with
        // k = 10 stays at most 2nk = 160 but crucially does not grow with
        // 2^{n/2} — compare against the collision test above at width 10+.
        assert!(total <= 2 * 8 * 10);
    }

    #[test]
    fn quantum_backends_recover_the_same_nu() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for w in 2..=6 {
            let inst = random_instance(Equivalence::new(Side::N, Side::I), w, &mut rng);
            let mut recovered = Vec::new();
            for backend in revmatch_quantum::QuantumBackend::ALL {
                let config = MatcherConfig {
                    quantum_backend: Some(backend),
                    ..MatcherConfig::default()
                };
                let c1 = Oracle::new(inst.c1.clone());
                let c2 = Oracle::new(inst.c2.clone());
                let nu = match_n_i_quantum(&c1, &c2, &config, &mut rng).unwrap();
                assert_eq!(nu, planted_nu(&inst), "width {w}, backend {backend}");
                recovered.push(nu);
            }
            assert!(recovered.windows(2).all(|p| p[0] == p[1]));
        }
    }

    #[test]
    fn identity_promise_yields_zero_mask() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let config = MatcherConfig::default();
        let c = revmatch_circuit::random_function_circuit(4, &mut rng);
        let c1 = Oracle::new(c.clone());
        let c2 = Oracle::new(c);
        let nu = match_n_i_quantum(&c1, &c2, &config, &mut rng).unwrap();
        assert!(nu.is_identity());
    }
}
