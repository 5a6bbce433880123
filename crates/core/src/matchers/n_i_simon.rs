//! The Simon-style quantum N-I matcher (the paper's footnote 2 mentions
//! two further algorithms "inspired by Simon's algorithm", omitted for
//! space — this is a faithful reconstruction of the natural one).
//!
//! N-I equivalence `C1 = C2 C_ν` means `C1(x) = C2(x ⊕ ν)`: the pair
//! `(C1, C2)` hides the **shift** `ν`, precisely Simon's hidden-shift
//! setting for bijections. One round:
//!
//! 1. prepare `|b⟩|x⟩|0⟩` with `b` and all of `x` in uniform
//!    superposition (`H` everywhere);
//! 2. apply the XOR oracle of `C1` controlled on `b = 0` and of `C2`
//!    controlled on `b = 1` — one query to each box;
//! 3. measure the output register: the residual state collapses to
//!    `(|0⟩|x₀⟩ + |1⟩|x₀ ⊕ ν⟩)/√2`;
//! 4. apply `H^{⊗(n+1)}` to `(b, x)` and measure: the outcome `(c, y)`
//!    always satisfies `y·ν ≡ c (mod 2)`.
//!
//! Each round yields one GF(2) linear constraint on `ν`; once the `y`
//! vectors reach rank `n` (expected after `n + O(1)` rounds), Gaussian
//! elimination recovers `ν` exactly — about `2n` total queries versus
//! Algorithm 1's `2nk`, and with *certainty* rather than confidence
//! `1 − 2^{-k}` (the constraints are never wrong; only the round count is
//! random).
//!
//! Oracle model: this algorithm needs the standard XOR oracle
//! `U_C : |x⟩|o⟩ ↦ |x⟩|o ⊕ C(x)⟩` rather than the in-place permutation
//! (measuring an in-place register would destroy the shift). `U_C` is the
//! conventional quantum black box and is constructible from one use of
//! `C` and one of `C⁻¹` per query when white boxes are available.

use rand::Rng;
use revmatch_circuit::{width_mask, NegationMask};
use revmatch_quantum::{QuantumBackend, StateVector, MAX_QUBITS, STABILIZER_MAX_QUBITS};

use crate::error::MatchError;
use crate::matchers::{MatchReport, Verdict};
use crate::oracle::{ClassicalOracle, Oracle};
use crate::witness::MatchWitness;

/// Builds the uniform report of a Simon run: each sampling round costs
/// one query to each box, and the recovered shift is *exact* — only the
/// round count is random.
fn simon_report(nu: NegationMask, rounds: u64) -> MatchReport {
    MatchReport {
        witness: MatchWitness::input_negation(nu),
        queries: 2 * rounds,
        charged_queries: 2 * rounds,
        rounds,
        verdict: Verdict::Definitive,
    }
}

/// GF(2) row-echelon accumulator for constraints `y · ν = c`.
#[derive(Debug, Default)]
struct Gf2System {
    /// Rows `(y, c)` with distinct pivot bits, pivot = highest set bit.
    rows: Vec<(u64, bool)>,
}

impl Gf2System {
    /// Reduces and inserts a constraint; returns whether rank increased.
    ///
    /// A reduced-to-zero `y` with `c = 1` is an inconsistency (impossible
    /// under the promise) reported as `Err`.
    fn insert(&mut self, mut y: u64, mut c: bool) -> Result<bool, MatchError> {
        for &(row, rc) in &self.rows {
            let pivot = 63 - row.leading_zeros();
            if (y >> pivot) & 1 == 1 {
                y ^= row;
                c ^= rc;
            }
        }
        if y == 0 {
            if c {
                return Err(MatchError::PromiseViolated);
            }
            return Ok(false);
        }
        self.rows.push((y, c));
        Ok(true)
    }

    fn rank(&self) -> usize {
        self.rows.len()
    }

    /// Solves for the unique `ν` once rank = `n`.
    fn solve(&self, n: usize) -> u64 {
        // Back-substitute in ascending pivot order: a row's `y` involves
        // only bits up to its pivot, so once the lower bits of ν are
        // fixed, the pivot bit is determined by the row's parity.
        let mut rows = self.rows.clone();
        rows.sort_by_key(|&(y, _)| 63 - y.leading_zeros());
        let mut nu = 0u64;
        for &(y, c) in rows.iter() {
            let pivot = 63 - y.leading_zeros();
            let parity = ((y & nu).count_ones() & 1) == 1;
            if parity != c {
                nu |= 1 << pivot;
            }
        }
        debug_assert!(nu < (1u64 << n) || n == 64);
        nu
    }
}

/// Finds `ν` with `C1 = C2 C_ν` by hidden-shift sampling — expected
/// `n + O(1)` rounds (2 queries each), exact answer. The report's
/// `rounds` field is the number of sampling rounds; `queries` equals
/// `charged_queries` equals `2 · rounds`, and the verdict is always
/// [`Verdict::Definitive`] (the GF(2) constraints are never wrong).
///
/// # Errors
///
/// * [`MatchError::WidthMismatch`] on width disagreement;
/// * [`MatchError::Quantum`] if `2n + 1` qubits exceed the simulator
///   limit (`n <= 9` for the dense state vector);
/// * [`MatchError::RandomizedFailure`] if rank `n` is not reached within
///   `16(n + 4)` rounds (astronomically unlikely under the promise).
///
/// # Examples
///
/// ```
/// use revmatch::{match_n_i_simon, Oracle};
/// use revmatch_circuit::{Circuit, Gate};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let c2 = Circuit::from_gates(3, [Gate::toffoli(0, 1, 2)])?;
/// let c1 = Circuit::from_gates(3, [Gate::not(1)])?.then(&c2)?;
/// let report = match_n_i_simon(&Oracle::new(c1), &Oracle::new(c2), &mut rng)?;
/// assert_eq!(report.witness.nu_x().mask(), 0b010);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn match_n_i_simon(
    c1: &Oracle,
    c2: &Oracle,
    rng: &mut impl Rng,
) -> Result<MatchReport, MatchError> {
    match_n_i_simon_with(c1, c2, QuantumBackend::Dense, rng)
}

/// [`match_n_i_simon`] on an explicit simulation substrate.
///
/// Both backends sample the identical constraint distribution, so
/// under the promise the recovered `ν` is **bit-identical** across
/// backends (the GF(2) system has a unique solution at rank `n`) — only
/// reachable width and throughput differ:
///
/// * [`QuantumBackend::Dense`] — `2^{2n+1}` amplitudes, `n ≤ 9`;
/// * [`QuantumBackend::Stabilizer`] — the round is reduced to its
///   Clifford normal form: the oracle queries are evaluated classically
///   (one to each box per round, identical accounting) to obtain the
///   collapsed coset pair `(x₀, x₁ = C2⁻¹(C1(x₀)))`, and the residual
///   state `(|0,x₀⟩ + |1,x₁⟩)/√2` is Fourier-sampled in closed form:
///   `n + 1` coin flips and one parity per round, `n ≤ 62`. The
///   sampler draws exactly what an `(n+1)`-qubit stabilizer tableau
///   ([`revmatch_quantum::Tableau`], the reference the tests diff it
///   against) would. This uses white-box access to `C2` for the inverse
///   (the same license [`Oracle::inverse_oracle`] already grants:
///   reversible white boxes are invertible), and under the promise the
///   measured `(c, y)` obeys exactly the dense path's `y·ν ≡ c (mod 2)`
///   distribution.
///
/// # Errors
///
/// As [`match_n_i_simon`], with the width limit of the chosen backend;
/// oversized instances fail with a clean [`MatchError::Quantum`], never
/// a panic.
pub fn match_n_i_simon_with(
    c1: &Oracle,
    c2: &Oracle,
    backend: QuantumBackend,
    rng: &mut impl Rng,
) -> Result<MatchReport, MatchError> {
    let n = ClassicalOracle::width(c1);
    if n != ClassicalOracle::width(c2) {
        return Err(MatchError::WidthMismatch {
            left: n,
            right: ClassicalOracle::width(c2),
        });
    }
    if n == 0 {
        return Ok(simon_report(NegationMask::identity(0), 0));
    }
    check_simon_capacity(n, backend)?;

    let mut system = Gf2System::default();
    let mut rounds = 0usize;
    let budget = 16 * (n + 4);
    while system.rank() < n {
        if rounds >= budget {
            return Err(MatchError::RandomizedFailure {
                reason: format!("Simon sampling did not reach rank {n} in {budget} rounds"),
            });
        }
        rounds += 1;
        let word = match backend {
            QuantumBackend::Dense => simon_round_dense(c1, c2, n, rng)?,
            QuantumBackend::Stabilizer => simon_round_stabilizer(c1, c2, n, rng),
        };
        let c = word & 1 == 1;
        let y = word >> 1;
        system.insert(y, c)?;
    }
    let nu = NegationMask::new(system.solve(n), n).map_err(|_| MatchError::PromiseViolated)?;
    Ok(simon_report(nu, rounds as u64))
}

/// Rejects widths the chosen backend cannot represent, with the same
/// clean [`MatchError::Quantum`] shape on every path.
fn check_simon_capacity(n: usize, backend: QuantumBackend) -> Result<(), MatchError> {
    use revmatch_quantum::QuantumError;
    let total_qubits = 2 * n + 1;
    match backend {
        QuantumBackend::Dense if total_qubits > MAX_QUBITS => {
            Err(MatchError::Quantum(QuantumError::TooManyQubits {
                n: total_qubits,
                max: MAX_QUBITS,
            }))
        }
        QuantumBackend::Stabilizer if n + 1 > STABILIZER_MAX_QUBITS => {
            Err(MatchError::Quantum(QuantumError::TooManyQubits {
                n: n + 1,
                max: STABILIZER_MAX_QUBITS,
            }))
        }
        _ => Ok(()),
    }
}

/// One dense sampling round; returns the measured `(b, x)` word.
/// Register layout: b at qubit 0, x at 1..=n, out at n+1..=2n.
fn simon_round_dense(
    c1: &Oracle,
    c2: &Oracle,
    n: usize,
    rng: &mut impl Rng,
) -> Result<u64, MatchError> {
    let (b_q, x_off, out_off) = (0usize, 1usize, n + 1);
    let mut sv = StateVector::basis(0, 2 * n + 1);
    sv.apply_h(b_q)?;
    for i in 0..n {
        sv.apply_h(x_off + i)?;
    }
    // One query to each box, as XOR oracles controlled on b.
    c1.query_quantum_xor(&mut sv, x_off, out_off, Some((b_q, false)))?;
    c2.query_quantum_xor(&mut sv, x_off, out_off, Some((b_q, true)))?;
    // Collapse the output register.
    let _observed = sv.measure_range(out_off, n, rng)?;
    // Fourier-sample (b, x).
    sv.apply_h(b_q)?;
    for i in 0..n {
        sv.apply_h(x_off + i)?;
    }
    Ok(sv.measure_range(0, n + 1, rng)?)
}

/// One stabilizer round: the output-register measurement is commuted to
/// the front (drawing `x₀` classically), which collapses the round to
/// Fourier-sampling the coset state `(|0,x₀⟩ + |1,x₁⟩)/√2` with
/// `x₁ = C2⁻¹(C1(x₀))`, done in closed form by [`fourier_sample_coset`].
/// Charges one query to each box per round, matching the dense path's
/// accounting, and allocates nothing of its own.
///
/// `C2⁻¹` is read white-box by walking `C2`'s gates backwards (every MCT
/// gate is its own inverse). Under the promise `x₀ ⊕ x₁ = ν` in every
/// round, so the samples follow the quantum algorithm's distribution.
/// Under a false promise `x₀ ⊕ x₁` is no one fixed shift: each round
/// samples a constraint on its own `x₀ ⊕ x₁`, which a quantum run would
/// not produce, and any mask the rounds solve to is not a witness. The
/// matcher does not check it; only a white-box check of the returned
/// witness makes that difference harmless.
fn simon_round_stabilizer(c1: &Oracle, c2: &Oracle, n: usize, rng: &mut impl Rng) -> u64 {
    let x0 = rng.gen::<u64>() & width_mask(n);
    let y0 = c1.query(x0);
    let c2_gates = c2.circuit().gates();
    let x1 = c2_gates.iter().rev().fold(y0, |v, g| g.apply(v));
    c2.charge_queries(1);
    fourier_sample_coset(x0 ^ x1, n, rng)
}

/// Measures `H^{⊗(n+1)}` applied to the coset state
/// `(|0,x₀⟩ + |1,x₁⟩)/√2` in the computational basis, qubit by qubit
/// from `b` (qubit 0) up to `x`'s top line (qubit `n`), given
/// `diff = x₀ ⊕ x₁`. Bit `i` of the result is qubit `i`.
///
/// The outcome `(c, y)` is uniform over `c ⊕ y·diff = 0` (Simon's
/// constraint): with `v = 1 | (diff << 1)`, every word of even
/// `v`-parity. Measured in order, each qubit is a fair coin except
/// `p`, `v`'s highest set bit, which the qubits below it determine.
/// This draws `rng.gen_bool(0.5)` exactly where a stabilizer tableau's
/// measurement does, so it returns the tableau's word and leaves `rng`
/// in the tableau's state (the tests diff the two).
fn fourier_sample_coset(diff: u64, n: usize, rng: &mut impl Rng) -> u64 {
    let v = 1 | (diff << 1);
    let p = v.ilog2() as usize;
    let mut word = 0u64;
    for q in 0..=n {
        let one = if q == p {
            (word & v).count_ones() & 1 == 1
        } else {
            rng.gen_bool(0.5)
        };
        word |= u64::from(one) << q;
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::{Equivalence, Side};
    use crate::promise::random_instance;
    use rand::SeedableRng;
    use revmatch_quantum::Tableau;

    /// The reference [`fourier_sample_coset`] replaced: prepares the
    /// coset state `(|0,x₀⟩ + |1,x₁⟩)/√2` with X/H/CNOT on an
    /// `(n+1)`-qubit CHP tableau and Fourier-samples `(b, x)`.
    fn tableau_sample_coset(x0: u64, x1: u64, n: usize, rng: &mut impl Rng) -> u64 {
        let diff = x0 ^ x1;
        // Layout: b at qubit 0, x at 1..=n (no out register).
        let mut t = Tableau::new(n + 1);
        for i in 0..n {
            if (x0 >> i) & 1 == 1 {
                t.x(1 + i).unwrap();
            }
        }
        t.h(0).unwrap();
        for i in 0..n {
            if (diff >> i) & 1 == 1 {
                t.cnot(0, 1 + i).unwrap();
            }
        }
        for q in 0..=n {
            t.h(q).unwrap();
        }
        t.measure_range(0, n + 1, rng).unwrap()
    }

    #[test]
    fn closed_form_sample_matches_the_tableau_draw_for_draw() {
        let mut cases = rand::rngs::StdRng::seed_from_u64(24);
        for case in 0..2400 {
            let n = cases.gen_range(1..=62usize);
            let x0 = cases.gen::<u64>() & width_mask(n);
            let x1 = match case % 3 {
                0 => x0,
                1 => x0 ^ (1 << (n - 1)),
                _ => cases.gen::<u64>() & width_mask(n),
            };
            let seed = cases.gen::<u64>();
            let mut closed = rand::rngs::StdRng::seed_from_u64(seed);
            let mut tableau = rand::rngs::StdRng::seed_from_u64(seed);
            assert_eq!(
                fourier_sample_coset(x0 ^ x1, n, &mut closed),
                tableau_sample_coset(x0, x1, n, &mut tableau),
                "word: n {n}, x0 {x0:#x}, x1 {x1:#x}"
            );
            assert_eq!(
                closed.gen::<u64>(),
                tableau.gen::<u64>(),
                "next draw: n {n}, x0 {x0:#x}, x1 {x1:#x}"
            );
        }
    }

    #[test]
    fn gf2_system_solves_known_shift() {
        // ν = 0b101 over 3 bits; feed constraints for y = e_i and mixed.
        let nu = 0b101u64;
        let mut sys = Gf2System::default();
        for y in [0b001u64, 0b010, 0b111] {
            let c = ((y & nu).count_ones() & 1) == 1;
            assert!(sys.insert(y, c).unwrap());
        }
        assert_eq!(sys.rank(), 3);
        assert_eq!(sys.solve(3), nu);
    }

    #[test]
    fn gf2_system_rejects_inconsistency() {
        let mut sys = Gf2System::default();
        sys.insert(0b01, false).unwrap();
        // Same y with flipped parity is inconsistent.
        assert!(matches!(
            sys.insert(0b01, true),
            Err(MatchError::PromiseViolated)
        ));
    }

    #[test]
    fn gf2_dependent_rows_do_not_increase_rank() {
        let mut sys = Gf2System::default();
        assert!(sys.insert(0b011, true).unwrap());
        assert!(sys.insert(0b101, false).unwrap());
        // 0b110 = 0b011 ^ 0b101, parity true ^ false = true.
        assert!(!sys.insert(0b110, true).unwrap());
        assert_eq!(sys.rank(), 2);
    }

    #[test]
    fn recovers_planted_shift() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for w in 1..=6 {
            for _ in 0..3 {
                let inst = random_instance(Equivalence::new(Side::N, Side::I), w, &mut rng);
                let c1 = Oracle::new(inst.c1.clone());
                let c2 = Oracle::new(inst.c2.clone());
                let outcome = match_n_i_simon(&c1, &c2, &mut rng).unwrap();
                assert_eq!(outcome.witness.nu_x(), inst.witness.nu_x(), "width {w}");
                assert!(outcome.verdict.is_definitive());
            }
        }
    }

    #[test]
    fn round_count_is_near_n() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let w = 7;
        let mut total_rounds = 0usize;
        let trials = 10;
        for _ in 0..trials {
            let inst = random_instance(Equivalence::new(Side::N, Side::I), w, &mut rng);
            let c1 = Oracle::new(inst.c1.clone());
            let c2 = Oracle::new(inst.c2.clone());
            let outcome = match_n_i_simon(&c1, &c2, &mut rng).unwrap();
            assert_eq!(outcome.witness.nu_x(), inst.witness.nu_x());
            total_rounds += outcome.rounds as usize;
            // Each round queries both boxes once.
            assert_eq!(c1.queries() + c2.queries(), 2 * outcome.rounds);
            assert_eq!(outcome.charged_queries, c1.queries() + c2.queries());
        }
        let avg = total_rounds as f64 / trials as f64;
        // Expected n + ~1.6 rounds; generous bound.
        assert!(avg < (w + 4) as f64, "average rounds {avg} too high");
        assert!(
            avg >= w as f64,
            "cannot solve with fewer than n constraints"
        );
    }

    #[test]
    fn zero_shift_instance() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let c = revmatch_circuit::random_function_circuit(4, &mut rng);
        let c1 = Oracle::new(c.clone());
        let c2 = Oracle::new(c);
        let outcome = match_n_i_simon(&c1, &c2, &mut rng).unwrap();
        assert!(outcome.witness.nu_x().is_identity());
    }

    #[test]
    fn width_limits() {
        let c = revmatch_circuit::Circuit::new(12);
        let c1 = Oracle::new(c.clone());
        let c2 = Oracle::new(c);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        assert!(matches!(
            match_n_i_simon(&c1, &c2, &mut rng),
            Err(MatchError::Quantum(_))
        ));
    }

    #[test]
    fn backends_recover_bit_identical_witnesses() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for w in 1..=6 {
            let inst = random_instance(Equivalence::new(Side::N, Side::I), w, &mut rng);
            for backend in QuantumBackend::ALL {
                let c1 = Oracle::new(inst.c1.clone());
                let c2 = Oracle::new(inst.c2.clone());
                let mut run_rng = rand::rngs::StdRng::seed_from_u64(0xBEEF + w as u64);
                let outcome = match_n_i_simon_with(&c1, &c2, backend, &mut run_rng).unwrap();
                assert_eq!(
                    outcome.witness.nu_x(),
                    inst.witness.nu_x(),
                    "width {w}, backend {backend}"
                );
                // Accounting is uniform: two queries per round on every
                // backend, including the stabilizer's classical reduction.
                assert_eq!(c1.queries() + c2.queries(), 2 * outcome.rounds);
                assert_eq!(outcome.charged_queries, 2 * outcome.rounds);
            }
        }
    }

    #[test]
    fn stabilizer_runs_where_dense_cannot() {
        use crate::promise::random_wide_instance;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        // Width 12 (25 total qubits) — dense refuses, the stabilizer
        // runs. A bounded MCT cascade keeps per-round oracle evaluation
        // cheap (a synthesized uniform function would dominate the test).
        let inst = random_wide_instance(Equivalence::new(Side::N, Side::I), 12, 48, &mut rng);
        let c1 = Oracle::new(inst.c1.clone());
        let c2 = Oracle::new(inst.c2.clone());
        let outcome = match_n_i_simon_with(&c1, &c2, QuantumBackend::Stabilizer, &mut rng).unwrap();
        assert_eq!(outcome.witness.nu_x(), inst.witness.nu_x());
        // Width 24 — only the stabilizer reaches it.
        let inst = random_wide_instance(Equivalence::new(Side::N, Side::I), 24, 64, &mut rng);
        let c1 = Oracle::new(inst.c1.clone());
        let c2 = Oracle::new(inst.c2.clone());
        let outcome = match_n_i_simon_with(&c1, &c2, QuantumBackend::Stabilizer, &mut rng).unwrap();
        assert_eq!(outcome.witness.nu_x(), inst.witness.nu_x());
    }

    #[test]
    fn capacity_overflow_is_a_clean_error_per_backend() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let err = |w: usize, backend: QuantumBackend, rng: &mut rand::rngs::StdRng| {
            let c = revmatch_circuit::Circuit::new(w);
            match_n_i_simon_with(&Oracle::new(c.clone()), &Oracle::new(c), backend, rng)
        };
        assert!(matches!(
            err(12, QuantumBackend::Dense, &mut rng),
            Err(MatchError::Quantum(_))
        ));
        assert!(matches!(
            err(63, QuantumBackend::Stabilizer, &mut rng),
            Err(MatchError::Quantum(
                revmatch_quantum::QuantumError::TooManyQubits { .. }
            ))
        ));
        // In-capacity widths still work on each backend. The dense w9
        // ceiling is exercised via the capacity check: a full run at
        // 2^19 amplitudes belongs in the release-mode `quantum_backends`
        // bench.
        assert!(check_simon_capacity(9, QuantumBackend::Dense).is_ok());
        assert!(check_simon_capacity(10, QuantumBackend::Dense).is_err());
        assert!(err(5, QuantumBackend::Dense, &mut rng).is_ok());
        assert!(err(31, QuantumBackend::Stabilizer, &mut rng).is_ok());
        // The stabilizer's full width: a planted w62 pair whose shift
        // sets line 61, so the sampled parity bit is the top qubit.
        let inst = std::iter::repeat_with(|| {
            crate::promise::random_wide_instance(
                Equivalence::new(Side::N, Side::I),
                62,
                64,
                &mut rng,
            )
        })
        .find(|inst| inst.witness.nu_x().mask() >> 61 == 1)
        .expect("half of all planted shifts set line 61");
        let (c1, c2) = (Oracle::new(inst.c1.clone()), Oracle::new(inst.c2.clone()));
        let outcome = match_n_i_simon_with(&c1, &c2, QuantumBackend::Stabilizer, &mut rng).unwrap();
        assert_eq!(outcome.witness.nu_x(), inst.witness.nu_x());
    }

    #[test]
    fn agrees_with_algorithm1() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let config = crate::matchers::MatcherConfig::with_epsilon(1e-9);
        for w in 2..=5 {
            let inst = random_instance(Equivalence::new(Side::N, Side::I), w, &mut rng);
            let c1 = Oracle::new(inst.c1.clone());
            let c2 = Oracle::new(inst.c2.clone());
            let simon = match_n_i_simon(&c1, &c2, &mut rng).unwrap().witness.nu_x();
            let alg1 = crate::matchers::match_n_i_quantum(&c1, &c2, &config, &mut rng).unwrap();
            assert_eq!(simon, alg1, "width {w}");
        }
    }
}
