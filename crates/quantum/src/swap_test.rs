//! The quantum swap test (paper Fig. 3, reference \[3\]).
//!
//! Given two `n`-qubit states `|ψ1⟩`, `|ψ2⟩`, the swap test prepares an
//! ancilla in `|0⟩`, applies `H`, controlled-swaps every qubit pair, applies
//! `H` again and measures the ancilla. The outcome is `1` with probability
//! `½ − ½|⟨ψ1|ψ2⟩|²`: identical states never give `1`; orthogonal states
//! give `1` half the time.
//!
//! Two implementations are provided and cross-validated in the tests:
//!
//! * [`SwapTestMethod::FullCircuit`] — honestly simulates the `2n+1`-qubit
//!   Fig. 3 circuit including measurement collapse;
//! * [`SwapTestMethod::Analytic`] — computes the outcome probability from
//!   the inner product and Born-samples it (usable for larger `n`).

use rand::Rng;

use crate::error::QuantumError;
use crate::state::{StateVector, MAX_QUBITS};

/// How to execute a swap test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SwapTestMethod {
    /// Simulate the full `2n+1`-qubit circuit of Fig. 3.
    FullCircuit,
    /// Sample from the analytic outcome distribution.
    #[default]
    Analytic,
}

/// The analytic probability of measuring `1`: `½ − ½|⟨ψ1|ψ2⟩|²`.
///
/// # Errors
///
/// Returns [`QuantumError::QubitCountMismatch`] if the states differ in size.
///
/// # Examples
///
/// ```
/// use revmatch_quantum::{swap_test_probability, StateVector};
///
/// let a = StateVector::basis(0, 2);
/// let b = StateVector::basis(3, 2);
/// assert_eq!(swap_test_probability(&a, &b)?, 0.5); // orthogonal
/// assert_eq!(swap_test_probability(&a, &a)?, 0.0); // identical
/// # Ok::<(), revmatch_quantum::QuantumError>(())
/// ```
pub fn swap_test_probability(psi1: &StateVector, psi2: &StateVector) -> Result<f64, QuantumError> {
    let overlap = psi1.inner_product(psi2)?.norm_sqr();
    Ok((0.5 - 0.5 * overlap).clamp(0.0, 1.0))
}

/// Runs one swap test and returns the measured ancilla bit.
///
/// # Errors
///
/// Returns [`QuantumError::QubitCountMismatch`] on size mismatch, and
/// [`QuantumError::TooManyQubits`] if `FullCircuit` is requested for states
/// too large to tensor (needs `2n + 1 <= 20` qubits).
pub fn swap_test(
    method: SwapTestMethod,
    psi1: &StateVector,
    psi2: &StateVector,
    rng: &mut impl Rng,
) -> Result<bool, QuantumError> {
    match method {
        SwapTestMethod::Analytic => {
            let p1 = swap_test_probability(psi1, psi2)?;
            Ok(rng.gen_bool(p1))
        }
        SwapTestMethod::FullCircuit => swap_test_full_circuit(psi1, psi2, rng),
    }
}

/// Simulates the complete Fig. 3 circuit: ancilla `H`, a fan of controlled
/// swaps, `H`, measurement.
///
/// Register layout: qubits `0..n` hold `ψ1`, `n..2n` hold `ψ2`, qubit `2n`
/// is the ancilla.
///
/// # Errors
///
/// Returns [`QuantumError::QubitCountMismatch`] if sizes differ or
/// [`QuantumError::TooManyQubits`] if `2n + 1` exceeds the simulator limit.
pub fn swap_test_full_circuit(
    psi1: &StateVector,
    psi2: &StateVector,
    rng: &mut impl Rng,
) -> Result<bool, QuantumError> {
    let n = psi1.num_qubits();
    if n != psi2.num_qubits() {
        return Err(QuantumError::QubitCountMismatch {
            left: n,
            right: psi2.num_qubits(),
        });
    }
    if 2 * n + 1 > MAX_QUBITS {
        return Err(QuantumError::TooManyQubits {
            n: 2 * n + 1,
            max: MAX_QUBITS,
        });
    }
    let ancilla = 2 * n;
    let mut joint = psi1.tensor(psi2)?.tensor(&StateVector::basis(0, 1))?;
    joint.apply_h(ancilla)?;
    for i in 0..n {
        joint.apply_cswap(ancilla, i, n + i)?;
    }
    joint.apply_h(ancilla)?;
    joint.measure_qubit(ancilla, rng)
}

/// Runs `shots` independent swap tests and returns the number of `1`
/// outcomes.
///
/// # Errors
///
/// Same as [`swap_test`].
pub fn swap_test_shots(
    method: SwapTestMethod,
    psi1: &StateVector,
    psi2: &StateVector,
    shots: usize,
    rng: &mut impl Rng,
) -> Result<usize, QuantumError> {
    let mut ones = 0;
    for _ in 0..shots {
        if swap_test(method, psi1, psi2, rng)? {
            ones += 1;
        }
    }
    Ok(ones)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{ProductState, Qubit};
    use rand::SeedableRng;

    #[test]
    fn identical_states_never_measure_one() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let sv = ProductState::from_qubits(vec![Qubit::Plus, Qubit::Zero, Qubit::Minus])
            .to_state_vector();
        for method in [SwapTestMethod::FullCircuit, SwapTestMethod::Analytic] {
            for _ in 0..50 {
                assert!(!swap_test(method, &sv, &sv, &mut rng).unwrap());
            }
        }
    }

    #[test]
    fn orthogonal_states_measure_one_half_the_time() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let a = StateVector::basis(0b00, 2);
        let b = StateVector::basis(0b11, 2);
        for method in [SwapTestMethod::FullCircuit, SwapTestMethod::Analytic] {
            let ones = swap_test_shots(method, &a, &b, 2000, &mut rng).unwrap();
            let freq = ones as f64 / 2000.0;
            assert!((freq - 0.5).abs() < 0.05, "{method:?}: freq = {freq}");
        }
    }

    #[test]
    fn partial_overlap_statistics_match_formula() {
        // |ψ1⟩ = |0⟩, |ψ2⟩ = |+⟩: |⟨ψ1|ψ2⟩|² = ½, so Pr[1] = ¼.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = StateVector::basis(0, 1);
        let b = ProductState::uniform(1, Qubit::Plus).to_state_vector();
        assert!((swap_test_probability(&a, &b).unwrap() - 0.25).abs() < 1e-12);
        for method in [SwapTestMethod::FullCircuit, SwapTestMethod::Analytic] {
            let ones = swap_test_shots(method, &a, &b, 4000, &mut rng).unwrap();
            let freq = ones as f64 / 4000.0;
            assert!((freq - 0.25).abs() < 0.04, "{method:?}: freq = {freq}");
        }
    }

    #[test]
    fn methods_agree_statistically() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let a = ProductState::from_qubits(vec![Qubit::Plus, Qubit::Minus]).to_state_vector();
        let b = ProductState::from_qubits(vec![Qubit::Plus, Qubit::Zero]).to_state_vector();
        let shots = 4000;
        let full = swap_test_shots(SwapTestMethod::FullCircuit, &a, &b, shots, &mut rng).unwrap();
        let fast = swap_test_shots(SwapTestMethod::Analytic, &a, &b, shots, &mut rng).unwrap();
        let diff = (full as f64 - fast as f64).abs() / shots as f64;
        assert!(diff < 0.05, "methods diverge: {full} vs {fast}");
    }

    #[test]
    fn full_circuit_rejects_large_states() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let a = StateVector::basis(0, 12);
        assert!(matches!(
            swap_test_full_circuit(&a, &a, &mut rng),
            Err(QuantumError::TooManyQubits { .. })
        ));
        // The analytic path still works.
        assert!(!swap_test(SwapTestMethod::Analytic, &a, &a, &mut rng).unwrap());
    }

    #[test]
    fn size_mismatch_is_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let a = StateVector::basis(0, 2);
        let b = StateVector::basis(0, 3);
        assert!(swap_test(SwapTestMethod::Analytic, &a, &b, &mut rng).is_err());
        assert!(swap_test(SwapTestMethod::FullCircuit, &a, &b, &mut rng).is_err());
    }

    #[test]
    fn global_phase_is_invisible() {
        // X|−⟩ = −|−⟩: the swap test cannot distinguish the global phase
        // (this is what makes the paper's ν-disabling trick sound).
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let minus = ProductState::uniform(1, Qubit::Minus).to_state_vector();
        let mut neg_minus = minus.clone();
        neg_minus.apply_x(0).unwrap();
        for method in [SwapTestMethod::FullCircuit, SwapTestMethod::Analytic] {
            for _ in 0..50 {
                assert!(!swap_test(method, &minus, &neg_minus, &mut rng).unwrap());
            }
        }
    }
}
