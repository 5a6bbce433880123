//! # revmatch-quantum — state-vector simulation for reversible-circuit matching
//!
//! The quantum substrate behind the paper's Algorithm 1 (N-I equivalence),
//! the NP-I matcher and the Simon-style hidden-shift matcher: complex
//! amplitudes, dense state vectors, the product-state preparation language
//! `{|0⟩, |1⟩, |+⟩, |−⟩}`, application of reversible circuits to
//! superposition inputs, XOR and phase oracles, measurement with collapse,
//! and the swap test of Fig. 3.
//!
//! Two simulation substrates back those algorithms — see
//! [`QuantumBackend`] for the dispatch: the dense reference
//! [`StateVector`], on which every swap test runs, and the
//! Clifford-only stabilizer [`Tableau`], the reference for the Simon
//! matcher's closed-form stabilizer round (any width up to 63 qubits).
//!
//! ## Example: the `|+⟩`-blanket trick of Algorithm 1
//!
//! A NOT gate acting on `|+⟩` has no effect (`X|+⟩ = |+⟩`), so preparing
//! every line except line `i` in `|+⟩` isolates the negation on line `i`:
//!
//! ```
//! use revmatch_quantum::{swap_test, ProductState, Qubit, SwapTestMethod};
//! use revmatch_circuit::{Circuit, Gate};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let c1 = Circuit::from_gates(2, [Gate::not(0)])?; // negates line 0
//! let c2 = Circuit::new(2);
//!
//! // Probe line 0: |0⟩ on line 0, |+⟩ on line 1.
//! let probe = ProductState::uniform(2, Qubit::Plus).with_qubit(0, Qubit::Zero);
//! let out1 = probe.to_state_vector().applied_circuit(&c1, 0)?;
//! let out2 = probe.to_state_vector().applied_circuit(&c2, 0)?;
//!
//! // Orthogonal outputs: the swap test fires 1 with probability ½.
//! let mut saw_one = false;
//! for _ in 0..64 {
//!     saw_one |= swap_test(SwapTestMethod::FullCircuit, &out1, &out2, &mut rng)?;
//! }
//! assert!(saw_one);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod complex;
pub mod error;
pub mod stabilizer;
pub mod state;
pub mod swap_test;

pub use backend::QuantumBackend;
pub use complex::Complex;
pub use error::QuantumError;
pub use stabilizer::{Tableau, STABILIZER_MAX_QUBITS};
pub use state::{ProductState, Qubit, StateVector, MAX_QUBITS};
pub use swap_test::{
    swap_test, swap_test_full_circuit, swap_test_probability, swap_test_shots, SwapTestMethod,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn arb_qubit() -> impl Strategy<Value = Qubit> {
        prop_oneof![
            Just(Qubit::Zero),
            Just(Qubit::One),
            Just(Qubit::Plus),
            Just(Qubit::Minus),
        ]
    }

    proptest! {
        /// Product-state expansion always yields a unit-norm vector.
        #[test]
        fn product_states_are_normalized(qs in proptest::collection::vec(arb_qubit(), 1..=6)) {
            let sv = ProductState::from_qubits(qs).to_state_vector();
            prop_assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
        }

        /// Reversible circuits preserve norms and inner products (unitarity).
        #[test]
        fn circuits_are_unitary(
            seed in any::<u64>(),
            qs1 in proptest::collection::vec(arb_qubit(), 4..=4),
            qs2 in proptest::collection::vec(arb_qubit(), 4..=4),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let circ = revmatch_circuit::random_circuit(
                &revmatch_circuit::RandomCircuitSpec::for_width(4),
                &mut rng,
            );
            let a = ProductState::from_qubits(qs1).to_state_vector();
            let b = ProductState::from_qubits(qs2).to_state_vector();
            let before = a.inner_product(&b).unwrap();
            let a2 = a.applied_circuit(&circ, 0).unwrap();
            let b2 = b.applied_circuit(&circ, 0).unwrap();
            prop_assert!((a2.norm_sqr() - 1.0).abs() < 1e-9);
            let after = a2.inner_product(&b2).unwrap();
            prop_assert!(before.approx_eq(after, 1e-9));
        }

        /// Swap-test probability is within [0, ½] and zero for identical
        /// preparations.
        #[test]
        fn swap_test_probability_bounds(
            qs1 in proptest::collection::vec(arb_qubit(), 3..=3),
            qs2 in proptest::collection::vec(arb_qubit(), 3..=3),
        ) {
            let a = ProductState::from_qubits(qs1.clone()).to_state_vector();
            let b = ProductState::from_qubits(qs2.clone()).to_state_vector();
            let p = swap_test_probability(&a, &b).unwrap();
            prop_assert!((0.0..=0.5).contains(&p));
            if qs1 == qs2 {
                prop_assert!(p < 1e-12);
            }
        }

        /// The analytic inner product of product states matches the dense one.
        #[test]
        fn product_inner_product_consistent(
            (qs1, qs2) in (1usize..=5).prop_flat_map(|n| (
                proptest::collection::vec(arb_qubit(), n),
                proptest::collection::vec(arb_qubit(), n),
            )),
        ) {
            let p1 = ProductState::from_qubits(qs1);
            let p2 = ProductState::from_qubits(qs2);
            let analytic = p1.inner_product(&p2).unwrap();
            let dense = p1.to_state_vector().inner_product(&p2.to_state_vector()).unwrap();
            prop_assert!(analytic.approx_eq(dense, 1e-9));
        }
    }
}
