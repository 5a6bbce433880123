//! # revmatch-circuit — reversible-circuit substrate
//!
//! The gate-level foundation of the `revmatch` Boolean-matching library:
//! multiple-controlled Toffoli (MCT) gates, reversible circuits, explicit
//! truth tables, negation/permutation transforms, transformation-based
//! synthesis, RevLib `.real` I/O and ASCII rendering.
//!
//! A reversible circuit on `n` lines computes a bijection `B^n -> B^n`
//! (paper §2.1). Patterns are `u64` words with line `i` = bit `i`.
//!
//! ## Quick tour
//!
//! ```
//! use revmatch_circuit::{synthesize, Circuit, Gate, SynthesisStrategy, TruthTable};
//! use rand::SeedableRng;
//!
//! // Build the paper's Fig. 2 circuit and simulate it.
//! let fig2 = Circuit::from_gates(3, [Gate::toffoli(0, 1, 2)])?;
//! assert_eq!(fig2.apply(0b011), 0b111);
//!
//! // Draw a uniform random reversible function and synthesize a circuit.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let table = TruthTable::random(4, &mut rng);
//! let synth = synthesize(&table, SynthesisStrategy::Bidirectional)?;
//! assert_eq!(synth.apply(3), table.apply(3));
//! # Ok::<(), revmatch_circuit::CircuitError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod bits;
pub mod circuit;
pub mod cost;
pub mod draw;
pub mod error;
pub mod gate;
pub mod optimize;
pub mod random;
pub mod real;
pub mod synthesis;
pub mod transform;
pub mod truth_table;
pub mod walsh;

pub use batch::{
    active_kernel_name, apply_kernel, avx2_available, DenseTable, Kernel, DENSE_MAX_WIDTH,
};
pub use bits::{width_mask, Bits, MAX_WIDTH};
pub use circuit::{Circuit, CircuitStats};
pub use cost::{circuit_quantum_cost, gate_quantum_cost, without_negative_controls};
pub use draw::draw;
pub use error::CircuitError;
pub use gate::{Control, Gate, Polarity};
pub use optimize::{gates_commute, peephole_optimize};
pub use random::{random_circuit, random_function_circuit, RandomCircuitSpec};
pub use real::{read_real, write_real};
pub use synthesis::{synthesize, SynthesisStrategy};
pub use transform::{LinePermutation, NegationMask, NpTransform};
pub use truth_table::TruthTable;
pub use walsh::{signatures_compatible, walsh_spectrum, MatchSignature};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_width() -> impl Strategy<Value = usize> {
        1usize..=7
    }

    proptest! {
        /// Every random MCT cascade is a bijection.
        #[test]
        fn random_circuit_is_bijective(seed in any::<u64>(), w in arb_width()) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let c = random_circuit(&RandomCircuitSpec::for_width(w), &mut rng);
            prop_assert!(c.truth_table().is_ok());
        }

        /// `inverse` really inverts, for arbitrary cascades.
        #[test]
        fn inverse_left_and_right(seed in any::<u64>(), w in arb_width()) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let c = random_circuit(&RandomCircuitSpec::for_width(w), &mut rng);
            let inv = c.inverse();
            for x in 0..1u64 << w {
                prop_assert_eq!(inv.apply(c.apply(x)), x);
                prop_assert_eq!(c.apply(inv.apply(x)), x);
            }
        }

        /// Synthesis reproduces arbitrary uniform permutations exactly.
        #[test]
        fn synthesis_exact(seed in any::<u64>(), w in 1usize..=6) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let tt = TruthTable::random(w, &mut rng);
            for strat in [SynthesisStrategy::Basic, SynthesisStrategy::Bidirectional] {
                let c = synthesize(&tt, strat).unwrap();
                for x in 0..1u64 << w {
                    prop_assert_eq!(c.apply(x), tt.apply(x));
                }
            }
        }

        /// Fig. 4 exchange identity holds for arbitrary (ν, π).
        #[test]
        fn fig4_exchange(seed in any::<u64>(), w in arb_width()) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let t = NpTransform::random(w, &mut rng);
            let (nu2, pi2) = t.exchange();
            for x in 0..1u64 << w {
                prop_assert_eq!(t.apply(x), nu2.apply(pi2.apply(x)));
            }
        }

        /// `.real` writer/parser round-trips functionally.
        #[test]
        fn real_round_trip(seed in any::<u64>(), w in arb_width()) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let c = random_circuit(&RandomCircuitSpec::for_width(w), &mut rng);
            let back = read_real(&write_real(&c)).unwrap();
            prop_assert!(c.functionally_eq(&back));
        }

        /// The peephole optimizer never changes the function and never
        /// grows the circuit.
        #[test]
        fn peephole_is_sound(seed in any::<u64>(), w in arb_width()) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let c = random_circuit(&RandomCircuitSpec::for_width(w), &mut rng);
            let padded = c.then(&c.inverse()).unwrap();
            let opt = peephole_optimize(&padded);
            prop_assert!(opt.len() <= padded.len());
            prop_assert!(opt.functionally_eq(&padded));
            let opt2 = peephole_optimize(&c);
            prop_assert!(opt2.functionally_eq(&c));
        }

        /// Permutation transport of masks commutes with pattern application.
        #[test]
        fn mask_transport(seed in any::<u64>(), w in arb_width(), x in any::<u64>()) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let pi = LinePermutation::random(w, &mut rng);
            let nu = NegationMask::random(w, &mut rng);
            let x = x & width_mask(w);
            // π(x ⊕ ν) = π(x) ⊕ π(ν).
            prop_assert_eq!(
                pi.apply(x ^ nu.mask()),
                pi.apply(x) ^ pi.permute_mask(nu.mask())
            );
        }
    }
}
