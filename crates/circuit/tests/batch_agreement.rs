//! Property tests: both batched backends — the bit-sliced
//! `Circuit::apply_batch` and a compiled `TruthTable` — agree with
//! per-probe scalar `apply` on random circuits of widths 1–16.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use revmatch_circuit::{random_circuit, width_mask, RandomCircuitSpec, TruthTable};

proptest! {
    /// `apply_batch` and `TruthTable` (batched and per probe) equal
    /// per-probe `apply`, for any seed, width 1–16, and batch length
    /// (including non-multiples of 64).
    #[test]
    fn all_backends_equal_scalar_apply(
        seed in any::<u64>(),
        width in 1usize..=16,
        len in 0usize..=150,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let circuit = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
        let mask = width_mask(width);
        let xs: Vec<u64> = (0..len).map(|_| rng.gen::<u64>() & mask).collect();

        let scalar: Vec<u64> = xs.iter().map(|&x| circuit.apply(x)).collect();
        prop_assert_eq!(&circuit.apply_batch(&xs), &scalar);

        let dense = TruthTable::compile(&circuit).unwrap();
        prop_assert_eq!(&dense.apply_batch(&xs), &scalar);
        for (&x, &y) in xs.iter().zip(&scalar) {
            prop_assert_eq!(dense.apply(x), y);
        }
    }

    /// Exhaustive agreement on every input for small widths: the
    /// compiled table and batched evaluation over the full domain both
    /// reproduce per-probe `apply`.
    #[test]
    fn exhaustive_domain_agreement(seed in any::<u64>(), width in 1usize..=10) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let circuit = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
        let inputs: Vec<u64> = (0..1u64 << width).collect();
        let batched = circuit.apply_batch(&inputs);
        let table = circuit.truth_table().unwrap();
        for x in inputs {
            let y = circuit.apply(x);
            prop_assert_eq!(table.apply(x), y);
            prop_assert_eq!(batched[x as usize], y);
        }
    }
}
