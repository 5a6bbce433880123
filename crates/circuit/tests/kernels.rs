//! Differential property tests for the evaluation kernels: the scalar
//! reference ≡ Wide256 ≡ Wide256Portable ≡ TruthTable, bit for bit, on
//! random circuits × random probe sets.
//!
//! The probe-set strategy deliberately lands on every block-boundary
//! regime the kernels special-case — tails shorter than 64, exactly 64,
//! and more than 256 probes — and the width strategy straddles the
//! half-word packing cutoff (width 32 packs, width 33 does not).
//! `Wide256` resolves to AVX2 where the CPU has it and `Wide256Portable`
//! never does, so running both *is* the two-dispatch-path comparison;
//! on non-AVX2 hosts the pair degenerates to portable-vs-portable and
//! the suite still passes (trivially for that pair).

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use revmatch_circuit::{
    apply_kernel, random_circuit, width_mask, Kernel, RandomCircuitSpec, TruthTable,
};

/// The boundary-heavy width set: 1 (degenerate lanes), 12 (bench
/// width), 31/32 (widest packed), 33 (narrowest unpacked), 64 (full
/// word).
const WIDTHS: [usize; 6] = [1, 12, 31, 32, 33, 64];

/// Batch lengths covering every tail regime: empty, short tail (< 64),
/// exactly one 64-probe transpose block, one block + tail, exactly one
/// wide packed block (512), and > 256 with a ragged tail.
const LENS: [usize; 8] = [0, 1, 37, 63, 64, 65, 512, 709];

proptest! {
    /// Every kernel equals per-probe scalar `apply` for any seed, over
    /// the width × length boundary matrix.
    #[test]
    fn kernels_equal_scalar_apply(
        seed in any::<u64>(),
        width_sel in 0usize..WIDTHS.len(),
        len_sel in 0usize..LENS.len(),
    ) {
        let width = WIDTHS[width_sel];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let circuit = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
        let mask = width_mask(width);
        let xs: Vec<u64> = (0..LENS[len_sel]).map(|_| rng.gen::<u64>() & mask).collect();
        let scalar: Vec<u64> = xs.iter().map(|&x| circuit.apply(x)).collect();
        for kernel in Kernel::ALL {
            prop_assert_eq!(&apply_kernel(&circuit, kernel, &xs), &scalar, "{}", kernel);
        }
    }

    /// Free-form lengths (not just the boundary set): the AVX2 and
    /// portable wide paths agree with each other and with scalar.
    #[test]
    fn wide_dispatch_paths_agree(
        seed in any::<u64>(),
        width in 1usize..=33,
        len in 0usize..=600,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let circuit = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
        let mask = width_mask(width);
        let xs: Vec<u64> = (0..len).map(|_| rng.gen::<u64>() & mask).collect();
        let scalar: Vec<u64> = xs.iter().map(|&x| circuit.apply(x)).collect();
        let avx = apply_kernel(&circuit, Kernel::Wide256, &xs);
        let portable = apply_kernel(&circuit, Kernel::Wide256Portable, &xs);
        prop_assert_eq!(&avx, &portable);
        prop_assert_eq!(&avx, &scalar);
    }

    /// Every compile kernel builds the same truth table, and the table
    /// agrees with every probe kernel over its whole domain. Cascades of
    /// 1–300 gates reach every compile arm: the in-place pass (≤ 16
    /// gates, or `gates × 2^n ≤ 8192` under 512 entries), the batched
    /// walk (longer cascades at w5–8) and the packed sweep (w ≥ 9).
    #[test]
    fn dense_tables_identical_across_kernels(
        seed in any::<u64>(),
        width in 1usize..=12,
        gate_count in 1usize..=300,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let spec = RandomCircuitSpec { gate_count, ..RandomCircuitSpec::for_width(width) };
        let circuit = random_circuit(&spec, &mut rng);
        let reference = TruthTable::compile_with(&circuit, Kernel::Scalar).unwrap();
        for kernel in Kernel::ALL {
            let table = TruthTable::compile_with(&circuit, kernel).unwrap();
            prop_assert_eq!(table.entries(), reference.entries(), "{}", kernel);
        }
        let inputs: Vec<u64> = (0..1u64 << width).collect();
        for kernel in Kernel::ALL {
            let swept = apply_kernel(&circuit, kernel, &inputs);
            prop_assert_eq!(&swept[..], reference.entries(), "sweep {}", kernel);
        }
    }
}
