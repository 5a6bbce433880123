//! Brute-force matching: the exponential baseline for every equivalence.
//!
//! The paper's §3 notes that without the negation/permutation conditions
//! one may need exponentially many equivalence-checking rounds; this module
//! is that strategy, made concrete. It enumerates every input-side
//! transform in the allowed class and solves the output side analytically
//! in `O(2^n)` per candidate (the required output map is checked for
//! membership in its class instead of being enumerated).
//!
//! It is also the only general solver for the UNIQUE-SAT-hard types at toy
//! sizes, which is exactly how Theorems 2 and 3 predict the world must
//! look.

use revmatch_circuit::{Circuit, LinePermutation, NegationMask, NpTransform, TruthTable};

use crate::equivalence::{Equivalence, Side};
use crate::error::MatchError;
use crate::witness::MatchWitness;

/// Hard cap on the width accepted by [`brute_force_match`]
/// and [`brute_force_match_tables`].
pub const BRUTE_FORCE_MAX_WIDTH: usize = 10;

/// Exhaustively searches for a witness making `c1 = T_Y ∘ c2 ∘ T_X` with
/// the sides constrained by `equivalence`. Returns `Ok(None)` if no witness
/// exists (the pair is **not** X-Y equivalent).
///
/// Cost: `|class(X)| · 2^n` table operations; practical up to width ≈ 6 for
/// NP input classes and width ≈ 10 for N/I input classes.
///
/// # Errors
///
/// Returns [`MatchError::BruteForceTooWide`] beyond
/// [`BRUTE_FORCE_MAX_WIDTH`], or circuit errors from table extraction.
///
/// # Examples
///
/// ```
/// use revmatch::{brute_force_match, Equivalence, Side};
/// use revmatch_circuit::{Circuit, Gate};
///
/// let c2 = Circuit::from_gates(2, [Gate::cnot(0, 1)])?;
/// let c1 = Circuit::from_gates(2, [Gate::not(0)])?.then(&c2)?;
/// let witness = brute_force_match(&c1, &c2, Equivalence::new(Side::N, Side::I))?
///     .expect("pair is N-I equivalent");
/// assert_eq!(witness.nu_x().mask(), 0b01);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn brute_force_match(
    c1: &Circuit,
    c2: &Circuit,
    equivalence: Equivalence,
) -> Result<Option<MatchWitness>, MatchError> {
    check_width(c1.width(), c2.width())?;
    brute_force_match_tables(&c1.truth_table()?, &c2.truth_table()?, equivalence)
}

/// [`brute_force_match`] over pre-extracted truth tables (avoids
/// re-simulating the circuits; the identification walk passes the two
/// tables it builds once per job).
///
/// # Errors
///
/// Same as [`brute_force_match`].
pub fn brute_force_match_tables(
    tt1: &TruthTable,
    tt2: &TruthTable,
    equivalence: Equivalence,
) -> Result<Option<MatchWitness>, MatchError> {
    check_width(tt1.width(), tt2.width())?;
    let mut result = None;
    for_each_witness(tt1, tt2, equivalence, |witness| {
        result = Some(witness);
        true // stop
    });
    Ok(result)
}

/// The width checks shared by the brute-force entry points, run before
/// any table is built.
fn check_width(left: usize, right: usize) -> Result<(), MatchError> {
    if left != right {
        return Err(MatchError::WidthMismatch { left, right });
    }
    if left > BRUTE_FORCE_MAX_WIDTH {
        return Err(MatchError::BruteForceTooWide {
            width: left,
            max: BRUTE_FORCE_MAX_WIDTH,
        });
    }
    Ok(())
}

/// Enumerates the input-side transforms of `equivalence.x` in order,
/// solves each one's output side analytically, and calls `found` with
/// every witness until it returns `true`.
fn for_each_witness(
    tt1: &TruthTable,
    tt2: &TruthTable,
    equivalence: Equivalence,
    mut found: impl FnMut(MatchWitness) -> bool,
) {
    let n = tt1.width();
    let tt2_inv = tt2.inverse();
    for_each_side_transform(equivalence.x, n, |input| {
        let input_inv = input.inverse();
        // Required output map: OUT(z) = C1(IN⁻¹(C2⁻¹(z))).
        let required = |z: u64| tt1.apply(input_inv.apply(tt2_inv.apply(z)));
        recognize_np_map(n, equivalence.y, required).is_some_and(|output| {
            found(MatchWitness {
                input: input.clone(),
                output,
            })
        })
    });
}

/// Checks whether `map` (a function on `n`-bit patterns) is of the form
/// `z ↦ π(z) ⊕ d` for a wire permutation `π`, and if so whether the
/// corresponding `NpTransform` lies in class `side`. Returns the transform.
///
/// `map` is evaluated lazily: its `n + 1` values at `0` and the unit
/// vectors reject most candidates before the full `2^n` linearity check.
fn recognize_np_map(n: usize, side: Side, map: impl Fn(u64) -> u64) -> Option<NpTransform> {
    let d = map(0);
    // h(z) = map(z) ⊕ d must be linear over GF(2) and a bit permutation.
    let mut pi_map = vec![usize::MAX; n];
    let mut seen = 0u64;
    for (i, slot) in pi_map.iter_mut().enumerate() {
        let h = map(1 << i) ^ d;
        if h.count_ones() != 1 {
            return None;
        }
        let j = h.trailing_zeros() as usize;
        if j >= n || seen >> j & 1 == 1 {
            return None;
        }
        seen |= 1 << j;
        *slot = j;
    }
    let pi = LinePermutation::new(pi_map).ok()?;
    // Verify linearity on every entry.
    if !(0..1u64 << n).all(|z| pi.apply(z) ^ d == map(z)) {
        return None;
    }
    // map(z) = π(z) ⊕ d = π(z ⊕ π⁻¹(d)): negate-then-permute with
    // ν = π⁻¹(d).
    let nu = NegationMask::new(pi.inverse().apply(d), n).ok()?;
    let t = NpTransform::new(nu, pi).ok()?;
    let class_ok = match side {
        Side::I => t.is_identity(),
        Side::N => t.permutation().is_identity(),
        Side::P => t.negation().is_identity(),
        Side::Np => true,
    };
    class_ok.then_some(t)
}

/// Enumerates every transform in the class `side` over `n` lines, calling
/// `f` until it returns `true` (found).
fn for_each_side_transform(side: Side, n: usize, mut f: impl FnMut(&NpTransform) -> bool) -> bool {
    let masks: Box<dyn Iterator<Item = u64>> = match side {
        Side::I | Side::P => Box::new(std::iter::once(0u64)),
        Side::N | Side::Np => Box::new(0..1u64 << n),
    };
    match side {
        Side::I | Side::N => {
            for mask in masks {
                let t = NpTransform::new(
                    NegationMask::new(mask, n).expect("mask in range"),
                    LinePermutation::identity(n),
                )
                .expect("same width");
                if f(&t) {
                    return true;
                }
            }
            false
        }
        Side::P | Side::Np => {
            let mask_list: Vec<u64> = masks.collect();
            for_each_permutation(n, |perm| {
                let pi = LinePermutation::new(perm.to_vec()).expect("permutation");
                for &mask in &mask_list {
                    let t = NpTransform::new(
                        NegationMask::new(mask, n).expect("mask in range"),
                        pi.clone(),
                    )
                    .expect("same width");
                    if f(&t) {
                        return true;
                    }
                }
                false
            })
        }
    }
}

/// Counts **all** witnesses making `c1 = T_Y ∘ c2 ∘ T_X` within the
/// class — the witness multiplicity induced by the circuits' symmetries.
///
/// A count above 1 explains why matchers may legitimately return a
/// witness different from a planted one; a count of 0 proves
/// non-equivalence.
///
/// # Errors
///
/// Same as [`brute_force_match`].
///
/// # Examples
///
/// ```
/// use revmatch::{count_witnesses, Equivalence, Side};
/// use revmatch_circuit::{Circuit, Gate, NegationMask};
///
/// // C(x) = x ⊕ 01 matched against itself under N-N: any input mask can
/// // be undone by the same output mask, so all 4 masks are witnesses.
/// let c = NegationMask::new(0b01, 2)?.to_circuit();
/// let count = count_witnesses(&c, &c, Equivalence::new(Side::N, Side::N))?;
/// assert_eq!(count, 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn count_witnesses(
    c1: &Circuit,
    c2: &Circuit,
    equivalence: Equivalence,
) -> Result<u64, MatchError> {
    check_width(c1.width(), c2.width())?;
    let mut count = 0u64;
    for_each_witness(&c1.truth_table()?, &c2.truth_table()?, equivalence, |_| {
        count += 1;
        false // keep enumerating
    });
    Ok(count)
}

/// Heap's algorithm; calls `f` with each permutation of `0..n` until it
/// returns `true`.
fn for_each_permutation(n: usize, mut f: impl FnMut(&[usize]) -> bool) -> bool {
    let mut items: Vec<usize> = (0..n).collect();
    if f(&items) {
        return true;
    }
    let mut c = vec![0usize; n];
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                items.swap(0, i);
            } else {
                items.swap(c[i], i);
            }
            if f(&items) {
                return true;
            }
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::promise::random_instance;
    use crate::verify::{check_witness, VerifyMode};
    use rand::SeedableRng;

    #[test]
    fn finds_witness_for_every_equivalence_type() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for e in Equivalence::all() {
            let inst = random_instance(e, 4, &mut rng);
            let w = brute_force_match(&inst.c1, &inst.c2, e)
                .unwrap()
                .unwrap_or_else(|| panic!("no witness found for {e}"));
            assert!(w.conforms_to(e), "{e}");
            assert!(
                check_witness(&inst.c1, &inst.c2, &w, VerifyMode::Exhaustive, &mut rng).unwrap(),
                "{e}"
            );
        }
    }

    #[test]
    fn reports_non_equivalence() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        // Two unrelated random functions are almost surely not N-N
        // equivalent at width 4 (the class has 256 candidates vs 16! pairs).
        let a = revmatch_circuit::random_function_circuit(4, &mut rng);
        let b = revmatch_circuit::random_function_circuit(4, &mut rng);
        let found = brute_force_match(&a, &b, Equivalence::new(Side::N, Side::N)).unwrap();
        assert!(found.is_none());
    }

    #[test]
    fn width_cap_enforced() {
        let c = Circuit::new(12);
        assert!(matches!(
            brute_force_match(&c, &c, Equivalence::new(Side::I, Side::I)),
            Err(MatchError::BruteForceTooWide { .. })
        ));
    }

    /// A full table as the lazy map `recognize_np_map` reads.
    fn table(map: &[u64]) -> impl Fn(u64) -> u64 + '_ {
        |z| map[z as usize]
    }

    #[test]
    fn recognize_rejects_nonlinear_maps() {
        // A bijection that is not affine over GF(2): a CNOT-like map whose
        // h(e_1) = 3 is not one-hot.
        let map = vec![0u64, 1, 3, 2];
        assert!(recognize_np_map(2, Side::Np, table(&map)).is_none());
        // Swapping 0 and 3 only is not affine either: h(3) = 3 ^ d fails
        // the full-table linearity check.
        let map = vec![3u64, 1, 2, 0];
        // This one IS affine (π = bit swap, ν = 11) — document the
        // counterintuitive case by asserting it is recognized.
        assert!(recognize_np_map(2, Side::Np, table(&map)).is_some());
        // A genuinely nonlinear example on 3 lines: Toffoli.
        let toffoli: Vec<u64> = (0..8)
            .map(|z: u64| {
                let t = (z & 1) & ((z >> 1) & 1);
                z ^ (t << 2)
            })
            .collect();
        assert!(recognize_np_map(3, Side::Np, table(&toffoli)).is_none());
    }

    #[test]
    fn recognize_accepts_pure_classes() {
        // Identity.
        let id: Vec<u64> = (0..8).collect();
        let t = recognize_np_map(3, Side::I, table(&id)).unwrap();
        assert!(t.is_identity());
        // Pure negation.
        let neg: Vec<u64> = (0..8).map(|z| z ^ 0b101).collect();
        assert!(recognize_np_map(3, Side::N, table(&neg)).is_some());
        assert!(recognize_np_map(3, Side::P, table(&neg)).is_none());
        // Pure permutation (swap bits 0,1).
        let pi = LinePermutation::new(vec![1, 0, 2]).unwrap();
        let perm: Vec<u64> = (0..8).map(|z| pi.apply(z)).collect();
        assert!(recognize_np_map(3, Side::P, table(&perm)).is_some());
        assert!(recognize_np_map(3, Side::N, table(&perm)).is_none());
    }

    #[test]
    fn identity_pair_matches_trivially() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let c = revmatch_circuit::random_function_circuit(3, &mut rng);
        let w = brute_force_match(&c, &c, Equivalence::new(Side::I, Side::I))
            .unwrap()
            .unwrap();
        assert!(w.input.is_identity() && w.output.is_identity());
    }

    #[test]
    fn witness_counting() {
        // Identity vs identity under N-I: only ν = 0 works.
        let id = Circuit::new(3);
        assert_eq!(
            count_witnesses(&id, &id, Equivalence::new(Side::N, Side::I)).unwrap(),
            1
        );
        // Identity vs identity under P-P: π_y must equal π_x⁻¹ — one
        // witness per permutation.
        assert_eq!(
            count_witnesses(&id, &id, Equivalence::new(Side::P, Side::P)).unwrap(),
            6
        );
        // A generic random function typically has a unique NP-I witness.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let c = revmatch_circuit::random_function_circuit(4, &mut rng);
        let inst =
            crate::promise::random_instance_from(c, Equivalence::new(Side::Np, Side::I), &mut rng);
        let count =
            count_witnesses(&inst.c1, &inst.c2, Equivalence::new(Side::Np, Side::I)).unwrap();
        assert!(count >= 1);
        // Non-equivalent pairs count zero.
        let a = revmatch_circuit::random_function_circuit(3, &mut rng);
        let b = revmatch_circuit::random_function_circuit(3, &mut rng);
        if !a.functionally_eq(&b) {
            assert_eq!(
                count_witnesses(&a, &b, Equivalence::new(Side::I, Side::I)).unwrap(),
                0
            );
        }
    }

    #[test]
    fn permutation_enumeration_is_complete() {
        let mut count = 0;
        for_each_permutation(4, |_| {
            count += 1;
            false
        });
        assert_eq!(count, 24);
    }

    #[test]
    fn early_exit_works() {
        let mut count = 0;
        let found = for_each_permutation(4, |p| {
            count += 1;
            p[0] == 1
        });
        assert!(found);
        assert!(count < 24);
    }
}
