//! Walsh–Hadamard spectra and matching-invariant signatures.
//!
//! Classic Boolean-matching flows (paper refs \[1, 6, 8\]) prune candidate
//! pairs with *signatures*: cheap function invariants that any equivalent
//! pair must share. For reversible circuits the right invariant family
//! comes from the Walsh spectrum of each output bit:
//!
//! * input negation `ν_x` multiplies coefficients by `(−1)^{ω·ν}` —
//!   absolute values are untouched;
//! * input permutation `π_x` permutes the frequency index `ω` — the
//!   coefficient *multiset* is untouched;
//! * output negation flips the sign of a whole spectrum;
//! * output permutation permutes whole spectra.
//!
//! Hence the multiset of sorted absolute spectra (one per output bit) is
//! invariant under **all sixteen** X-Y equivalences: a mismatch proves
//! non-equivalence before any oracle query or search is spent.

use crate::circuit::Circuit;
use crate::error::CircuitError;
use crate::truth_table::TruthTable;

/// The Walsh spectrum of output bit `bit`: `W(ω) = Σ_x (−1)^{f_bit(x) ⊕ ω·x}`
/// computed with the fast Walsh–Hadamard transform in `O(n·2^n)`.
///
/// # Panics
///
/// Panics if `bit >= table.width()`.
///
/// # Examples
///
/// ```
/// use revmatch_circuit::{walsh_spectrum, TruthTable};
///
/// // f(x) = x0 on one line: perfectly correlated with ω = 1.
/// let tt = TruthTable::identity(1);
/// assert_eq!(walsh_spectrum(&tt, 0), vec![0, 2]);
/// ```
pub fn walsh_spectrum(table: &TruthTable, bit: usize) -> Vec<i64> {
    assert!(bit < table.width());
    let mut spec: Vec<i64> = table
        .entries()
        .iter()
        .map(|&y| 1 - 2 * ((y >> bit) & 1) as i64)
        .collect();
    fwht(&mut spec);
    spec
}

/// In-place fast Walsh–Hadamard transform of a `2^n`-entry vector.
fn fwht<T>(spec: &mut [T])
where
    T: Copy + std::ops::Add<Output = T> + std::ops::Sub<Output = T>,
{
    let mut h = 1;
    while h < spec.len() {
        for block in spec.chunks_exact_mut(2 * h) {
            let (lo, hi) = block.split_at_mut(h);
            for (a, b) in lo.iter_mut().zip(hi) {
                (*a, *b) = (*a + *b, *a - *b);
            }
        }
        h *= 2;
    }
}

/// A matching-invariant signature: per output bit, the multiset of
/// absolute Walsh coefficients `|W(ω)|`; the per-bit multisets
/// themselves sorted.
///
/// Two circuits equivalent under **any** X-Y condition have equal
/// signatures, so unequal signatures refute every class at once.
///
/// Each multiset is kept as a value/count list, sorted by value: one
/// `(|W|, count)` pair per *distinct* absolute coefficient, not one word
/// per `ω`. Two sorted multisets are equal exactly when their value/count
/// lists are, so equality means what it did for sorted spectra, while a
/// signature's memory per output bit is the number of distinct `|W|`
/// values (at most `2^(n−1) + 1`, and a handful for structured circuits)
/// instead of `2^n` words.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MatchSignature {
    spectra: Vec<Vec<(u64, u64)>>,
}

impl MatchSignature {
    /// Computes the signature of a truth table.
    ///
    /// All `n` spectra are transformed in one reused buffer filled
    /// straight from the table's entries, and counted into one reused
    /// histogram; nothing of size `2^n` is kept.
    pub fn of_table(table: &TruthTable) -> Self {
        let entries = table.entries();
        // |W| ≤ 2^n ≤ 2^24 fits an i32. For n ≥ 1 every coefficient
        // W = 2^n − 2·wt(f ⊕ ω·x) is even, so |W| / 2 indexes a histogram
        // of 2^(n−1) + 1 bins.
        let mut spec = vec![0i32; entries.len()];
        let mut counts = vec![0u32; entries.len() / 2 + 1];
        let mut spectra: Vec<Vec<(u64, u64)>> = (0..table.width())
            .map(|bit| {
                for (w, &y) in spec.iter_mut().zip(entries) {
                    *w = 1 - 2 * ((y >> bit) & 1) as i32;
                }
                fwht(&mut spec);
                for &w in &spec {
                    counts[(w.unsigned_abs() / 2) as usize] += 1;
                }
                // Reading a bin back empties it for the next bit.
                counts
                    .iter_mut()
                    .enumerate()
                    .filter(|(_, count)| **count > 0)
                    .map(|(half, count)| (2 * half as u64, u64::from(std::mem::take(count))))
                    .collect()
            })
            .collect();
        spectra.sort_unstable();
        Self { spectra }
    }

    /// Computes the signature of a circuit (extracts the truth table).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::WidthTooLarge`] past
    /// [`TruthTable::MAX_WIDTH`].
    pub fn of_circuit(circuit: &Circuit) -> Result<Self, CircuitError> {
        Ok(Self::of_table(&circuit.truth_table()?))
    }

    /// The per-output `(|W|, count)` lists, each sorted by `|W|`, in
    /// sorted order.
    pub fn spectra(&self) -> &[Vec<(u64, u64)>] {
        &self.spectra
    }
}

/// Quick necessary condition for X-Y matchability (any class): equal
/// signatures. `false` **proves** the circuits are not equivalent under
/// any negation/permutation condition; `true` is inconclusive.
///
/// # Errors
///
/// Returns [`CircuitError::WidthMismatch`] on width disagreement or
/// [`CircuitError::WidthTooLarge`] for tables that cannot materialize.
///
/// Note the filter cannot separate *linear* circuits (CNOT networks):
/// every XOR-of-inputs output bit has the same flat spectrum as a wire,
/// so all linear reversible functions share the identity's signature.
/// Nonlinear gates (Toffoli and up) do get separated.
///
/// # Examples
///
/// ```
/// use revmatch_circuit::{signatures_compatible, Circuit, Gate};
///
/// let toffoli = Circuit::from_gates(3, [Gate::toffoli(0, 1, 2)])?;
/// let id = Circuit::new(3);
/// // A Toffoli is not any relabeling of the identity…
/// assert!(!signatures_compatible(&toffoli, &id)?);
/// // …but a (linear) CNOT is spectrally indistinguishable from it.
/// let cnot = Circuit::from_gates(3, [Gate::cnot(0, 1)])?;
/// assert!(signatures_compatible(&cnot, &id)?);
/// # Ok::<(), revmatch_circuit::CircuitError>(())
/// ```
pub fn signatures_compatible(c1: &Circuit, c2: &Circuit) -> Result<bool, CircuitError> {
    if c1.width() != c2.width() {
        return Err(CircuitError::WidthMismatch {
            left: c1.width(),
            right: c2.width(),
        });
    }
    Ok(MatchSignature::of_circuit(c1)? == MatchSignature::of_circuit(c2)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;
    use crate::transform::{LinePermutation, NegationMask, NpTransform};
    use rand::SeedableRng;

    #[test]
    fn spectrum_of_constant_like_bits() {
        // Identity on 2 lines: bit 0 = x0 has W(01) = ±4... compute: f(x)=x0,
        // (−1)^{x0}: W(ω) = Σ_x (−1)^{x0 + ω·x}; W(01)=4·? Let's assert via
        // Parseval instead: Σ W² = 2^{2n}.
        let tt = TruthTable::identity(2);
        for bit in 0..2 {
            let spec = walsh_spectrum(&tt, bit);
            let energy: i64 = spec.iter().map(|w| w * w).sum();
            assert_eq!(energy, 16, "Parseval for bit {bit}");
        }
    }

    #[test]
    fn parseval_holds_for_random_tables() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for w in 1..=6 {
            let tt = TruthTable::random(w, &mut rng);
            for bit in 0..w {
                let spec = walsh_spectrum(&tt, bit);
                let energy: i64 = spec.iter().map(|x| x * x).sum();
                assert_eq!(energy, 1i64 << (2 * w), "width {w} bit {bit}");
            }
        }
    }

    #[test]
    fn spectrum_matches_definition_on_small_cases() {
        // Brute-force definition cross-check at width 3.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let tt = TruthTable::random(3, &mut rng);
        for bit in 0..3 {
            let fast = walsh_spectrum(&tt, bit);
            for omega in 0..8u64 {
                let slow: i64 = (0..8u64)
                    .map(|x| {
                        let f = (tt.apply(x) >> bit) & 1;
                        let dot = (omega & x).count_ones() as u64 & 1;
                        if (f ^ dot) & 1 == 1 {
                            -1
                        } else {
                            1
                        }
                    })
                    .sum();
                assert_eq!(fast[omega as usize], slow, "bit {bit} omega {omega}");
            }
        }
    }

    #[test]
    fn signature_invariant_under_all_transforms() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let base = crate::random::random_function_circuit(4, &mut rng);
            let sig = MatchSignature::of_circuit(&base).unwrap();
            // Wrap with random input and output NP transforms.
            let t_in = NpTransform::random(4, &mut rng);
            let t_out = NpTransform::random(4, &mut rng);
            let wrapped = t_in
                .to_circuit()
                .then(&base)
                .unwrap()
                .then(&t_out.to_circuit())
                .unwrap();
            assert_eq!(
                MatchSignature::of_circuit(&wrapped).unwrap(),
                sig,
                "signature changed under ({t_in}, {t_out})"
            );
        }
    }

    #[test]
    fn signature_separates_most_random_pairs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut separated = 0;
        let trials = 20;
        for _ in 0..trials {
            let a = crate::random::random_function_circuit(4, &mut rng);
            let b = crate::random::random_function_circuit(4, &mut rng);
            if !signatures_compatible(&a, &b).unwrap() {
                separated += 1;
            }
        }
        assert!(
            separated > trials / 2,
            "filter separated only {separated}/{trials} random pairs"
        );
    }

    #[test]
    fn compatible_requires_same_width() {
        let a = Circuit::new(2);
        let b = Circuit::new(3);
        assert!(signatures_compatible(&a, &b).is_err());
    }

    #[test]
    fn pure_transform_circuits_all_share_a_signature() {
        // All ν/π-only circuits are relabelings of the identity.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let id_sig = MatchSignature::of_circuit(&Circuit::new(3)).unwrap();
        for _ in 0..10 {
            let t = NpTransform::new(
                NegationMask::random(3, &mut rng),
                LinePermutation::random(3, &mut rng),
            )
            .unwrap();
            assert_eq!(MatchSignature::of_circuit(&t.to_circuit()).unwrap(), id_sig);
        }
        // But a Toffoli is not.
        let toffoli = Circuit::from_gates(3, [Gate::toffoli(0, 1, 2)]).unwrap();
        assert_ne!(MatchSignature::of_circuit(&toffoli).unwrap(), id_sig);
    }

    /// The signature as sorted absolute spectra, one `2^n` vector per
    /// output bit, the vectors themselves sorted.
    fn sorted_spectra(table: &TruthTable) -> Vec<Vec<u64>> {
        let mut spectra: Vec<Vec<u64>> = (0..table.width())
            .map(|bit| {
                let mut abs: Vec<u64> = walsh_spectrum(table, bit)
                    .into_iter()
                    .map(i64::unsigned_abs)
                    .collect();
                abs.sort_unstable();
                abs
            })
            .collect();
        spectra.sort();
        spectra
    }

    #[test]
    fn value_count_signature_agrees_with_sorted_spectra() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let relabel = |t: &TruthTable, t_in: &NpTransform, t_out: &NpTransform| {
            TruthTable::from_fn(t.width(), |x| t_out.apply(t.apply(t_in.apply(x)))).unwrap()
        };
        for w in 1..=10 {
            for _ in 0..4 {
                let a = TruthTable::random(w, &mut rng);
                let b = TruthTable::random(w, &mut rng);
                let id = NpTransform::identity(w);
                let negated = NpTransform::new(
                    NegationMask::random(w, &mut rng),
                    LinePermutation::identity(w),
                )
                .unwrap();
                let permuted = NpTransform::new(
                    NegationMask::identity(w),
                    LinePermutation::random(w, &mut rng),
                )
                .unwrap();
                let mut swapped = a.entries().to_vec();
                swapped.swap(0, 1);
                let pairs = [
                    (a.clone(), a.clone()),
                    (a.clone(), b),
                    (a.clone(), TruthTable::new(w, swapped).unwrap()),
                    (a.clone(), relabel(&a, &negated, &id)),
                    (a.clone(), relabel(&a, &id, &permuted)),
                    (
                        a.clone(),
                        relabel(
                            &a,
                            &NpTransform::random(w, &mut rng),
                            &NpTransform::random(w, &mut rng),
                        ),
                    ),
                ];
                for (x, y) in &pairs {
                    let (sx, sy) = (MatchSignature::of_table(x), MatchSignature::of_table(y));
                    assert_eq!(
                        sx == sy,
                        sorted_spectra(x) == sorted_spectra(y),
                        "w{w}: value/count equality differs from sorted-spectra equality"
                    );
                    // Each value/count list expands to its sorted spectrum.
                    let mut expanded: Vec<Vec<u64>> = sx
                        .spectra()
                        .iter()
                        .map(|list| {
                            list.iter()
                                .flat_map(|&(v, c)| std::iter::repeat_n(v, c as usize))
                                .collect()
                        })
                        .collect();
                    expanded.sort();
                    assert_eq!(expanded, sorted_spectra(x), "w{w}");
                }
            }
        }
    }
}
