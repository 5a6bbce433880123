//! Witness verification: the single-round equivalence check.
//!
//! The paper's §3 observes that solving the *promise* problem suffices for
//! the general one: with candidate conditions in hand, one round of
//! equivalence checking validates them. This module is that round.

use rand::Rng;
use revmatch_circuit::{width_mask, Circuit, TruthTable};

use crate::error::MatchError;
use crate::witness::MatchWitness;

/// How thoroughly to check a witness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyMode {
    /// Check all `2^n` inputs (exact; `n <= 24`, the truth-table limit).
    Exhaustive,
    /// Check this many uniformly random inputs (Monte-Carlo; no false
    /// rejections, false acceptance probability `(1 - d)^k` for functions
    /// differing on a fraction `d` of inputs).
    Sampled(usize),
}

/// Checks whether `C1 = output ∘ C2 ∘ input` for the witness.
///
/// [`VerifyMode::Exhaustive`] builds both circuits' truth tables
/// (`2 · 2^n` words) and compares them entry by entry: the same
/// comparison the identification walk runs on the two tables it builds
/// once per job.
///
/// # Errors
///
/// Returns [`MatchError::WidthMismatch`] if widths are inconsistent, and
/// [`MatchError::Circuit`] with
/// [`CircuitError::WidthTooLarge`](revmatch_circuit::CircuitError::WidthTooLarge)
/// for an exhaustive check above [`TruthTable::MAX_WIDTH`] lines.
///
/// # Examples
///
/// ```
/// use revmatch::{check_witness, MatchWitness, VerifyMode};
/// use revmatch_circuit::{Circuit, Gate};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let c = Circuit::from_gates(2, [Gate::cnot(0, 1)])?;
/// let w = MatchWitness::identity(2);
/// assert!(check_witness(&c, &c, &w, VerifyMode::Exhaustive, &mut rng)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_witness(
    c1: &Circuit,
    c2: &Circuit,
    witness: &MatchWitness,
    mode: VerifyMode,
    rng: &mut impl Rng,
) -> Result<bool, MatchError> {
    check_widths(c1.width(), c2.width(), witness.width())?;
    match mode {
        VerifyMode::Exhaustive => {
            check_witness_tables(&c1.truth_table()?, &c2.truth_table()?, witness)
        }
        VerifyMode::Sampled(k) => {
            let mask = width_mask(c1.width());
            let inputs: Vec<u64> = (0..k).map(|_| rng.gen::<u64>() & mask).collect();
            // Both sides run through the bit-sliced batch evaluator: C1
            // directly, C2 inside the witness sandwich (input transform,
            // C2, output transform are each cheap table/mask operations
            // around the batch).
            let lhs = c1.apply_batch(&inputs);
            let transformed: Vec<u64> = inputs.iter().map(|&x| witness.input.apply(x)).collect();
            let mid = c2.apply_batch(&transformed);
            Ok(lhs
                .iter()
                .zip(&mid)
                .all(|(&l, &m)| l == witness.output.apply(m)))
        }
    }
}

/// The exhaustive check on truth tables already built: whether
/// `t1[x] = output(t2[input(x)])` for every `x`, stopping at the first
/// input that differs.
///
/// # Errors
///
/// Returns [`MatchError::WidthMismatch`] if widths are inconsistent.
pub(crate) fn check_witness_tables(
    t1: &TruthTable,
    t2: &TruthTable,
    witness: &MatchWitness,
) -> Result<bool, MatchError> {
    check_widths(t1.width(), t2.width(), witness.width())?;
    Ok(t1.entries().iter().enumerate().all(|(x, &y)| {
        y == witness
            .output
            .apply(t2.apply(witness.input.apply(x as u64)))
    }))
}

fn check_widths(left: usize, right: usize, witness: usize) -> Result<(), MatchError> {
    if left != right {
        return Err(MatchError::WidthMismatch { left, right });
    }
    if left != witness {
        return Err(MatchError::WidthMismatch {
            left,
            right: witness,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::{Equivalence, Side};
    use crate::promise::random_instance;
    use rand::SeedableRng;
    use revmatch_circuit::{Gate, NegationMask, NpTransform};

    #[test]
    fn accepts_planted_witnesses() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for e in Equivalence::all() {
            let inst = random_instance(e, 4, &mut rng);
            assert!(
                check_witness(
                    &inst.c1,
                    &inst.c2,
                    &inst.witness,
                    VerifyMode::Exhaustive,
                    &mut rng
                )
                .unwrap(),
                "planted witness rejected for {e}"
            );
        }
    }

    #[test]
    fn rejects_wrong_witness() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let c1 = Circuit::from_gates(3, [Gate::not(0)]).unwrap();
        let c2 = Circuit::new(3);
        // The correct witness negates line 0; the identity one is wrong.
        let w = MatchWitness::identity(3);
        assert!(!check_witness(&c1, &c2, &w, VerifyMode::Exhaustive, &mut rng).unwrap());
        // The correct one passes.
        let right = MatchWitness::output_only(
            NpTransform::new(
                NegationMask::new(0b1, 3).unwrap(),
                revmatch_circuit::LinePermutation::identity(3),
            )
            .unwrap(),
        );
        assert!(check_witness(&c1, &c2, &right, VerifyMode::Exhaustive, &mut rng).unwrap());
    }

    #[test]
    fn sampled_mode_accepts_and_rejects() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let inst = random_instance(Equivalence::new(Side::Np, Side::Np), 6, &mut rng);
        assert!(check_witness(
            &inst.c1,
            &inst.c2,
            &inst.witness,
            VerifyMode::Sampled(64),
            &mut rng
        )
        .unwrap());
        // A fresh random witness almost surely fails on 64 samples.
        let wrong = MatchWitness {
            input: NpTransform::random(6, &mut rng),
            output: NpTransform::random(6, &mut rng),
        };
        let ok = check_witness(
            &inst.c1,
            &inst.c2,
            &wrong,
            VerifyMode::Sampled(64),
            &mut rng,
        )
        .unwrap();
        assert!(!ok, "random witness accepted (astronomically unlikely)");
    }

    #[test]
    fn exhaustive_above_the_table_limit_is_an_error() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let c = Circuit::new(25);
        assert_eq!(
            check_witness(
                &c,
                &c,
                &MatchWitness::identity(25),
                VerifyMode::Exhaustive,
                &mut rng
            ),
            Err(MatchError::Circuit(
                revmatch_circuit::CircuitError::WidthTooLarge { width: 25, max: 24 }
            ))
        );
    }

    #[test]
    fn width_mismatch_is_error() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let c2 = Circuit::new(2);
        let c3 = Circuit::new(3);
        let w = MatchWitness::identity(2);
        assert!(check_witness(&c3, &c2, &w, VerifyMode::Exhaustive, &mut rng).is_err());
        assert!(check_witness(
            &c2,
            &c2,
            &MatchWitness::identity(3),
            VerifyMode::Exhaustive,
            &mut rng
        )
        .is_err());
    }
}
