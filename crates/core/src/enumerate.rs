//! Witness **enumeration**: find every transform explaining a pair.
//!
//! The matchers in [`crate::matchers`] recover *one* witness of a
//! promised pair; this module answers the stronger question — how many
//! witnesses does a family admit, and which are they? A circuit with
//! symmetries has several (the reason matchers may legitimately return a
//! witness different from a planted one), and a count of zero is a
//! complete proof of non-equivalence within the family.
//!
//! The engine is one **family miter** ([`FamilyMiter`]): the miter of
//! `C1` against `T ∘ C2 ∘ T'` where the candidate transform is *not*
//! baked into the clauses but selected by fresh **selector variables** —
//! a negation-mask bit per line, or a permutation one-hot matrix. Fixing
//! a candidate is then a set of assumption literals over the selectors:
//!
//! * `solve_under(candidate)` UNSAT ⇒ no distinguishing input exists ⇒
//!   the candidate **is** a witness;
//! * SAT ⇒ the model is a concrete counterexample for that candidate.
//!
//! Because candidates differ only in assumptions, one incremental
//! [`CdclSolver`] serves the whole family: clauses learned refuting (or
//! satisfying) one candidate prune the search for the next, instead of
//! paying a cold miter per candidate — the assumption sweep of Eén &
//! Sörensson, "Temporal induction by incremental SAT solving" (2003).
//! Assumptions leave the clause database untouched, so the serving
//! layer keeps one such solver per family warm across jobs. The tests
//! compare the sweep's witness lists with a dense-table reference that
//! checks each candidate on whole truth tables.

use std::fmt;
use std::str::FromStr;

use revmatch_circuit::{Circuit, LinePermutation, NegationMask, NpTransform};
use revmatch_sat::{CdclSolver, Clause, Cnf, Lit, Var};

use crate::equivalence::{Equivalence, Side};
use crate::error::MatchError;
use crate::miter::{encode_circuit, encode_xor};
use crate::witness::MatchWitness;

/// The candidate spaces a [`FamilyMiter`] can select over.
///
/// Each family corresponds to one equivalence class whose witnesses are
/// a pure negation mask or a pure wire permutation on one (or both)
/// sides; [`WitnessFamily::of`] maps the class to its family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WitnessFamily {
    /// Input negation masks (`N-I`): `2^n` candidates.
    InputNegation,
    /// Output negation masks (`I-N`): `2^n` candidates.
    OutputNegation,
    /// Independent input *and* output masks (`N-N`, a UNIQUE-SAT-hard
    /// class — exactly where a complete white-box sweep earns its keep):
    /// `4^n` candidates.
    BothNegations,
    /// Input wire permutations (`P-I`): `n!` candidates.
    InputPermutation,
    /// Output wire permutations (`I-P`): `n!` candidates.
    OutputPermutation,
}

impl WitnessFamily {
    /// Every family, in declaration order.
    pub const ALL: [WitnessFamily; 5] = [
        WitnessFamily::InputNegation,
        WitnessFamily::OutputNegation,
        WitnessFamily::BothNegations,
        WitnessFamily::InputPermutation,
        WitnessFamily::OutputPermutation,
    ];

    /// The equivalence class this family enumerates.
    pub fn equivalence(self) -> Equivalence {
        match self {
            Self::InputNegation => Equivalence::new(Side::N, Side::I),
            Self::OutputNegation => Equivalence::new(Side::I, Side::N),
            Self::BothNegations => Equivalence::new(Side::N, Side::N),
            Self::InputPermutation => Equivalence::new(Side::P, Side::I),
            Self::OutputPermutation => Equivalence::new(Side::I, Side::P),
        }
    }

    /// The family enumerating `e`, when one exists.
    pub fn of(e: Equivalence) -> Option<Self> {
        Self::ALL.into_iter().find(|f| f.equivalence() == e)
    }

    /// Maximum width for **full-space enumeration**: the candidate space
    /// must stay enumerable (`2^n`, `4^n` or `n!` solver calls in a
    /// sweep).
    pub fn max_width(self) -> usize {
        match self {
            Self::InputNegation | Self::OutputNegation => 14,
            Self::BothNegations => 7,
            Self::InputPermutation | Self::OutputPermutation => 7,
        }
    }

    /// Maximum width for **encoding** a [`FamilyMiter`] — wider than the
    /// enumeration cap, because callers sweeping an explicit candidate
    /// list (a bench family, a client-supplied shortlist) only pay per
    /// candidate, not for the whole space. The caps bound the encoding's
    /// size, not its correctness: a negation family adds `n` (or `2n`)
    /// selectors and XOR gates, a permutation family `n²` selectors and
    /// `2n²` multiplexer clauses, so its cap is lower.
    pub fn max_encode_width(self) -> usize {
        match self {
            Self::InputNegation | Self::OutputNegation => 24,
            Self::BothNegations => 24,
            Self::InputPermutation | Self::OutputPermutation => 11,
        }
    }

    /// Number of candidate witnesses at `width`.
    ///
    /// Only the selected family's count is computed — the factorial is
    /// never evaluated for negation families, whose widths may exceed
    /// where `n!` fits a `u64`.
    pub fn candidate_count(self, width: usize) -> u64 {
        match self {
            Self::InputNegation | Self::OutputNegation => 1u64 << width,
            Self::BothNegations => 1u64 << (2 * width),
            Self::InputPermutation | Self::OutputPermutation => (1..=width as u64).product(),
        }
    }

    /// Every candidate witness at `width`, in a deterministic order
    /// (ascending masks; lexicographic permutations).
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::EnumerationTooWide`] beyond
    /// [`WitnessFamily::max_width`].
    pub fn candidates(self, width: usize) -> Result<Vec<MatchWitness>, MatchError> {
        if width > self.max_width() {
            return Err(MatchError::EnumerationTooWide {
                width,
                max: self.max_width(),
            });
        }
        let mask_witness = |mask: u64| NegationMask::new(mask, width).expect("mask in range");
        let out = match self {
            Self::InputNegation => (0..1u64 << width)
                .map(|m| MatchWitness::input_negation(mask_witness(m)))
                .collect(),
            Self::OutputNegation => (0..1u64 << width)
                .map(|m| MatchWitness::output_negation(mask_witness(m)))
                .collect(),
            Self::BothNegations => {
                let id = LinePermutation::identity(width);
                let mut all = Vec::with_capacity(1 << (2 * width));
                for min in 0..1u64 << width {
                    for mout in 0..1u64 << width {
                        all.push(
                            MatchWitness::new(
                                NpTransform::new(mask_witness(min), id.clone())
                                    .expect("same width"),
                                NpTransform::new(mask_witness(mout), id.clone())
                                    .expect("same width"),
                            )
                            .expect("same width"),
                        );
                    }
                }
                all
            }
            Self::InputPermutation => permutations(width)
                .into_iter()
                .map(|map| {
                    MatchWitness::input_permutation(
                        LinePermutation::new(map).expect("valid permutation"),
                    )
                })
                .collect(),
            Self::OutputPermutation => permutations(width)
                .into_iter()
                .map(|map| {
                    MatchWitness::output_permutation(
                        LinePermutation::new(map).expect("valid permutation"),
                    )
                })
                .collect(),
        };
        Ok(out)
    }

    /// The stable lowercase label used in flags and metrics.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::InputNegation => "input-negation",
            Self::OutputNegation => "output-negation",
            Self::BothNegations => "both-negations",
            Self::InputPermutation => "input-permutation",
            Self::OutputPermutation => "output-permutation",
        }
    }
}

impl fmt::Display for WitnessFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for WitnessFamily {
    type Err = MatchError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .into_iter()
            .find(|f| f.as_str() == s)
            .ok_or_else(|| MatchError::Parse {
                reason: format!("unknown witness family {s:?}"),
            })
    }
}

/// Every permutation of `0..n`, lexicographic.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut all = Vec::new();
    let mut items: Vec<usize> = (0..n).collect();
    loop {
        all.push(items.clone());
        // Next lexicographic permutation (Knuth's algorithm L).
        let Some(i) = items.windows(2).rposition(|w| w[0] < w[1]) else {
            return all;
        };
        let j = items
            .iter()
            .rposition(|&x| x > items[i])
            .expect("successor exists");
        items.swap(i, j);
        items[i + 1..].reverse();
    }
}

/// A miter over a whole witness family: the shared-input equivalence
/// check of `C1` against `selector(C2)` where the candidate transform is
/// chosen by assumption literals over selector variables — see the
/// [module docs](self).
///
/// Variable layout: shared inputs `0..n`, selectors
/// `n..n + selector_count`, then Tseitin gate variables. The layout is
/// stable, so a solver built once keeps serving candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyMiter {
    /// The family formula: satisfiable under a candidate's assumptions
    /// exactly on that candidate's distinguishing inputs.
    pub cnf: Cnf,
    family: WitnessFamily,
    width: usize,
    sel_base: usize,
    sel_count: usize,
}

impl FamilyMiter {
    /// Encodes the family miter of `c1` against `family(C2)`.
    ///
    /// # Errors
    ///
    /// [`MatchError::WidthMismatch`] on width disagreement,
    /// [`MatchError::EnumerationTooWide`] beyond the family's width cap.
    pub fn build(c1: &Circuit, c2: &Circuit, family: WitnessFamily) -> Result<Self, MatchError> {
        let n = c1.width();
        if n != c2.width() {
            return Err(MatchError::WidthMismatch {
                left: n,
                right: c2.width(),
            });
        }
        if n > family.max_encode_width() {
            return Err(MatchError::EnumerationTooWide {
                width: n,
                max: family.max_encode_width(),
            });
        }
        let sel_count = match family {
            WitnessFamily::InputNegation | WitnessFamily::OutputNegation => n,
            WitnessFamily::BothNegations => 2 * n,
            WitnessFamily::InputPermutation | WitnessFamily::OutputPermutation => n * n,
        };
        let sel_base = n;
        let mut cnf = Cnf::new(n + sel_count);
        let mut next_var = n + sel_count;
        let inputs: Vec<Lit> = (0..n).map(|i| Lit::positive(Var(i))).collect();

        // C1 runs on the raw shared inputs.
        let mut state1 = inputs.clone();
        encode_circuit(c1, &mut cnf, &mut state1, &mut next_var);

        // C2 runs on the selector-transformed inputs.
        let mut state2: Vec<Lit> = match family {
            WitnessFamily::InputNegation | WitnessFamily::BothNegations => (0..n)
                .map(|j| {
                    let s = Lit::positive(Var(sel_base + j));
                    encode_xor(&mut cnf, inputs[j], s, &mut next_var)
                })
                .collect(),
            WitnessFamily::InputPermutation => (0..n)
                .map(|j| encode_mux(&mut cnf, &inputs, sel_base + j * n, &mut next_var))
                .collect(),
            WitnessFamily::OutputNegation | WitnessFamily::OutputPermutation => inputs.clone(),
        };
        encode_circuit(c2, &mut cnf, &mut state2, &mut next_var);

        // Predicted C1 output i from C2's outputs and the output-side
        // selectors, then diff_i ↔ out1_i ⊕ predicted_i; assert OR(diff).
        let out_sel_base = match family {
            WitnessFamily::OutputNegation | WitnessFamily::OutputPermutation => sel_base,
            WitnessFamily::BothNegations => sel_base + n,
            _ => 0,
        };
        let mut diff_lits = Vec::with_capacity(n);
        for (i, &a) in state1.iter().enumerate().take(n) {
            let b = match family {
                WitnessFamily::OutputNegation | WitnessFamily::BothNegations => {
                    let s = Lit::positive(Var(out_sel_base + i));
                    encode_xor(&mut cnf, state2[i], s, &mut next_var)
                }
                WitnessFamily::OutputPermutation => {
                    encode_mux(&mut cnf, &state2[..n], out_sel_base + i * n, &mut next_var)
                }
                _ => state2[i],
            };
            diff_lits.push(encode_xor(&mut cnf, a, b, &mut next_var));
        }
        cnf.add_clause(Clause::new(diff_lits));
        Ok(Self {
            cnf,
            family,
            width: n,
            sel_base,
            sel_count,
        })
    }

    /// The enumerated family.
    pub fn family(&self) -> WitnessFamily {
        self.family
    }

    /// Circuit width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of selector variables.
    pub fn selector_count(&self) -> usize {
        self.sel_count
    }

    /// The branch hint: shared input variables first (selectors are
    /// always assumed, never decided).
    pub fn input_hint(&self) -> Vec<usize> {
        (0..self.width).collect()
    }

    /// Decodes the shared input pattern (a counterexample) from a model.
    pub fn decode_input(&self, model: &[bool]) -> u64 {
        let mut input = 0u64;
        for (i, &b) in model.iter().take(self.width).enumerate() {
            if b {
                input |= 1 << i;
            }
        }
        input
    }

    /// The assumption literals fixing `candidate` — one polarity per
    /// selector variable, so the selected transform is fully determined
    /// by propagation alone.
    ///
    /// # Errors
    ///
    /// [`MatchError::WidthMismatch`] on width disagreement,
    /// [`MatchError::FamilyMismatch`] when the candidate uses transforms
    /// outside the family's class.
    pub fn assumptions(&self, candidate: &MatchWitness) -> Result<Vec<Lit>, MatchError> {
        if candidate.width() != self.width {
            return Err(MatchError::WidthMismatch {
                left: self.width,
                right: candidate.width(),
            });
        }
        if !candidate.conforms_to(self.family.equivalence()) {
            return Err(MatchError::FamilyMismatch);
        }
        let n = self.width;
        let mask_lits = |base: usize, mask: NegationMask, out: &mut Vec<Lit>| {
            for j in 0..n {
                let var = Var(base + j);
                out.push(if mask.bit(j) {
                    Lit::positive(var)
                } else {
                    Lit::negative(var)
                });
            }
        };
        let perm_lits = |base: usize, pi: &LinePermutation, out: &mut Vec<Lit>| {
            let inv = pi.inverse();
            for j in 0..n {
                let src = inv.apply_index(j);
                for k in 0..n {
                    let var = Var(base + j * n + k);
                    out.push(if k == src {
                        Lit::positive(var)
                    } else {
                        Lit::negative(var)
                    });
                }
            }
        };
        let mut lits = Vec::with_capacity(self.sel_count);
        match self.family {
            WitnessFamily::InputNegation => mask_lits(self.sel_base, candidate.nu_x(), &mut lits),
            WitnessFamily::OutputNegation => mask_lits(self.sel_base, candidate.nu_y(), &mut lits),
            WitnessFamily::BothNegations => {
                mask_lits(self.sel_base, candidate.nu_x(), &mut lits);
                mask_lits(self.sel_base + n, candidate.nu_y(), &mut lits);
            }
            WitnessFamily::InputPermutation => {
                perm_lits(self.sel_base, candidate.pi_x(), &mut lits);
            }
            WitnessFamily::OutputPermutation => {
                perm_lits(self.sel_base, candidate.pi_y(), &mut lits);
            }
        }
        Ok(lits)
    }
}

/// Selector-controlled multiplexer: fresh `out` with
/// `s_k → (out ↔ sources[k])` for the `n` selector variables starting at
/// `row_base`; returns `out`. Under a one-hot selector row the output is
/// fully propagation-determined.
fn encode_mux(cnf: &mut Cnf, sources: &[Lit], row_base: usize, next_var: &mut usize) -> Lit {
    let out = Lit::positive(Var(*next_var));
    *next_var += 1;
    for (k, &src) in sources.iter().enumerate() {
        let s = Lit::positive(Var(row_base + k));
        cnf.add_clause(Clause::new(vec![s.negated(), src.negated(), out]));
        cnf.add_clause(Clause::new(vec![s.negated(), src, out.negated()]));
    }
    out
}

/// Result of a family enumeration.
#[derive(Debug, Clone)]
pub struct WitnessEnumeration {
    /// Every witness in the family, in the deterministic candidate order
    /// of [`WitnessFamily::candidates`].
    pub witnesses: Vec<MatchWitness>,
    /// Size of the candidate space swept.
    pub candidates: u64,
    /// Solver calls spent.
    pub solves: u64,
}

impl WitnessEnumeration {
    /// Number of witnesses found.
    pub fn count(&self) -> u64 {
        self.witnesses.len() as u64
    }
}

/// Enumerates every witness of `family` explaining `(c1, c2)` with the
/// CDCL assumption sweep ([`sweep_family`] on a fresh solver).
///
/// # Errors
///
/// [`MatchError::WidthMismatch`] / [`MatchError::EnumerationTooWide`]
/// from the encoding.
pub fn enumerate_witnesses_sat(
    c1: &Circuit,
    c2: &Circuit,
    family: WitnessFamily,
) -> Result<WitnessEnumeration, MatchError> {
    let miter = FamilyMiter::build(c1, c2, family)?;
    let mut solver = CdclSolver::new(&miter.cnf).with_branch_hint(miter.input_hint());
    sweep_family(&mut solver, &miter, None)
}

/// Counts the witnesses of `family` explaining `(c1, c2)` — zero proves
/// the pair is not `family`-equivalent.
///
/// # Errors
///
/// Same as [`enumerate_witnesses_sat`].
pub fn count_witnesses_sat(
    c1: &Circuit,
    c2: &Circuit,
    family: WitnessFamily,
) -> Result<u64, MatchError> {
    Ok(enumerate_witnesses_sat(c1, c2, family)?.count())
}

/// The incremental assumption sweep over every candidate of the family,
/// on a caller-owned solver — the serving layer passes its per-shard
/// cached solver here so learned clauses persist *across jobs*, not just
/// across candidates. `budget` bounds each per-candidate solve
/// (decisions + conflicts); exhausting it aborts the enumeration with
/// [`MatchError::Inconclusive`] rather than returning a wrong count.
///
/// # Errors
///
/// [`MatchError::Inconclusive`] on budget exhaustion, plus candidate
/// encoding errors.
pub fn sweep_family(
    solver: &mut CdclSolver,
    miter: &FamilyMiter,
    budget: Option<usize>,
) -> Result<WitnessEnumeration, MatchError> {
    solver.set_budget(budget);
    let candidates = miter.family.candidates(miter.width)?;
    let mut witnesses = Vec::new();
    let mut solves = 0u64;
    for candidate in &candidates {
        let assumptions = miter.assumptions(candidate)?;
        solves += 1;
        // UNSAT collects the candidate as a witness; `Unknown` aborts the
        // enumeration (a partial count would be wrong, not merely
        // incomplete).
        match solver.solve_under_budgeted(&assumptions) {
            revmatch_sat::BudgetedAssumedSolve::Unsat { .. } => witnesses.push(candidate.clone()),
            revmatch_sat::BudgetedAssumedSolve::Sat(_) => {}
            revmatch_sat::BudgetedAssumedSolve::Unknown => return Err(MatchError::Inconclusive),
        }
    }
    Ok(WitnessEnumeration {
        witnesses,
        candidates: candidates.len() as u64,
        solves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::promise::random_instance;
    use crate::verify::{check_witness, VerifyMode};
    use rand::SeedableRng;
    use revmatch_circuit::DenseTable;

    /// Reference enumerator: a dense-table truth-table sweep over every
    /// candidate witness — `2^n` table lookups per candidate, no SAT.
    /// Returns the witnesses in candidate order.
    fn dense_table_witnesses(
        c1: &Circuit,
        c2: &Circuit,
        family: WitnessFamily,
    ) -> Vec<MatchWitness> {
        let t1 = DenseTable::compile(c1).expect("width under the dense cap");
        let t2 = DenseTable::compile(c2).expect("width under the dense cap");
        let n = c1.width();
        family
            .candidates(n)
            .expect("test widths under the cap")
            .into_iter()
            .filter(|w| (0..1u64 << n).all(|x| t1.apply(x) == w.predict(x, |v| t2.apply(v))))
            .collect()
    }

    #[test]
    fn family_maps_cover_their_classes() {
        for family in WitnessFamily::ALL {
            assert_eq!(WitnessFamily::of(family.equivalence()), Some(family));
            let parsed: WitnessFamily = family.as_str().parse().unwrap();
            assert_eq!(parsed, family);
        }
        assert_eq!(WitnessFamily::of(Equivalence::new(Side::Np, Side::I)), None);
        assert!("negation".parse::<WitnessFamily>().is_err());
    }

    #[test]
    fn candidate_counts_match_generated_lists() {
        for family in WitnessFamily::ALL {
            for width in 1..=3 {
                let listed = family.candidates(width).unwrap().len() as u64;
                assert_eq!(listed, family.candidate_count(width), "{family} w{width}");
            }
        }
        assert!(matches!(
            WitnessFamily::BothNegations.candidates(12),
            Err(MatchError::EnumerationTooWide { .. })
        ));
    }

    #[test]
    fn planted_witness_is_always_enumerated() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for family in WitnessFamily::ALL {
            let inst = random_instance(family.equivalence(), 4, &mut rng);
            let found = enumerate_witnesses_sat(&inst.c1, &inst.c2, family).unwrap();
            assert!(found.count() >= 1, "{family}: planted witness missed");
            assert!(
                found.witnesses.contains(&inst.witness),
                "{family}: planted witness not in the enumerated set"
            );
            // Every enumerated witness verifies functionally.
            for w in &found.witnesses {
                assert!(
                    check_witness(&inst.c1, &inst.c2, w, VerifyMode::Exhaustive, &mut rng).unwrap(),
                    "{family}: bogus enumerated witness {w}"
                );
            }
        }
    }

    /// The brute-force cross-check: at widths ≤ 6 the SAT sweep returns
    /// exactly the witness list of a `DenseTable` truth-table sweep over
    /// all candidates, in candidate order, for every family.
    #[test]
    fn counts_match_dense_table_sweep() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for family in WitnessFamily::ALL {
            // Keep the 4^n/n! families at moderate width; push the
            // single-mask families to 6.
            let widths: &[usize] = match family {
                WitnessFamily::InputNegation | WitnessFamily::OutputNegation => &[3, 6],
                _ => &[3, 4],
            };
            for &w in widths {
                // A planted pair (count ≥ 1) and an unrelated pair
                // (usually count 0).
                let planted = random_instance(family.equivalence(), w, &mut rng);
                let unrelated = (
                    revmatch_circuit::random_function_circuit(w, &mut rng),
                    revmatch_circuit::random_function_circuit(w, &mut rng),
                );
                for (c1, c2) in [(&planted.c1, &planted.c2), (&unrelated.0, &unrelated.1)] {
                    let reference = dense_table_witnesses(c1, c2, family);
                    let sat = enumerate_witnesses_sat(c1, c2, family).unwrap();
                    assert_eq!(
                        sat.witnesses, reference,
                        "{family} w{w}: SAT vs dense-table witnesses"
                    );
                    assert_eq!(sat.candidates, family.candidate_count(w));
                }
            }
        }
        // A witness-dense pair: x ⊕ 01 against itself under N-N, where
        // each of the 4 input masks is undone by one output mask.
        let c = NegationMask::new(0b01, 2).unwrap().to_circuit();
        let family = WitnessFamily::BothNegations;
        let sat = enumerate_witnesses_sat(&c, &c, family).unwrap();
        assert_eq!(sat.count(), 4, "one valid output mask per input mask");
        assert_eq!(sat.witnesses, dense_table_witnesses(&c, &c, family));
        let brute =
            crate::matchers::count_witnesses(&c, &c, Equivalence::new(Side::N, Side::N)).unwrap();
        assert_eq!(sat.count(), brute);
    }

    #[test]
    fn family_miter_rejects_bad_inputs() {
        let a = Circuit::new(3);
        let b = Circuit::new(4);
        assert!(matches!(
            FamilyMiter::build(&a, &b, WitnessFamily::InputNegation),
            Err(MatchError::WidthMismatch { .. })
        ));
        // Encoding caps are wider than enumeration caps: a width-9
        // BothNegations miter encodes (explicit candidate sweeps work)…
        let wide = Circuit::new(9);
        assert!(FamilyMiter::build(&wide, &wide, WitnessFamily::BothNegations).is_ok());
        // …but full-space enumeration at that width is rejected, and the
        // permutation encoding has a lower cap.
        assert!(matches!(
            enumerate_witnesses_sat(&wide, &wide, WitnessFamily::BothNegations),
            Err(MatchError::EnumerationTooWide { .. })
        ));
        let very_wide = Circuit::new(12);
        assert!(matches!(
            FamilyMiter::build(&very_wide, &very_wide, WitnessFamily::InputPermutation),
            Err(MatchError::EnumerationTooWide { .. })
        ));
        let miter = FamilyMiter::build(&a, &a, WitnessFamily::InputNegation).unwrap();
        let perm_candidate =
            MatchWitness::input_permutation(LinePermutation::new(vec![1, 0, 2]).unwrap());
        assert!(matches!(
            miter.assumptions(&perm_candidate),
            Err(MatchError::FamilyMismatch)
        ));
        let narrow = MatchWitness::identity(2);
        assert!(matches!(
            miter.assumptions(&narrow),
            Err(MatchError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn shared_solver_sweep_is_reusable_across_calls() {
        // The serving pattern: one solver, repeated sweeps of the same
        // family — the second sweep must answer identically (and not
        // spend more conflicts than the first).
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let inst = random_instance(Equivalence::new(Side::N, Side::I), 5, &mut rng);
        let miter = FamilyMiter::build(&inst.c1, &inst.c2, WitnessFamily::InputNegation).unwrap();
        let mut solver = CdclSolver::new(&miter.cnf).with_branch_hint(miter.input_hint());
        let cold = sweep_family(&mut solver, &miter, None).unwrap();
        assert!(cold.witnesses.contains(&inst.witness));
        let warm = sweep_family(&mut solver, &miter, None).unwrap();
        assert_eq!(warm.witnesses, cold.witnesses);
        // A zero budget aborts with Inconclusive instead of guessing —
        // unless the learned state answers every candidate by propagation.
        let mut fresh = CdclSolver::new(&miter.cnf).with_branch_hint(miter.input_hint());
        match sweep_family(&mut fresh, &miter, Some(0)) {
            Err(MatchError::Inconclusive) => {}
            Ok(out) => assert_eq!(out.witnesses, cold.witnesses),
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
}
