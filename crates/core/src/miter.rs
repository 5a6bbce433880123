//! SAT-based equivalence checking of reversible circuits (miters).
//!
//! The I-I case of the paper's taxonomy is plain combinational
//! equivalence checking. This module encodes MCT circuits into CNF
//! (Tseitin over the gate cascade) and builds a **miter**: a formula
//! satisfiable exactly by the inputs on which the two circuits differ.
//! `UNSAT` therefore proves equivalence, and any model is a concrete
//! counterexample.
//!
//! Unlike [`crate::verify::check_witness`] (exhaustive up to 24 lines or
//! Monte-Carlo), the miter is *complete at any width* — at the price of
//! NP-hard worst-case solving. Witness transforms are folded into the
//! miter for free: negations become literal-phase flips and permutations
//! become index remaps, so `check_witness_sat` proves or refutes a
//! recovered witness end to end.
//!
//! Encoding size: one fresh variable per gate firing condition plus one
//! per target update — `O(n + g)` variables and `O(Σ controls)` clauses.
//!
//! Solving strategy: every entry point is parameterized over
//! [`SolverBackend`] with CDCL as the default — clause learning is what
//! carries complete miter verdicts from width ~8 (the DPLL ceiling) to
//! width 14–16. The DPLL is hinted to branch on the shared input
//! variables first (every gate variable is propagation-determined once
//! the inputs are fixed, bounding its search at `2^n` nodes); CDCL takes
//! the hint only as an initial order and lets VSIDS chase the miter's
//! internal structure — resolution proofs far shorter than input
//! enumeration. The `*_budgeted`
//! variants additionally cap decisions + conflicts and return
//! [`MiterVerdict::Unknown`] instead of searching without bound — the
//! serving-safe form for untrusted or wide inputs. The DPLL backend is
//! retained for differential testing ([`SolverBackend::ALL`] sweeps).
//!
//! Callers that solve the *same* miter repeatedly (the serving layer's
//! retry of a budget-exhausted verification) should build a
//! [`MiterEncoding`] once and keep a [`revmatch_sat::CdclSolver`] on its
//! formula: learned clauses persist across calls, so re-verdicts are
//! near-free.

use revmatch_circuit::Circuit;
use revmatch_sat::{BudgetedSolve, Clause, Cnf, Lit, SolveStats, SolverBackend, Var};

use crate::error::MatchError;
use crate::witness::MatchWitness;

/// Outcome of a SAT equivalence query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatEquivalence {
    /// The circuits agree on every input (miter UNSAT).
    Equivalent,
    /// A distinguishing input was found.
    Counterexample {
        /// The input pattern on which the circuits differ.
        input: u64,
    },
}

impl SatEquivalence {
    /// Whether the verdict is equivalence.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Self::Equivalent)
    }
}

/// Outcome of a budget-limited SAT equivalence query
/// ([`check_equivalence_sat_budgeted`]).
///
/// Counterexamples are usually cheap to find (the miter is solution-rich
/// when the circuits differ); it is the UNSAT *proof* of equivalence that
/// blows up on a DPLL without clause learning. The budget converts that
/// blow-up into an explicit [`MiterVerdict::Unknown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MiterVerdict {
    /// The circuits agree on every input (miter UNSAT within budget).
    Equivalent,
    /// A distinguishing input was found.
    Counterexample {
        /// The input pattern on which the circuits differ.
        input: u64,
    },
    /// The search budget ran out before a verdict.
    Unknown {
        /// Branching decisions spent before giving up.
        decisions: usize,
        /// Conflicts reached before giving up.
        conflicts: usize,
    },
}

impl MiterVerdict {
    /// Whether the verdict is equivalence.
    pub fn is_equivalent(&self) -> bool {
        matches!(self, Self::Equivalent)
    }

    /// Whether the budget ran out before a verdict.
    pub fn is_unknown(&self) -> bool {
        matches!(self, Self::Unknown { .. })
    }
}

/// Encodes `circuit` into `cnf`, threading the line state as literals.
///
/// `state[i]` is the literal currently carrying line `i`; NOT gates flip
/// the phase with no new variables, and each controlled gate introduces a
/// firing variable and an updated target variable.
///
/// Tseitin `out ↔ a ⊕ b`; returns `out`. Shared by the baked miter's
/// diff bits and [`crate::enumerate`]'s selector gadgets, so the two
/// encodings can never diverge.
pub(crate) fn encode_xor(cnf: &mut Cnf, a: Lit, b: Lit, next_var: &mut usize) -> Lit {
    let out = Lit::positive(Var(*next_var));
    *next_var += 1;
    cnf.add_clause(Clause::new(vec![out.negated(), a, b]));
    cnf.add_clause(Clause::new(vec![out.negated(), a.negated(), b.negated()]));
    cnf.add_clause(Clause::new(vec![out, a.negated(), b]));
    cnf.add_clause(Clause::new(vec![out, a, b.negated()]));
    out
}

/// Shared with [`crate::enumerate`], whose family miters wire the same
/// gate encoding to selector-controlled input/output transforms.
pub(crate) fn encode_circuit(
    circuit: &Circuit,
    cnf: &mut Cnf,
    state: &mut [Lit],
    next_var: &mut usize,
) {
    for gate in circuit.gates() {
        if gate.control_count() == 0 {
            // NOT: pure phase flip.
            let t = gate.target();
            state[t] = state[t].negated();
            continue;
        }
        // fire <-> AND of control literals.
        let controls: Vec<Lit> = gate
            .controls()
            .map(|c| {
                let l = state[c.line];
                match c.polarity {
                    revmatch_circuit::Polarity::Positive => l,
                    revmatch_circuit::Polarity::Negative => l.negated(),
                }
            })
            .collect();
        let fire = Lit::positive(Var(*next_var));
        *next_var += 1;
        for &c in &controls {
            cnf.add_clause(Clause::new(vec![fire.negated(), c]));
        }
        let mut big = vec![fire];
        big.extend(controls.iter().map(|c| c.negated()));
        cnf.add_clause(Clause::new(big));
        // new_t <-> old_t XOR fire.
        let old = state[gate.target()];
        let new = Lit::positive(Var(*next_var));
        *next_var += 1;
        cnf.add_clause(Clause::new(vec![new.negated(), old, fire]));
        cnf.add_clause(Clause::new(vec![
            new.negated(),
            old.negated(),
            fire.negated(),
        ]));
        cnf.add_clause(Clause::new(vec![new, old.negated(), fire]));
        cnf.add_clause(Clause::new(vec![new, old, fire.negated()]));
        state[gate.target()] = new;
    }
}

/// Builds and solves the miter of `c1` against `witness ∘ c2 ∘ witness`
/// (pass [`MatchWitness::identity`] for plain equivalence) on the
/// default (CDCL) backend.
///
/// The input-side transform is applied by wiring `C2`'s encoding to
/// permuted/phase-flipped copies of the shared input literals; the
/// output-side transform by comparing `C1`'s output `i` against the
/// transformed `C2` output feeding line `i`.
///
/// # Errors
///
/// Returns [`MatchError::WidthMismatch`] on inconsistent widths.
pub fn check_witness_sat(
    c1: &Circuit,
    c2: &Circuit,
    witness: &MatchWitness,
) -> Result<SatEquivalence, MatchError> {
    check_witness_sat_with(c1, c2, witness, SolverBackend::default())
}

/// [`check_witness_sat`] on an explicit solver backend.
///
/// # Errors
///
/// Returns [`MatchError::WidthMismatch`] on inconsistent widths.
pub fn check_witness_sat_with(
    c1: &Circuit,
    c2: &Circuit,
    witness: &MatchWitness,
    backend: SolverBackend,
) -> Result<SatEquivalence, MatchError> {
    let miter = MiterEncoding::build(c1, c2, witness)?;
    // Branch on the shared inputs first: every gate variable is
    // propagation-determined once the inputs are fixed.
    match backend.solve_hinted(&miter.cnf, &miter.input_hint()) {
        revmatch_sat::Solve::Unsat => Ok(SatEquivalence::Equivalent),
        revmatch_sat::Solve::Sat(model) => Ok(SatEquivalence::Counterexample {
            input: miter.decode_input(&model),
        }),
    }
}

/// Budget-limited form of [`check_witness_sat`]: spends at most `budget`
/// decisions + conflicts before returning [`MiterVerdict::Unknown`].
/// Runs on the default (CDCL) backend.
///
/// # Errors
///
/// Returns [`MatchError::WidthMismatch`] on inconsistent widths.
pub fn check_witness_sat_budgeted(
    c1: &Circuit,
    c2: &Circuit,
    witness: &MatchWitness,
    budget: usize,
) -> Result<MiterVerdict, MatchError> {
    check_witness_sat_budgeted_with(c1, c2, witness, budget, SolverBackend::default())
}

/// [`check_witness_sat_budgeted`] on an explicit solver backend.
///
/// # Errors
///
/// Returns [`MatchError::WidthMismatch`] on inconsistent widths.
pub fn check_witness_sat_budgeted_with(
    c1: &Circuit,
    c2: &Circuit,
    witness: &MatchWitness,
    budget: usize,
    backend: SolverBackend,
) -> Result<MiterVerdict, MatchError> {
    let miter = MiterEncoding::build(c1, c2, witness)?;
    let (verdict, stats) =
        backend.solve_budgeted_hinted(&miter.cnf, &miter.input_hint(), Some(budget));
    Ok(miter.verdict_from(verdict, stats))
}

/// Budget-limited plain (I-I) equivalence check on the default (CDCL)
/// backend.
///
/// # Errors
///
/// Returns [`MatchError::WidthMismatch`] on width disagreement.
pub fn check_equivalence_sat_budgeted(
    c1: &Circuit,
    c2: &Circuit,
    budget: usize,
) -> Result<MiterVerdict, MatchError> {
    check_witness_sat_budgeted(c1, c2, &MatchWitness::identity(c1.width()), budget)
}

/// Budget-limited plain (I-I) equivalence check on an explicit backend.
///
/// # Errors
///
/// Returns [`MatchError::WidthMismatch`] on width disagreement.
pub fn check_equivalence_sat_budgeted_with(
    c1: &Circuit,
    c2: &Circuit,
    budget: usize,
    backend: SolverBackend,
) -> Result<MiterVerdict, MatchError> {
    check_witness_sat_budgeted_with(c1, c2, &MatchWitness::identity(c1.width()), budget, backend)
}

/// A fully-encoded miter: the CNF plus the shared input width needed to
/// decode counterexamples.
///
/// This is the reuse-friendly handle for callers that keep solver state
/// across repeated verdicts on the same circuit pair (the serving
/// layer's per-shard cache parks a budget-exhausted solver under the
/// circuits and witness it was built from, next to this encoding with
/// its `cnf` emptied, to decode the retry's counterexample).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiterEncoding {
    /// The miter formula: satisfiable exactly on distinguishing inputs.
    pub cnf: Cnf,
    /// Number of shared input lines (miter variables `0..inputs`).
    pub inputs: usize,
}

impl MiterEncoding {
    /// Encodes the miter of `c1` against `witness ∘ c2 ∘ witness`.
    ///
    /// # Errors
    ///
    /// Returns [`MatchError::WidthMismatch`] on inconsistent widths.
    pub fn build(c1: &Circuit, c2: &Circuit, witness: &MatchWitness) -> Result<Self, MatchError> {
        build_miter(c1, c2, witness)
    }

    /// The branch hint: shared input variables first.
    pub fn input_hint(&self) -> Vec<usize> {
        (0..self.inputs).collect()
    }

    /// Decodes the shared input pattern from a model of the miter.
    pub fn decode_input(&self, model: &[bool]) -> u64 {
        let mut input = 0u64;
        for (i, &b) in model.iter().take(self.inputs).enumerate() {
            if b {
                input |= 1 << i;
            }
        }
        input
    }

    /// Converts a budgeted solver verdict on this formula into a
    /// [`MiterVerdict`].
    pub fn verdict_from(&self, verdict: BudgetedSolve, stats: SolveStats) -> MiterVerdict {
        match verdict {
            BudgetedSolve::Unsat => MiterVerdict::Equivalent,
            BudgetedSolve::Sat(model) => MiterVerdict::Counterexample {
                input: self.decode_input(&model),
            },
            BudgetedSolve::Unknown => MiterVerdict::Unknown {
                decisions: stats.decisions,
                conflicts: stats.conflicts,
            },
        }
    }
}

/// Encodes the full miter of `c1` against `witness ∘ c2 ∘ witness`.
fn build_miter(
    c1: &Circuit,
    c2: &Circuit,
    witness: &MatchWitness,
) -> Result<MiterEncoding, MatchError> {
    let n = c1.width();
    if n != c2.width() {
        return Err(MatchError::WidthMismatch {
            left: n,
            right: c2.width(),
        });
    }
    if n != witness.width() {
        return Err(MatchError::WidthMismatch {
            left: n,
            right: witness.width(),
        });
    }
    let mut cnf = Cnf::new(n);
    let mut next_var = n;
    // Shared inputs: vars 0..n.
    let inputs: Vec<Lit> = (0..n).map(|i| Lit::positive(Var(i))).collect();

    // C1 runs on the raw inputs.
    let mut state1 = inputs.clone();
    encode_circuit(c1, &mut cnf, &mut state1, &mut next_var);

    // C2 runs on T_X(inputs): line j of C2's input carries input line
    // π_x⁻¹(j), phase-flipped by ν_x at that source line.
    let pi_x_inv = witness.pi_x().inverse();
    let nu_x = witness.nu_x();
    let mut state2: Vec<Lit> = (0..n)
        .map(|j| {
            let src = pi_x_inv.apply_index(j);
            let lit = inputs[src];
            if nu_x.bit(src) {
                lit.negated()
            } else {
                lit
            }
        })
        .collect();
    encode_circuit(c2, &mut cnf, &mut state2, &mut next_var);

    // Predicted C1 output line i = T_Y(y) at i = y[π_y⁻¹(i)] ⊕ ν_y[π_y⁻¹(i)].
    let pi_y_inv = witness.pi_y().inverse();
    let nu_y = witness.nu_y();
    // diff_i <-> (out1_i XOR predicted_i); assert OR of diffs.
    let mut diff_lits = Vec::with_capacity(n);
    for (i, &a) in state1.iter().enumerate().take(n) {
        let src = pi_y_inv.apply_index(i);
        let mut b = state2[src];
        if nu_y.bit(src) {
            b = b.negated();
        }
        diff_lits.push(encode_xor(&mut cnf, a, b, &mut next_var));
    }
    cnf.add_clause(Clause::new(diff_lits));
    Ok(MiterEncoding { cnf, inputs: n })
}

/// SAT-based plain (I-I) equivalence check: `c1 ≡ c2`?
///
/// # Errors
///
/// Returns [`MatchError::WidthMismatch`] on width disagreement.
///
/// # Examples
///
/// ```
/// use revmatch::miter::{check_equivalence_sat, SatEquivalence};
/// use revmatch_circuit::{Circuit, Gate};
///
/// let a = Circuit::from_gates(2, [Gate::not(0), Gate::not(0)])?;
/// let b = Circuit::new(2);
/// assert!(check_equivalence_sat(&a, &b)?.is_equivalent());
///
/// let c = Circuit::from_gates(2, [Gate::cnot(0, 1)])?;
/// match check_equivalence_sat(&b, &c)? {
///     SatEquivalence::Counterexample { input } => assert_eq!(input & 1, 1),
///     SatEquivalence::Equivalent => unreachable!(),
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_equivalence_sat(c1: &Circuit, c2: &Circuit) -> Result<SatEquivalence, MatchError> {
    check_witness_sat(c1, c2, &MatchWitness::identity(c1.width()))
}

/// SAT-based plain (I-I) equivalence check on an explicit backend.
///
/// # Errors
///
/// Returns [`MatchError::WidthMismatch`] on width disagreement.
pub fn check_equivalence_sat_with(
    c1: &Circuit,
    c2: &Circuit,
    backend: SolverBackend,
) -> Result<SatEquivalence, MatchError> {
    check_witness_sat_with(c1, c2, &MatchWitness::identity(c1.width()), backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::Equivalence;
    use crate::promise::random_instance;
    use rand::SeedableRng;
    use revmatch_circuit::Gate;

    #[test]
    fn identical_circuits_are_equivalent() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let c = revmatch_circuit::random_function_circuit(4, &mut rng);
        assert!(check_equivalence_sat(&c, &c).unwrap().is_equivalent());
    }

    #[test]
    fn structurally_different_equal_functions() {
        // Double-NOT vs empty; CNOT chain vs its re-synthesis.
        let a = Circuit::from_gates(3, [Gate::not(1), Gate::not(1)]).unwrap();
        assert!(check_equivalence_sat(&a, &Circuit::new(3))
            .unwrap()
            .is_equivalent());

        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let c = revmatch_circuit::random_function_circuit(4, &mut rng);
        let tt = c.truth_table().unwrap();
        let resynth =
            revmatch_circuit::synthesize(&tt, revmatch_circuit::SynthesisStrategy::Basic).unwrap();
        assert!(check_equivalence_sat(&c, &resynth).unwrap().is_equivalent());
    }

    #[test]
    fn counterexample_is_real() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let a = revmatch_circuit::random_function_circuit(4, &mut rng);
            let b = revmatch_circuit::random_function_circuit(4, &mut rng);
            match check_equivalence_sat(&a, &b).unwrap() {
                SatEquivalence::Equivalent => {
                    assert!(a.functionally_eq(&b), "SAT claims equivalence wrongly");
                }
                SatEquivalence::Counterexample { input } => {
                    assert_ne!(a.apply(input), b.apply(input), "bogus counterexample");
                }
            }
        }
    }

    #[test]
    fn witness_miters_accept_planted_witnesses() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for e in Equivalence::all() {
            let inst = random_instance(e, 4, &mut rng);
            let verdict = check_witness_sat(&inst.c1, &inst.c2, &inst.witness).unwrap();
            assert!(verdict.is_equivalent(), "{e}: planted witness refuted");
        }
    }

    #[test]
    fn witness_miters_refute_wrong_witnesses() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let e: Equivalence = "NP-NP".parse().unwrap();
        let inst = random_instance(e, 4, &mut rng);
        let wrong = MatchWitness {
            input: revmatch_circuit::NpTransform::random(4, &mut rng),
            output: revmatch_circuit::NpTransform::random(4, &mut rng),
        };
        match check_witness_sat(&inst.c1, &inst.c2, &wrong).unwrap() {
            SatEquivalence::Equivalent => {
                // Possible but astronomically unlikely; re-verify honestly.
                let ok = crate::check_witness(
                    &inst.c1,
                    &inst.c2,
                    &wrong,
                    crate::VerifyMode::Exhaustive,
                    &mut rng,
                )
                .unwrap();
                assert!(ok);
            }
            SatEquivalence::Counterexample { input } => {
                assert_ne!(
                    inst.c1.apply(input),
                    wrong.predict(input, |v| inst.c2.apply(v))
                );
            }
        }
    }

    #[test]
    fn sat_agrees_with_exhaustive_on_wider_circuits() {
        // Proving equivalence (UNSAT) forces the DPLL to cover the input
        // space with propagation; keep the width moderate.
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let e: Equivalence = "N-P".parse().unwrap();
        let inst = crate::promise::random_wide_instance(e, 10, 24, &mut rng);
        let verdict = check_witness_sat(&inst.c1, &inst.c2, &inst.witness).unwrap();
        assert!(verdict.is_equivalent());
        // Perturb the witness: must be refuted.
        let mut wrong = inst.witness.clone();
        wrong.input = revmatch_circuit::NpTransform::new(
            revmatch_circuit::NegationMask::new(wrong.nu_x().mask() ^ 1, 10).unwrap(),
            wrong.pi_x().clone(),
        )
        .unwrap();
        let verdict = check_witness_sat(&inst.c1, &inst.c2, &wrong).unwrap();
        assert!(!verdict.is_equivalent());
    }

    #[test]
    fn width_mismatch_rejected() {
        let a = Circuit::new(2);
        let b = Circuit::new(3);
        assert!(check_equivalence_sat(&a, &b).is_err());
        assert!(check_equivalence_sat_budgeted(&a, &b, 100).is_err());
    }

    #[test]
    fn budgeted_miter_agrees_with_complete_when_it_answers() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for _ in 0..8 {
            let a = revmatch_circuit::random_function_circuit(4, &mut rng);
            let b = revmatch_circuit::random_function_circuit(4, &mut rng);
            let complete = check_equivalence_sat(&a, &b).unwrap();
            match check_equivalence_sat_budgeted(&a, &b, 10_000).unwrap() {
                MiterVerdict::Equivalent => assert!(complete.is_equivalent()),
                MiterVerdict::Counterexample { input } => {
                    assert_ne!(a.apply(input), b.apply(input));
                }
                MiterVerdict::Unknown { .. } => {}
            }
        }
    }

    #[test]
    fn zero_budget_reports_unknown_on_hard_equivalence() {
        // A deep random pair at width 8 needs real branching to prove
        // equivalent; a zero budget must give up immediately instead.
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let c = revmatch_circuit::random_function_circuit(6, &mut rng);
        let tt = c.truth_table().unwrap();
        let resynth =
            revmatch_circuit::synthesize(&tt, revmatch_circuit::SynthesisStrategy::Basic).unwrap();
        let verdict = check_equivalence_sat_budgeted(&c, &resynth, 0).unwrap();
        // Either the propagation alone proves it (fine), or we get an
        // explicit Unknown — never a runaway search or a wrong verdict.
        match verdict {
            MiterVerdict::Equivalent | MiterVerdict::Unknown { .. } => {}
            MiterVerdict::Counterexample { .. } => panic!("bogus counterexample"),
        }
    }

    #[test]
    fn backends_agree_on_random_miters() {
        use revmatch_sat::SolverBackend;
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for round in 0..10 {
            let a = revmatch_circuit::random_function_circuit(5, &mut rng);
            let b = if round % 2 == 0 {
                // Functionally equal, structurally different.
                revmatch_circuit::synthesize(
                    &a.truth_table().unwrap(),
                    revmatch_circuit::SynthesisStrategy::Basic,
                )
                .unwrap()
            } else {
                revmatch_circuit::random_function_circuit(5, &mut rng)
            };
            let truth = a.functionally_eq(&b);
            for backend in SolverBackend::ALL {
                match check_equivalence_sat_with(&a, &b, backend).unwrap() {
                    SatEquivalence::Equivalent => assert!(truth, "{backend}: round {round}"),
                    SatEquivalence::Counterexample { input } => {
                        assert!(!truth, "{backend}: round {round}");
                        assert_ne!(a.apply(input), b.apply(input), "{backend}");
                    }
                }
            }
        }
    }

    #[test]
    fn cdcl_proves_wide_equivalence_unbudgeted() {
        // Width 12 is far past the practical DPLL ceiling (~8); CDCL
        // should finish the complete UNSAT proof without a budget.
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let e: Equivalence = "NP-NP".parse().unwrap();
        let inst = crate::promise::random_wide_instance(e, 12, 30, &mut rng);
        let verdict = check_witness_sat_with(
            &inst.c1,
            &inst.c2,
            &inst.witness,
            revmatch_sat::SolverBackend::Cdcl,
        )
        .unwrap();
        assert!(verdict.is_equivalent());
    }

    #[test]
    fn miter_encoding_reuse_replays_verdicts() {
        use revmatch_sat::CdclSolver;
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        let e: Equivalence = "N-P".parse().unwrap();
        let inst = crate::promise::random_wide_instance(e, 8, 20, &mut rng);
        let miter = MiterEncoding::build(&inst.c1, &inst.c2, &inst.witness).unwrap();
        let mut solver = CdclSolver::new(&miter.cnf).with_branch_hint(miter.input_hint());
        assert_eq!(solver.solve(), revmatch_sat::Solve::Unsat);
        let cold_conflicts = solver.conflicts();
        // Second verdict on the retained solver: the learned refutation
        // answers from the clause database.
        assert_eq!(solver.solve(), revmatch_sat::Solve::Unsat);
        assert!(
            solver.conflicts() <= cold_conflicts,
            "warm solve must not work harder than the cold one"
        );
    }

    #[test]
    fn not_only_circuits_use_no_gate_variables() {
        // Pure-NOT circuits encode as phase flips: the miter has only
        // input + diff variables.
        let a = Circuit::from_gates(3, [Gate::not(0), Gate::not(2)]).unwrap();
        let b = Circuit::from_gates(3, [Gate::not(2), Gate::not(0)]).unwrap();
        assert!(check_equivalence_sat(&a, &b).unwrap().is_equivalent());
    }
}
