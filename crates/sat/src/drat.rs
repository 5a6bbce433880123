//! An in-tree DRAT proof checker — independent verification of UNSAT.
//!
//! A SAT answer is self-certifying (evaluate the model); an UNSAT
//! answer historically meant "trust the solver". DRAT closes that gap:
//! the solver logs every learned clause (addition) and every discarded
//! one (deletion), ending with the empty clause, and a *separate*,
//! much simpler program re-derives the refutation. This module is that
//! program: [`check_drat_unsat`] verifies each added clause by
//! **reverse unit propagation** (RUP) — assume the clause's negation,
//! propagate units over the current database, and demand a conflict —
//! and accepts only proofs that derive the empty clause.
//!
//! The checker shares nothing with the solver core beyond the
//! [`Cnf`] type: propagation here is a deliberately simple
//! occurrence-list walk, so a bug in the solver's two-watched-literal
//! engine, its clause-database bookkeeping, or its conflict analysis
//! cannot also hide here. Pair a [`crate::CdclSolver::with_proof`]
//! solve with this checker (or the `dratcheck` binary, which speaks
//! standard DIMACS + DRAT files and interoperates with external
//! tools) and "the solver said UNSAT" becomes auditable.
//!
//! Clauses are compared as sets (sorted, deduplicated), so the
//! solver's internal literal reordering never causes a spurious
//! deletion mismatch.

use std::collections::HashMap;

use crate::cnf::Cnf;
use crate::error::SatError;

/// Outcome summary of a successful [`check_drat_unsat`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DratReport {
    /// Clause additions verified by reverse unit propagation.
    pub additions: usize,
    /// Deletions applied.
    pub deletions: usize,
}

/// One parsed proof step: `delete` distinguishes `d` lines. Literals
/// are DIMACS-style (1-based, sign = polarity), sorted and deduplicated.
#[derive(Debug, Clone)]
struct Step {
    delete: bool,
    lits: Vec<i32>,
}

/// The clause database during checking: clauses as canonical literal
/// sets, a liveness flag each, and occurrence lists for propagation.
struct Db {
    clauses: Vec<Vec<i32>>,
    alive: Vec<bool>,
    /// Canonical lits → indices (live or dead; liveness checked lazily).
    index: HashMap<Vec<i32>, Vec<usize>>,
    /// Literal → clauses containing it; key via [`lit_key`].
    occ: Vec<Vec<usize>>,
    /// Variable assignment: 0 unknown, 1 true, -1 false.
    assign: Vec<i8>,
}

/// Dense index of a DIMACS literal: `2 * (|l| - 1) + (l < 0)`.
fn lit_key(l: i32) -> usize {
    ((l.unsigned_abs() as usize) - 1) * 2 + usize::from(l < 0)
}

fn canonical(mut lits: Vec<i32>) -> Vec<i32> {
    lits.sort_unstable();
    lits.dedup();
    lits
}

fn tautological(sorted: &[i32]) -> bool {
    // After an integer sort, l and -l are not adjacent; check via pairs.
    sorted
        .iter()
        .any(|&l| l > 0 && sorted.binary_search(&-l).is_ok())
}

impl Db {
    fn add(&mut self, lits: Vec<i32>) {
        let ci = self.clauses.len();
        self.alive.push(true);
        self.index.entry(lits.clone()).or_default().push(ci);
        for &l in &lits {
            let k = lit_key(l);
            if k >= self.occ.len() {
                self.occ.resize(k + 2, Vec::new());
            }
            self.occ[k].push(ci);
        }
        let max_var = lits.iter().map(|l| l.unsigned_abs() as usize).max();
        if let Some(mv) = max_var {
            if mv > self.assign.len() {
                self.assign.resize(mv, 0);
            }
        }
        self.clauses.push(lits);
    }

    fn value(&self, l: i32) -> i8 {
        let a = self.assign[(l.unsigned_abs() as usize) - 1];
        if l < 0 {
            -a
        } else {
            a
        }
    }

    /// Reverse-unit-propagation check: assuming `¬clause`, does unit
    /// propagation over the live database reach a conflict?
    fn rup(&mut self, clause: &[i32]) -> bool {
        let mut trail: Vec<i32> = Vec::new();
        let mut conflict = false;
        // Assume the negation; a tautological clause conflicts here.
        for &l in clause {
            match self.value(-l) {
                1 => {}
                -1 => {
                    conflict = true;
                    break;
                }
                _ => {
                    self.assign[(l.unsigned_abs() as usize) - 1] = if l > 0 { -1 } else { 1 };
                    trail.push(-l);
                }
            }
        }
        // Initial sweep: existing units (and conflicts) that owe nothing
        // to the assumed literals.
        if !conflict {
            for ci in 0..self.clauses.len() {
                if !self.alive[ci] {
                    continue;
                }
                match self.clause_state(ci) {
                    ClauseState::Satisfied | ClauseState::Open => {}
                    ClauseState::Unit(l) => {
                        self.assign[(l.unsigned_abs() as usize) - 1] = if l > 0 { 1 } else { -1 };
                        trail.push(l);
                    }
                    ClauseState::Conflict => {
                        conflict = true;
                        break;
                    }
                }
            }
        }
        // Queue-driven propagation: only clauses containing a literal
        // falsified since the last visit can turn unit.
        let mut head = 0;
        while !conflict && head < trail.len() {
            let falsified = -trail[head];
            head += 1;
            let key = lit_key(falsified);
            if key >= self.occ.len() {
                continue;
            }
            for i in 0..self.occ[key].len() {
                let ci = self.occ[key][i];
                if !self.alive[ci] {
                    continue;
                }
                match self.clause_state(ci) {
                    ClauseState::Satisfied | ClauseState::Open => {}
                    ClauseState::Unit(l) => {
                        self.assign[(l.unsigned_abs() as usize) - 1] = if l > 0 { 1 } else { -1 };
                        trail.push(l);
                    }
                    ClauseState::Conflict => {
                        conflict = true;
                        break;
                    }
                }
            }
        }
        for l in trail {
            self.assign[(l.unsigned_abs() as usize) - 1] = 0;
        }
        conflict
    }

    fn clause_state(&self, ci: usize) -> ClauseState {
        let mut unassigned = None;
        let mut open = 0;
        for &l in &self.clauses[ci] {
            match self.value(l) {
                1 => return ClauseState::Satisfied,
                -1 => {}
                _ => {
                    open += 1;
                    unassigned = Some(l);
                }
            }
        }
        match (open, unassigned) {
            (0, _) => ClauseState::Conflict,
            (1, Some(l)) => ClauseState::Unit(l),
            _ => ClauseState::Open,
        }
    }
}

enum ClauseState {
    Satisfied,
    Conflict,
    Unit(i32),
    Open,
}

fn parse_proof(proof: &str) -> Result<Vec<Step>, SatError> {
    let mut steps = Vec::new();
    let mut lits: Vec<i32> = Vec::new();
    let mut delete = false;
    let mut in_clause = false;
    for (step_no, token) in proof.split_whitespace().enumerate() {
        if token == "d" {
            if in_clause {
                return Err(SatError::ProofRejected {
                    step: steps.len(),
                    reason: "'d' inside a clause".to_owned(),
                });
            }
            delete = true;
            in_clause = true;
            continue;
        }
        let n: i32 = token.parse().map_err(|_| SatError::ProofRejected {
            step: steps.len(),
            reason: format!("bad token {token:?} at position {step_no}"),
        })?;
        if n == 0 {
            steps.push(Step {
                delete,
                lits: canonical(std::mem::take(&mut lits)),
            });
            delete = false;
            in_clause = false;
        } else {
            in_clause = true;
            lits.push(n);
        }
    }
    if in_clause {
        return Err(SatError::ProofRejected {
            step: steps.len(),
            reason: "unterminated clause (missing 0)".to_owned(),
        });
    }
    Ok(steps)
}

/// Verifies a DRAT proof that `cnf` is unsatisfiable: every addition
/// must pass reverse unit propagation against the database built so
/// far, deletions must name present clauses, and the proof must derive
/// the empty clause (or the formula must already propagate to a
/// conflict on its own).
///
/// # Errors
///
/// [`SatError::ProofRejected`] pinpoints the first offending step:
/// parse errors, a non-RUP addition, a deletion of an absent clause, or
/// a proof that never reaches the empty clause.
pub fn check_drat_unsat(cnf: &Cnf, proof: &str) -> Result<DratReport, SatError> {
    let steps = parse_proof(proof)?;
    let mut db = Db {
        clauses: Vec::new(),
        alive: Vec::new(),
        index: HashMap::new(),
        occ: Vec::new(),
        assign: vec![0; cnf.num_vars()],
    };
    for clause in cnf.clauses() {
        let lits = canonical(
            clause
                .lits()
                .iter()
                .map(|l| {
                    let v = (l.var.0 + 1) as i32;
                    if l.negative {
                        -v
                    } else {
                        v
                    }
                })
                .collect(),
        );
        // Tautologies never propagate or conflict; keep them out so the
        // solver's dropping of them cannot desynchronize deletions.
        if tautological(&lits) {
            continue;
        }
        db.add(lits);
    }

    let mut report = DratReport {
        additions: 0,
        deletions: 0,
    };
    let mut derived_empty = false;
    for (step_no, step) in steps.iter().enumerate() {
        if step.delete {
            let indices = db.index.get_mut(&step.lits);
            let found = indices.and_then(|v| {
                let pos = v.iter().rposition(|&ci| db.alive[ci]);
                pos.map(|p| v.swap_remove(p))
            });
            match found {
                Some(ci) => db.alive[ci] = false,
                None => {
                    return Err(SatError::ProofRejected {
                        step: step_no,
                        reason: format!("deletion of absent clause {:?}", step.lits),
                    })
                }
            }
            report.deletions += 1;
        } else {
            if tautological(&step.lits) {
                // Trivially sound; keep it for deletion bookkeeping but
                // it can never drive propagation.
                db.add(step.lits.clone());
                report.additions += 1;
                continue;
            }
            if !db.rup(&step.lits) {
                return Err(SatError::ProofRejected {
                    step: step_no,
                    reason: format!("clause {:?} is not a RUP consequence", step.lits),
                });
            }
            report.additions += 1;
            if step.lits.is_empty() {
                derived_empty = true;
                break;
            }
            db.add(step.lits.clone());
        }
    }
    // A formula that propagates to conflict on its own is UNSAT with an
    // empty proof; otherwise the empty clause must have been derived.
    if !derived_empty && !db.rup(&[]) {
        return Err(SatError::ProofRejected {
            step: steps.len(),
            reason: "proof does not derive the empty clause".to_owned(),
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::{Clause, Lit, Var};
    use crate::options::SatOptions;
    use crate::solver::Solve;
    use crate::CdclSolver;

    fn lit(v: i64) -> Lit {
        let var = Var((v.unsigned_abs() as usize) - 1);
        if v < 0 {
            Lit::negative(var)
        } else {
            Lit::positive(var)
        }
    }

    fn cnf(clauses: &[&[i64]]) -> Cnf {
        let mut f = Cnf::new(0);
        for c in clauses {
            f.add_clause(Clause::new(c.iter().map(|&v| lit(v)).collect()));
        }
        f
    }

    fn pigeonhole(holes: usize) -> Cnf {
        let pigeons = holes + 1;
        let var = |p: usize, h: usize| Var(p * holes + h);
        let mut f = Cnf::new(pigeons * holes);
        for p in 0..pigeons {
            f.add_clause((0..holes).map(|h| Lit::positive(var(p, h))).collect());
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    f.add_clause(Clause::new(vec![
                        Lit::negative(var(p1, h)),
                        Lit::negative(var(p2, h)),
                    ]));
                }
            }
        }
        f
    }

    #[test]
    fn accepts_solver_proofs_on_unsat_formulas() {
        for f in [
            cnf(&[&[1], &[-1]]),
            cnf(&[&[1, 2], &[1, -2], &[-1, 2], &[-1, -2]]),
            pigeonhole(4),
            pigeonhole(6),
        ] {
            let mut s = CdclSolver::new(&f).with_proof();
            assert_eq!(s.solve(), Solve::Unsat);
            let proof = s.proof_drat().expect("proof requested");
            let report = check_drat_unsat(&f, &proof).expect("solver proof must verify");
            assert!(
                report.additions > 0,
                "UNSAT proof must add the empty clause"
            );
        }
    }

    #[test]
    fn accepts_proofs_with_db_reductions() {
        let f = pigeonhole(6);
        let mut s = CdclSolver::new(&f)
            .with_proof()
            .with_options(SatOptions::ALL);
        s.force_tiny_learnt_cap(); // force deletions into the proof
        assert_eq!(s.solve(), Solve::Unsat);
        assert!(s.db_reductions() > 0, "reducer never fired");
        let proof = s.proof_drat().expect("proof requested");
        assert!(proof.contains("d "), "expected deletion lines");
        check_drat_unsat(&f, &proof).expect("proof with deletions must verify");
    }

    #[test]
    fn rejects_non_rup_additions() {
        // x1 is not a consequence of (x1 ∨ x2).
        let f = cnf(&[&[1, 2]]);
        let err = check_drat_unsat(&f, "1 0\n0\n").unwrap_err();
        assert!(
            matches!(err, SatError::ProofRejected { step: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn rejects_bogus_deletions_and_junk() {
        let f = cnf(&[&[1, 2], &[-1]]);
        let err = check_drat_unsat(&f, "d 1 -2 0\n").unwrap_err();
        assert!(
            matches!(err, SatError::ProofRejected { step: 0, .. }),
            "{err}"
        );
        assert!(check_drat_unsat(&f, "1 2").is_err(), "unterminated clause");
        assert!(check_drat_unsat(&f, "x 0").is_err(), "junk token");
    }

    #[test]
    fn rejects_proofs_that_never_conclude() {
        // Satisfiable formula, legitimate lemma, no empty clause.
        let f = cnf(&[&[1, 2], &[-2, 3]]);
        let err = check_drat_unsat(&f, "1 3 0\n").unwrap_err();
        assert!(
            matches!(err, SatError::ProofRejected { .. }),
            "sat formulas cannot check as UNSAT: {err}"
        );
    }

    #[test]
    fn empty_proof_passes_only_on_propagation_refuted_formulas() {
        assert!(check_drat_unsat(&cnf(&[&[1], &[-1]]), "").is_ok());
        assert!(check_drat_unsat(&cnf(&[&[1, 2]]), "").is_err());
    }

    #[test]
    fn proofs_survive_assumption_solves() {
        let f = cnf(&[&[1, 2], &[-1, 2], &[1, -2], &[-1, -2], &[3, 4]]);
        let mut s = CdclSolver::new(&f).with_proof();
        // Assumption solves keep the proof valid (lemmas are resolvents
        // of the clause database alone).
        let _ = s.solve_under(&[lit(3)]);
        assert_eq!(s.solve(), Solve::Unsat);
        let proof = s.proof_drat().expect("proof recording was requested");
        check_drat_unsat(&f, &proof).expect("assumption-era lemmas are RUP");
    }
}
