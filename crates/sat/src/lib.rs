//! # revmatch-sat — CNF machinery for the hardness reductions
//!
//! The paper's §5 proves N-N and P-P Boolean matching of reversible circuits
//! no easier than UNIQUE-SAT. This crate supplies everything those
//! constructions and experiments need on the formula side:
//!
//! * [`Cnf`], [`Clause`], [`Lit`], [`Var`] with evaluation and DIMACS I/O;
//! * a production [`CdclSolver`] — conflict-driven clause learning with
//!   two-watched-literal propagation, first-UIP analysis, EVSIDS + phase
//!   saving, restarts and learned-clause DB reduction, plus
//!   [`SatOptions`]-gated upgrades: LBD-tiered clause management with
//!   Glucose-style adaptive restarts, and an XOR/Gauss layer that
//!   extracts parity constraints from the CNF and propagates them
//!   through Gaussian elimination;
//! * DRAT proof logging ([`CdclSolver::with_proof`]) and an independent
//!   in-tree checker ([`check_drat_unsat`], also exposed as the
//!   `dratcheck` binary) so UNSAT verdicts are auditable;
//! * a DPLL [`Solver`] with unit propagation and model counting (used to
//!   certify uniqueness promises, differential-test the CDCL core, and
//!   verify reductions end to end) — pick one via [`SolverBackend`];
//! * [`random_ksat`] and [`planted_unique`] workload generators;
//! * the Valiant–Vazirani isolation reduction ([`isolate_unique`], paper
//!   reference \[17\]) showing SAT randomly reduces to UNIQUE-SAT, with
//!   its isolation rounds solved on the CDCL core by default.
//!
//! ## Example
//!
//! ```
//! use revmatch_sat::{planted_unique, Solver};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let planted = planted_unique(6, 3, &mut rng)?;
//! // The instance is certified unique…
//! assert_eq!(Solver::new(&planted.cnf).count_models(2), 1);
//! // …and the solver recovers exactly the planted assignment.
//! assert_eq!(
//!     Solver::new(&planted.cnf).solve().witness(),
//!     Some(planted.assignment.as_slice())
//! );
//! # Ok::<(), revmatch_sat::SatError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod cdcl;
pub mod cnf;
pub mod drat;
pub mod error;
pub mod gen;
pub mod options;
pub mod solver;
pub mod valiant_vazirani;

pub use backend::{SolveStats, SolverBackend};
pub use cdcl::CdclSolver;
pub use cnf::{Clause, Cnf, Lit, Var};
pub use drat::{check_drat_unsat, DratReport};
pub use error::SatError;
pub use gen::{minimize_unique, planted_unique, random_ksat, PlantedUnique};
pub use options::SatOptions;
pub use solver::{AssumedSolve, BudgetedAssumedSolve, BudgetedSolve, Solve, Solver};
pub use valiant_vazirani::{
    encode_with_xors, isolate_unique, isolate_unique_with, valiant_vazirani_trial,
    IsolationOutcome, XorConstraint,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_cnf() -> impl Strategy<Value = Cnf> {
        (2usize..=6).prop_flat_map(|n| {
            proptest::collection::vec(
                proptest::collection::vec((0..n, any::<bool>()), 1..=3),
                0..=10,
            )
            .prop_map(move |clauses| {
                let mut cnf = Cnf::new(n);
                for lits in clauses {
                    cnf.add_clause(Clause::new(
                        lits.into_iter()
                            .map(|(v, neg)| {
                                if neg {
                                    Lit::negative(Var(v))
                                } else {
                                    Lit::positive(Var(v))
                                }
                            })
                            .collect(),
                    ));
                }
                cnf
            })
        })
    }

    proptest! {
        /// The DPLL solver agrees with brute force on satisfiability and
        /// any returned witness really satisfies the formula.
        #[test]
        fn solver_sound_and_complete(cnf in arb_cnf()) {
            let brute = cnf.count_models_exhaustive(1 << cnf.num_vars());
            let solve = Solver::new(&cnf).solve();
            prop_assert_eq!(solve.is_sat(), brute > 0);
            if let Some(w) = solve.witness() {
                prop_assert!(cnf.eval(w));
            }
        }

        /// Model counting agrees with brute force.
        #[test]
        fn model_count_exact(cnf in arb_cnf()) {
            let brute = cnf.count_models_exhaustive(1 << cnf.num_vars());
            prop_assert_eq!(Solver::new(&cnf).count_models(1 << cnf.num_vars()), brute);
        }

        /// DIMACS round-trips preserve semantics, and a re-imported
        /// instance replays identically on both solver backends.
        #[test]
        fn dimacs_round_trip(cnf in arb_cnf()) {
            let back = Cnf::from_dimacs(&cnf.to_dimacs()).unwrap();
            let n = cnf.num_vars();
            for bits in 0..1u64 << n {
                let a: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
                prop_assert_eq!(cnf.eval(&a), back.eval(&a));
            }
            let truth = cnf.count_models_exhaustive(1) > 0;
            for backend in SolverBackend::ALL {
                let replay = backend.solve(&back);
                prop_assert_eq!(replay.is_sat(), truth, "{} on re-imported DIMACS", backend);
                if let Some(w) = replay.witness() {
                    prop_assert!(back.eval(w));
                }
            }
        }

        /// Differential: `solve_under(assumptions)` is equivalent to a
        /// fresh solve with the assumptions baked in as unit clauses — on
        /// random CNFs, on **both** backends, including the budget paths.
        /// UNSAT cores are additionally checked for soundness: a core is
        /// a subset of the assumptions, and baking just the core as units
        /// already refutes the formula.
        #[test]
        fn solve_under_matches_baked_units(
            cnf in arb_cnf(),
            picks in proptest::collection::vec((0usize..6, any::<bool>()), 0..=5),
            budget in 0usize..200,
        ) {
            let n = cnf.num_vars();
            let assumptions: Vec<Lit> = picks
                .into_iter()
                .filter(|&(v, _)| v < n)
                .map(|(v, neg)| if neg { Lit::negative(Var(v)) } else { Lit::positive(Var(v)) })
                .collect();
            let mut baked = cnf.clone();
            for &l in &assumptions {
                baked.add_clause(Clause::new(vec![l]));
            }
            let truth = Solver::new(&baked).solve().is_sat();
            for backend in SolverBackend::ALL {
                match backend.solve_under_hinted(&cnf, &[], &assumptions) {
                    AssumedSolve::Sat(w) => {
                        prop_assert!(truth, "{backend}: SAT but baked formula is UNSAT");
                        prop_assert!(cnf.eval(&w), "{backend}: model violates the formula");
                        prop_assert!(
                            assumptions.iter().all(|l| l.eval(w[l.var.0])),
                            "{backend}: model violates an assumption"
                        );
                    }
                    AssumedSolve::Unsat { core } => {
                        prop_assert!(!truth, "{backend}: UNSAT but baked formula is SAT");
                        prop_assert!(
                            core.iter().all(|l| assumptions.contains(l)),
                            "{backend}: core escapes the assumption set"
                        );
                        let mut core_baked = cnf.clone();
                        for &l in &core {
                            core_baked.add_clause(Clause::new(vec![l]));
                        }
                        prop_assert!(
                            !Solver::new(&core_baked).solve().is_sat(),
                            "{backend}: core does not refute the formula"
                        );
                    }
                }
                // Budget path: verdicts under a budget are never wrong,
                // and zero-budget calls still terminate.
                let (verdict, stats) =
                    backend.solve_under_budgeted_hinted(&cnf, &[], &assumptions, Some(budget));
                match verdict {
                    BudgetedAssumedSolve::Sat(w) => {
                        prop_assert!(truth && cnf.eval(&w));
                        prop_assert!(assumptions.iter().all(|l| l.eval(w[l.var.0])));
                    }
                    BudgetedAssumedSolve::Unsat { core } => {
                        prop_assert!(!truth);
                        prop_assert!(core.iter().all(|l| assumptions.contains(l)));
                    }
                    BudgetedAssumedSolve::Unknown => {
                        prop_assert!(
                            stats.decisions + stats.conflicts > budget,
                            "{backend}: gave up without exhausting the budget"
                        );
                    }
                }
            }
        }

        /// CDCL and DPLL agree on SAT/UNSAT for arbitrary formulas, every
        /// SAT model actually satisfies the formula, and budgeted CDCL
        /// verdicts are never wrong.
        #[test]
        fn cdcl_dpll_differential(cnf in arb_cnf(), budget in 0usize..200) {
            let dpll = Solver::new(&cnf).solve();
            let cdcl = CdclSolver::new(&cnf).solve();
            prop_assert_eq!(dpll.is_sat(), cdcl.is_sat());
            if let Some(w) = cdcl.witness() {
                prop_assert!(cnf.eval(w), "CDCL model must satisfy the formula");
            }
            match CdclSolver::new(&cnf).with_budget(budget).solve_budgeted() {
                BudgetedSolve::Sat(w) => prop_assert!(cnf.eval(&w)),
                BudgetedSolve::Unsat => prop_assert!(!dpll.is_sat()),
                BudgetedSolve::Unknown => {}
            }
        }

        /// Every point of the [`SatOptions`] matrix (LBD tiers, XOR/Gauss,
        /// proof logging) reaches the same verdict as the plain PR 3 core
        /// on random CNFs, every model satisfies the formula, and
        /// with-proof UNSAT runs produce a checkable DRAT refutation.
        #[test]
        fn sat_option_matrix_is_verdict_identical(cnf in arb_cnf()) {
            let truth = CdclSolver::new(&cnf)
                .with_options(SatOptions::NONE)
                .solve()
                .is_sat();
            for bits in 0..4u8 {
                let opts = SatOptions {
                    lbd: bits & 1 != 0,
                    xor: bits & 2 != 0,
                };
                let solve = CdclSolver::new(&cnf).with_options(opts).solve();
                prop_assert_eq!(solve.is_sat(), truth, "opts {}", opts);
                if let Some(w) = solve.witness() {
                    prop_assert!(cnf.eval(w), "opts {}: bogus model", opts);
                }
            }
            let mut proved = CdclSolver::new(&cnf).with_proof();
            let solve = proved.solve();
            prop_assert_eq!(solve.is_sat(), truth, "with_proof flipped the verdict");
            if !truth {
                let drat = proved.proof_drat().expect("proof recording was requested");
                prop_assert!(check_drat_unsat(&cnf, &drat).is_ok(), "proof rejected");
            }
        }

        /// `solve_under` with the full option set active returns the same
        /// verdicts and sound cores as the baked-units ground truth.
        #[test]
        fn sat_options_keep_assumption_semantics(
            cnf in arb_cnf(),
            picks in proptest::collection::vec((0usize..6, any::<bool>()), 0..=5),
        ) {
            let n = cnf.num_vars();
            let assumptions: Vec<Lit> = picks
                .into_iter()
                .filter(|&(v, _)| v < n)
                .map(|(v, neg)| if neg { Lit::negative(Var(v)) } else { Lit::positive(Var(v)) })
                .collect();
            let mut baked = cnf.clone();
            for &l in &assumptions {
                baked.add_clause(Clause::new(vec![l]));
            }
            let truth = Solver::new(&baked).solve().is_sat();
            let mut s = CdclSolver::new(&cnf).with_options(SatOptions::ALL);
            match s.solve_under(&assumptions) {
                AssumedSolve::Sat(w) => {
                    prop_assert!(truth && cnf.eval(&w));
                    prop_assert!(assumptions.iter().all(|l| l.eval(w[l.var.0])));
                }
                AssumedSolve::Unsat { core } => {
                    prop_assert!(!truth);
                    prop_assert!(core.iter().all(|l| assumptions.contains(l)));
                    let mut core_baked = cnf.clone();
                    for &l in &core {
                        core_baked.add_clause(Clause::new(vec![l]));
                    }
                    prop_assert!(!Solver::new(&core_baked).solve().is_sat());
                }
            }
        }

        /// Tseitin XOR encoding preserves projected model sets.
        #[test]
        fn xor_encoding_sound(cnf in arb_cnf(), seed in any::<u64>()) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let xor = XorConstraint::random(cnf.num_vars(), &mut rng);
            let constrained = encode_with_xors(&cnf, std::slice::from_ref(&xor));
            let n = cnf.num_vars();
            for bits in 0..1u64 << n {
                let a: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
                let should_survive = cnf.eval(&a) && xor.eval(&a);
                // Check survival by solving with the prefix pinned.
                let mut pinned = constrained.clone();
                for (i, &v) in a.iter().enumerate() {
                    pinned.add_clause(Clause::new(vec![if v {
                        Lit::positive(Var(i))
                    } else {
                        Lit::negative(Var(i))
                    }]));
                }
                prop_assert_eq!(Solver::new(&pinned).solve().is_sat(), should_survive);
            }
        }
    }
}
