//! Conflict-driven clause learning (CDCL) — the production SAT core.
//!
//! The educational DPLL in [`crate::solver`] re-discovers the same
//! conflicts over and over: with no memory of *why* a branch failed, an
//! UNSAT proof over `n` inputs costs `O(2^n)` node visits even when the
//! formula has short resolution refutations. This module is the modern
//! answer, a self-contained CDCL solver with the standard toolkit:
//!
//! * **Two-watched-literal propagation** — each clause is watched by two
//!   literals; assignments only touch clauses whose watch just became
//!   false, so propagation cost tracks the number of *relevant* clauses,
//!   not the formula size (`CdclSolver::propagate`).
//! * **First-UIP conflict analysis** with **basic learned-clause
//!   minimization** — every conflict is resolved back to the first unique
//!   implication point and self-subsumed literals are stripped before the
//!   clause is learned (`CdclSolver::analyze`).
//! * **EVSIDS decisions with phase saving** — variable activities decay
//!   exponentially (bump/decay, rescaled at 1e100) and each variable
//!   remembers its last polarity, so the search resumes where it left off
//!   after a restart.
//! * **Luby restarts** — the universally-optimal restart schedule
//!   (base 100 conflicts) escapes heavy-tailed runtimes.
//! * **Activity-based clause-database reduction** — the learned-clause
//!   store is halved (keeping binaries and the most active clauses) when
//!   it outgrows its budget, which grows geometrically.
//!
//! On top of that baseline, two industrial features are gated by
//! [`SatOptions`] (all on by default, individually addressable for
//! differential testing — `SatOptions::NONE` reproduces the baseline
//! core bit for bit):
//!
//! * **LBD-tiered clause management** (`lbd`) — every learned clause
//!   carries its literal-block distance (number of distinct decision
//!   levels, computed at learning time and min-updated whenever the
//!   clause participates in conflict analysis). The DB is tiered:
//!   *core* glue clauses (LBD ≤ 2) are never deleted, the *mid* tier is
//!   demoted by LBD before activity, and *locals* (LBD > 6) go first
//!   and in larger proportion. Restarts switch to a Glucose-style
//!   recent-LBD EMA test (restart while recent conflicts are worse
//!   than the long-run average) with the Luby schedule as a fallback.
//! * **XOR/Gauss reasoning** (`xor`) — parity constraints are
//!   recovered from the CNF (Tseitin miter XORs, Valiant–Vazirani hash
//!   parities), Gaussian-eliminated, and kept as matrix rows with two
//!   watched columns each; rows propagate and *explain* exactly like
//!   clauses, so conflict analysis runs unchanged on top (`xor.rs`).
//!
//! Independently, [`CdclSolver::with_proof`] records a DRAT proof of
//! UNSAT answers (clause additions and deletions) that the in-tree
//! checker in [`crate::drat`] — or any external DRAT checker — can
//! verify, making "the solver said UNSAT" independently auditable.
//!
//! Clause literals live in one flat arena (`Vec<CLit>` + offset/length
//! records) rather than one heap allocation per clause: propagation and
//! analysis walk contiguous memory, and assignments are single-byte
//! codes so a literal's truth is one XOR — the constant factors that
//! decide whether a solver core is production-grade.
//!
//! The API mirrors [`crate::Solver`]: [`CdclSolver::solve`] /
//! [`CdclSolver::solve_budgeted`] with the same [`Solve`] /
//! [`BudgetedSolve`] verdicts, [`CdclSolver::with_budget`] charging
//! decisions + conflicts, and [`CdclSolver::with_branch_hint`] seeding
//! the initial decision order (miters hint their input variables; VSIDS
//! then takes over — see the method docs for why it must stay free).
//! Unlike the DPLL, a `CdclSolver` *owns* its clause database: learned
//! clauses persist across `solve` calls, so re-solving the same instance
//! (the serving layer's per-shard solver cache) replays the proof
//! instead of re-deriving it.
//!
//! ```
//! use revmatch_sat::{CdclSolver, Clause, Cnf, Lit, Var};
//!
//! let mut cnf = Cnf::new(2);
//! cnf.add_clause(Clause::new(vec![Lit::positive(Var(0))]));
//! cnf.add_clause(Clause::new(vec![Lit::negative(Var(0)), Lit::positive(Var(1))]));
//! let solve = CdclSolver::new(&cnf).solve();
//! assert_eq!(solve.witness(), Some(&[true, true][..]));
//! ```

mod heap;
mod luby;
mod xor;

use crate::cnf::{Cnf, Lit, Var};
use crate::options::SatOptions;
use crate::solver::{AssumedSolve, BudgetedAssumedSolve, BudgetedSolve, Solve};
use heap::VarHeap;
use luby::luby;

/// Variable-activity decay factor (EVSIDS): `var_inc` grows by `1/0.95`
/// per conflict.
const VAR_DECAY: f64 = 0.95;
/// Clause-activity decay factor.
const CLA_DECAY: f32 = 0.999;
/// Rescale threshold for variable activities.
const RESCALE_LIMIT: f64 = 1e100;
/// Rescale threshold for (f32) clause activities.
const CLA_RESCALE_LIMIT: f32 = 1e20;
/// Conflicts before the first restart; later restarts follow
/// `luby(i) * RESTART_BASE`.
const RESTART_BASE: u64 = 100;
/// LBD at or below which a learned clause is *core glue*: never deleted.
const GLUE_LBD: u32 = 2;
/// LBD above which a learned clause is *local*: first out, and in larger
/// proportion, at every DB reduction.
const LOCAL_LBD: u32 = 6;
/// Smoothing factors of the Glucose restart EMAs over learned-clause
/// LBD (fast ≈ last 32 conflicts, slow ≈ last 4096).
const LBD_EMA_FAST: f64 = 1.0 / 32.0;
const LBD_EMA_SLOW: f64 = 1.0 / 4096.0;
/// Restart when the fast EMA exceeds the slow one by this margin.
const RESTART_MARGIN: f64 = 1.25;
/// Minimum conflicts between Glucose restarts (lets the EMAs settle).
const RESTART_MIN_CONFLICTS: u64 = 50;
/// Reason/conflict references with this bit set denote XOR matrix rows
/// (`r & !XOR_REASON` is the row index); plain values are clause refs.
const XOR_REASON: u32 = 1 << 31;

/// An internal literal: `var * 2 + negative`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CLit(u32);

impl CLit {
    fn new(var: usize, negative: bool) -> Self {
        Self((var as u32) << 1 | u32::from(negative))
    }

    fn var(self) -> usize {
        (self.0 >> 1) as usize
    }

    fn negated(self) -> Self {
        Self(self.0 ^ 1)
    }

    /// Index into watch lists.
    fn idx(self) -> usize {
        self.0 as usize
    }

    /// Sign bit: 0 positive, 1 negative.
    fn sign(self) -> u8 {
        (self.0 & 1) as u8
    }

    /// Converts back to the public literal type.
    fn external(self) -> Lit {
        let var = Var(self.var());
        if self.0 & 1 == 1 {
            Lit::negative(var)
        } else {
            Lit::positive(var)
        }
    }
}

/// Variable assignment codes: the value of a *literal* is
/// `assign[var] ^ sign`, so `VAL_TRUE`/`VAL_FALSE` compare with one XOR
/// and anything ≥ `VAL_UNDEF` is unassigned.
const VAL_TRUE: u8 = 0;
const VAL_FALSE: u8 = 1;
const VAL_UNDEF: u8 = 2;

/// One clause record: a slice of the literal arena plus bookkeeping.
#[derive(Debug, Clone, Copy)]
struct ClauseMeta {
    start: u32,
    len: u32,
    activity: f32,
    /// Literal-block distance at learning time, min-updated on touch
    /// (0 for problem clauses, and everywhere when `lbd` is off).
    lbd: u32,
    learned: bool,
}

/// One recorded DRAT step: a clause the solver derived (add) or
/// discarded (delete), in external literals.
#[derive(Debug, Clone)]
enum ProofStep {
    Add(Vec<Lit>),
    Delete(Vec<Lit>),
}

/// An in-memory DRAT proof under construction.
#[derive(Debug, Clone, Default)]
struct ProofLog {
    steps: Vec<ProofStep>,
    /// The final empty clause has been emitted.
    concluded: bool,
}

/// A watch-list entry: the clause plus a cached "blocker" literal whose
/// truth lets propagation skip the clause without touching its memory.
#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: u32,
    blocker: CLit,
}

/// Outcome of the internal search loop.
enum Search {
    Sat,
    Unsat,
    Out,
}

/// A conflict-driven clause-learning solver instance — see the
/// [module docs](self).
///
/// Construction copies the formula into an owned clause arena; `solve`
/// may be called repeatedly and learned clauses (plus variable
/// activities and saved phases) carry over between calls.
#[derive(Debug)]
pub struct CdclSolver {
    num_vars: usize,
    /// Flat literal arena backing every clause.
    arena: Vec<CLit>,
    /// Problem clauses occupy `[0, num_problem)`; learned clauses follow
    /// (the `learned` flag, not position, is what the reducer reads).
    clauses: Vec<ClauseMeta>,
    num_problem: usize,
    /// Live learned-clause records, maintained in O(1) (the search loop
    /// checks it against `max_learnts` at every restart).
    learned_clauses: usize,
    watches: Vec<Vec<Watcher>>,
    assign: Vec<u8>,
    level: Vec<u32>,
    reason: Vec<Option<u32>>,
    trail: Vec<CLit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    /// EVSIDS state.
    activity: Vec<f64>,
    var_inc: f64,
    order: VarHeap,
    saved_phase: Vec<bool>,
    /// Learned-clause activity state.
    cla_inc: f32,
    max_learnts: f64,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    /// `false` once the formula is refuted at level 0.
    ok: bool,
    /// Per-call statistics (reset by each solve).
    decisions: usize,
    conflicts: usize,
    propagations: usize,
    /// Lifetime statistics.
    restarts: usize,
    db_reductions: usize,
    budget: Option<usize>,
    /// Assumption literals of the current `solve_under` call, placed as
    /// the first decision levels (empty for plain solves).
    assumptions: Vec<CLit>,
    /// Assumptions of the *previous* incremental call, for trail reuse:
    /// decision levels whose assumption literal is unchanged stay
    /// placed and propagated across calls.
    prev_assumptions: Vec<CLit>,
    /// Decision levels to keep on the next [`CdclSolver::run`] (computed
    /// by `run_under` as the shared assumption prefix; consumed once).
    reuse_level: usize,
    /// Scratch literal-occurrence counts for the assumption reordering
    /// in `run_under` (always all-zero between calls).
    assump_mark: Vec<u32>,
    /// Final-conflict core produced by [`CdclSolver::analyze_final`] when
    /// the assumptions are refuted (empty when the formula itself is
    /// unsatisfiable).
    final_core: Vec<Lit>,
    /// Feature gates — see [`SatOptions`].
    opts: SatOptions,
    /// LBD computation scratch: one stamp per decision level plus a
    /// generation counter, so each computation is O(clause length).
    lbd_stamp: Vec<u32>,
    lbd_gen: u32,
    /// Glucose restart state: exponential moving averages of the LBD of
    /// recently learned clauses (lifetime, like the restart counter).
    lbd_ema_fast: f64,
    lbd_ema_slow: f64,
    /// Learned glue clauses (LBD ≤ [`GLUE_LBD`]) currently in the DB.
    glue_clauses: usize,
    /// The Gauss layer (built lazily on the first solve when `xor` is
    /// on), its propagation head into the trail, and scratch buffers.
    xors: Option<xor::XorLayer>,
    xor_built: bool,
    xor_qhead: usize,
    xors_extracted: usize,
    xor_scratch: Vec<CLit>,
    xor_events: Vec<xor::XorEvent>,
    /// DRAT proof log, when [`CdclSolver::with_proof`] was requested.
    proof: Option<ProofLog>,
}

impl CdclSolver {
    /// Builds a solver owning a copy of the formula.
    ///
    /// Tautological clauses are dropped and duplicate literals merged;
    /// unit clauses are queued for top-level propagation.
    pub fn new(cnf: &Cnf) -> Self {
        let n = cnf.num_vars();
        let mut solver = Self {
            num_vars: n,
            arena: Vec::new(),
            clauses: Vec::with_capacity(cnf.num_clauses()),
            num_problem: 0,
            learned_clauses: 0,
            watches: vec![Vec::new(); 2 * n],
            assign: vec![VAL_UNDEF; n],
            level: vec![0; n],
            reason: vec![None; n],
            trail: Vec::with_capacity(n),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0; n],
            var_inc: 1.0,
            order: VarHeap::new(n),
            saved_phase: vec![false; n],
            cla_inc: 1.0,
            max_learnts: 0.0,
            seen: vec![false; n],
            ok: true,
            decisions: 0,
            conflicts: 0,
            propagations: 0,
            restarts: 0,
            db_reductions: 0,
            budget: None,
            assumptions: Vec::new(),
            prev_assumptions: Vec::new(),
            reuse_level: 0,
            assump_mark: Vec::new(),
            final_core: Vec::new(),
            opts: SatOptions::ALL,
            lbd_stamp: Vec::new(),
            lbd_gen: 0,
            lbd_ema_fast: 0.0,
            lbd_ema_slow: 0.0,
            glue_clauses: 0,
            xors: None,
            xor_built: false,
            xor_qhead: 0,
            xors_extracted: 0,
            xor_scratch: Vec::new(),
            xor_events: Vec::new(),
            proof: None,
        };
        for v in 0..n {
            solver.order.insert(v, &solver.activity);
        }
        for clause in cnf.clauses() {
            let mut lits: Vec<CLit> = clause
                .lits()
                .iter()
                .map(|l| CLit::new(l.var.0, l.negative))
                .collect();
            lits.sort_unstable_by_key(|l| l.0);
            lits.dedup();
            // x ∨ ¬x: satisfied forever. Complementary codes are adjacent
            // after the sort.
            if lits.windows(2).any(|w| w[0].0 ^ w[1].0 == 1) {
                continue;
            }
            solver.add_clause_internal(&lits, false);
        }
        solver.num_problem = solver.clauses.len();
        solver.max_learnts = (solver.num_problem as f64 / 3.0).max(1000.0);
        solver
    }

    /// Caps [`CdclSolver::solve_budgeted`] at `units` decisions +
    /// conflicts per call (propagation is free), mirroring
    /// [`crate::Solver::with_budget`].
    #[must_use]
    pub fn with_budget(mut self, units: usize) -> Self {
        self.budget = Some(units);
        self
    }

    /// Changes (or clears) the per-call budget on an existing solver —
    /// the reuse-friendly form of [`CdclSolver::with_budget`].
    pub fn set_budget(&mut self, budget: Option<usize>) {
        self.budget = budget;
    }

    /// Pins this solver instance to an explicit feature set instead of
    /// the default [`SatOptions::ALL`] — how a service applies its
    /// configured options, and what differential tests and A/B
    /// benchmarks use. Call before the first solve: the XOR layer is
    /// (re)built lazily under the new gates.
    #[must_use]
    pub fn with_options(mut self, opts: SatOptions) -> Self {
        self.opts = opts;
        if self.proof.is_some() {
            self.opts.xor = false;
        }
        self.xors = None;
        self.xor_built = false;
        self
    }

    /// Enables DRAT proof recording: learned lemmas and clause deletions
    /// are logged so an UNSAT verdict can be independently re-verified by
    /// [`crate::drat::check_drat_unsat`] or any external DRAT checker.
    ///
    /// Forces the `xor` gate off for this instance: Gauss-derived
    /// lemmas are implied but not reverse-unit-propagation steps, so a
    /// proof-carrying solve sticks to clausal reasoning. The proof
    /// covers the formula given at construction. Assumption solves are
    /// fine — lemmas learned under assumptions are resolvents of the
    /// clause database alone.
    #[must_use]
    pub fn with_proof(mut self) -> Self {
        self.proof = Some(ProofLog::default());
        self.opts.xor = false;
        self.xors = None;
        self.xor_built = false;
        self
    }

    /// Seeds the *initial* decision order: hinted variables start with
    /// descending activity so the first decisions follow `order`, after
    /// which conflict-driven bumping takes over.
    ///
    /// Deliberately weaker than the DPLL's hard priority: pinning CDCL
    /// to the miter's input variables would force it to enumerate all
    /// `2^inputs` cubes exactly like DPLL (each conflict clause is a
    /// full input cube — nothing prunes). Left free, VSIDS homes in on
    /// the miter's shared internal structure and finds resolution
    /// proofs exponentially shorter than input enumeration — that
    /// freedom is the entire CDCL speedup on equivalence miters.
    /// Out-of-range entries are ignored.
    #[must_use]
    pub fn with_branch_hint(mut self, order: Vec<usize>) -> Self {
        let len = order.len() as f64;
        for (i, &v) in order.iter().enumerate() {
            if v < self.num_vars {
                // Strictly below one conflict bump so learned structure
                // immediately outranks the prior.
                self.activity[v] = (len - i as f64) / (len + 1.0) * 0.5;
            }
        }
        // Re-seat every queued variable under the new activities.
        self.order = VarHeap::new(self.num_vars);
        for v in 0..self.num_vars {
            if self.assign[v] >= VAL_UNDEF {
                self.order.insert(v, &self.activity);
            }
        }
        self
    }

    /// Branching decisions made by the last solve call.
    pub fn decisions(&self) -> usize {
        self.decisions
    }

    /// Conflicts reached by the last solve call.
    pub fn conflicts(&self) -> usize {
        self.conflicts
    }

    /// Unit propagations performed by the last solve call.
    pub fn propagations(&self) -> usize {
        self.propagations
    }

    /// Restarts performed over the solver's lifetime.
    pub fn restarts(&self) -> usize {
        self.restarts
    }

    /// Learned clauses currently in the database.
    pub fn num_learned(&self) -> usize {
        self.learned_clauses
    }

    /// Learned-database reductions performed over the solver's lifetime.
    pub fn db_reductions(&self) -> usize {
        self.db_reductions
    }

    /// Lowers the learned-DB ceiling so reductions fire immediately —
    /// cross-module tests use this to exercise deletion paths.
    #[cfg(test)]
    pub(crate) fn force_tiny_learnt_cap(&mut self) {
        self.max_learnts = 1.0;
    }

    /// The feature set this instance runs with.
    pub fn options(&self) -> SatOptions {
        self.opts
    }

    /// Learned glue clauses (LBD ≤ 2) currently protected in the DB —
    /// the refutation skeleton that survives every reduction.
    pub fn glue_clauses(&self) -> usize {
        self.glue_clauses
    }

    /// XOR parity constraints recovered from the formula (before
    /// elimination); 0 until the first solve or with `xor` off.
    pub fn xors_extracted(&self) -> usize {
        self.xors_extracted
    }

    /// Live Gauss rows (after elimination and unit folding).
    pub fn xor_rows(&self) -> usize {
        self.xors.as_ref().map_or(0, xor::XorLayer::num_rows)
    }

    /// Renders the recorded DRAT proof, or `None` when proof recording
    /// was not requested. Meaningful after an UNSAT verdict (the proof
    /// then ends with the empty clause); lemmas of an inconclusive or SAT
    /// run are still valid derivations.
    pub fn proof_drat(&self) -> Option<String> {
        let proof = self.proof.as_ref()?;
        let mut out = String::new();
        for step in &proof.steps {
            let lits = match step {
                ProofStep::Add(lits) => lits,
                ProofStep::Delete(lits) => {
                    out.push_str("d ");
                    lits
                }
            };
            for l in lits {
                if l.negative {
                    out.push('-');
                }
                out.push_str(&(l.var.0 + 1).to_string());
                out.push(' ');
            }
            out.push_str("0\n");
        }
        Some(out)
    }

    /// Decides satisfiability, ignoring any configured budget. Callable
    /// repeatedly; learned clauses persist between calls.
    pub fn solve(&mut self) -> Solve {
        let saved = self.budget.take();
        let verdict = self.run();
        self.budget = saved;
        match verdict {
            Search::Sat => Solve::Sat(self.take_model()),
            Search::Unsat => Solve::Unsat,
            Search::Out => unreachable!("unlimited search cannot exhaust a budget"),
        }
    }

    /// Decides satisfiability within the configured budget, returning
    /// [`BudgetedSolve::Unknown`] instead of searching without bound.
    pub fn solve_budgeted(&mut self) -> BudgetedSolve {
        match self.run() {
            Search::Sat => BudgetedSolve::Sat(self.take_model()),
            Search::Unsat => BudgetedSolve::Unsat,
            Search::Out => BudgetedSolve::Unknown,
        }
    }

    /// Decides satisfiability of `formula ∧ assumptions` **incrementally**:
    /// the assumptions hold for this call only, learned clauses persist
    /// across calls (they are resolvents of the clause database alone, so
    /// they stay sound under any later assumption set). This is how one
    /// solver serves a whole witness family: encode the family once, fix
    /// each candidate with assumptions, and let conflicts learned for one
    /// candidate prune the next.
    ///
    /// Assumptions are placed as the first decision levels; first-UIP
    /// analysis runs unchanged above them. When propagation refutes an
    /// assumption, `CdclSolver::analyze_final` walks the implication
    /// graph to a **conflict core** — the subset of assumptions that is
    /// already inconsistent with the formula ([`AssumedSolve::Unsat`]).
    /// Ignores any configured budget.
    ///
    /// # Panics
    ///
    /// Panics if an assumption variable is outside the formula.
    pub fn solve_under(&mut self, assumptions: &[Lit]) -> AssumedSolve {
        let saved = self.budget.take();
        let verdict = self.run_under(assumptions);
        self.budget = saved;
        match verdict {
            Search::Sat => AssumedSolve::Sat(self.take_model()),
            Search::Unsat => AssumedSolve::Unsat {
                core: std::mem::take(&mut self.final_core),
            },
            Search::Out => unreachable!("unlimited search cannot exhaust a budget"),
        }
    }

    /// [`CdclSolver::solve_under`] within the configured budget, returning
    /// [`BudgetedAssumedSolve::Unknown`] instead of searching without
    /// bound. Placing an assumption is free (it mirrors the unit
    /// propagation of a baked unit clause); only real decisions and
    /// conflicts are charged.
    ///
    /// # Panics
    ///
    /// Panics if an assumption variable is outside the formula.
    pub fn solve_under_budgeted(&mut self, assumptions: &[Lit]) -> BudgetedAssumedSolve {
        match self.run_under(assumptions) {
            Search::Sat => BudgetedAssumedSolve::Sat(self.take_model()),
            Search::Unsat => BudgetedAssumedSolve::Unsat {
                core: std::mem::take(&mut self.final_core),
            },
            Search::Out => BudgetedAssumedSolve::Unknown,
        }
    }

    /// Installs the assumption prefix, runs the shared driver, and clears
    /// the prefix again so plain `solve` calls stay unconstrained.
    fn run_under(&mut self, assumptions: &[Lit]) -> Search {
        self.assumptions = assumptions
            .iter()
            .map(|l| {
                assert!(
                    l.var.0 < self.num_vars,
                    "assumption variable x{} outside the formula ({} vars)",
                    l.var.0,
                    self.num_vars
                );
                CLit::new(l.var.0, l.negative)
            })
            .collect();
        // Assumption order is semantically free (any placement order
        // decides the same formula and yields a sound core), so reorder
        // each call to follow the previous call's order for every
        // shared literal: stable assumptions migrate to the front,
        // recently-changed ones to the back. Family sweeps keep their
        // constant selectors permanently placed this way.
        if !self.prev_assumptions.is_empty() && !self.assumptions.is_empty() {
            if self.assump_mark.len() < 2 * self.num_vars {
                self.assump_mark.resize(2 * self.num_vars, 0);
            }
            for l in &self.assumptions {
                self.assump_mark[l.idx()] += 1;
            }
            let mut ordered = Vec::with_capacity(self.assumptions.len());
            for i in 0..self.prev_assumptions.len() {
                let l = self.prev_assumptions[i];
                if self.assump_mark[l.idx()] > 0 {
                    self.assump_mark[l.idx()] -= 1;
                    ordered.push(l);
                }
            }
            for i in 0..self.assumptions.len() {
                let l = self.assumptions[i];
                if self.assump_mark[l.idx()] > 0 {
                    self.assump_mark[l.idx()] -= 1;
                    ordered.push(l);
                }
            }
            self.assumptions = ordered;
        }
        // Trail reuse: decision levels whose assumption is unchanged
        // stay placed — and propagated, through the CNF watches and the
        // Gauss layer alike — instead of being peeled off and replayed.
        self.reuse_level = self
            .assumptions
            .iter()
            .zip(&self.prev_assumptions)
            .take_while(|(a, b)| a == b)
            .count()
            .min(self.decision_level());
        let verdict = self.run();
        self.prev_assumptions = std::mem::take(&mut self.assumptions);
        verdict
    }

    /// Shared driver: reset per-call stats, build the XOR layer on the
    /// first call, search, and leave the solver ready for the next call.
    /// Incremental calls keep the shared assumption-prefix levels placed
    /// (`reuse_level`); the XOR build vetoes the reuse because it
    /// requires the reason-free level 0.
    fn run(&mut self) -> Search {
        self.decisions = 0;
        self.conflicts = 0;
        self.propagations = 0;
        self.final_core.clear();
        if self.assumptions.is_empty() {
            // A plain solve leaves search decisions, not assumption
            // placements, on the trail — the next incremental call must
            // not mistake them for a reusable prefix.
            self.prev_assumptions.clear();
        }
        let build_xor = self.ok && self.opts.xor && !self.xor_built;
        let keep = if build_xor { 0 } else { self.reuse_level };
        self.reuse_level = 0;
        self.backtrack(keep);
        if build_xor {
            self.build_xor_layer();
        }
        if !self.ok {
            self.proof_conclude();
            return Search::Unsat;
        }
        self.search()
    }

    /// Extracts XOR constraints from the problem clauses, eliminates,
    /// and installs the Gauss layer (see `xor.rs`). Level-0 facts the
    /// elimination surfaces are applied immediately.
    fn build_xor_layer(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        self.xor_built = true;
        let built = xor::build(
            self.num_vars,
            self.clauses
                .iter()
                .filter(|m| !m.learned)
                .map(|m| self.arena[m.start as usize..(m.start + m.len) as usize].to_vec()),
            &self.assign,
        );
        self.xors_extracted = built.extracted;
        if built.contradiction {
            self.ok = false;
            return;
        }
        for l in built.units {
            match self.lit_value(l) {
                VAL_TRUE => {}
                VAL_FALSE => {
                    self.ok = false;
                    return;
                }
                _ => self.enqueue(l, None),
            }
        }
        self.xors = built.layer;
        self.xor_qhead = 0;
    }

    /// Records a derived clause in the DRAT log.
    fn proof_add(&mut self, lits: &[CLit]) {
        if let Some(proof) = &mut self.proof {
            proof
                .steps
                .push(ProofStep::Add(lits.iter().map(|l| l.external()).collect()));
        }
    }

    /// Records a clause deletion in the DRAT log.
    fn proof_delete(&mut self, lits: &[CLit]) {
        if let Some(proof) = &mut self.proof {
            proof.steps.push(ProofStep::Delete(
                lits.iter().map(|l| l.external()).collect(),
            ));
        }
    }

    /// Emits the final empty clause once the formula is refuted. At
    /// every call site level-0 unit propagation over the clause database
    /// (problem clauses plus recorded lemmas) yields a conflict, so the
    /// empty clause is a valid RUP step.
    fn proof_conclude(&mut self) {
        if let Some(proof) = &mut self.proof {
            if !proof.concluded {
                proof.concluded = true;
                proof.steps.push(ProofStep::Add(Vec::new()));
            }
        }
    }

    /// Reads the model off a fully-assigned trail, then backtracks so the
    /// solver is immediately reusable.
    fn take_model(&mut self) -> Vec<bool> {
        let model = self.assign.iter().map(|&v| v == VAL_TRUE).collect();
        self.backtrack(0);
        model
    }

    /// The literal's truth code: `VAL_TRUE`, `VAL_FALSE`, or ≥
    /// `VAL_UNDEF`.
    #[inline]
    fn lit_value(&self, l: CLit) -> u8 {
        self.assign[l.var()] ^ l.sign()
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn out_of_budget(&self) -> bool {
        self.budget
            .is_some_and(|b| self.decisions + self.conflicts > b)
    }

    /// Adds a deduplicated clause to the arena. Empty clauses refute the
    /// formula; units go straight onto the level-0 trail.
    fn add_clause_internal(&mut self, lits: &[CLit], learned: bool) {
        match lits.len() {
            0 => self.ok = false,
            1 => match self.lit_value(lits[0]) {
                VAL_TRUE => {}
                VAL_FALSE => self.ok = false,
                _ => self.enqueue(lits[0], None),
            },
            _ => {
                let cref = self.clauses.len() as u32;
                self.watches[lits[0].idx()].push(Watcher {
                    cref,
                    blocker: lits[1],
                });
                self.watches[lits[1].idx()].push(Watcher {
                    cref,
                    blocker: lits[0],
                });
                let start = self.arena.len() as u32;
                self.arena.extend_from_slice(lits);
                self.clauses.push(ClauseMeta {
                    start,
                    len: lits.len() as u32,
                    activity: if learned { self.cla_inc } else { 0.0 },
                    lbd: 0,
                    learned,
                });
                self.learned_clauses += usize::from(learned);
            }
        }
    }

    /// Puts `l` on the trail as true at the current level.
    fn enqueue(&mut self, l: CLit, reason: Option<u32>) {
        debug_assert!(self.lit_value(l) >= VAL_UNDEF);
        let v = l.var();
        self.assign[v] = l.sign();
        self.level[v] = self.decision_level() as u32;
        self.reason[v] = reason;
        self.saved_phase[v] = l.sign() == 0;
        self.trail.push(l);
    }

    /// Unassigns back to `target_level`, saving phases and re-queueing
    /// variables for decisions.
    fn backtrack(&mut self, target_level: usize) {
        if self.decision_level() <= target_level {
            return;
        }
        let keep = self.trail_lim[target_level];
        for i in (keep..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assign[v] = VAL_UNDEF;
            self.reason[v] = None;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(target_level);
        self.qhead = self.trail.len();
        self.xor_qhead = self.xor_qhead.min(self.trail.len());
    }

    /// Unit propagation to joint fixpoint across the clause database and
    /// the XOR layer. Returns the conflicting clause ref (or
    /// [`XOR_REASON`]-tagged row), if any.
    fn propagate(&mut self) -> Option<u32> {
        let conflict = loop {
            if let Some(c) = self.propagate_cnf() {
                break Some(c);
            }
            if self.xors.is_none() || self.xor_qhead >= self.trail.len() {
                break None;
            }
            if let Some(c) = self.propagate_xor() {
                break Some(c);
            }
        };
        if conflict.is_some() {
            // Abort any outstanding queue on conflict, like the CNF path.
            self.qhead = self.trail.len();
            self.xor_qhead = self.qhead;
        }
        conflict
    }

    /// Drains the XOR propagation head: each newly assigned variable is
    /// checked against the rows watching its column; unit rows imply
    /// their last column, fully-assigned rows with the wrong parity
    /// conflict (tagged with [`XOR_REASON`]).
    fn propagate_xor(&mut self) -> Option<u32> {
        while self.xor_qhead < self.trail.len() {
            let p = self.trail[self.xor_qhead];
            self.xor_qhead += 1;
            let mut events = std::mem::take(&mut self.xor_events);
            events.clear();
            if let Some(layer) = self.xors.as_mut() {
                layer.on_assign(p.var(), &self.assign, &mut events);
            }
            let mut conflict = None;
            for ev in &events {
                match *ev {
                    // Implications are re-checked at application time: an
                    // earlier event in the same batch may have assigned
                    // the variable already.
                    xor::XorEvent::Imply { lit, row } => match self.lit_value(lit) {
                        VAL_TRUE => {}
                        VAL_FALSE => {
                            conflict = Some(XOR_REASON | row);
                            break;
                        }
                        _ => {
                            self.propagations += 1;
                            self.enqueue(lit, Some(XOR_REASON | row));
                        }
                    },
                    xor::XorEvent::Conflict { row } => {
                        conflict = Some(XOR_REASON | row);
                        break;
                    }
                }
            }
            self.xor_events = events;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// Two-watched-literal unit propagation to fixpoint over the clause
    /// database. Returns the conflicting clause, if any.
    fn propagate_cnf(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = p.negated();
            let mut ws = std::mem::take(&mut self.watches[false_lit.idx()]);
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Blocker fast path: clause already satisfied.
                if self.lit_value(w.blocker) == VAL_TRUE {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref as usize;
                let (start, len) = {
                    let m = &self.clauses[cref];
                    (m.start as usize, m.len as usize)
                };
                // Normalize: the just-falsified watch sits at slot 1.
                if self.arena[start] == false_lit {
                    self.arena.swap(start, start + 1);
                }
                let first = self.arena[start];
                if first != w.blocker && self.lit_value(first) == VAL_TRUE {
                    ws[j] = Watcher {
                        cref: w.cref,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                // Hunt for a replacement watch among the tail literals.
                for k in 2..len {
                    let cand = self.arena[start + k];
                    if self.lit_value(cand) != VAL_FALSE {
                        self.arena.swap(start + 1, start + k);
                        self.watches[cand.idx()].push(Watcher {
                            cref: w.cref,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // No replacement: the clause is unit or conflicting.
                ws[j] = Watcher {
                    cref: w.cref,
                    blocker: first,
                };
                j += 1;
                if self.lit_value(first) == VAL_FALSE {
                    // Conflict: keep the remaining watchers and bail.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    ws.truncate(j);
                    self.watches[false_lit.idx()] = ws;
                    self.qhead = self.trail.len();
                    return Some(w.cref);
                }
                self.propagations += 1;
                self.enqueue(first, Some(w.cref));
            }
            ws.truncate(j);
            self.watches[false_lit.idx()] = ws;
        }
        None
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1.0 / RESCALE_LIMIT;
            }
            self.var_inc *= 1.0 / RESCALE_LIMIT;
        }
        self.order.bumped(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: usize) {
        self.clauses[cref].activity += self.cla_inc;
        if self.clauses[cref].activity > CLA_RESCALE_LIMIT {
            for c in self.clauses.iter_mut().filter(|c| c.learned) {
                c.activity *= 1.0 / CLA_RESCALE_LIMIT;
            }
            self.cla_inc *= 1.0 / CLA_RESCALE_LIMIT;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc *= 1.0 / VAR_DECAY;
        self.cla_inc *= 1.0 / CLA_DECAY;
    }

    /// Advances the LBD stamp generation, clearing the stamp array on
    /// wraparound and growing it to cover `max_level`.
    fn lbd_next_gen(&mut self, max_level: usize) -> u32 {
        if self.lbd_stamp.len() <= max_level {
            self.lbd_stamp.resize(max_level + 1, 0);
        }
        self.lbd_gen = self.lbd_gen.wrapping_add(1);
        if self.lbd_gen == 0 {
            self.lbd_stamp.fill(0);
            self.lbd_gen = 1;
        }
        self.lbd_gen
    }

    /// Literal-block distance of a (fully assigned) literal set: the
    /// number of distinct non-zero decision levels among its variables.
    fn lbd_of(&mut self, lits: &[CLit]) -> u32 {
        let gen = self.lbd_next_gen(self.decision_level());
        let mut lbd = 0;
        for &l in lits {
            let lev = self.level[l.var()] as usize;
            if lev > 0 && self.lbd_stamp[lev] != gen {
                self.lbd_stamp[lev] = gen;
                lbd += 1;
            }
        }
        lbd
    }

    /// Recomputes the LBD of a learned clause touched by conflict
    /// analysis (all its literals are assigned there) and keeps the
    /// minimum — a clause that proves itself tighter than at learning
    /// time is promoted, possibly into the protected glue tier.
    fn touch_lbd(&mut self, cref: usize) {
        let (start, len, old) = {
            let m = &self.clauses[cref];
            (m.start as usize, m.len as usize, m.lbd)
        };
        let gen = self.lbd_next_gen(self.decision_level());
        let mut lbd = 0;
        for k in 0..len {
            let lev = self.level[self.arena[start + k].var()] as usize;
            if lev > 0 && self.lbd_stamp[lev] != gen {
                self.lbd_stamp[lev] = gen;
                lbd += 1;
            }
        }
        if lbd < old {
            if old > GLUE_LBD && lbd <= GLUE_LBD {
                self.glue_clauses += 1;
            }
            self.clauses[cref].lbd = lbd;
        }
    }

    /// First-UIP conflict analysis: resolves the conflict clause against
    /// reasons back to the first unique implication point, minimizes, and
    /// returns `(learned clause, backjump level, LBD)` with the asserting
    /// literal at index 0 and a backjump-level literal at index 1.
    /// `conflict` (and any reason met on the way) may be an
    /// [`XOR_REASON`]-tagged Gauss row, which explains itself as the
    /// clause it implies under the current assignment.
    fn analyze(&mut self, conflict: u32) -> (Vec<CLit>, usize, u32) {
        let mut learnt: Vec<CLit> = vec![CLit(0)]; // slot 0 = asserting literal
        let mut to_clear: Vec<usize> = Vec::new();
        let mut path = 0usize; // literals of the conflict level still open
        let mut confl = conflict;
        // The literal the current reason propagated (None for the
        // conflict itself) — already resolved away, so it is skipped.
        let mut resolved: Option<CLit> = None;
        let mut idx = self.trail.len();
        let current = self.decision_level();
        loop {
            let (from_scratch, start, len) = if confl & XOR_REASON != 0 {
                // Materialize the row's implied clause (minus the
                // already-resolved literal) into the scratch buffer.
                let mut scratch = std::mem::take(&mut self.xor_scratch);
                self.xors
                    .as_ref()
                    .expect("XOR-tagged reason requires the layer")
                    .explain(confl & !XOR_REASON, None, &self.assign, &mut scratch);
                if let Some(p) = resolved {
                    scratch.retain(|&l| l.var() != p.var());
                }
                let n = scratch.len();
                self.xor_scratch = scratch;
                (true, 0, n)
            } else {
                let cref = confl as usize;
                if self.clauses[cref].learned {
                    self.bump_clause(cref);
                    if self.opts.lbd {
                        self.touch_lbd(cref);
                    }
                }
                let m = &self.clauses[cref];
                // A reason clause has its propagated literal at slot 0.
                let skip = usize::from(resolved.is_some());
                (false, m.start as usize + skip, m.len as usize - skip)
            };
            for k in 0..len {
                let q = if from_scratch {
                    self.xor_scratch[k]
                } else {
                    self.arena[start + k]
                };
                let v = q.var();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    to_clear.push(v);
                    self.bump_var(v);
                    if self.level[v] as usize >= current {
                        path += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail back to the next marked literal.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var()] {
                    break;
                }
            }
            let p = self.trail[idx];
            self.seen[p.var()] = false;
            path -= 1;
            if path == 0 {
                learnt[0] = p.negated();
                break;
            }
            confl = self.reason[p.var()].expect("implied literal has a reason");
            resolved = Some(p);
        }

        // Basic self-subsumption minimization: a literal implied entirely
        // by other learned literals (or level-0 facts) is redundant.
        // (The recursive ccmin-mode=2 variant was measured here and lost:
        // reversible-circuit miters have wide XOR implication cones, so
        // the deep check rarely succeeds but always pays its walk.)
        let mut j = 1;
        for i in 1..learnt.len() {
            let q = learnt[i];
            let v = q.var();
            let redundant = self.reason[v].is_some_and(|r| {
                // XOR-implied literals are kept: materializing the row's
                // clause here costs more than the rare removal saves.
                if r & XOR_REASON != 0 {
                    return false;
                }
                let (start, len) = {
                    let m = &self.clauses[r as usize];
                    (m.start as usize, m.len as usize)
                };
                self.arena[start..start + len].iter().all(|y| {
                    let yv = y.var();
                    yv == v || self.level[yv] == 0 || self.seen[yv]
                })
            });
            if !redundant {
                learnt[j] = q;
                j += 1;
            }
        }
        learnt.truncate(j);
        for v in to_clear {
            self.seen[v] = false;
        }

        // LBD of the minimized clause, while its literals are still all
        // assigned (record_learned runs after the backjump).
        let lbd = if self.opts.lbd {
            self.lbd_of(&learnt)
        } else {
            0
        };

        // Backjump to the second-highest decision level in the clause,
        // with a literal of that level in the second watch slot.
        let back_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var()] > self.level[learnt[max_i].var()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var()] as usize
        };
        (learnt, back_level, lbd)
    }

    /// Final-conflict analysis (the assumption-refutation counterpart of
    /// [`CdclSolver::analyze`]): `failed` is an assumption literal that
    /// propagation forced false. Walks the implication graph of `¬failed`
    /// backwards; every *decision* encountered is an assumption (the
    /// prefix levels are the only decisions below the failure point), so
    /// the set collected is a subset of the assumptions that is already
    /// inconsistent with the formula. Leaves the core in
    /// [`CdclSolver::final_core`].
    fn analyze_final(&mut self, failed: CLit) {
        self.final_core.clear();
        self.final_core.push(failed.external());
        if self.decision_level() == 0 {
            // ¬failed is a level-0 fact: the formula alone refutes the
            // assumption, and {failed} is the whole core.
            return;
        }
        self.seen[failed.var()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let p = self.trail[i];
            let v = p.var();
            if !self.seen[v] {
                continue;
            }
            self.seen[v] = false;
            match self.reason[v] {
                // A decision below the failure point is an assumption,
                // recorded exactly as it was assumed.
                None => self.final_core.push(p.external()),
                Some(r) if r & XOR_REASON != 0 => {
                    // A Gauss row explains with the propagated literal in
                    // slot 0; mark the antecedent tail like a clause.
                    let mut scratch = std::mem::take(&mut self.xor_scratch);
                    self.xors
                        .as_ref()
                        .expect("XOR-tagged reason requires the layer")
                        .explain(r & !XOR_REASON, Some(p), &self.assign, &mut scratch);
                    for &q in &scratch[1..] {
                        if self.level[q.var()] > 0 {
                            self.seen[q.var()] = true;
                        }
                    }
                    self.xor_scratch = scratch;
                }
                Some(r) => {
                    let (start, len) = {
                        let m = &self.clauses[r as usize];
                        (m.start as usize, m.len as usize)
                    };
                    // Slot 0 is the propagated literal itself.
                    for k in 1..len {
                        let q = self.arena[start + k];
                        if self.level[q.var()] > 0 {
                            self.seen[q.var()] = true;
                        }
                    }
                }
            }
        }
        // If ¬failed was forced at level 0 the walk never clears it.
        self.seen[failed.var()] = false;
    }

    /// Learns the clause produced by [`CdclSolver::analyze`] (tagging it
    /// with its LBD) and asserts its UIP literal.
    fn record_learned(&mut self, learnt: &[CLit], lbd: u32) {
        self.proof_add(learnt);
        let asserting = learnt[0];
        if learnt.len() == 1 {
            debug_assert_eq!(self.decision_level(), 0);
            match self.lit_value(asserting) {
                VAL_TRUE => {}
                VAL_FALSE => self.ok = false,
                _ => self.enqueue(asserting, None),
            }
            return;
        }
        let cref = self.clauses.len() as u32;
        self.add_clause_internal(learnt, true);
        if self.opts.lbd {
            self.clauses[cref as usize].lbd = lbd;
            if lbd <= GLUE_LBD {
                self.glue_clauses += 1;
            }
        }
        self.enqueue(asserting, Some(cref));
    }

    /// Halves the learned-clause database. Only called at decision level
    /// 0, where no clause is the reason for any assignment, so physical
    /// compaction (and the watch rebuild it forces) is safe.
    ///
    /// Without `lbd` this keeps binary clauses and the most active half
    /// (the baseline policy, preserved bit for bit). With `lbd` the DB is
    /// tiered: core glue clauses (LBD ≤ [`GLUE_LBD`]) are never
    /// candidates, mid-tier clauses are demoted by LBD before activity,
    /// and locals (LBD > [`LOCAL_LBD`]) are reduced aggressively — they
    /// go first in the worst-first order and widen the drop target.
    fn reduce_db(&mut self) {
        debug_assert_eq!(self.decision_level(), 0);
        for l in &self.trail {
            self.reason[l.var()] = None;
        }
        let mut candidates: Vec<usize> = (0..self.clauses.len())
            .filter(|&ci| {
                let m = &self.clauses[ci];
                m.learned && m.len > 2 && (!self.opts.lbd || m.lbd > GLUE_LBD)
            })
            .collect();
        let target = if self.opts.lbd {
            // Worst first: highest LBD, ties broken by lowest activity.
            candidates.sort_by(|&a, &b| {
                let (ca, cb) = (&self.clauses[a], &self.clauses[b]);
                cb.lbd
                    .cmp(&ca.lbd)
                    .then(ca.activity.total_cmp(&cb.activity))
            });
            let locals = candidates
                .iter()
                .filter(|&&ci| self.clauses[ci].lbd > LOCAL_LBD)
                .count();
            // At least half the candidates; at least ¾ of the locals.
            (candidates.len() / 2)
                .max(locals * 3 / 4)
                .min(candidates.len())
        } else {
            candidates.sort_by(|&a, &b| {
                self.clauses[a]
                    .activity
                    .total_cmp(&self.clauses[b].activity)
            });
            // The baseline target counts every learned clause (including
            // the protected binaries) but only drops len > 2 records.
            self.learned_clauses / 2
        };
        let mut drop_flag = vec![false; self.clauses.len()];
        let mut dropped = 0;
        for &ci in candidates.iter().take(target) {
            drop_flag[ci] = true;
            dropped += 1;
            if self.proof.is_some() {
                let m = self.clauses[ci];
                let lits = self.arena[m.start as usize..(m.start + m.len) as usize].to_vec();
                self.proof_delete(&lits);
            }
        }
        self.learned_clauses -= dropped;
        self.compact(&drop_flag);
        self.rebuild_watches();
        self.max_learnts *= 1.1;
        self.db_reductions += 1;
    }

    /// Physically removes flagged (learned) clauses, compacting the
    /// clause records and the literal arena together. Callers maintain
    /// the learned / glue counters and must rebuild watches afterwards.
    fn compact(&mut self, drop_flag: &[bool]) {
        let mut new_arena = Vec::with_capacity(self.arena.len());
        let mut new_clauses = Vec::with_capacity(self.clauses.len());
        for (ci, meta) in self.clauses.iter().enumerate() {
            if drop_flag[ci] {
                continue;
            }
            let start = new_arena.len() as u32;
            let s = meta.start as usize;
            new_arena.extend_from_slice(&self.arena[s..s + meta.len as usize]);
            new_clauses.push(ClauseMeta { start, ..*meta });
        }
        self.arena = new_arena;
        self.clauses = new_clauses;
    }

    /// Reconstructs every watch list from scratch (after compaction),
    /// preferring unfalsified literals in the watch slots, and re-queues
    /// the whole trail for propagation.
    fn rebuild_watches(&mut self) {
        for w in &mut self.watches {
            w.clear();
        }
        for cref in 0..self.clauses.len() {
            let (start, len) = {
                let m = &self.clauses[cref];
                (m.start as usize, m.len as usize)
            };
            // Pull up to two non-false literals into the watch slots.
            let mut slot = 0;
            for k in 0..len {
                if slot >= 2 {
                    break;
                }
                if self.lit_value(self.arena[start + k]) != VAL_FALSE {
                    self.arena.swap(start + slot, start + k);
                    slot += 1;
                }
            }
            let (w0, w1) = (self.arena[start], self.arena[start + 1]);
            self.watches[w0.idx()].push(Watcher {
                cref: cref as u32,
                blocker: w1,
            });
            self.watches[w1.idx()].push(Watcher {
                cref: cref as u32,
                blocker: w0,
            });
        }
        // Re-scan the level-0 trail so units hiding behind the rebuilt
        // watches are found again (the XOR layer re-scan is idempotent:
        // implications re-check literal truth before enqueueing).
        self.qhead = 0;
        self.xor_qhead = 0;
    }

    /// Picks the next decision literal: highest-activity unassigned
    /// variable, in its saved phase.
    fn pick_branch(&mut self) -> Option<CLit> {
        loop {
            let v = self.order.pop_max(&self.activity)?;
            if self.assign[v] >= VAL_UNDEF {
                return Some(CLit::new(v, !self.saved_phase[v]));
            }
        }
    }

    /// The main CDCL loop: propagate → (conflict ? analyze/learn/backjump
    /// : decide), with restarts and DB reductions at restart points.
    /// Restarts are Luby-scheduled; with `lbd` on, a Glucose-style EMA
    /// test fires earlier whenever recently learned clauses are worse
    /// (higher LBD) than the long-run average, with the Luby horizon
    /// kept as a fallback so restarts never starve.
    fn search(&mut self) -> Search {
        let mut conflicts_since_restart = 0u64;
        let mut restart_limit = luby(self.restarts as u64) * RESTART_BASE;
        loop {
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    self.proof_conclude();
                    return Search::Unsat;
                }
                let (learnt, back_level, lbd) = self.analyze(conflict);
                if self.opts.lbd {
                    let l = f64::from(lbd.max(1));
                    self.lbd_ema_fast += LBD_EMA_FAST * (l - self.lbd_ema_fast);
                    self.lbd_ema_slow += LBD_EMA_SLOW * (l - self.lbd_ema_slow);
                }
                self.backtrack(back_level);
                self.record_learned(&learnt, lbd);
                if !self.ok {
                    self.proof_conclude();
                    return Search::Unsat;
                }
                self.decay_activities();
                if self.out_of_budget() {
                    self.backtrack(0);
                    return Search::Out;
                }
            } else {
                let glucose_restart = self.opts.lbd
                    && conflicts_since_restart >= RESTART_MIN_CONFLICTS
                    && self.lbd_ema_fast > RESTART_MARGIN * self.lbd_ema_slow;
                if glucose_restart || conflicts_since_restart >= restart_limit {
                    // Restart only down to the assumption prefix:
                    // peeling the assumptions off and re-propagating
                    // them (with `xor` on, re-running the Gauss layer
                    // beneath them) on every restart is the dominant
                    // cost of warm incremental sweeps. A due DB
                    // reduction still unwinds fully — physical
                    // compaction needs the reason-free level 0.
                    if self.num_learned() as f64 > self.max_learnts {
                        self.backtrack(0);
                        self.reduce_db();
                    } else {
                        self.backtrack(self.assumptions.len().min(self.decision_level()));
                    }
                    self.restarts += 1;
                    conflicts_since_restart = 0;
                    restart_limit = luby(self.restarts as u64) * RESTART_BASE;
                    continue;
                }
                // Re-establish the assumption prefix: assumption `i`
                // owns decision level `i + 1` (restarts and backjumps
                // peel it off; this loop puts it back). Placements are
                // not charged as decisions — they mirror the free unit
                // propagation of baked assumption clauses.
                let mut next = None;
                while self.decision_level() < self.assumptions.len() {
                    let a = self.assumptions[self.decision_level()];
                    match self.lit_value(a) {
                        // Already implied: open an empty level so the
                        // level↔assumption correspondence stays intact.
                        VAL_TRUE => self.trail_lim.push(self.trail.len()),
                        // The formula (plus earlier assumptions) refutes
                        // this assumption: extract the conflict core.
                        VAL_FALSE => {
                            self.analyze_final(a);
                            return Search::Unsat;
                        }
                        _ => {
                            next = Some(a);
                            break;
                        }
                    }
                }
                let decision = if let Some(a) = next {
                    a
                } else {
                    let Some(decision) = self.pick_branch() else {
                        return Search::Sat;
                    };
                    self.decisions += 1;
                    if self.out_of_budget() {
                        // The decision variable was popped but never
                        // enqueued: put it back or the reused solver would
                        // never be able to decide it again (and could
                        // report a bogus model).
                        self.order.insert(decision.var(), &self.activity);
                        self.backtrack(0);
                        return Search::Out;
                    }
                    decision
                };
                self.trail_lim.push(self.trail.len());
                self.enqueue(decision, None);
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::{Clause, Lit, Var};
    use crate::solver::Solver;

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

    /// The PHP(n+1, n) pigeonhole formula: n+1 pigeons, n holes — UNSAT,
    /// and exponential for DPLL without learning.
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
    fn trivially_sat_and_unsat() {
        let f = cnf(&[&[1]]);
        assert_eq!(CdclSolver::new(&f).solve().witness(), Some(&[true][..]));
        let g = cnf(&[&[1], &[-1]]);
        assert_eq!(CdclSolver::new(&g).solve(), Solve::Unsat);
    }

    #[test]
    fn empty_formula_and_empty_clause() {
        assert!(CdclSolver::new(&Cnf::new(3)).solve().is_sat());
        let mut f = Cnf::new(1);
        f.add_clause(Clause::default());
        assert_eq!(CdclSolver::new(&f).solve(), Solve::Unsat);
    }

    #[test]
    fn tautological_clauses_are_dropped() {
        let f = cnf(&[&[1, -1], &[2]]);
        let mut s = CdclSolver::new(&f);
        assert_eq!(s.num_problem, 0, "tautology must not enter the arena");
        let solve = s.solve();
        assert!(solve.is_sat());
        assert!(f.eval(solve.witness().unwrap()));
    }

    #[test]
    fn unit_propagation_chain_costs_no_decisions() {
        let f = cnf(&[&[1], &[-1, 2], &[-2, 3]]);
        let mut s = CdclSolver::new(&f);
        let solve = s.solve();
        assert_eq!(solve.witness(), Some(&[true, true, true][..]));
        assert_eq!(s.decisions(), 0);
        assert!(s.propagations() >= 2);
    }

    #[test]
    fn witness_always_satisfies() {
        let f = cnf(&[&[1, 2, -3], &[-1, 3], &[2, 3], &[-2, -3, 1]]);
        match CdclSolver::new(&f).solve() {
            Solve::Sat(w) => assert!(f.eval(&w)),
            Solve::Unsat => panic!("expected sat"),
        }
    }

    #[test]
    fn pigeonhole_unsat_fast() {
        // PHP(7,6): hopeless for the naive DPLL in a reasonable node
        // budget, routine for CDCL.
        let f = pigeonhole(6);
        let mut s = CdclSolver::new(&f);
        assert_eq!(s.solve(), Solve::Unsat);
        // And the verdict is reproducible on the reused (now trivially
        // refuted) solver.
        assert_eq!(s.solve(), Solve::Unsat);
    }

    #[test]
    fn agrees_with_dpll_on_random_formulas() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        for round in 0..120 {
            let n = rng.gen_range(2..=8);
            let m = rng.gen_range(1..=24);
            let mut f = Cnf::new(n);
            for _ in 0..m {
                let k = rng.gen_range(1..=3);
                let lits = (0..k)
                    .map(|_| {
                        let v = Var(rng.gen_range(0..n));
                        if rng.gen_bool(0.5) {
                            Lit::positive(v)
                        } else {
                            Lit::negative(v)
                        }
                    })
                    .collect();
                f.add_clause(Clause::new(lits));
            }
            let dpll = Solver::new(&f).solve();
            let cdcl = CdclSolver::new(&f).solve();
            assert_eq!(dpll.is_sat(), cdcl.is_sat(), "round {round}: {f}");
            if let Some(w) = cdcl.witness() {
                assert!(f.eval(w), "round {round}: bogus model for {f}");
            }
        }
    }

    #[test]
    fn budget_zero_unknown_on_branching_formulas() {
        let f = cnf(&[&[1, 2, 3], &[-1, -2, -3]]);
        assert_eq!(
            CdclSolver::new(&f).with_budget(0).solve_budgeted(),
            BudgetedSolve::Unknown
        );
        assert!(CdclSolver::new(&f)
            .with_budget(1_000)
            .solve_budgeted()
            .is_sat());
    }

    #[test]
    fn propagation_only_formulas_ignore_the_budget() {
        let f = cnf(&[&[1], &[-1, 2], &[-2, 3]]);
        assert_eq!(
            CdclSolver::new(&f)
                .with_budget(0)
                .solve_budgeted()
                .witness(),
            Some(&[true, true, true][..])
        );
        let unsat = cnf(&[&[1], &[-1]]);
        assert_eq!(
            CdclSolver::new(&unsat).with_budget(0).solve_budgeted(),
            BudgetedSolve::Unsat
        );
    }

    #[test]
    fn budgeted_verdicts_are_never_wrong() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        for _ in 0..40 {
            let n = rng.gen_range(2..=6);
            let m = rng.gen_range(1..=14);
            let mut f = Cnf::new(n);
            for _ in 0..m {
                let k = rng.gen_range(1..=3);
                let lits = (0..k)
                    .map(|_| {
                        let v = Var(rng.gen_range(0..n));
                        if rng.gen_bool(0.5) {
                            Lit::positive(v)
                        } else {
                            Lit::negative(v)
                        }
                    })
                    .collect();
                f.add_clause(Clause::new(lits));
            }
            let truth = Solver::new(&f).solve().is_sat();
            for budget in [0, 1, 2, 8, 1_000] {
                match CdclSolver::new(&f).with_budget(budget).solve_budgeted() {
                    BudgetedSolve::Sat(w) => assert!(f.eval(&w), "bogus witness"),
                    BudgetedSolve::Unsat => assert!(!truth, "wrong UNSAT under budget"),
                    BudgetedSolve::Unknown => {}
                }
            }
        }
    }

    #[test]
    fn reuse_keeps_learned_clauses_and_resets_stats() {
        let f = pigeonhole(5);
        let mut s = CdclSolver::new(&f);
        assert_eq!(s.solve(), Solve::Unsat);
        let first_conflicts = s.conflicts();
        assert!(first_conflicts > 0);
        // Second run: the level-0 refutation is remembered.
        assert_eq!(s.solve(), Solve::Unsat);
        assert_eq!(s.conflicts(), 0, "refutation must be cached");

        // SAT side: re-solving reuses learned clauses, and the budget
        // accounting is per call.
        let g = cnf(&[&[1, 2, 3], &[-1, -2, -3], &[1, -2], &[-1, 2]]);
        let mut s = CdclSolver::new(&g).with_budget(1_000);
        let first = s.solve_budgeted();
        assert!(first.is_sat());
        let second = s.solve_budgeted();
        assert_eq!(first, second, "reused solver must reproduce the model");
    }

    #[test]
    fn solve_ignores_the_budget() {
        let f = cnf(&[&[1, 2, 3], &[-1, -2, -3], &[1, -2], &[-1, 2]]);
        let mut s = CdclSolver::new(&f).with_budget(0);
        assert_eq!(s.solve().is_sat(), Solver::new(&f).solve().is_sat());
        // And set_budget can lift the cap for the budgeted entry point.
        s.set_budget(None);
        assert!(s.solve_budgeted().is_sat());
    }

    #[test]
    fn branch_hint_steers_first_decision_only() {
        let f = cnf(&[&[1, 3], &[2, 3], &[-1, -3], &[-2, -3], &[1, 2, 3]]);
        let plain = CdclSolver::new(&f).solve();
        let hinted = CdclSolver::new(&f).with_branch_hint(vec![0, 1]).solve();
        assert_eq!(plain.is_sat(), hinted.is_sat());
        assert!(f.eval(hinted.witness().unwrap()));
        // Out-of-range hints are ignored without panicking.
        let odd = CdclSolver::new(&f).with_branch_hint(vec![99, 0]).solve();
        assert_eq!(odd.is_sat(), plain.is_sat());
    }

    #[test]
    fn restarts_and_reductions_fire_on_hard_instances() {
        // PHP(8,7) needs thousands of conflicts: enough to cross several
        // Luby restart horizons.
        let f = pigeonhole(7);
        let mut s = CdclSolver::new(&f);
        assert_eq!(s.solve(), Solve::Unsat);
        assert!(s.restarts() > 0, "expected at least one restart");
        assert!(s.conflicts() > RESTART_BASE as usize);
    }

    #[test]
    fn reduce_db_preserves_correctness() {
        // Force reductions by shrinking the budget dramatically, then
        // check verdicts on a mixed bag of formulas.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let n = rng.gen_range(6..=10);
            let m = rng.gen_range(20..=40);
            let mut f = Cnf::new(n);
            for _ in 0..m {
                let k = rng.gen_range(2..=3);
                let lits = (0..k)
                    .map(|_| {
                        let v = Var(rng.gen_range(0..n));
                        if rng.gen_bool(0.5) {
                            Lit::positive(v)
                        } else {
                            Lit::negative(v)
                        }
                    })
                    .collect();
                f.add_clause(Clause::new(lits));
            }
            let mut s = CdclSolver::new(&f);
            s.max_learnts = 1.0; // reduce at every restart
            let cdcl = s.solve();
            let dpll = Solver::new(&f).solve();
            assert_eq!(cdcl.is_sat(), dpll.is_sat(), "{f}");
            if let Some(w) = cdcl.witness() {
                assert!(f.eval(w));
            }
        }
        // And the aggressive setting really exercised the reducer on the
        // pigeonhole formula.
        let f = pigeonhole(6);
        let mut s = CdclSolver::new(&f);
        s.max_learnts = 1.0;
        assert_eq!(s.solve(), Solve::Unsat);
        assert!(s.db_reductions() > 0, "reducer never fired");
    }

    #[test]
    fn budget_exhaustion_at_a_decision_does_not_lose_the_variable() {
        // Regression: hitting the budget right after popping a decision
        // variable used to drop it from the order heap for good, so a
        // reused solver could later report Sat with a bogus model.
        let f = cnf(&[&[1, 2], &[3, 4]]);
        let mut s = CdclSolver::new(&f).with_budget(0);
        for _ in 0..4 {
            assert_eq!(s.solve_budgeted(), BudgetedSolve::Unknown);
        }
        s.set_budget(None);
        let solve = s.solve_budgeted();
        let w = solve.witness().expect("formula is satisfiable");
        assert!(f.eval(w), "reused solver must return a real model");
        // And the unbudgeted entry point agrees.
        assert!(f.eval(s.solve().witness().unwrap()));
    }

    #[test]
    fn solve_under_respects_assumptions_and_reports_cores() {
        // (x1 ∨ x2) ∧ (¬x1 ∨ x3): free solve is SAT; assuming ¬x2 forces
        // x1 and x3; assuming {¬x1, ¬x2} is a real conflict with the
        // first clause.
        let f = cnf(&[&[1, 2], &[-1, 3]]);
        let mut s = CdclSolver::new(&f);
        let sat = s.solve_under(&[lit(-2)]);
        let w = sat.witness().expect("satisfiable under ¬x2");
        assert!(!w[1] && w[0] && w[2]);
        assert!(f.eval(w));
        match s.solve_under(&[lit(-1), lit(-2)]) {
            AssumedSolve::Unsat { core } => {
                assert!(!core.is_empty());
                assert!(core.iter().all(|l| [lit(-1), lit(-2)].contains(l)));
                // Baking the core as units must itself be UNSAT.
                let mut baked = f.clone();
                for &l in &core {
                    baked.add_clause(Clause::new(vec![l]));
                }
                assert_eq!(Solver::new(&baked).solve(), Solve::Unsat);
            }
            other => panic!("expected UNSAT under {{¬x1, ¬x2}}, got {other:?}"),
        }
        // The solver is unconstrained again afterwards.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn contradictory_assumptions_core_is_the_pair() {
        let f = cnf(&[&[1, 2, 3]]);
        let mut s = CdclSolver::new(&f);
        match s.solve_under(&[lit(2), lit(-2)]) {
            AssumedSolve::Unsat { core } => {
                assert!(core.contains(&lit(2)) && core.contains(&lit(-2)));
            }
            other => panic!("expected UNSAT, got {other:?}"),
        }
    }

    #[test]
    fn unsat_formula_yields_empty_core_under_assumptions() {
        // The tautological third clause only widens the variable range so
        // x2 exists to be assumed.
        let f = cnf(&[&[1], &[-1], &[2, -2]]);
        let mut s = CdclSolver::new(&f);
        match s.solve_under(&[lit(2)]) {
            AssumedSolve::Unsat { core } => {
                assert!(core.is_empty(), "formula is unsat without help: {core:?}");
            }
            other => panic!("expected UNSAT, got {other:?}"),
        }
    }

    #[test]
    fn assumption_cores_localize_on_independent_blocks() {
        // Two independent conflicts: x1→x2 with ¬x2 assumed, plus a free
        // block over x3..x5. The final-conflict core must stay inside the
        // first block — assumptions about the free block never enter.
        let f = cnf(&[&[-1, 2], &[3, 4, 5]]);
        let mut s = CdclSolver::new(&f);
        match s.solve_under(&[lit(3), lit(4), lit(1), lit(-2)]) {
            AssumedSolve::Unsat { core } => {
                assert!(
                    core.contains(&lit(1)) && core.contains(&lit(-2)),
                    "{core:?}"
                );
                assert!(
                    !core.contains(&lit(3)) && !core.contains(&lit(4)),
                    "irrelevant assumptions leaked into the core: {core:?}"
                );
            }
            other => panic!("expected UNSAT, got {other:?}"),
        }
    }

    #[test]
    fn learned_clauses_persist_across_assumption_calls() {
        // Replaying the same assumptions re-enters the learned refutation
        // instead of re-deriving it, and clauses learned under one
        // assumption set stay installed (and sound) for the next.
        let f = pigeonhole(7);
        let mut s = CdclSolver::new(&f);
        assert!(matches!(
            s.solve_under(&[lit(1)]),
            AssumedSolve::Unsat { .. }
        ));
        let cold = s.conflicts();
        assert!(cold > 0);
        assert!(s.num_learned() > 0, "the refutation must leave lemmas");
        assert!(matches!(
            s.solve_under(&[lit(1)]),
            AssumedSolve::Unsat { .. }
        ));
        assert!(
            s.conflicts() < cold,
            "warm replay ({} conflicts) must undercut the cold solve ({cold})",
            s.conflicts()
        );
        // A different assumption set on the same solver still answers
        // correctly (the retained lemmas are assumption-free facts).
        assert!(matches!(
            s.solve_under(&[lit(-1), lit(2)]),
            AssumedSolve::Unsat { .. }
        ));
        let sat_row = cnf(&[&[1, 2], &[-1, 3]]);
        let mut s = CdclSolver::new(&sat_row);
        for a in [&[lit(1)][..], &[lit(-1)], &[lit(2), lit(-3)]] {
            let solve = s.solve_under(a);
            let w = solve.witness().expect("satisfiable under every set");
            assert!(sat_row.eval(w));
            assert!(a.iter().all(|l| l.eval(w[l.var.0])));
        }
    }

    #[test]
    fn solve_under_budgeted_reports_unknown_not_lies() {
        // Under x3 the formula needs a decision, so a zero budget must
        // answer Unknown rather than guess.
        let f = cnf(&[&[1, 2, 3], &[-1, -2, -3], &[1, -2], &[-1, 2]]);
        let mut s = CdclSolver::new(&f)
            .with_options(SatOptions::NONE)
            .with_budget(0);
        assert_eq!(
            s.solve_under_budgeted(&[lit(3)]),
            BudgetedAssumedSolve::Unknown
        );
        s.set_budget(Some(1_000));
        let solve = s.solve_under_budgeted(&[lit(3)]);
        let w = solve.witness().expect("satisfiable with x3");
        assert!(w[2] && f.eval(w));
        // Propagation-refuted assumptions answer under any budget.
        let g = cnf(&[&[1], &[-1, 2]]);
        let mut s = CdclSolver::new(&g).with_budget(0);
        assert!(matches!(
            s.solve_under_budgeted(&[lit(-2)]),
            BudgetedAssumedSolve::Unsat { .. }
        ));
    }

    #[test]
    fn phase_saving_reproduces_models_across_calls() {
        let f = cnf(&[&[1, 2], &[-1, 2], &[3, -2, 1]]);
        let mut s = CdclSolver::new(&f);
        let a = s.solve();
        let b = s.solve();
        assert_eq!(a, b);
    }
}
