//! Worker-local memoization: dense tables, SAT verdicts and warm
//! solvers.
//!
//! The `(width, kind, equivalence)` shard routing in [`super::MatchService`]
//! means a lane keeps seeing the same circuits — the served pool, a
//! regression replay, or a client re-checking one miter family. Each
//! worker therefore carries a [`ShardCaches`]:
//!
//! * a **dense-table LRU** keyed by the exact circuit, filled by
//!   lookup-then-adopt: [`ShardCaches::oracle_for`] is a pure lookup
//!   that hands a cached table in on a hit and returns an on-demand
//!   oracle ([`Oracle::on_demand`]) on a miss. That oracle compiles its
//!   own table only once its probes have paid for it, and after the
//!   matcher returns the executor adopts any table it bought
//!   ([`ShardCaches::adopt`]), so a repeated circuit reuses it;
//! * a **verdict memo** keyed by a witness miter's inputs
//!   `(c1, c2, witness)`: a decided [`MiterVerdict`] (`Equivalent` or
//!   `Counterexample`) is kept as the verdict itself, so a repeated
//!   verification answers before any encoding, on either backend, and a
//!   decided miter leaves no solver resident. It is evicted by bytes
//!   counted from the key's gate lists;
//! * a **CDCL solver LRU**, also keyed by inputs — `(c1, c2,
//!   Witness(w))` or `(c1, c2, Family(f))` — for what a warm hit still
//!   needs a solver for. A family sweep keeps its solver with the
//!   [`FamilyMiter`] selector layout (the layout's CNF emptied once the
//!   solver has copied it), so a repeated family sweeps on the learned
//!   clauses of every earlier sweep without re-encoding. A witness miter
//!   enters only when its budget ran out (`Unknown`), so a retry resumes
//!   warm; the retry that decides it moves it to the memo.
//!
//! Neither SAT key holds the job kind: a verdict does not depend on
//! which job asked for it. Keys are compared by full equality (not
//! hash), so a collision can never hand back the wrong table, verdict or
//! solver. Table reuse is purely a speed layer — oracle answers are
//! bit-identical with or without it. A memoized verdict is the one the
//! miter's first decided solve returned: `Equivalent` is the only
//! possible answer for an equivalent pair, while for a non-equivalent
//! one a fresh solve could return a different (equally valid)
//! distinguishing input. Solver reuse never changes a *completed*
//! verdict either, but under a per-verification budget a warm solver may
//! **resolve** a formula the cold solver had to leave `Unknown`: its
//! retained learned clauses amount to a head start, so budget-limited
//! outcomes can improve (never degrade, never flip between definitive
//! answers) with cache warmth. Caches are worker-local (no sharing, no
//! locks): shard affinity is what makes them hit.

use std::mem::size_of;
use std::sync::Arc;

use revmatch_circuit::{Circuit, Gate, TruthTable};
use revmatch_sat::{CdclSolver, Cnf, SatOptions, SolveStats};

use crate::enumerate::{FamilyMiter, WitnessFamily};
use crate::error::MatchError;
use crate::miter::{MiterEncoding, MiterVerdict};
use crate::oracle::Oracle;
use crate::service::job::JobKind;
use crate::witness::MatchWitness;

/// Resident cost of one cached dense table (`2^width` entries of 8 B).
fn table_cost(table: &Arc<TruthTable>) -> usize {
    (1usize << table.width()) * size_of::<u64>()
}

/// Resident cost of one verdict-memo entry, counted from its key: the
/// two gate lists, the witness's two line permutations, and the entry
/// itself.
fn verdict_cost(c1: &Circuit, c2: &Circuit, witness: &MatchWitness) -> usize {
    (c1.len() + c2.len()) * size_of::<Gate>()
        + 2 * witness.width() * size_of::<usize>()
        + size_of::<(VerdictKey, MiterVerdict)>()
}

/// A tiny move-to-front LRU with exact-equality keys and a per-entry
/// cost hook: eviction keeps the total cost within `budget` (a plain
/// count cap is `cost = |_, _| 1`).
#[derive(Debug)]
struct Lru<K, V> {
    budget: usize,
    cost: fn(&K, &V) -> usize,
    total: usize,
    entries: Vec<(K, V)>,
}

impl<K, V> Lru<K, V> {
    fn new(budget: usize, cost: fn(&K, &V) -> usize) -> Self {
        Self {
            budget: budget.max(1),
            cost,
            total: 0,
            entries: Vec::new(),
        }
    }

    /// Moves the entry whose key satisfies `probe` to the front and
    /// reports whether there was one. Taking a predicate instead of an
    /// owned key keeps the hit path allocation-free for expensive keys
    /// (circuits, witnesses).
    fn touch(&mut self, probe: impl Fn(&K) -> bool) -> bool {
        match self.entries.iter().position(|(k, _)| probe(k)) {
            Some(i) => {
                self.entries[..=i].rotate_right(1);
                true
            }
            None => false,
        }
    }

    /// The cached value whose key satisfies `probe` (moved to front).
    fn get(&mut self, probe: impl Fn(&K) -> bool) -> Option<&mut V> {
        self.touch(probe).then(|| &mut self.entries[0].1)
    }

    /// Inserts `(key, value)` at the front, evicting from the cold end
    /// until the total cost fits the budget (the newest entry always
    /// stays). The caller has probed first: a key is never inserted
    /// twice.
    fn insert(&mut self, key: K, value: V) {
        self.total += (self.cost)(&key, &value);
        self.entries.insert(0, (key, value));
        while self.total > self.budget && self.entries.len() > 1 {
            let (key, evicted) = self.entries.pop().expect("len > 1");
            self.total -= (self.cost)(&key, &evicted);
        }
    }

    /// Returns the cached value whose key satisfies `probe` (moved to
    /// front), or builds the `(key, value)` entry, inserts and returns
    /// it; a build error inserts nothing. The flag reports a hit.
    fn get_or_try_insert_with<E>(
        &mut self,
        probe: impl Fn(&K) -> bool,
        make: impl FnOnce() -> Result<(K, V), E>,
    ) -> Result<(&mut V, bool), E> {
        let hit = self.touch(probe);
        if !hit {
            let (key, value) = make()?;
            self.insert(key, value);
        }
        Ok((&mut self.entries[0].1, hit))
    }

    /// Takes the entry whose key satisfies `probe` out of the cache.
    fn remove(&mut self, probe: impl Fn(&K) -> bool) -> Option<V> {
        let i = self.entries.iter().position(|(k, _)| probe(k))?;
        let (key, value) = self.entries.remove(i);
        self.total -= (self.cost)(&key, &value);
        Some(value)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The verdict memo's key: a witness miter's inputs.
type VerdictKey = (Circuit, Circuit, MatchWitness);

/// What a resident solver decides for its circuit pair.
#[derive(Debug, PartialEq)]
enum Target {
    /// One witness's miter, parked after its budget ran out.
    Witness(MatchWitness),
    /// A whole witness family's sweep.
    Family(WitnessFamily),
}

/// A resident solver's formula layout, with its `cnf` emptied once the
/// solver has copied the clauses: what a hit decodes models and builds
/// candidate assumptions by.
#[derive(Debug)]
enum Layout {
    Miter(MiterEncoding),
    Family(FamilyMiter),
}

/// A witness miter's CDCL solver with the layout its models decode by,
/// out of the cache while the executor runs it — see
/// [`ShardCaches::take_miter_solver`].
#[derive(Debug)]
pub(crate) struct MiterSolver {
    pub solver: CdclSolver,
    miter: MiterEncoding,
}

impl MiterSolver {
    /// One solve within `budget` decisions + conflicts, as a verdict.
    pub fn solve(&mut self, budget: usize) -> MiterVerdict {
        self.solver.set_budget(Some(budget));
        let outcome = self.solver.solve_budgeted();
        let stats = SolveStats {
            decisions: self.solver.decisions(),
            conflicts: self.solver.conflicts(),
            propagations: self.solver.propagations(),
        };
        self.miter.verdict_from(outcome, stats)
    }
}

/// Per-worker memoization state — see the [module docs](self).
#[derive(Debug)]
pub(crate) struct ShardCaches {
    /// Dense tables, evicted by total size: a `2^w` table costs
    /// `8·2^w` bytes, so narrow mixes keep hundreds of tables while a
    /// single width-16 job (512 KiB) still fits comfortably. Every
    /// kind shares the one byte budget.
    tables: Lru<(JobKind, Circuit), Arc<TruthTable>>,
    /// Decided witness-miter verdicts, evicted by key bytes.
    verdicts: Lru<VerdictKey, MiterVerdict>,
    /// Family sweeps and budget-exhausted witness miters.
    solvers: Lru<(Circuit, Circuit, Target), (CdclSolver, Layout)>,
    /// CDCL feature set stamped onto every solver this worker builds
    /// (the service's [`revmatch_sat::SatOptions`] selection).
    sat_opts: SatOptions,
}

/// Byte budget for the per-worker dense-table cache (~16 MiB: 32
/// width-16 tables, or thousands of narrow ones). A count-based cap
/// would thrash on cyclic pools of small circuits, which is how the
/// served-mix and cheap-tcp benchmark workloads (and `loadgen`) submit.
const TABLE_CACHE_BYTES: usize = 16 << 20;
/// Byte budget for the per-worker verdict memo (1 MiB: ~200 served
/// w5–6 keys, or ~270 keys of 64-gate w8 cascades). A key larger than
/// the whole budget is not memoized.
const VERDICT_MEMO_BYTES: usize = 1 << 20;
/// Resident solvers kept per worker (each owns its clause database).
/// Only family sweeps and budget-exhausted witness miters hold one —
/// decided miters live in the verdict memo — so the served pool's 24
/// family formulas fit. A cyclic workload over more families than the
/// capacity would never hit (sequential scans are LRU's worst case).
const SOLVER_CACHE_CAP: usize = 32;

impl ShardCaches {
    pub fn new(sat_opts: SatOptions) -> Self {
        Self {
            tables: Lru::new(TABLE_CACHE_BYTES, |_, table| table_cost(table)),
            verdicts: Lru::new(VERDICT_MEMO_BYTES, |(c1, c2, witness), _| {
                verdict_cost(c1, c2, witness)
            }),
            solvers: Lru::new(SOLVER_CACHE_CAP, |_, _| 1),
            sat_opts,
        }
    }

    /// An oracle for `circuit` on behalf of a `kind` job: a pure
    /// lookup that never compiles. A hit hands in the table this worker
    /// holds for the same `(kind, circuit)`; a miss returns an
    /// on-demand oracle ([`Oracle::on_demand`]), whose table, if its
    /// probes buy one, the caller hands back through
    /// [`ShardCaches::adopt`]. The flag reports a hit.
    pub fn oracle_for(&mut self, kind: JobKind, circuit: Circuit) -> (Oracle, bool) {
        match self.tables.get(|(k, c)| *k == kind && *c == circuit) {
            Some(table) => {
                let table = Arc::clone(table);
                (Oracle::with_shared_table(circuit, table), true)
            }
            None => (Oracle::on_demand(circuit), false),
        }
    }

    /// Keeps a table a `kind` job's on-demand oracle bought for
    /// `circuit`, under the same key [`ShardCaches::oracle_for`] looks
    /// up (a no-op when an identical oracle of the same job already
    /// handed it in).
    pub fn adopt(&mut self, kind: JobKind, circuit: &Circuit, table: &Arc<TruthTable>) {
        if !self.tables.touch(|(k, c)| *k == kind && c == circuit) {
            self.tables
                .insert((kind, circuit.clone()), Arc::clone(table));
        }
    }

    /// The decided verdict this worker holds for the miter of `c1`
    /// against `witness ∘ c2 ∘ witness`, if any.
    pub fn verdict(
        &mut self,
        c1: &Circuit,
        c2: &Circuit,
        witness: &MatchWitness,
    ) -> Option<MiterVerdict> {
        self.verdicts
            .get(|(a, b, w)| a == c1 && b == c2 && w == witness)
            .cloned()
    }

    /// Memoizes a decided verdict for `(c1, c2, witness)` after a
    /// [`ShardCaches::verdict`] miss. `Unknown` is not a verdict to
    /// replay, and a key larger than the whole byte budget is not kept.
    pub fn remember(
        &mut self,
        c1: &Circuit,
        c2: &Circuit,
        witness: &MatchWitness,
        verdict: &MiterVerdict,
    ) {
        if verdict.is_unknown() || verdict_cost(c1, c2, witness) > VERDICT_MEMO_BYTES {
            return;
        }
        self.verdicts
            .insert((c1.clone(), c2.clone(), witness.clone()), verdict.clone());
    }

    /// The CDCL solver for `(c1, c2, witness)`'s miter: taken out of the
    /// LRU when an earlier budget-exhausted solve parked it there (the
    /// flag reports that hit), else built cold. Hand it back with
    /// [`ShardCaches::park`] if it ends `Unknown` again.
    ///
    /// # Errors
    ///
    /// Those of [`MiterEncoding::build`] on a miss.
    pub fn take_miter_solver(
        &mut self,
        c1: &Circuit,
        c2: &Circuit,
        witness: &MatchWitness,
    ) -> Result<(MiterSolver, bool), MatchError> {
        let parked = self.solvers.remove(|(a, b, t)| {
            a == c1 && b == c2 && matches!(t, Target::Witness(w) if w == witness)
        });
        if let Some((solver, Layout::Miter(miter))) = parked {
            return Ok((MiterSolver { solver, miter }, true));
        }
        let mut miter = MiterEncoding::build(c1, c2, witness)?;
        let solver = cold_solver(self.sat_opts, &miter.cnf, miter.input_hint());
        miter.cnf = Cnf::default();
        Ok((MiterSolver { solver, miter }, false))
    }

    /// Parks a witness miter's solver whose budget ran out, so a retry
    /// of the same `(c1, c2, witness)` resumes on its learned clauses.
    pub fn park(
        &mut self,
        c1: &Circuit,
        c2: &Circuit,
        witness: &MatchWitness,
        parked: MiterSolver,
    ) {
        self.solvers.insert(
            (c1.clone(), c2.clone(), Target::Witness(witness.clone())),
            (parked.solver, Layout::Miter(parked.miter)),
        );
    }

    /// The CDCL solver sweeping `family` over `(c1, c2)`, with the
    /// family's selector layout. A hit re-enters a solver whose learned
    /// clauses span every earlier sweep of the family — *across jobs*,
    /// not just across one job's candidates (assumption-based solving
    /// adds no clause beyond sound lemmas, so the cached solver stays
    /// valid for the next job). A miss encodes the
    /// [`FamilyMiter`] once and keeps only its layout next to the new
    /// solver. The flag reports a hit.
    ///
    /// # Errors
    ///
    /// Those of [`FamilyMiter::build`] on a miss.
    pub fn family_solver(
        &mut self,
        c1: &Circuit,
        c2: &Circuit,
        family: WitnessFamily,
    ) -> Result<(&mut CdclSolver, &FamilyMiter, bool), MatchError> {
        let opts = self.sat_opts;
        let ((solver, layout), hit) = self.solvers.get_or_try_insert_with::<MatchError>(
            |(a, b, t)| a == c1 && b == c2 && *t == Target::Family(family),
            || {
                let mut miter = FamilyMiter::build(c1, c2, family)?;
                let solver = cold_solver(opts, &miter.cnf, miter.input_hint());
                miter.cnf = Cnf::default();
                let key = (c1.clone(), c2.clone(), Target::Family(family));
                Ok((key, (solver, Layout::Family(miter))))
            },
        )?;
        let Layout::Family(miter) = layout else {
            unreachable!("a family key holds a family layout");
        };
        Ok((solver, miter, hit))
    }
}

/// A fresh solver for `cnf` with the worker's options and `hint`.
fn cold_solver(opts: SatOptions, cnf: &Cnf, hint: Vec<usize>) -> CdclSolver {
    CdclSolver::new(cnf)
        .with_options(opts)
        .with_branch_hint(hint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::sweep_family;
    use crate::equivalence::{Equivalence, Side};
    use crate::oracle::ClassicalOracle;
    use crate::promise::random_instance;
    use rand::SeedableRng;
    use revmatch_circuit::{random_circuit, RandomCircuitSpec};

    /// Probe/insert shorthand for the integer-keyed Lru tests.
    fn probe(lru: &mut Lru<u32, usize>, key: u32, value: usize) -> bool {
        let hit = lru.touch(|k| *k == key);
        if !hit {
            lru.insert(key, value);
        }
        hit
    }

    #[test]
    fn lru_hits_evicts_and_moves_to_front() {
        let mut lru: Lru<u32, usize> = Lru::new(2, |_, _| 1);
        assert!(!probe(&mut lru, 1, 10));
        assert!(!probe(&mut lru, 2, 20));
        // Hit 1 (moves to front), insert 3 → 2 is evicted.
        assert!(probe(&mut lru, 1, 99));
        assert!(!probe(&mut lru, 3, 30));
        assert_eq!(lru.len(), 2);
        assert!(!probe(&mut lru, 2, 21), "2 was evicted");
    }

    #[test]
    fn lru_cost_budget_evicts_by_total_and_keeps_newest() {
        // Cost = the value itself; budget 10.
        let mut lru: Lru<u32, usize> = Lru::new(10, |_, v| *v);
        assert!(!probe(&mut lru, 1, 4));
        assert!(!probe(&mut lru, 2, 4)); // total 8
        assert!(!probe(&mut lru, 3, 4)); // 12 → evict 1
        assert_eq!(lru.len(), 2);
        assert!(probe(&mut lru, 2, 99), "2 survived");
        assert!(!probe(&mut lru, 1, 4), "1 was evicted");
        // An over-budget single entry is still admitted (newest stays).
        assert!(!probe(&mut lru, 9, 50));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn lru_remove_takes_the_entry_and_its_cost() {
        let mut lru: Lru<u32, usize> = Lru::new(10, |_, v| *v);
        probe(&mut lru, 1, 6);
        assert_eq!(lru.remove(|k| *k == 1), Some(6));
        assert_eq!(lru.remove(|k| *k == 1), None);
        // The freed cost is budget again: two entries of 5 fit.
        probe(&mut lru, 2, 5);
        probe(&mut lru, 3, 5);
        assert_eq!(lru.len(), 2);
    }

    /// Looks `circuit` up, probes the oracle once, and adopts what the
    /// probe bought; returns the hit flag and the adopted compile time.
    fn probe_and_adopt(
        caches: &mut ShardCaches,
        kind: JobKind,
        circuit: &Circuit,
    ) -> (bool, Option<std::time::Duration>) {
        let (oracle, hit) = caches.oracle_for(kind, circuit.clone());
        assert_eq!(oracle.query(0), circuit.apply(0));
        let compiled = oracle.compiled_on_demand();
        if let Some(compiled) = compiled {
            caches.adopt(kind, circuit, &compiled.table);
        }
        (hit, compiled.map(|c| c.took))
    }

    #[test]
    fn cached_oracle_answers_match_fresh_compiles() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let c = random_circuit(&RandomCircuitSpec::for_width(6), &mut rng);
        let mut caches = ShardCaches::new(SatOptions::default());
        let (cold, hit) = caches.oracle_for(JobKind::Promise, c.clone());
        assert!(!hit);
        assert!(
            cold.compiled_on_demand().is_none(),
            "the lookup itself never compiles"
        );
        // At width 6 the buy price is one walk: the first probe compiles.
        assert_eq!(cold.query(0), c.apply(0));
        let bought = cold.compiled_on_demand().expect("first probe buys");
        caches.adopt(JobKind::Promise, &c, &bought.table);
        let (warm, hit) = caches.oracle_for(JobKind::Promise, c.clone());
        assert!(hit);
        assert!(warm.compiled_on_demand().is_none(), "a hit never compiles");
        // A different kind re-compiles: the key includes the kind.
        let (cross_kind, compile) = probe_and_adopt(&mut caches, JobKind::Identify, &c);
        assert!(!cross_kind && compile.is_some());
        for x in 0..64u64 {
            assert_eq!(cold.query(x), c.apply(x));
            assert_eq!(warm.query(x), c.apply(x));
        }
    }

    #[test]
    fn distinct_circuits_never_share_a_table() {
        // Equal widths, different functions: the exact-equality key must
        // separate them.
        let a = Circuit::from_gates(3, [revmatch_circuit::Gate::not(0)]).unwrap();
        let b = Circuit::from_gates(3, [revmatch_circuit::Gate::not(1)]).unwrap();
        let mut caches = ShardCaches::new(SatOptions::default());
        probe_and_adopt(&mut caches, JobKind::Promise, &a);
        let (ob, hit) = caches.oracle_for(JobKind::Promise, b.clone());
        assert!(!hit);
        assert_eq!(ob.query(0), 2);
        let (oa, hit) = caches.oracle_for(JobKind::Promise, a);
        assert!(hit);
        assert_eq!(oa.query(0), 1);
    }

    #[test]
    fn wide_circuits_bypass_the_table_cache() {
        let c = Circuit::new(revmatch_circuit::DENSE_MAX_WIDTH + 1);
        let mut caches = ShardCaches::new(SatOptions::default());
        for _ in 0..2 {
            assert_eq!(
                probe_and_adopt(&mut caches, JobKind::Promise, &c),
                (false, None)
            );
        }
        assert_eq!(caches.tables.len(), 0);
    }

    #[test]
    fn adopting_a_table_twice_keeps_one_entry() {
        let c = Circuit::from_gates(4, [revmatch_circuit::Gate::not(0)]).unwrap();
        let mut caches = ShardCaches::new(SatOptions::default());
        // Two oracles of one job miss on the same circuit; both buy.
        let (a, _) = caches.oracle_for(JobKind::Promise, c.clone());
        let (b, _) = caches.oracle_for(JobKind::Promise, c.clone());
        a.query(0);
        b.query(0);
        for o in [&a, &b] {
            caches.adopt(JobKind::Promise, &c, &o.compiled_on_demand().unwrap().table);
        }
        assert_eq!(caches.tables.len(), 1);
    }

    /// A planted NP-I pair `(c1, c2)` with its witness.
    fn planted(width: usize, seed: u64) -> (Circuit, Circuit, MatchWitness) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let inst = random_instance(Equivalence::new(Side::Np, Side::I), width, &mut rng);
        (inst.c1, inst.c2, inst.witness)
    }

    /// A budget no served miter comes near.
    const UNBOUNDED: usize = usize::MAX;

    #[test]
    fn solver_cache_reuses_learned_state() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let c = random_circuit(&RandomCircuitSpec::for_width(5), &mut rng);
        let resynth = revmatch_circuit::synthesize(
            &c.truth_table().unwrap(),
            revmatch_circuit::SynthesisStrategy::Basic,
        )
        .unwrap();
        let id = MatchWitness::identity(c.width());
        let mut caches = ShardCaches::new(SatOptions::default());
        let (mut solver, hit) = caches.take_miter_solver(&c, &resynth, &id).unwrap();
        assert!(!hit);
        assert_eq!(solver.solve(UNBOUNDED), MiterVerdict::Equivalent);
        caches.park(&c, &resynth, &id, solver);
        let (mut solver, hit) = caches.take_miter_solver(&c, &resynth, &id).unwrap();
        assert!(hit);
        assert_eq!(solver.solve(UNBOUNDED), MiterVerdict::Equivalent);
        assert_eq!(solver.solver.conflicts(), 0, "warm verdict must be cached");
    }

    #[test]
    fn verdict_memo_keys_are_exact_inputs() {
        let (c1, c2, w) = planted(5, 7);
        let other = MatchWitness::identity(5);
        assert!(other != w && c1 != c2, "the probes below must differ");
        let mut caches = ShardCaches::new(SatOptions::default());
        assert_eq!(caches.verdict(&c1, &c2, &w), None);
        caches.remember(&c1, &c2, &w, &MiterVerdict::Equivalent);
        assert_eq!(caches.verdict(&c1, &c2, &w), Some(MiterVerdict::Equivalent));
        assert_eq!(caches.verdict(&c1, &c2, &other), None, "another witness");
        assert_eq!(caches.verdict(&c2, &c1, &w), None, "swapped circuits");
        assert_eq!(caches.verdict(&c1, &c1, &w), None, "another c2");
        assert_eq!(caches.verdict(&c2, &c2, &w), None, "another c1");
    }

    #[test]
    fn verdicts_are_shared_across_job_kinds() {
        use crate::service::job::{EngineJob, JobSpec, SatEquivalenceJob};
        use crate::service::{MatchService, Scalar, ServiceConfig};
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let inst = random_instance(Equivalence::new(Side::N, Side::I), 5, &mut rng);
        let service = MatchService::start(ServiceConfig::default().with_shards(1));
        let promise = EngineJob::from_instance(&inst, true).with_sat_verification();
        let first = service.submit_wait(promise).wait();
        assert_eq!(first.miter, Some(MiterVerdict::Equivalent));
        assert_eq!(service.metrics().get(Scalar::SolverCacheHits), 0);
        // A sat job on the promise job's inputs answers from its verdict.
        let sat = JobSpec::SatEquivalence(SatEquivalenceJob {
            c1: inst.c1.clone(),
            c2: inst.c2.clone(),
            witness: Some(first.witness.clone().unwrap()),
        });
        let second = service.submit_wait(sat).wait();
        assert_eq!(second.miter, Some(MiterVerdict::Equivalent));
        assert_eq!(service.metrics().get(Scalar::SolverCacheHits), 1);
        service.shutdown();
    }

    #[test]
    fn unknown_verdicts_park_their_solver_for_a_warm_retry() {
        let (c1, c2, w) = planted(6, 9);
        let mut caches = ShardCaches::new(SatOptions::default());
        let (mut solver, hit) = caches.take_miter_solver(&c1, &c2, &w).unwrap();
        assert!(!hit);
        let verdict = solver.solve(0);
        assert!(verdict.is_unknown(), "a zero budget decides nothing");
        caches.remember(&c1, &c2, &w, &verdict);
        assert_eq!(
            caches.verdict(&c1, &c2, &w),
            None,
            "Unknown is not memoized"
        );
        caches.park(&c1, &c2, &w, solver);
        assert_eq!(caches.solvers.len(), 1);

        let (mut solver, hit) = caches.take_miter_solver(&c1, &c2, &w).unwrap();
        assert!(hit, "the retry resumes the parked solver");
        assert_eq!(caches.solvers.len(), 0, "taken out while it runs");
        let verdict = solver.solve(UNBOUNDED);
        assert_eq!(verdict, MiterVerdict::Equivalent);
        caches.remember(&c1, &c2, &w, &verdict);
        assert_eq!(caches.verdict(&c1, &c2, &w), Some(MiterVerdict::Equivalent));
        assert_eq!(caches.solvers.len(), 0, "a decided retry leaves no solver");
    }

    #[test]
    fn decided_miters_leave_no_solver_resident() {
        let (c1, c2, w) = planted(5, 10);
        let a = Circuit::from_gates(3, [revmatch_circuit::Gate::not(0)]).unwrap();
        let b = Circuit::new(3);
        let id = MatchWitness::identity(3);
        let mut caches = ShardCaches::new(SatOptions::default());
        for (c1, c2, w) in [(&c1, &c2, &w), (&a, &b, &id)] {
            let (mut solver, hit) = caches.take_miter_solver(c1, c2, w).unwrap();
            assert!(!hit);
            let verdict = solver.solve(UNBOUNDED);
            assert!(!verdict.is_unknown());
            caches.remember(c1, c2, w, &verdict);
            assert_eq!(caches.verdict(c1, c2, w), Some(verdict));
        }
        assert!(matches!(
            caches.verdict(&a, &b, &id),
            Some(MiterVerdict::Counterexample { .. })
        ));
        assert_eq!(caches.solvers.len(), 0);
        assert_eq!(caches.verdicts.len(), 2);
    }

    #[test]
    fn family_hits_sweep_like_a_fresh_family_miter() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let inst = random_instance(Equivalence::new(Side::N, Side::I), 5, &mut rng);
        let family = WitnessFamily::InputNegation;
        let fresh = FamilyMiter::build(&inst.c1, &inst.c2, family).unwrap();
        let mut fresh_solver = CdclSolver::new(&fresh.cnf).with_branch_hint(fresh.input_hint());
        let expected = sweep_family(&mut fresh_solver, &fresh, None).unwrap();
        assert!(expected.witnesses.contains(&inst.witness));

        let mut caches = ShardCaches::new(SatOptions::default());
        for pass in 0..2 {
            let (solver, miter, hit) = caches.family_solver(&inst.c1, &inst.c2, family).unwrap();
            assert_eq!(hit, pass == 1);
            assert_eq!(miter.cnf.num_clauses(), 0, "the solver holds the clauses");
            let swept = sweep_family(solver, miter, None).unwrap();
            assert_eq!(swept.witnesses, expected.witnesses, "pass {pass}");
            assert_eq!(swept.solves, expected.solves, "pass {pass}");
        }
        assert_eq!(caches.solvers.len(), 1);
    }

    #[test]
    fn keys_over_the_byte_budget_are_not_memoized() {
        let not0 = revmatch_circuit::Gate::not(0);
        let gates = VERDICT_MEMO_BYTES / size_of::<Gate>();
        let big = Circuit::from_gates(3, std::iter::repeat_n(not0, gates)).unwrap();
        let id = MatchWitness::identity(3);
        assert!(verdict_cost(&big, &big, &id) > VERDICT_MEMO_BYTES);
        let mut caches = ShardCaches::new(SatOptions::default());
        caches.remember(&big, &big, &id, &MiterVerdict::Equivalent);
        assert_eq!(caches.verdict(&big, &big, &id), None);
        assert_eq!(caches.verdicts.len(), 0);
        // A key that fits is kept.
        let small = Circuit::new(3);
        caches.remember(&small, &small, &id, &MiterVerdict::Equivalent);
        assert_eq!(caches.verdicts.len(), 1);
    }
}
