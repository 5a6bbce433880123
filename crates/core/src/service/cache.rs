//! Worker-local memoization: dense-table and miter-solver caches.
//!
//! The `(width, equivalence)` shard routing in [`super::MatchService`]
//! means a lane keeps seeing the same circuits — the loadgen pool, a
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
//! * a **CDCL solver LRU** keyed by the exact miter CNF, so repeated
//!   SAT verification of the same circuit pair re-enters a solver that
//!   already holds the learned refutation — the warm path answers from
//!   the clause database.
//!
//! Keys are compared by full equality (not hash), so a collision can
//! never hand back the wrong table or solver. Table reuse is purely a
//! speed layer — oracle answers are bit-identical with or without it.
//! Solver reuse never changes a *completed* verdict either (any verdict
//! returned is correct), but under a per-verification budget a warm
//! solver may **resolve** a formula the cold solver had to leave
//! `Unknown`: its retained learned clauses amount to a head start, so
//! budget-limited outcomes can improve (never degrade, never flip
//! between definitive answers) with cache warmth. Caches are
//! worker-local (no sharing, no locks): shard affinity is what makes
//! them hit.

use std::sync::Arc;

use revmatch_circuit::{Circuit, DenseTable};
use revmatch_sat::{CdclSolver, Cnf, SatOptions};

use crate::engine::JobKind;
use crate::miter::MiterEncoding;
use crate::oracle::Oracle;

/// Resident cost of one cached dense table (`2^width` entries of 8 B).
fn table_cost(table: &Arc<DenseTable>) -> usize {
    (1usize << table.width()) * std::mem::size_of::<u64>()
}

/// A tiny move-to-front LRU with exact-equality keys and a per-entry
/// cost hook: eviction keeps the total cost within `budget` (a plain
/// count cap is `cost = |_| 1`).
#[derive(Debug)]
struct Lru<K, V> {
    budget: usize,
    cost: fn(&V) -> usize,
    total: usize,
    entries: Vec<(K, V)>,
}

impl<K: PartialEq, V> Lru<K, V> {
    fn new(budget: usize, cost: fn(&V) -> usize) -> Self {
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
    /// (circuits, formulas).
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

    /// Returns the cached value whose key satisfies `probe` (moved to
    /// front), or builds the `(key, value)` entry, inserts and returns
    /// it, evicting from the cold end until the total cost fits the
    /// budget (the newest entry always stays). The flag reports a hit.
    fn get_or_insert_with(
        &mut self,
        probe: impl Fn(&K) -> bool,
        make: impl FnOnce() -> (K, V),
    ) -> (&mut V, bool) {
        let hit = self.touch(probe);
        if !hit {
            let (key, value) = make();
            self.total += (self.cost)(&value);
            self.entries.insert(0, (key, value));
            while self.total > self.budget && self.entries.len() > 1 {
                let (_, evicted) = self.entries.pop().expect("len > 1");
                self.total -= (self.cost)(&evicted);
            }
        }
        (&mut self.entries[0].1, hit)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Per-worker memoization state — see the [module docs](self).
#[derive(Debug)]
pub(crate) struct ShardCaches {
    /// Dense tables, evicted by total size: a `2^w` table costs
    /// `8·2^w` bytes, so narrow mixes keep hundreds of tables while a
    /// single width-16 job (512 KiB) still fits comfortably. Every
    /// kind shares the one byte budget.
    tables: Lru<(JobKind, Circuit), Arc<DenseTable>>,
    solvers: Lru<(JobKind, Cnf), CdclSolver>,
    /// CDCL feature set stamped onto every solver this worker builds
    /// (the service's [`revmatch_sat::SatOptions`] selection).
    sat_opts: SatOptions,
}

/// Byte budget for the per-worker dense-table cache (~16 MiB: 32
/// width-16 tables, or thousands of narrow ones). A count-based cap
/// would thrash on cyclic pools of small circuits — the loadgen's exact
/// access pattern.
const TABLE_CACHE_BYTES: usize = 16 << 20;
/// Miter solvers kept per worker (each owns its clause database). Sized
/// above the loadgen pool's per-shard miter-family count: a cyclic
/// workload over more families than the capacity would never hit
/// (sequential scans are LRU's worst case).
const SOLVER_CACHE_CAP: usize = 32;

impl ShardCaches {
    pub fn new(sat_opts: SatOptions) -> Self {
        Self {
            tables: Lru::new(TABLE_CACHE_BYTES, table_cost),
            solvers: Lru::new(SOLVER_CACHE_CAP, |_| 1),
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
    pub fn adopt(&mut self, kind: JobKind, circuit: &Circuit, table: &Arc<DenseTable>) {
        self.tables.get_or_insert_with(
            |(k, c)| *k == kind && c == circuit,
            || ((kind, circuit.clone()), Arc::clone(table)),
        );
    }

    /// A CDCL solver owning `miter`'s formula, input-hinted, reused (with
    /// its learned clauses) when this worker has verified the same
    /// `(kind, miter)` before. The flag reports a solver-cache hit.
    pub fn solver_for(&mut self, kind: JobKind, miter: &MiterEncoding) -> (&mut CdclSolver, bool) {
        self.solver_for_cnf(kind, &miter.cnf, || miter.input_hint())
    }

    /// The generalized form of [`ShardCaches::solver_for`]: a cached CDCL
    /// solver for any `(kind, formula)` key — witness-family miters reuse
    /// it so one solver's learned clauses serve a whole family *across
    /// jobs*, not just across a single job's candidates (assumption-based
    /// solving leaves the cached solver clean; blocking clauses would
    /// not, which is why the service sweeps with assumptions).
    pub fn solver_for_cnf(
        &mut self,
        kind: JobKind,
        cnf: &Cnf,
        hint: impl FnOnce() -> Vec<usize>,
    ) -> (&mut CdclSolver, bool) {
        let opts = self.sat_opts;
        self.solvers.get_or_insert_with(
            |(k, cached)| *k == kind && *cached == *cnf,
            || {
                let solver = CdclSolver::new(cnf)
                    .with_options(opts)
                    .with_branch_hint(hint());
                ((kind, cnf.clone()), solver)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ClassicalOracle;
    use crate::witness::MatchWitness;
    use rand::SeedableRng;
    use revmatch_circuit::{random_circuit, RandomCircuitSpec};

    /// Probe/insert shorthand for the integer-keyed Lru tests.
    fn probe(lru: &mut Lru<u32, usize>, key: u32, value: usize) -> bool {
        lru.get_or_insert_with(|k| *k == key, || (key, value)).1
    }

    #[test]
    fn lru_hits_evicts_and_moves_to_front() {
        let mut lru: Lru<u32, usize> = Lru::new(2, |_| 1);
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
        let mut lru: Lru<u32, usize> = Lru::new(10, |v| *v);
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

    #[test]
    fn solver_cache_reuses_learned_state() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let c = random_circuit(&RandomCircuitSpec::for_width(5), &mut rng);
        let resynth = revmatch_circuit::synthesize(
            &c.truth_table().unwrap(),
            revmatch_circuit::SynthesisStrategy::Basic,
        )
        .unwrap();
        let miter = MiterEncoding::build(&c, &resynth, &MatchWitness::identity(c.width())).unwrap();
        let mut caches = ShardCaches::new(SatOptions::default());
        let (solver, hit) = caches.solver_for(JobKind::Promise, &miter);
        assert!(!hit);
        assert_eq!(solver.solve(), revmatch_sat::Solve::Unsat);
        let (solver, hit) = caches.solver_for(JobKind::Promise, &miter);
        assert!(hit);
        assert_eq!(solver.solve(), revmatch_sat::Solve::Unsat);
        assert_eq!(solver.conflicts(), 0, "warm verdict must be cached");
    }
}
