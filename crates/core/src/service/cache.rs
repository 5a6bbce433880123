//! Worker-local memoization: dense tables, SAT verdicts and warm
//! solvers.
//!
//! The `(width, kind, equivalence)` shard routing in [`super::MatchService`]
//! means a lane keeps seeing the same circuits — the served pool, a
//! regression replay, or a client re-checking one miter family. Each
//! worker therefore carries a [`ShardCaches`]:
//!
//! * a **dense-table LRU** keyed by `(kind, circuit)` for the job's own
//!   circuits only, filled by lookup-then-adopt:
//!   [`ShardCaches::oracles_for`] is a pure lookup that hands a cached
//!   table in on a hit and returns an on-demand oracle
//!   ([`Oracle::on_demand`]) on a miss. That oracle compiles its own
//!   table only once its probes have paid for it, and after the matcher
//!   returns the executor adopts any table it bought
//!   ([`ShardCaches::adopt`]), so a repeated circuit reuses it. A job
//!   that supplies inverses gets each inverse oracle from the same
//!   entry: a hit reads the forward table backwards
//!   ([`TruthTable::inverse`]), derived once and kept in the entry, and
//!   a miss gets an on-demand oracle over the inverse circuit, whose
//!   bought table is adopted inverted under the forward circuit's key.
//!   No entry is keyed by an inverse circuit. An entry costs its key's
//!   gate bytes plus its tables' bytes;
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
//! which job asked for it. All three go through one [`Lru`], which
//! finds a key by a 64-bit [`Fingerprint`] of its circuits (computed
//! once per job circuit) and confirms every fingerprint match by full
//! equality, so a collision can never hand back the wrong table,
//! verdict or solver. A hit stamps a use counter; eviction takes the
//! least recently stamped entry, which is exactly the order a
//! move-to-front list evicts in. Table reuse is purely a speed layer —
//! oracle answers are bit-identical with or without it. A memoized
//! verdict is the one the miter's first decided solve returned:
//! `Equivalent` is the only possible answer for an equivalent pair,
//! while for a non-equivalent one a fresh solve could return a
//! different (equally valid) distinguishing input, so the memo's
//! evictions decide which counterexample a repeated job reports. Solver
//! reuse never changes a *completed* verdict either, but under a
//! per-verification budget a warm solver may **resolve** a formula the
//! cold solver had to leave `Unknown`: its retained learned clauses
//! amount to a head start, so budget-limited outcomes can improve
//! (never degrade, never flip between definitive answers) with cache
//! warmth. Caches are worker-local (no sharing, no locks): shard
//! affinity is what makes them hit.

use std::hash::{Hash, Hasher};
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

/// A 64-bit fingerprint of a circuit's width and gates, computed once
/// per job circuit and mixed into every cache key that holds it. Equal
/// circuits have equal fingerprints; a lookup confirms every match by
/// full equality, so the fingerprint only has to be cheap and spread.
///
/// Circuits come from clients, so collisions can be crafted: a colliding
/// key costs its lookup one full comparison, and a cache whose keys all
/// collide costs what comparing every key did before fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fingerprint(u64);

impl Fingerprint {
    /// One packed word per gate, folded by four interleaved
    /// multiply-rotate lanes: a served w6 circuit has about 150 gates,
    /// and a single multiply chain through their ~450 fields costs about
    /// as much as the lookup the fingerprint speeds up.
    pub fn of(circuit: &Circuit) -> Self {
        let mut lanes = [circuit.width() as u64, circuit.len() as u64, 0, 0];
        for gates in circuit.gates().chunks(4) {
            for (lane, gate) in lanes.iter_mut().zip(gates) {
                let word = gate.control_mask()
                    ^ gate.positive_mask().rotate_left(32)
                    ^ (gate.target() as u64).rotate_right(6);
                *lane = fx(*lane, word);
            }
        }
        Self(fingerprint(&lanes))
    }
}

/// FxHash's step: rotate, mix a word in, multiply.
fn fx(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// [`fx`] over every word a key's `Hash` writes, with a final
/// avalanche: for the few words that combine fingerprints into a key's.
struct FpHasher(u64);

impl Hasher for FpHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = fx(self.0, word);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        // MurmurHash3's fmix64.
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

fn fingerprint(value: &impl Hash) -> u64 {
    let mut hasher = FpHasher(0);
    value.hash(&mut hasher);
    hasher.finish()
}

/// The table cache's key: a job circuit, shared with the oracle that
/// bought its table, under the kind of job that bought it.
type TableKey = (JobKind, Arc<Circuit>);

/// A cached forward table and, once a job with inverses has asked for
/// it, the inverse read off it.
#[derive(Debug)]
struct Tables {
    forward: Arc<TruthTable>,
    inverse: Option<Arc<TruthTable>>,
}

/// Resident cost of one table-cache entry: the key's gate list, its
/// tables (`2^width` entries of 8 B each) and the entry itself. A served
/// w6 key of ~100 gates (~2.4 KB) outweighs its 512 B table.
fn table_cost((_, circuit): &TableKey, tables: &Tables) -> usize {
    let table_bytes = (1usize << tables.forward.width()) * size_of::<u64>();
    circuit.len() * size_of::<Gate>()
        + table_bytes * (1 + usize::from(tables.inverse.is_some()))
        + size_of::<(TableKey, Tables)>()
}

/// Resident cost of one verdict-memo entry, counted from its key: the
/// two gate lists, the witness's two line permutations, and the entry
/// itself.
fn verdict_cost(c1: &Circuit, c2: &Circuit, witness: &MatchWitness) -> usize {
    (c1.len() + c2.len()) * size_of::<Gate>()
        + 2 * witness.width() * size_of::<usize>()
        + size_of::<(VerdictKey, MiterVerdict)>()
}

/// A small LRU with exact-equality keys found by fingerprint, and a
/// per-entry cost hook: eviction keeps the total cost within `budget`
/// (a plain count cap is `cost = |_, _| 1`).
///
/// A lookup scans the fingerprints and confirms each match with the
/// caller's probe, so two keys that share a fingerprint stay apart. A
/// touch stamps the entry with the next tick of a use clock instead of
/// moving it; eviction takes the least recently stamped entry first,
/// which is the order a move-to-front list evicts from its cold end.
#[derive(Debug)]
struct Lru<K, V> {
    budget: usize,
    cost: fn(&K, &V) -> usize,
    total: usize,
    clock: u64,
    /// Each entry's fingerprint and last-use stamp, in entry order.
    meta: Vec<Meta>,
    entries: Vec<(K, V)>,
}

#[derive(Debug, Clone, Copy)]
struct Meta {
    fp: u64,
    used: u64,
}

impl<K, V> Lru<K, V> {
    fn new(budget: usize, cost: fn(&K, &V) -> usize) -> Self {
        Self {
            budget: budget.max(1),
            cost,
            total: 0,
            clock: 0,
            meta: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// The index of the entry with fingerprint `fp` whose key satisfies
    /// `probe`. Taking a predicate instead of an owned key keeps the hit
    /// path allocation-free for expensive keys (circuits, witnesses).
    fn find(&self, fp: u64, probe: impl Fn(&K) -> bool) -> Option<usize> {
        self.meta
            .iter()
            .zip(&self.entries)
            .position(|(meta, (key, _))| meta.fp == fp && probe(key))
    }

    fn stamp(&mut self, i: usize) {
        self.clock += 1;
        self.meta[i].used = self.clock;
    }

    /// Stamps the entry `find` locates as the most recently used and
    /// returns its index.
    fn touch(&mut self, fp: u64, probe: impl Fn(&K) -> bool) -> Option<usize> {
        let i = self.find(fp, probe)?;
        self.stamp(i);
        Some(i)
    }

    /// The cached value `find` locates (stamped as used).
    fn get(&mut self, fp: u64, probe: impl Fn(&K) -> bool) -> Option<&mut V> {
        let i = self.touch(fp, probe)?;
        Some(&mut self.entries[i].1)
    }

    /// Inserts `(key, value)` as the most recently used entry, evicting
    /// the least recently used until the total cost fits the budget (the
    /// newest entry always stays), and returns its index. The caller has
    /// probed first: a key is never inserted twice.
    fn insert(&mut self, fp: u64, key: K, value: V) -> usize {
        self.total += (self.cost)(&key, &value);
        self.meta.push(Meta { fp, used: 0 });
        self.entries.push((key, value));
        let newest = self.entries.len() - 1;
        self.stamp(newest);
        self.fit(newest)
    }

    /// Runs `f` on entry `i`'s value as a use of it, recounts its cost
    /// and evicts as [`Lru::insert`] does; returns what `f` returned.
    fn update<R>(&mut self, i: usize, f: impl FnOnce(&mut V) -> R) -> R {
        self.stamp(i);
        let (key, value) = &mut self.entries[i];
        self.total -= (self.cost)(key, value);
        let out = f(value);
        self.total += (self.cost)(key, value);
        self.fit(i);
        out
    }

    /// Evicts least recently used entries until the total cost fits the
    /// budget, keeping at least the entry at `newest` (just stamped, so
    /// never the coldest); returns that entry's index afterwards.
    fn fit(&mut self, mut newest: usize) -> usize {
        while self.total > self.budget && self.entries.len() > 1 {
            let coldest = (0..self.meta.len())
                .min_by_key(|&i| self.meta[i].used)
                .expect("len > 1");
            self.take(coldest);
            // `swap_remove` moved the last entry into the freed slot.
            if newest == self.entries.len() {
                newest = coldest;
            }
        }
        newest
    }

    fn take(&mut self, i: usize) -> V {
        self.meta.swap_remove(i);
        let (key, value) = self.entries.swap_remove(i);
        self.total -= (self.cost)(&key, &value);
        value
    }

    /// Returns the cached value `find` locates (stamped as used), or
    /// builds the `(key, value)` entry, inserts and returns it; a build
    /// error inserts nothing. The flag reports a hit.
    fn get_or_try_insert_with<E>(
        &mut self,
        fp: u64,
        probe: impl Fn(&K) -> bool,
        make: impl FnOnce() -> Result<(K, V), E>,
    ) -> Result<(&mut V, bool), E> {
        let (i, hit) = match self.touch(fp, probe) {
            Some(i) => (i, true),
            None => {
                let (key, value) = make()?;
                (self.insert(fp, key, value), false)
            }
        };
        Ok((&mut self.entries[i].1, hit))
    }

    /// Takes the entry `find` locates out of the cache.
    fn remove(&mut self, fp: u64, probe: impl Fn(&K) -> bool) -> Option<V> {
        let i = self.find(fp, probe)?;
        Some(self.take(i))
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The verdict memo's key: a witness miter's inputs.
type VerdictKey = (Circuit, Circuit, MatchWitness);

/// A witness miter's inputs `(c1, c2, witness)` with the fingerprint of
/// the whole key, mixed once per verification from the two circuits'
/// fingerprints: the verdict memo and a parked solver are found by it.
pub(crate) struct MiterKey<'a> {
    c1: &'a Circuit,
    c2: &'a Circuit,
    witness: &'a MatchWitness,
    fp: u64,
}

impl<'a> MiterKey<'a> {
    pub fn new(
        (c1, f1): (&'a Circuit, Fingerprint),
        (c2, f2): (&'a Circuit, Fingerprint),
        witness: &'a MatchWitness,
    ) -> Self {
        let fp = fingerprint(&(f1.0, f2.0, &witness.input, &witness.output));
        Self {
            c1,
            c2,
            witness,
            fp,
        }
    }

    fn is(&self, (c1, c2, witness): (&Circuit, &Circuit, &MatchWitness)) -> bool {
        c1 == self.c1 && c2 == self.c2 && witness == self.witness
    }
}

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

/// A job circuit's oracles from the table cache — see
/// [`ShardCaches::oracles_for`].
#[derive(Debug)]
pub(crate) struct CircuitOracles {
    /// The circuit's fingerprint, for the job's later cache calls.
    pub fp: Fingerprint,
    /// The oracle of the job circuit.
    pub forward: Oracle,
    /// The oracle of its inverse, when the job supplies inverses.
    pub inverse: Option<Oracle>,
    /// Whether the forward table came from the cache.
    pub hit: bool,
}

/// Per-worker memoization state — see the [module docs](self).
#[derive(Debug)]
pub(crate) struct ShardCaches {
    /// Dense tables of job circuits, evicted by total size: an entry
    /// costs its key's gate bytes plus `8·2^w` bytes per table it holds,
    /// so narrow mixes keep hundreds of entries while a single width-16
    /// job (512 KiB) still fits comfortably. Every kind shares the one
    /// byte budget.
    tables: Lru<TableKey, Tables>,
    /// Decided witness-miter verdicts, evicted by key bytes.
    verdicts: Lru<VerdictKey, MiterVerdict>,
    /// Family sweeps and budget-exhausted witness miters.
    solvers: Lru<(Circuit, Circuit, Target), (CdclSolver, Layout)>,
    /// CDCL feature set stamped onto every solver this worker builds
    /// (the service's [`revmatch_sat::SatOptions`] selection).
    sat_opts: SatOptions,
}

/// Byte budget for the per-worker dense-table cache (~16 MiB: 32
/// width-16 tables, or thousands of narrow entries). A count-based cap
/// would thrash on cyclic pools of small circuits, which is how the
/// served-mix and cheap-tcp benchmark workloads submit.
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

/// The table cache's fingerprint of `(kind, circuit)`.
fn table_fp(kind: JobKind, fp: Fingerprint) -> u64 {
    fingerprint(&(kind, fp.0))
}

/// The solver LRU's fingerprint of a family sweep over `(c1, c2)`.
fn family_fp(f1: Fingerprint, f2: Fingerprint, family: WitnessFamily) -> u64 {
    fingerprint(&(f1.0, f2.0, family))
}

impl ShardCaches {
    pub fn new(sat_opts: SatOptions) -> Self {
        Self {
            tables: Lru::new(TABLE_CACHE_BYTES, table_cost),
            verdicts: Lru::new(VERDICT_MEMO_BYTES, |(c1, c2, witness), _| {
                verdict_cost(c1, c2, witness)
            }),
            solvers: Lru::new(SOLVER_CACHE_CAP, |_, _| 1),
            sat_opts,
        }
    }

    /// The oracles for `circuit` on behalf of a `kind` job, and for its
    /// inverse when `with_inverse` is set: a pure lookup that never
    /// compiles. A hit hands in the table this worker holds for the same
    /// `(kind, circuit)`, and the inverse oracle reads the inverse kept in
    /// that entry, derived from the forward table by the first hit that
    /// asked for it. A miss returns on-demand oracles
    /// ([`Oracle::on_demand`]) for the circuit and, built only when first
    /// walked, its inverse; the tables they buy go back through
    /// [`ShardCaches::adopt`].
    pub fn oracles_for(
        &mut self,
        kind: JobKind,
        circuit: Circuit,
        with_inverse: bool,
    ) -> CircuitOracles {
        let fp = Fingerprint::of(&circuit);
        let Some(i) = self
            .tables
            .find(table_fp(kind, fp), |(k, c)| *k == kind && **c == circuit)
        else {
            let forward = Oracle::on_demand(circuit);
            let inverse = with_inverse.then(|| forward.inverse_oracle());
            return CircuitOracles {
                fp,
                forward,
                inverse,
                hit: false,
            };
        };
        let (table, inverse) = self.tables.update(i, |tables| {
            let inverse = with_inverse.then(|| {
                let forward = &tables.forward;
                Arc::clone(
                    tables
                        .inverse
                        .get_or_insert_with(|| Arc::new(forward.inverse())),
                )
            });
            (Arc::clone(&tables.forward), inverse)
        });
        let forward = Oracle::with_shared_table(circuit, table);
        let inverse = inverse.map(|table| forward.inverse_with_table(table));
        CircuitOracles {
            fp,
            forward,
            inverse,
            hit: true,
        }
    }

    /// Keeps the tables a `kind` job's on-demand oracles bought for one
    /// job circuit, under the key [`ShardCaches::oracles_for`] looks up:
    /// the forward table and the inverse one, or — when only the
    /// inverse oracle bought — that table inverted as the forward one
    /// (a no-op when an identical circuit of the same job adopted first;
    /// a later hit derives an inverse that entry lacks).
    pub fn adopt(&mut self, kind: JobKind, oracles: &CircuitOracles) {
        let bought = |o: &Oracle| o.compiled_on_demand().map(|c| Arc::clone(&c.table));
        let forward = bought(&oracles.forward);
        let inverse = oracles.inverse.as_ref().and_then(bought);
        if forward.is_none() && inverse.is_none() {
            return;
        }
        let circuit = oracles
            .forward
            .shared_circuit()
            .expect("a job circuit's oracle holds it");
        let fp = table_fp(kind, oracles.fp);
        if self
            .tables
            .touch(fp, |(k, c)| *k == kind && c == circuit)
            .is_none()
        {
            let forward = forward.unwrap_or_else(|| {
                Arc::new(inverse.as_ref().expect("one oracle bought").inverse())
            });
            let key = (kind, Arc::clone(circuit));
            self.tables.insert(fp, key, Tables { forward, inverse });
        }
    }

    /// The decided verdict this worker holds for the miter of `c1`
    /// against `witness ∘ c2 ∘ witness`, if any.
    pub fn verdict(&mut self, key: &MiterKey<'_>) -> Option<MiterVerdict> {
        self.verdicts
            .get(key.fp, |(a, b, w)| key.is((a, b, w)))
            .cloned()
    }

    /// Memoizes a decided verdict for `key` after a
    /// [`ShardCaches::verdict`] miss. `Unknown` is not a verdict to
    /// replay, and a key larger than the whole byte budget is not kept.
    pub fn remember(&mut self, key: &MiterKey<'_>, verdict: &MiterVerdict) {
        let (c1, c2, witness) = (key.c1, key.c2, key.witness);
        if verdict.is_unknown() || verdict_cost(c1, c2, witness) > VERDICT_MEMO_BYTES {
            return;
        }
        self.verdicts.insert(
            key.fp,
            (c1.clone(), c2.clone(), witness.clone()),
            verdict.clone(),
        );
    }

    /// The CDCL solver for `key`'s miter: taken out of the LRU when an
    /// earlier budget-exhausted solve parked it there (the flag reports
    /// that hit), else built cold. Hand it back with
    /// [`ShardCaches::park`] if it ends `Unknown` again.
    ///
    /// # Errors
    ///
    /// Those of [`MiterEncoding::build`] on a miss.
    pub fn take_miter_solver(
        &mut self,
        key: &MiterKey<'_>,
    ) -> Result<(MiterSolver, bool), MatchError> {
        let parked = self.solvers.remove(
            key.fp,
            |(a, b, t)| matches!(t, Target::Witness(w) if key.is((a, b, w))),
        );
        if let Some((solver, Layout::Miter(miter))) = parked {
            return Ok((MiterSolver { solver, miter }, true));
        }
        let mut miter = MiterEncoding::build(key.c1, key.c2, key.witness)?;
        let solver = cold_solver(self.sat_opts, &miter.cnf, miter.input_hint());
        miter.cnf = Cnf::default();
        Ok((MiterSolver { solver, miter }, false))
    }

    /// Parks a witness miter's solver whose budget ran out, so a retry
    /// of the same key resumes on its learned clauses.
    pub fn park(&mut self, key: &MiterKey<'_>, parked: MiterSolver) {
        self.solvers.insert(
            key.fp,
            (
                key.c1.clone(),
                key.c2.clone(),
                Target::Witness(key.witness.clone()),
            ),
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
        (c1, f1): (&Circuit, Fingerprint),
        (c2, f2): (&Circuit, Fingerprint),
        family: WitnessFamily,
    ) -> Result<(&mut CdclSolver, &FamilyMiter, bool), MatchError> {
        let opts = self.sat_opts;
        let ((solver, layout), hit) = self.solvers.get_or_try_insert_with::<MatchError>(
            family_fp(f1, f2, family),
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

    /// Probe/insert shorthand for the integer-keyed Lru tests, each key
    /// its own fingerprint.
    fn probe(lru: &mut Lru<u32, usize>, key: u32, value: usize) -> bool {
        let hit = lru.touch(key.into(), |k| *k == key).is_some();
        if !hit {
            lru.insert(key.into(), key, value);
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
    fn lru_confirms_fingerprint_matches_by_equality() {
        // Every key shares one fingerprint: a lookup must still return
        // only the equal key.
        let mut lru: Lru<u32, usize> = Lru::new(10, |_, _| 1);
        for key in 0..4 {
            lru.insert(7, key, 10 * key as usize);
        }
        for key in 0..4 {
            assert_eq!(lru.get(7, |k| *k == key).copied(), Some(10 * key as usize));
        }
        assert_eq!(lru.get(7, |k| *k == 9), None, "no equal key");
        assert_eq!(lru.get(8, |k| *k == 2), None, "another fingerprint");
        assert_eq!(lru.remove(7, |k| *k == 2), Some(20));
        assert_eq!(lru.get(7, |k| *k == 3).copied(), Some(30));
    }

    /// The move-to-front list the stamped [`Lru`] replaced, kept as the
    /// reference for its eviction order: a hit rotates the entry to the
    /// front, an insert goes in front, eviction pops the back.
    struct MoveToFront {
        budget: usize,
        total: usize,
        entries: Vec<(u32, usize)>,
    }

    impl MoveToFront {
        fn touch(&mut self, key: u32) -> bool {
            let Some(i) = self.entries.iter().position(|(k, _)| *k == key) else {
                return false;
            };
            self.entries[..=i].rotate_right(1);
            true
        }

        fn fit(&mut self) {
            while self.total > self.budget && self.entries.len() > 1 {
                let (_, cost) = self.entries.pop().expect("len > 1");
                self.total -= cost;
            }
        }

        fn insert(&mut self, key: u32, cost: usize) {
            self.total += cost;
            self.entries.insert(0, (key, cost));
            self.fit();
        }

        /// Re-costs the front entry (just touched).
        fn recost(&mut self, cost: usize) {
            self.total = self.total - self.entries[0].1 + cost;
            self.entries[0].1 = cost;
            self.fit();
        }

        fn remove(&mut self, key: u32) -> Option<usize> {
            let i = self.entries.iter().position(|(k, _)| *k == key)?;
            let (_, cost) = self.entries.remove(i);
            self.total -= cost;
            Some(cost)
        }
    }

    impl<K, V> Lru<K, V> {
        /// Every entry, most recently used first.
        fn by_recency(&self) -> Vec<&(K, V)> {
            let mut order: Vec<usize> = (0..self.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(self.meta[i].used));
            order.into_iter().map(|i| &self.entries[i]).collect()
        }
    }

    #[test]
    fn lru_evicts_in_move_to_front_order() {
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let mut lru: Lru<u32, usize> = Lru::new(20, |_, cost| *cost);
        let mut reference = MoveToFront {
            budget: 20,
            total: 0,
            entries: Vec::new(),
        };
        for step in 0..5000 {
            let key = rng.gen_range(0..24u32);
            // Three fingerprints for 24 keys: most lookups confirm
            // through a collision.
            let fp = u64::from(key % 3);
            let cost = rng.gen_range(1..8usize);
            match rng.gen_range(0..4) {
                0 => assert_eq!(lru.remove(fp, |k| *k == key), reference.remove(key)),
                1 => {
                    let found = lru.find(fp, |k| *k == key);
                    assert_eq!(found.is_some(), reference.touch(key), "step {step}");
                    if let Some(i) = found {
                        lru.update(i, |v| *v = cost);
                        reference.recost(cost);
                    }
                }
                _ => {
                    let hit = lru.touch(fp, |k| *k == key).is_some();
                    assert_eq!(hit, reference.touch(key), "step {step}");
                    if !hit {
                        lru.insert(fp, key, cost);
                        reference.insert(key, cost);
                    }
                }
            }
            let got: Vec<(u32, usize)> = lru.by_recency().into_iter().copied().collect();
            assert_eq!(got, reference.entries, "step {step}");
            assert_eq!(lru.total, reference.total, "step {step}");
        }
    }

    #[test]
    fn narrow_tables_with_long_keys_evict_once_their_bytes_pass_the_budget() {
        // w3 tables (64 B each) under keys of 4,000+ gates (~96 KB each):
        // counted by table bytes alone, all eight would fit in 400 KB.
        let budget = 400_000;
        let mut lru = Lru::new(budget, table_cost);
        for n in 0..8usize {
            let gates = std::iter::repeat_n(Gate::not(0), 4_000 + n);
            let circuit = Arc::new(Circuit::from_gates(3, gates).unwrap());
            let forward = Arc::new(TruthTable::compile(&circuit).unwrap());
            let key = (JobKind::Promise, circuit);
            let tables = Tables {
                forward,
                inverse: None,
            };
            assert!(table_cost(&key, &tables) > 4_000 * size_of::<Gate>());
            lru.insert(n as u64, key, tables);
            assert_eq!(lru.len(), (n + 1).min(4), "after {} inserts", n + 1);
            assert!(lru.total <= budget);
        }
        // The four most recent keys stayed.
        let kept: Vec<usize> = lru.by_recency().iter().map(|(k, _)| k.1.len()).collect();
        assert_eq!(kept, [4_007, 4_006, 4_005, 4_004]);
    }

    #[test]
    fn lru_remove_takes_the_entry_and_its_cost() {
        let mut lru: Lru<u32, usize> = Lru::new(10, |_, v| *v);
        probe(&mut lru, 1, 6);
        assert_eq!(lru.remove(1, |k| *k == 1), Some(6));
        assert_eq!(lru.remove(1, |k| *k == 1), None);
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
        let oracles = caches.oracles_for(kind, circuit.clone(), false);
        assert_eq!(oracles.forward.query(0), circuit.apply(0));
        caches.adopt(kind, &oracles);
        let compiled = oracles.forward.compiled_on_demand();
        (oracles.hit, compiled.map(|c| c.took))
    }

    #[test]
    fn cached_oracle_answers_match_fresh_compiles() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let c = random_circuit(&RandomCircuitSpec::for_width(6), &mut rng);
        let mut caches = ShardCaches::new(SatOptions::default());
        let cold = caches.oracles_for(JobKind::Promise, c.clone(), false);
        assert!(!cold.hit);
        assert!(
            cold.forward.compiled_on_demand().is_none(),
            "the lookup itself never compiles"
        );
        // At width 6 the buy price is one walk: the first probe compiles.
        assert_eq!(cold.forward.query(0), c.apply(0));
        assert!(
            cold.forward.compiled_on_demand().is_some(),
            "first probe buys"
        );
        caches.adopt(JobKind::Promise, &cold);
        let (cold, warm) = (
            cold.forward,
            caches.oracles_for(JobKind::Promise, c.clone(), false),
        );
        assert!(warm.hit);
        let warm = warm.forward;
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
        let ob = caches.oracles_for(JobKind::Promise, b.clone(), false);
        assert!(!ob.hit);
        assert_eq!(ob.forward.query(0), 2);
        let oa = caches.oracles_for(JobKind::Promise, a, false);
        assert!(oa.hit);
        assert_eq!(oa.forward.query(0), 1);
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
    fn inverse_oracles_read_the_forward_entry() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let spec = RandomCircuitSpec::for_width(6);
        let (c, d) = (
            random_circuit(&spec, &mut rng),
            random_circuit(&spec, &mut rng),
        );
        let kind = JobKind::Promise;
        let mut caches = ShardCaches::new(SatOptions::default());

        // Cold: only the inverse oracle is probed, so only it buys, and
        // its table is adopted inverted under the forward circuit's key.
        let cold = caches.oracles_for(kind, c.clone(), true);
        let cold_inv = cold.inverse.as_ref().expect("asked for the inverse");
        assert_eq!(cold_inv.query(5), c.inverse().apply(5));
        assert!(cold.forward.compiled_on_demand().is_none());
        assert!(cold_inv.compiled_on_demand().is_some());
        caches.adopt(kind, &cold);
        assert_eq!(caches.tables.len(), 1, "no entry keyed by the inverse");

        // Warm: the one lookup hands in both tables, and nothing compiles.
        let warm = caches.oracles_for(kind, c.clone(), true);
        assert!(warm.hit);
        let warm_inv = warm.inverse.as_ref().expect("asked for the inverse");
        assert_eq!(warm.forward.table(), Some(&c.truth_table().unwrap()));
        assert_eq!(warm_inv.table(), Some(&c.inverse().truth_table().unwrap()));
        for x in 0..64 {
            assert_eq!(warm.forward.query(x), c.apply(x));
            assert_eq!(warm_inv.query(x), c.inverse().apply(x));
        }
        assert!(warm.forward.compiled_on_demand().is_none());
        assert!(warm_inv.compiled_on_demand().is_none());
        assert_eq!(warm_inv.circuit(), &c.inverse(), "the gates, on request");

        // A forward-only entry gains its inverse on the first hit that
        // asks for one, counted in its cost, and keeps it.
        probe_and_adopt(&mut caches, kind, &d);
        let before = caches.tables.total;
        let first = caches.oracles_for(kind, d.clone(), true);
        assert_eq!(caches.tables.total, before + 64 * size_of::<u64>());
        let again = caches.oracles_for(kind, d.clone(), true);
        fn table(o: &CircuitOracles) -> &TruthTable {
            o.inverse.as_ref().and_then(Oracle::table).unwrap()
        }
        assert_eq!(table(&first), &d.inverse().truth_table().unwrap());
        assert!(std::ptr::eq(table(&first), table(&again)), "derived once");
        assert_eq!(caches.tables.total, before + 64 * size_of::<u64>());
        assert_eq!(caches.tables.len(), 2);
    }

    #[test]
    fn adopting_a_table_twice_keeps_one_entry() {
        let c = Circuit::from_gates(4, [revmatch_circuit::Gate::not(0)]).unwrap();
        let mut caches = ShardCaches::new(SatOptions::default());
        // Two oracles of one job miss on the same circuit; both buy.
        let a = caches.oracles_for(JobKind::Promise, c.clone(), false);
        let b = caches.oracles_for(JobKind::Promise, c.clone(), false);
        a.forward.query(0);
        b.forward.query(0);
        for o in [&a, &b] {
            assert!(o.forward.compiled_on_demand().is_some());
            caches.adopt(JobKind::Promise, o);
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

    /// The miter key of `(c1, c2, witness)`, fingerprints computed here.
    fn key<'a>(c1: &'a Circuit, c2: &'a Circuit, witness: &'a MatchWitness) -> MiterKey<'a> {
        MiterKey::new(
            (c1, Fingerprint::of(c1)),
            (c2, Fingerprint::of(c2)),
            witness,
        )
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
        let id = MatchWitness::identity(c.width());
        let mut caches = ShardCaches::new(SatOptions::default());
        let key = key(&c, &resynth, &id);
        let (mut solver, hit) = caches.take_miter_solver(&key).unwrap();
        assert!(!hit);
        assert_eq!(solver.solve(UNBOUNDED), MiterVerdict::Equivalent);
        caches.park(&key, solver);
        let (mut solver, hit) = caches.take_miter_solver(&key).unwrap();
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
        assert_eq!(caches.verdict(&key(&c1, &c2, &w)), None);
        caches.remember(&key(&c1, &c2, &w), &MiterVerdict::Equivalent);
        let memo = |caches: &mut ShardCaches, c1, c2, w| caches.verdict(&key(c1, c2, w));
        assert_eq!(
            memo(&mut caches, &c1, &c2, &w),
            Some(MiterVerdict::Equivalent)
        );
        assert_eq!(memo(&mut caches, &c1, &c2, &other), None, "another witness");
        assert_eq!(memo(&mut caches, &c2, &c1, &w), None, "swapped circuits");
        assert_eq!(memo(&mut caches, &c1, &c1, &w), None, "another c2");
        assert_eq!(memo(&mut caches, &c2, &c2, &w), None, "another c1");
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
        let key = key(&c1, &c2, &w);
        let mut caches = ShardCaches::new(SatOptions::default());
        let (mut solver, hit) = caches.take_miter_solver(&key).unwrap();
        assert!(!hit);
        let verdict = solver.solve(0);
        assert!(verdict.is_unknown(), "a zero budget decides nothing");
        caches.remember(&key, &verdict);
        assert_eq!(caches.verdict(&key), None, "Unknown is not memoized");
        caches.park(&key, solver);
        assert_eq!(caches.solvers.len(), 1);

        let (mut solver, hit) = caches.take_miter_solver(&key).unwrap();
        assert!(hit, "the retry resumes the parked solver");
        assert_eq!(caches.solvers.len(), 0, "taken out while it runs");
        let verdict = solver.solve(UNBOUNDED);
        assert_eq!(verdict, MiterVerdict::Equivalent);
        caches.remember(&key, &verdict);
        assert_eq!(caches.verdict(&key), Some(MiterVerdict::Equivalent));
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
            let key = key(c1, c2, w);
            let (mut solver, hit) = caches.take_miter_solver(&key).unwrap();
            assert!(!hit);
            let verdict = solver.solve(UNBOUNDED);
            assert!(!verdict.is_unknown());
            caches.remember(&key, &verdict);
            assert_eq!(caches.verdict(&key), Some(verdict));
        }
        assert!(matches!(
            caches.verdict(&key(&a, &b, &id)),
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
            let (solver, miter, hit) = caches
                .family_solver(
                    (&inst.c1, Fingerprint::of(&inst.c1)),
                    (&inst.c2, Fingerprint::of(&inst.c2)),
                    family,
                )
                .unwrap();
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
        caches.remember(&key(&big, &big, &id), &MiterVerdict::Equivalent);
        assert_eq!(caches.verdict(&key(&big, &big, &id)), None);
        assert_eq!(caches.verdicts.len(), 0);
        // A key that fits is kept.
        let small = Circuit::new(3);
        caches.remember(&key(&small, &small, &id), &MiterVerdict::Equivalent);
        assert_eq!(caches.verdicts.len(), 1);
    }
}
