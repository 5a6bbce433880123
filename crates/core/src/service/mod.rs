//! The sharded serving layer: continuous matching under load.
//!
//! [`MatchService`] is the one way to run a job: clients submit jobs over
//! time and expect explicit backpressure when they outrun the hardware.
//! The job model it executes lives in [`job`].
//!
//! * **One intake, five scenario families**: every [`JobSpec`] kind —
//!   promise matching, non-promise identification, inverse-free
//!   quantum-path jobs, direct SAT-equivalence verdicts and witness
//!   enumeration — flows through the same queue, worker shards, caches
//!   and metrics. A bare [`EngineJob`] submits directly (it converts to
//!   a promise job). Matching algorithms are resolved through the
//!   [`crate::matchers::MatcherRegistry`], so a newly registered
//!   [`crate::matchers::Matcher`] is servable without touching this
//!   module.
//! * **N persistent worker shards** (`std::thread`, no external runtime),
//!   each owning one lane of a bounded MPMC intake queue. Jobs are routed
//!   by a hash of `(width, kind, equivalence)` so same-shaped work lands
//!   on the same shard — its cached dense tables, miter verdicts,
//!   family solvers and branch history stay hot — and idle workers
//!   steal from the fullest lane so affinity never costs parallelism.
//! * **Explicit backpressure**: [`MatchService::submit`] never blocks; it
//!   returns [`SubmitOutcome::Enqueued`] with a [`JobTicket`] or hands the
//!   job back as [`SubmitOutcome::QueueFull`]. [`MatchService::submit_wait`]
//!   is the blocking variant for batch producers.
//! * **Per-job completion handles**: a [`JobTicket`] resolves to the
//!   [`JobReport`] for exactly that job — results stream out as they
//!   finish, in any order, with nothing lost.
//! * **Graceful teardown**: [`MatchService::drain`] waits until every
//!   accepted job has completed (the service stays usable);
//!   [`MatchService::shutdown`] (and `Drop`) closes the intake, finishes
//!   the backlog, and joins the workers.
//! * **Metrics**: every accept/reject/completion feeds an atomic
//!   [`Metrics`] registry with a Prometheus-style text export
//!   ([`MatchService::metrics_text`]), including per-kind completion
//!   counters (`revmatch_jobs_{promise,identify,quantum,sat,enumerate}_total`),
//!   `kind`-labeled latency and execute-stage histograms, queue-wait
//!   decomposition, and per-shard jobs/steal/busy/idle introspection.
//! * **Tracing** (opt-in, [`crate::observe`]): with tracing enabled by
//!   [`ServiceConfig::with_trace`], sampled jobs record lifecycle spans
//!   into lock-free per-shard rings, drained via
//!   [`MatchService::trace_spans`] / [`MatchService::trace_json`]
//!   (Chrome trace-event format). Every completed job carries a
//!   [`JobTiming`] breakdown regardless.
//!
//! Determinism: a job solved with seed `s` produces the same witness and
//! query count whichever shard or worker count executes it
//! ([`MatchService::submit_seeded`]); `submit` derives seeds from the
//! service seed and the job's accept index, so a fixed submission order
//! is reproducible end to end.
//!
//! ```
//! use revmatch::{random_instance, EngineJob, Equivalence, MatchService, ServiceConfig, Side};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(9);
//! let jobs: Vec<EngineJob> = (0..4)
//!     .map(|_| {
//!         let inst = random_instance(Equivalence::new(Side::Np, Side::I), 5, &mut rng);
//!         EngineJob::from_instance(&inst, true)
//!     })
//!     .collect();
//! let service = MatchService::start(ServiceConfig::default().with_shards(2));
//! let tickets: Vec<_> = jobs
//!     .into_iter()
//!     .map(|job| service.submit_wait(job))
//!     .collect();
//! for t in tickets {
//!     assert!(t.wait().witness.is_ok());
//! }
//! assert_eq!(service.metrics().jobs_completed(), 4);
//! service.shutdown();
//! ```

mod admission;
mod cache;
pub mod job;
mod metrics;
mod queue;

pub use admission::AdmissionConfig;
pub use job::{
    EngineJob, EnumerateJob, IdentifyJob, JobKind, JobReport, JobSpec, QuantumAlgorithm,
    QuantumPathJob, SatEquivalenceJob,
};
pub use metrics::{Histogram, Metrics};

use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use rand::SeedableRng;
use revmatch_sat::{SatOptions, SolverBackend};

use crate::enumerate::{sweep_family, WitnessFamily};
use crate::error::MatchError;
use crate::identify::{identify_equivalence_with_oracles, IdentifyOptions};
use crate::matchers::{
    solve_promise_named, InverseAvailability, MatcherConfig, MatcherRegistry, Path, ProblemOracles,
};
use crate::miter::MiterVerdict;
use crate::observe::{Detail, JobTiming, SpanRecord, Stage, TraceConfig, Tracer};
use crate::oracle::Oracle;
use crate::verify::VerifyMode;
use crate::witness::MatchWitness;
use admission::Admission;
use cache::ShardCaches;
use queue::ShardedQueue;

/// SplitMix64 increment used to whiten per-job seed indices in
/// [`job_seed`].
const SEED_WHITENER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Derives the RNG seed for the `index`-th job of a stream rooted at
/// `base` — independent of shard placement and worker count.
///
/// [`MatchService::submit`] seeds the job it accepts `i`-th with
/// `job_seed(config.seed, i)`; submitting the same jobs through
/// [`MatchService::submit_seeded`] with these seeds, to a service of any
/// shard count, reproduces their witnesses and query counts exactly.
pub fn job_seed(base: u64, index: u64) -> u64 {
    base ^ index.wrapping_mul(SEED_WHITENER)
}

/// Configuration for a [`MatchService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of worker shards (threads). Defaults to
    /// `available_parallelism`.
    pub shards: usize,
    /// Intake capacity **per shard lane**; total capacity is
    /// `shards × queue_capacity`. Defaults to 64.
    pub queue_capacity: usize,
    /// Matcher tuning shared by every worker.
    pub matcher: MatcherConfig,
    /// Base seed for [`MatchService::submit`]'s derived per-job seeds.
    pub seed: u64,
    /// Decision + conflict budget per miter verification; exhausting it
    /// yields an explicit [`MiterVerdict::Unknown`] instead of stalling a
    /// worker shard.
    pub miter_budget: usize,
    /// CDCL feature set (LBD tiers, XOR/Gauss) applied to every
    /// worker-cached solver. Defaults to [`SatOptions::ALL`].
    pub sat_opts: SatOptions,
    /// Span tracing. Defaults to off: an untraced service allocates no
    /// recorder at all.
    pub trace: TraceConfig,
    /// Cost-aware admission control ([`AdmissionConfig`]); `None` (the
    /// default) admits every job FIFO exactly as before.
    pub admission: Option<AdmissionConfig>,
    /// Test-only fault injection: when set, a worker panics before
    /// executing any job whose accept index the predicate selects —
    /// exercising the `MatchError::WorkerLost` recovery path.
    #[doc(hidden)]
    pub panic_inject: Option<fn(u64) -> bool>,
}

/// Default per-verification search budget: generous enough for complete
/// width-14–16 verdicts on CDCL, while still bounding a worker's worst
/// case to well under a second.
pub const DEFAULT_MITER_BUDGET: usize = 2_000_000;

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            shards: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            queue_capacity: 64,
            matcher: MatcherConfig::default(),
            seed: 0,
            miter_budget: DEFAULT_MITER_BUDGET,
            sat_opts: SatOptions::ALL,
            trace: TraceConfig::off(),
            admission: None,
            panic_inject: None,
        }
    }
}

impl ServiceConfig {
    /// Overrides the shard count (clamped to at least 1).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Overrides the per-lane intake capacity (clamped to at least 1).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Overrides the matcher tuning.
    #[must_use]
    pub fn with_matcher(mut self, matcher: MatcherConfig) -> Self {
        self.matcher = matcher;
        self
    }

    /// Sets the base seed for derived per-job seeds.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the per-verification miter budget (clamped to ≥ 1).
    #[must_use]
    pub fn with_miter_budget(mut self, budget: usize) -> Self {
        self.miter_budget = budget.max(1);
        self
    }

    /// Pins the CDCL feature set for every worker-cached solver. Any
    /// combination is verdict-identical; the options trade raw speed
    /// for bookkeeping.
    #[must_use]
    pub fn with_sat_opts(mut self, opts: SatOptions) -> Self {
        self.sat_opts = opts;
        self
    }

    /// Sets the span-tracing configuration (see [`TraceConfig`]).
    #[must_use]
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Pins every quantum-path job to one simulation backend instead of
    /// the per-algorithm auto policy (stabilizer for Simon, sparse for
    /// swap tests). Jobs whose width exceeds the pinned backend's capacity
    /// complete with a clean error instead of falling back.
    #[must_use]
    pub fn with_quantum_backend(mut self, backend: revmatch_quantum::QuantumBackend) -> Self {
        self.matcher.quantum_backend = Some(backend);
        self
    }

    /// Enables cost-aware admission control: under overload (estimated
    /// queued work above [`AdmissionConfig::overload_us`]), expensive
    /// jobs are deferred or shed ([`SubmitOutcome::Shed`]) instead of
    /// FIFO-blocking cheap ones. Off by default.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Self {
        self.admission = Some(admission);
        self
    }

    /// Test-only: makes a worker panic before executing any job whose
    /// accept index the predicate selects (see
    /// [`MatchError::WorkerLost`]).
    #[doc(hidden)]
    #[must_use]
    pub fn with_panic_injection(mut self, inject: fn(u64) -> bool) -> Self {
        self.panic_inject = Some(inject);
        self
    }
}

/// State shared between a ticket and the worker resolving it.
#[derive(Debug)]
struct TicketState {
    slot: Mutex<Option<JobReport>>,
    done: Condvar,
}

/// Completion handle for one accepted job.
///
/// Returned by the `submit` family; resolves to the job's [`JobReport`]
/// via [`JobTicket::wait`]. Tickets outlive the service — a report
/// produced before shutdown can be claimed after it.
#[derive(Debug)]
pub struct JobTicket {
    id: u64,
    state: Arc<TicketState>,
}

impl JobTicket {
    /// The job's accept index (also the index used for derived seeding).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether the job has finished (its report is ready).
    pub fn is_done(&self) -> bool {
        // Poison-tolerant: a worker that panicked between taking the
        // ticket lock and storing the report leaves the slot empty but
        // consistent — the WorkerLost recovery path fills it afterwards.
        self.state
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
    }

    /// Blocks until the job completes and returns its report. Never
    /// panics on a poisoned ticket: if the executing worker died
    /// mid-job, the service resolves the ticket with a clean
    /// [`MatchError::WorkerLost`] report instead of propagating the
    /// worker's panic into the waiter.
    pub fn wait(self) -> JobReport {
        let mut slot = self
            .state
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(report) = slot.take() {
                return report;
            }
            slot = self
                .state
                .done
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Result of a non-blocking [`MatchService::submit`].
#[derive(Debug)]
#[must_use = "a rejected job is handed back inside QueueFull"]
pub enum SubmitOutcome {
    /// The job was accepted; redeem the ticket for its report.
    Enqueued(JobTicket),
    /// Every intake lane is full; the job is returned untouched.
    QueueFull(JobSpec),
    /// Admission control shed the job: the service is overloaded, the
    /// job's estimated cost is above the expensive threshold, and the
    /// deferral buffer is full. The job is returned untouched; only
    /// services started [`ServiceConfig::with_admission`] produce this.
    Shed(JobSpec),
}

impl SubmitOutcome {
    /// The ticket, if the job was accepted.
    pub fn ticket(self) -> Option<JobTicket> {
        match self {
            Self::Enqueued(t) => Some(t),
            Self::QueueFull(_) | Self::Shed(_) => None,
        }
    }
}

/// One queued unit of work.
#[derive(Debug)]
struct Request {
    /// The job's accept index (drives derived seeding and trace
    /// sampling; matches the ticket's [`JobTicket::id`]).
    id: u64,
    job: JobSpec,
    seed: u64,
    accepted_at: Instant,
    /// Admission-control cost estimate stamped at submit (0 with
    /// admission off); the backlog gauge moves by exactly this amount at
    /// enqueue and dequeue so it balances even as the model recalibrates.
    cost_us: u64,
    ticket: Arc<TicketState>,
}

/// Per-job observation state threaded through the `execute_*` paths: the
/// identity needed to emit spans plus the facts the executors discover
/// along the way (cache behavior, the substrate that did the work).
struct JobObs {
    /// Accept index of the job being executed.
    id: u64,
    /// The executing worker shard (the span ring to record into).
    shard: usize,
    /// Whether this job is trace-sampled (false with tracing off).
    traced: bool,
    /// Dense-table cache hits across the job's oracles.
    table_hits: u64,
    /// Whether any oracle was served from the table cache.
    cache_hit: bool,
    /// Substrate that executed the job (kernel / SAT / quantum backend),
    /// stamped by the executor for the execute span's label.
    detail: Detail,
}

impl JobObs {
    fn new(id: u64, shard: usize, traced: bool) -> Self {
        Self {
            id,
            shard,
            traced,
            table_hits: 0,
            cache_hit: false,
            detail: Detail::NONE,
        }
    }
}

/// State shared by the service handle and its workers.
#[derive(Debug)]
struct Shared {
    intake: ShardedQueue<Request>,
    metrics: Metrics,
    matcher: MatcherConfig,
    miter_budget: usize,
    sat_opts: SatOptions,
    /// Span recorder; `None` when tracing is off, so the cold path costs
    /// one pointer check per job.
    tracer: Option<Tracer>,
    /// Cost-aware admission controller; `None` (the default) is the
    /// plain FIFO intake.
    admission: Option<Admission>,
    /// Test-only worker fault injection (see
    /// [`ServiceConfig::with_panic_injection`]).
    panic_inject: Option<fn(u64) -> bool>,
    /// Accepted-but-unfinished jobs, with a condvar for [`MatchService::drain`].
    in_flight: Mutex<usize>,
    idle: Condvar,
}

impl Shared {
    /// Wraps a circuit in an oracle through the worker's kind-keyed
    /// dense-table cache: a hit hands the cached table in, a miss yields
    /// an on-demand oracle that compiles its own table only once its
    /// probes have paid for it ([`crate::Oracle::on_demand`]). The
    /// lookup never compiles; a traced job records it as a
    /// `cache_probe` span.
    fn oracle(
        &self,
        kind: JobKind,
        circuit: revmatch_circuit::Circuit,
        caches: &mut ShardCaches,
        obs: &mut JobObs,
    ) -> Oracle {
        let start = Instant::now();
        let (oracle, hit) = caches.oracle_for(kind, circuit);
        if hit {
            obs.table_hits += 1;
            obs.cache_hit = true;
        }
        if let Some(tracer) = self.tracer.as_ref().filter(|_| obs.traced) {
            let took = start.elapsed();
            tracer.record(
                obs.shard,
                obs.id,
                Stage::CacheProbe,
                kind,
                Detail::NONE,
                start,
                took,
            );
        }
        oracle
    }

    /// Runs after the matcher returns: adopts every table the job's
    /// on-demand oracles bought into the worker's LRU under the same
    /// `(kind, circuit)` key, records each compile's latency in the
    /// `table_compile` histogram, and for a traced job emits a
    /// `table_compile` span at the compile's real start — nested in
    /// `execute`, at the probe that crossed the buy price.
    fn adopt_tables<'a>(
        &self,
        kind: JobKind,
        oracles: impl IntoIterator<Item = &'a Oracle>,
        caches: &mut ShardCaches,
        obs: &JobObs,
    ) {
        for oracle in oracles {
            let Some(bought) = oracle.compiled_on_demand() else {
                continue;
            };
            self.metrics
                .record_table_compile(bought.took.as_micros() as u64);
            caches.adopt(kind, oracle.circuit(), &bought.table);
            if let Some(tracer) = self.tracer.as_ref().filter(|_| obs.traced) {
                tracer.record(
                    obs.shard,
                    obs.id,
                    Stage::TableCompile,
                    kind,
                    Detail::active_kernel(),
                    bought.started,
                    bought.took,
                );
            }
        }
    }

    /// Executes one job with a deterministic RNG; the worker body. Takes
    /// the job by value — the circuits move into the oracles instead of
    /// being cloned a second time. `caches` is the worker's private
    /// memoization state (dense tables, decided miter verdicts, warm
    /// solvers). Table reuse never changes results. A memoized verdict
    /// is the one the miter's first decided solve returned, so a
    /// repeated non-equivalent miter reports that solve's
    /// counterexample. Solver reuse never changes a *completed* verdict,
    /// though under a tight miter budget a warm solver may resolve a
    /// formula a cold one left `Unknown` (see the `cache` module docs).
    fn execute(
        &self,
        job: JobSpec,
        seed: u64,
        caches: &mut ShardCaches,
        obs: &mut JobObs,
    ) -> JobReport {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let report = match job {
            JobSpec::Promise(job) => self.execute_promise(job, &mut rng, caches, obs),
            JobSpec::Identify(job) => self.execute_identify(job, &mut rng, caches, obs),
            JobSpec::QuantumPath(job) => self.execute_quantum(job, &mut rng, caches, obs),
            JobSpec::SatEquivalence(job) => self.execute_sat(job, caches, obs),
            JobSpec::Enumerate(job) => self.execute_enumerate(job, caches, obs),
        };
        self.metrics.record_table_cache_hits(obs.table_hits);
        report
    }

    /// The original promise workload: registry dispatch plus optional
    /// SAT verification of the recovered witness.
    fn execute_promise(
        &self,
        job: EngineJob,
        rng: &mut rand::rngs::StdRng,
        caches: &mut ShardCaches,
        obs: &mut JobObs,
    ) -> JobReport {
        let kind = JobKind::Promise;
        obs.detail = Detail::active_kernel();
        let equivalence = job.equivalence;
        let c1 = self.oracle(kind, job.c1, caches, obs);
        let c2 = self.oracle(kind, job.c2, caches, obs);
        let (c1_inv, c2_inv) = if job.with_inverses {
            (
                Some(self.oracle(kind, c1.circuit().inverse(), caches, obs)),
                Some(self.oracle(kind, c2.circuit().inverse(), caches, obs)),
            )
        } else {
            (None, None)
        };
        let oracles = ProblemOracles {
            c1: &c1,
            c2: &c2,
            c1_inv: c1_inv.as_ref(),
            c2_inv: c2_inv.as_ref(),
        };
        let report = solve_promise_named(equivalence, &oracles, &self.matcher, rng);
        self.adopt_tables(kind, oracles.iter(), caches, obs);
        let (witness, rounds) = match report {
            Ok((entry, r)) => {
                self.metrics.record_entry_completion(entry);
                (Ok(r.witness), r.rounds)
            }
            Err(e) => (Err(e), 0),
        };
        let miter = if job.sat_verify {
            witness
                .as_ref()
                .ok()
                .map(|w| self.verify_witness(c1.circuit(), c2.circuit(), w, caches))
        } else {
            None
        };
        JobReport {
            kind,
            witness,
            queries: oracles.total_queries(),
            charged_queries: oracles.total_queries(),
            rounds,
            identified: None,
            witness_count: None,
            miter,
            timing: JobTiming::default(),
        }
    }

    /// The §3 non-promise workflow: walk the lattice for the minimal
    /// class, with derived inverses, charging the whole walk.
    fn execute_identify(
        &self,
        job: IdentifyJob,
        rng: &mut rand::rngs::StdRng,
        caches: &mut ShardCaches,
        obs: &mut JobObs,
    ) -> JobReport {
        let kind = JobKind::Identify;
        obs.detail = Detail::active_kernel();
        let (c1_inv, c2_inv) = (job.c1.inverse(), job.c2.inverse());
        // The oracles own the job's circuits; the walk reads them back
        // through `circuit()` rather than from copies.
        let (o1, o2, o1_inv, o2_inv) = (
            self.oracle(kind, job.c1, caches, obs),
            self.oracle(kind, job.c2, caches, obs),
            self.oracle(kind, c1_inv, caches, obs),
            self.oracle(kind, c2_inv, caches, obs),
        );
        let options = IdentifyOptions {
            config: self.matcher.clone(),
            allow_brute_force: job.allow_brute_force,
            verify: VerifyMode::Exhaustive,
        };
        let outcome = identify_equivalence_with_oracles(
            o1.circuit(),
            o2.circuit(),
            &o1,
            &o2,
            &o1_inv,
            &o2_inv,
            &options,
            rng,
        );
        self.adopt_tables(kind, [&o1, &o2, &o1_inv, &o2_inv], caches, obs);
        let spent = o1.queries() + o2.queries() + o1_inv.queries() + o2_inv.queries();
        let (witness, identified, rounds) = match outcome {
            Ok(Some(id)) => (
                Ok(id.witness),
                Some(id.equivalence),
                id.classes_tried as u64,
            ),
            Ok(None) => (Err(MatchError::NoEquivalence), None, 0),
            Err(e) => (Err(e), None, 0),
        };
        JobReport {
            kind,
            witness,
            queries: spent,
            charged_queries: spent,
            rounds,
            identified,
            witness_count: None,
            miter: None,
            timing: JobTiming::default(),
        }
    }

    /// The inverse-free quantum path: registry lookup on
    /// `(equivalence, None, Path::Quantum)`, with the Simon specialist
    /// selected by name. The simulation backend is resolved per
    /// algorithm (see [`MatcherConfig::simon_backend`] and
    /// [`MatcherConfig::swap_test_backend`]) and counted per job in the
    /// `revmatch_quantum_backend_jobs_total` metric. Oracles go through
    /// the worker's dense-table cache: Simon's classical oracle queries
    /// and sparse/dense quantum probes all route window evaluations
    /// through a compiled table when one exists, and a quantum window
    /// application buys a missing one at once.
    fn execute_quantum(
        &self,
        job: QuantumPathJob,
        rng: &mut rand::rngs::StdRng,
        caches: &mut ShardCaches,
        obs: &mut JobObs,
    ) -> JobReport {
        let kind = JobKind::Quantum;
        let registry = MatcherRegistry::global();
        let matcher = match job.algorithm {
            QuantumAlgorithm::SwapTest => {
                registry.lookup(job.equivalence, InverseAvailability::None, Path::Quantum)
            }
            QuantumAlgorithm::Simon => registry
                .lookup_named("n-i/simon")
                .filter(|m| m.equivalence() == job.equivalence),
        };
        let backend = match job.algorithm {
            QuantumAlgorithm::SwapTest => self.matcher.swap_test_backend(),
            QuantumAlgorithm::Simon => self.matcher.simon_backend(),
        };
        self.metrics.record_quantum_backend(backend);
        obs.detail = Detail::quantum(backend);
        let Some(matcher) = matcher else {
            let equivalence = format!(
                "{} on the quantum path ({:?})",
                job.equivalence, job.algorithm
            );
            return JobReport::error(kind, MatchError::Intractable { equivalence });
        };
        let c1 = self.oracle(kind, job.c1, caches, obs);
        let c2 = self.oracle(kind, job.c2, caches, obs);
        let oracles = ProblemOracles::without_inverses(&c1, &c2);
        let entry = matcher.name();
        let outcome = matcher.run(&oracles, &self.matcher, rng);
        self.adopt_tables(kind, oracles.iter(), caches, obs);
        match outcome {
            Ok(report) => {
                self.metrics.record_entry_completion(entry);
                JobReport {
                    kind,
                    witness: Ok(report.witness),
                    queries: report.queries,
                    charged_queries: report.charged_queries,
                    rounds: report.rounds,
                    identified: None,
                    witness_count: None,
                    miter: None,
                    timing: JobTiming::default(),
                }
            }
            Err(e) => JobReport {
                queries: oracles.total_queries(),
                charged_queries: oracles.total_queries(),
                ..JobReport::error(kind, e)
            },
        }
    }

    /// The direct white-box verdict: fold the claimed witness (identity
    /// when absent) into a miter and decide it through
    /// [`Shared::verify_witness`].
    fn execute_sat(
        &self,
        job: SatEquivalenceJob,
        caches: &mut ShardCaches,
        obs: &mut JobObs,
    ) -> JobReport {
        let kind = JobKind::Sat;
        obs.detail = Detail::solver(SolverBackend::Cdcl);
        let width = job.c1.width();
        let witness = job.witness.unwrap_or_else(|| MatchWitness::identity(width));
        for right in [job.c2.width(), witness.width()] {
            if right != width {
                let err = MatchError::WidthMismatch { left: width, right };
                return JobReport::error(kind, err);
            }
        }
        let verdict = self.verify_witness(&job.c1, &job.c2, &witness, caches);
        let witness = match &verdict {
            MiterVerdict::Equivalent => Ok(witness),
            MiterVerdict::Counterexample { .. } => Err(MatchError::PromiseViolated),
            MiterVerdict::Unknown { .. } => Err(MatchError::Inconclusive),
        };
        JobReport {
            kind,
            witness,
            queries: 0,
            charged_queries: 0,
            rounds: 0,
            identified: None,
            witness_count: None,
            miter: Some(verdict),
            timing: JobTiming::default(),
        }
    }

    /// Witness enumeration: sweep the whole candidate family under
    /// assumptions on one CDCL solver. The solver is cached per
    /// `(c1, c2, family)` with the family's selector layout — a repeated
    /// family re-enters a solver whose learned clauses already cover
    /// every candidate, without encoding the family again, so warm
    /// re-enumerations answer mostly by propagation. (Assumptions never
    /// poison the cache; this is why the service sweeps instead of
    /// running blocking-clause mode.)
    fn execute_enumerate(
        &self,
        job: EnumerateJob,
        caches: &mut ShardCaches,
        obs: &mut JobObs,
    ) -> JobReport {
        let kind = JobKind::Enumerate;
        obs.detail = Detail::solver(SolverBackend::Cdcl);
        let family = job.family;
        let cached = caches.family_solver(&job.c1, &job.c2, family);
        let outcome = cached.and_then(|(solver, miter, hit)| {
            if hit {
                self.metrics.record_solver_cache_hit();
            }
            let xors0 = solver.xors_extracted();
            let swept = sweep_family(solver, miter, Some(self.miter_budget));
            self.metrics.record_sat_core(
                solver.glue_clauses() as u64,
                solver.num_learned() as u64,
                (solver.xors_extracted() - xors0) as u64,
            );
            swept
        });
        match outcome {
            Ok(found) => {
                let count = found.count();
                let solves = found.solves;
                self.metrics.record_enumeration(count);
                self.metrics
                    .record_entry_completion(enumeration_entry_name(family));
                let witness = found
                    .witnesses
                    .into_iter()
                    .next()
                    .ok_or(MatchError::NoEquivalence);
                JobReport {
                    kind,
                    witness,
                    queries: 0,
                    charged_queries: 0,
                    rounds: solves,
                    identified: None,
                    witness_count: Some(count),
                    miter: None,
                    timing: JobTiming::default(),
                }
            }
            Err(e) => JobReport::error(kind, e),
        }
    }

    /// Proves (or refutes) a recovered witness. A worker that has
    /// decided the miter of the same `(c1, c2, witness)` before answers
    /// from its verdict memo, before any encoding. Otherwise the miter
    /// is solved on CDCL — resuming warm when an earlier
    /// budget-exhausted solve parked its solver — and a decided verdict
    /// is memoized, while an `Unknown` parks the solver for a warm
    /// retry. The job kind is in no key: a sat job and a sat-verified
    /// promise job share verdicts.
    fn verify_witness(
        &self,
        c1: &revmatch_circuit::Circuit,
        c2: &revmatch_circuit::Circuit,
        witness: &MatchWitness,
        caches: &mut ShardCaches,
    ) -> MiterVerdict {
        let verdict = if let Some(verdict) = caches.verdict(c1, c2, witness) {
            self.metrics.record_solver_cache_hit();
            verdict
        } else {
            let (mut miter, hit) = caches
                .take_miter_solver(c1, c2, witness)
                .expect("a solved job's circuits share a width");
            if hit {
                self.metrics.record_solver_cache_hit();
            }
            let xors0 = miter.solver.xors_extracted();
            let verdict = miter.solve(self.miter_budget);
            self.metrics.record_sat_core(
                miter.solver.glue_clauses() as u64,
                miter.solver.num_learned() as u64,
                (miter.solver.xors_extracted() - xors0) as u64,
            );
            if verdict.is_unknown() {
                caches.park(c1, c2, witness, miter);
            }
            caches.remember(c1, c2, witness, &verdict);
            verdict
        };
        self.metrics.record_sat_verify(verdict.is_unknown());
        verdict
    }

    /// The in-flight counter, tolerating poison: a worker panic between
    /// lock and unlock never wedges `drain` or the submit paths (the
    /// count itself is updated before/after the unwind-prone sections).
    fn lock_in_flight(&self) -> MutexGuard<'_, usize> {
        self.in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Moves deferred jobs back into the intake once the backlog has
    /// drained below the low-water mark. Runs at the top of every worker
    /// iteration — the workers that drained the backlog are exactly the
    /// ones with capacity for the parked expensive work.
    fn reinject_deferred(&self, shard: usize) {
        let Some(adm) = &self.admission else { return };
        while adm.below_low_water() {
            let Some(req) = adm.pop_deferred() else {
                return;
            };
            let metrics = &self.metrics;
            match self.intake.try_push(shard, req, |req, lane, depth| {
                req.accepted_at = Instant::now();
                metrics.record_requeue_accept(lane, depth);
                adm.note_enqueued(req.cost_us);
            }) {
                Ok(_) => {}
                Err(req) => {
                    // Every lane is full; keep the job parked and let
                    // this worker chew on the queue instead.
                    adm.push_front_deferred(req);
                    return;
                }
            }
        }
    }

    /// Worker main loop for shard `shard`: re-inject deferred work, pop,
    /// and process until the intake closes and drains; then execute any
    /// jobs still parked in the deferral buffer inline so shutdown
    /// resolves every outstanding ticket.
    fn run_worker(&self, shard: usize) {
        let mut caches = ShardCaches::new(self.sat_opts);
        let mut idle_since = Instant::now();
        loop {
            self.reinject_deferred(shard);
            let Some((req, lane)) = self.intake.pop(shard, |lane, depth| {
                self.metrics.record_dequeue(lane, depth)
            }) else {
                break;
            };
            if let Some(adm) = &self.admission {
                adm.note_dequeued(req.cost_us);
            }
            self.process_request(req, lane, shard, &mut caches, &mut idle_since);
        }
        while let Some(req) = self.admission.as_ref().and_then(Admission::pop_deferred) {
            self.process_request(req, shard, shard, &mut caches, &mut idle_since);
        }
    }

    /// Processes one dequeued request: time every lifecycle stage,
    /// execute, stamp the report's [`JobTiming`], resolve the ticket, and
    /// (for sampled jobs) emit the `queue_wait → dequeue → execute →
    /// report` spans. Timing measurement is unconditional — a handful of
    /// `Instant` reads per job — so every report carries its breakdown
    /// even with tracing off; only span *recording* is gated.
    ///
    /// The execute path runs under `catch_unwind`: a panic inside a
    /// matcher (or the test-only injection hook) becomes a clean
    /// [`MatchError::WorkerLost`] report on this job's ticket instead of
    /// killing the shard and poisoning the ticket mutex for the waiter.
    fn process_request(
        &self,
        req: Request,
        lane: usize,
        shard: usize,
        caches: &mut ShardCaches,
        idle_since: &mut Instant,
    ) {
        let dequeued_at = Instant::now();
        self.metrics.record_shard_idle(
            shard,
            dequeued_at
                .saturating_duration_since(*idle_since)
                .as_micros() as u64,
        );
        self.metrics.record_execution(shard, lane);
        let Request {
            id,
            job,
            seed,
            accepted_at,
            cost_us: _,
            ticket,
        } = req;
        let queue_wait = dequeued_at.saturating_duration_since(accepted_at);
        let kind = job.kind();
        let width = job.width();
        let traced = self.tracer.as_ref().is_some_and(|t| t.traced(id));
        let mut obs = JobObs::new(id, shard, traced);
        let exec_start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(inject) = self.panic_inject {
                if inject(id) {
                    panic!("injected worker panic (job {id})");
                }
            }
            self.execute(job, seed, caches, &mut obs)
        }));
        let exec_dur = exec_start.elapsed();
        let (mut report, lost) = match outcome {
            Ok(report) => (report, false),
            Err(_) => {
                // The unwind may have left the worker's memoization
                // state (dense tables, miter solvers) mid-mutation —
                // rebuild it rather than trust it.
                *caches = ShardCaches::new(self.sat_opts);
                self.metrics.record_worker_lost();
                (JobReport::error(kind, MatchError::WorkerLost), true)
            }
        };
        report.timing = JobTiming {
            queue_wait_us: queue_wait.as_micros() as u64,
            exec_us: exec_dur.as_micros() as u64,
            cache_hit: obs.cache_hit,
        };
        self.metrics
            .record_stage_timing(kind, report.timing.queue_wait_us, report.timing.exec_us);
        if !lost {
            // Calibrate the admission cost model with the measured
            // execute time (panicked jobs would skew it toward zero).
            if let Some(adm) = &self.admission {
                adm.observe(kind, width, report.timing.exec_us);
            }
        }
        let latency = accepted_at.elapsed().as_micros() as u64;
        let failed = job_failed(&report);
        self.metrics
            .record_completion(report.kind, failed, report.queries, latency);
        let report_start = Instant::now();
        *ticket.slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(report);
        ticket.done.notify_all();
        // Spans land before the in-flight count drops so a
        // `drain()` returning implies every completed job's spans
        // are already in the rings — `trace_spans` after a drain is
        // a consistent cut.
        if traced {
            if let Some(tracer) = &self.tracer {
                let d = Detail::NONE;
                tracer.record(
                    shard,
                    id,
                    Stage::QueueWait,
                    kind,
                    d,
                    accepted_at,
                    queue_wait,
                );
                tracer.record(
                    shard,
                    id,
                    Stage::Dequeue,
                    kind,
                    d,
                    dequeued_at,
                    exec_start.saturating_duration_since(dequeued_at),
                );
                tracer.record(shard, id, Stage::Execute, kind, obs.detail, exec_start, {
                    exec_dur
                });
                tracer.record(
                    shard,
                    id,
                    Stage::Report,
                    kind,
                    d,
                    report_start,
                    report_start.elapsed(),
                );
            }
        }
        let mut in_flight = self.lock_in_flight();
        *in_flight -= 1;
        if *in_flight == 0 {
            self.idle.notify_all();
        }
        drop(in_flight);
        *idle_since = Instant::now();
        self.metrics.record_shard_busy(
            shard,
            idle_since
                .saturating_duration_since(dequeued_at)
                .as_micros() as u64,
        );
    }
}

/// The stable per-entry metric name of an enumeration family. Four of
/// the five match the registry's `*/sat-enumerate` promise-path entries
/// by name; `n-n/sat-enumerate` follows the same convention but has no
/// registry entry — N-N is UNIQUE-SAT-hard, so the registry must not
/// offer it as a promise matcher, while the enumeration job kind may
/// still sweep it completely at bounded width.
fn enumeration_entry_name(family: WitnessFamily) -> &'static str {
    match family {
        WitnessFamily::InputNegation => "n-i/sat-enumerate",
        WitnessFamily::OutputNegation => "i-n/sat-enumerate",
        WitnessFamily::BothNegations => "n-n/sat-enumerate",
        WitnessFamily::InputPermutation => "p-i/sat-enumerate",
        WitnessFamily::OutputPermutation => "i-p/sat-enumerate",
    }
}

/// Whether a completed report counts as a failure in the metrics.
///
/// Per kind: a promise/quantum job fails when no witness came back, or
/// when a requested miter verification *refuted* the witness (the
/// matcher's answer was wrong). An identification job fails only on a
/// real error — "no class explains the pair" is a valid answer. A SAT
/// job fails only when the verdict is `Unknown` (budget ran out); a
/// counterexample is a definitive, successful verdict. An enumeration
/// job fails on a real error (budget exhaustion, unsupported width) —
/// a zero witness count is a complete, valid answer.
fn job_failed(report: &JobReport) -> bool {
    match report.kind {
        JobKind::Promise | JobKind::Quantum => {
            report.witness.is_err()
                || matches!(report.miter, Some(MiterVerdict::Counterexample { .. }))
        }
        JobKind::Identify | JobKind::Enumerate => {
            matches!(&report.witness, Err(e) if !matches!(e, MatchError::NoEquivalence))
        }
        JobKind::Sat => !matches!(
            report.miter,
            Some(MiterVerdict::Equivalent) | Some(MiterVerdict::Counterexample { .. })
        ),
    }
}

/// A long-lived sharded matching service — see the [module docs](self).
#[derive(Debug)]
pub struct MatchService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    base_seed: u64,
}

impl MatchService {
    /// Spawns the worker shards and opens the intake queue.
    pub fn start(config: ServiceConfig) -> Self {
        let shards = config.shards.max(1);
        let shared = Arc::new(Shared {
            intake: ShardedQueue::new(shards, config.queue_capacity.max(1)),
            metrics: Metrics::new(&config),
            matcher: config.matcher,
            miter_budget: config.miter_budget.max(1),
            sat_opts: config.sat_opts,
            tracer: config
                .trace
                .enabled()
                .then(|| Tracer::new(config.trace, shards)),
            admission: config.admission.map(Admission::new),
            panic_inject: config.panic_inject,
            in_flight: Mutex::new(0),
            idle: Condvar::new(),
        });
        let workers = (0..shards)
            .map(|shard| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("revmatch-shard-{shard}"))
                    .spawn(move || shared.run_worker(shard))
                    .expect("spawn worker shard")
            })
            .collect();
        Self {
            shared,
            workers,
            next_id: AtomicU64::new(0),
            base_seed: config.seed,
        }
    }

    /// Worker-shard count.
    pub fn shards(&self) -> usize {
        self.shared.intake.shards()
    }

    /// Jobs currently queued across every intake lane.
    pub fn queue_depth(&self) -> usize {
        self.shared.intake.total_depth()
    }

    /// The live metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The metrics registry rendered in the Prometheus text format.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics.render()
    }

    /// The span recorder, when tracing is enabled (`None` otherwise).
    pub fn tracer(&self) -> Option<&Tracer> {
        self.shared.tracer.as_ref()
    }

    /// Drains every retained span, start-ordered — empty with tracing
    /// off. See [`Tracer::spans`]. A job's worker-side spans land
    /// before it leaves the in-flight count, so [`drain`](Self::drain)
    /// followed by this call is a consistent cut; a ticket resolving is
    /// *not* yet that guarantee.
    pub fn trace_spans(&self) -> Vec<SpanRecord> {
        self.tracer().map(Tracer::spans).unwrap_or_default()
    }

    /// The retained spans serialized as Chrome trace-event JSON
    /// (Perfetto-loadable); `None` with tracing off.
    pub fn trace_json(&self) -> Option<String> {
        self.tracer()
            .map(|t| crate::observe::chrome_trace_json(&t.spans(), self.shards()))
    }

    /// Routes a job to its preferred shard by a static hash of `(width,
    /// kind, equivalence)`, so same-shaped work of the same family lands
    /// on the same shard and its kind-keyed caches stay hot.
    fn route(&self, job: &JobSpec) -> usize {
        let mut h = DefaultHasher::new();
        job.width().hash(&mut h);
        job.kind().hash(&mut h);
        job.equivalence().hash(&mut h);
        (h.finish() % self.shards() as u64) as usize
    }

    /// The admission controller's current backlog estimate in µs of
    /// queued execute time (0 with admission off).
    pub fn admission_backlog_us(&self) -> u64 {
        self.shared
            .admission
            .as_ref()
            .map_or(0, Admission::backlog_us)
    }

    /// Jobs currently parked in the admission deferral buffer.
    pub fn deferred_depth(&self) -> usize {
        self.shared
            .admission
            .as_ref()
            .map_or(0, Admission::deferred_len)
    }

    /// Allocates the next submit index and builds the request/ticket pair.
    /// `seed: None` derives the job seed from the service seed and the
    /// allocated index (so a fixed submit sequence replays exactly).
    fn make_request(&self, job: JobSpec, seed: Option<u64>) -> (Request, JobTicket) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let seed = seed.unwrap_or_else(|| job_seed(self.base_seed, id));
        let state = Arc::new(TicketState {
            slot: Mutex::new(None),
            done: Condvar::new(),
        });
        (
            Request {
                id,
                job,
                seed,
                // Provisional; re-stamped under the lane lock at the
                // moment the request actually enters the intake.
                accepted_at: Instant::now(),
                // Stamped by the submit paths when admission is on.
                cost_us: 0,
                ticket: Arc::clone(&state),
            },
            JobTicket { id, state },
        )
    }

    /// Records the producer-side `submit` span (routing + enqueue) for a
    /// sampled accepted job, into the tracer's dedicated submit ring.
    fn record_submit_span(&self, id: u64, kind: JobKind, start: Instant) {
        if let Some(tracer) = &self.shared.tracer {
            if tracer.traced(id) {
                tracer.record(
                    tracer.submit_ring(),
                    id,
                    Stage::Submit,
                    kind,
                    Detail::NONE,
                    start,
                    start.elapsed(),
                );
            }
        }
    }

    /// Non-blocking submit with a seed derived from the service seed and
    /// the job's submit index (rejected submits consume an index too).
    /// Accepts any [`JobSpec`] kind (a bare [`EngineJob`] converts to a
    /// promise job).
    pub fn submit(&self, job: impl Into<JobSpec>) -> SubmitOutcome {
        self.submit_inner(job.into(), None)
    }

    /// Non-blocking submit with an explicit per-job seed: the job's
    /// outcome depends only on `(job, seed)`, never on placement.
    pub fn submit_seeded(&self, job: impl Into<JobSpec>, seed: u64) -> SubmitOutcome {
        self.submit_inner(job.into(), Some(seed))
    }

    fn submit_inner(&self, job: JobSpec, seed: Option<u64>) -> SubmitOutcome {
        let submit_start = Instant::now();
        let kind = job.kind();
        let width = job.width();
        let preferred = self.route(&job);
        {
            let mut in_flight = self.shared.lock_in_flight();
            *in_flight += 1;
        }
        let (mut request, ticket) = self.make_request(job, seed);
        let adm = self.shared.admission.as_ref();
        if let Some(adm) = adm {
            request.cost_us = adm.estimate_us(kind, width);
            // Overload policy: an expensive job meeting a saturated
            // backlog is parked (requeued) rather than FIFO-blocking
            // the cheap work behind it — and shed outright when the
            // parking buffer is full too.
            if request.cost_us >= adm.config().expensive_us && adm.overloaded() {
                return match adm.defer(request) {
                    None => {
                        self.shared.metrics.record_defer_accept();
                        self.shared.metrics.record_admission_requeued();
                        // If the backlog collapsed between the overload
                        // check and the park (workers drained it and are
                        // now blocked in pop), nobody would wake to
                        // re-inject — close the race from this side.
                        self.shared.reinject_deferred(preferred);
                        self.record_submit_span(ticket.id(), kind, submit_start);
                        SubmitOutcome::Enqueued(ticket)
                    }
                    Some(request) => {
                        self.uncount_in_flight();
                        self.shared.metrics.record_admission_shed();
                        SubmitOutcome::Shed(request.job)
                    }
                };
            }
        }
        // The accept hook runs under the lane lock, before the job is
        // poppable: the submitted counter stays monotonic yet can never
        // trail a completion, and the accept timestamp is stamped at the
        // true enqueue moment.
        let metrics = &self.shared.metrics;
        match self
            .shared
            .intake
            .try_push(preferred, request, |req, lane, depth| {
                req.accepted_at = Instant::now();
                metrics.record_accept(lane, depth);
                if let Some(adm) = adm {
                    adm.note_enqueued(req.cost_us);
                }
            }) {
            Ok(_) => {
                self.record_submit_span(ticket.id(), kind, submit_start);
                SubmitOutcome::Enqueued(ticket)
            }
            Err(request) => {
                self.uncount_in_flight();
                self.shared.metrics.record_reject();
                SubmitOutcome::QueueFull(request.job)
            }
        }
    }

    /// Reverses the in-flight increment for a job that was counted but
    /// never entered the intake (queue-full rejection or admission shed).
    fn uncount_in_flight(&self) {
        let mut in_flight = self.shared.lock_in_flight();
        *in_flight -= 1;
        if *in_flight == 0 {
            self.shared.idle.notify_all();
        }
    }

    /// Blocking submit (derived seed): waits for intake space instead of
    /// rejecting. Accepts any [`JobSpec`] kind.
    pub fn submit_wait(&self, job: impl Into<JobSpec>) -> JobTicket {
        self.submit_wait_inner(job.into(), None)
    }

    /// Blocking submit with an explicit per-job seed.
    pub fn submit_wait_seeded(&self, job: impl Into<JobSpec>, seed: u64) -> JobTicket {
        self.submit_wait_inner(job.into(), Some(seed))
    }

    fn submit_wait_inner(&self, job: JobSpec, seed: Option<u64>) -> JobTicket {
        let submit_start = Instant::now();
        let kind = job.kind();
        let width = job.width();
        let preferred = self.route(&job);
        {
            let mut in_flight = self.shared.lock_in_flight();
            *in_flight += 1;
        }
        let (mut request, ticket) = self.make_request(job, seed);
        // A blocking submitter accepts waiting, so admission never sheds
        // or defers it — but the job's cost still enters the backlog
        // gauge so concurrent non-blocking submits see a true estimate.
        let adm = self.shared.admission.as_ref();
        if let Some(adm) = adm {
            request.cost_us = adm.estimate_us(kind, width);
        }
        // As in `submit_inner`: the job is only counted and timestamped
        // at the moment it actually enters a lane — time spent blocked on
        // a full intake is not billed to the job's latency.
        let metrics = &self.shared.metrics;
        match self
            .shared
            .intake
            .push_wait(preferred, request, |req, lane, depth| {
                req.accepted_at = Instant::now();
                metrics.record_accept(lane, depth);
                if let Some(adm) = adm {
                    adm.note_enqueued(req.cost_us);
                }
            }) {
            Ok(_) => {
                self.record_submit_span(ticket.id(), kind, submit_start);
                ticket
            }
            Err(_) => unreachable!("intake is open for the service's lifetime"),
        }
    }

    /// Blocks until every accepted job has completed. The service remains
    /// open: submits racing with `drain` extend the wait.
    pub fn drain(&self) {
        let mut in_flight = self.shared.in_flight.lock().expect("in_flight lock");
        while *in_flight > 0 {
            in_flight = self.shared.idle.wait(in_flight).expect("drain wait");
        }
    }

    /// Pauses the worker shards (they finish the job in hand and park).
    /// Submits still enqueue, so a paused service exposes backpressure
    /// deterministically — used by the backpressure and tracing tests.
    pub fn pause(&self) {
        self.shared.intake.pause();
    }

    /// Resumes paused workers.
    pub fn resume(&self) {
        self.shared.intake.resume();
    }

    /// Graceful shutdown: closes the intake, completes the backlog, joins
    /// the workers. Outstanding tickets resolve before this returns.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        self.shared.intake.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for MatchService {
    fn drop(&mut self) {
        self.close_and_join();
    }
}
