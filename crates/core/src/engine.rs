//! Batch match engine: solve many promise instances concurrently.
//!
//! The matchers in this crate solve one promise instance at a time; the
//! serving layer in [`crate::service`] runs a persistent sharded worker
//! pool with an intake queue, backpressure and metrics. This module is
//! the slice-shaped compatibility surface between the two:
//!
//! * [`EngineJob`] / [`JobReport`] are the job and result types shared
//!   with the service;
//! * [`MatchEngine::solve_batch`] is a thin wrapper that spins up a
//!   [`crate::service::MatchService`] sized to the batch, submits every
//!   job with its deterministic per-index seed, waits for all tickets,
//!   and shuts the service down — existing batch callers keep working
//!   unchanged while streaming callers move to the service directly;
//! * [`BatchOutcome`] aggregates per-job results with total query and
//!   wall-clock accounting ([`BatchOutcome::instances_per_sec`]).
//!
//! Determinism: job `i` is solved with an RNG seeded from
//! `seed ⊕ (i · 0x9E3779B97F4A7C15)`, independent of which worker shard
//! picks it up, so a batch solve is reproducible under any worker count —
//! and identical between this wrapper and direct
//! [`crate::service::MatchService::submit_seeded`] calls with the same
//! per-job seeds.

use std::fmt;
use std::time::{Duration, Instant};

use rand::Rng;
use revmatch_circuit::Circuit;
use revmatch_sat::SolverBackend;

use crate::enumerate::WitnessFamily;
use crate::equivalence::Equivalence;
use crate::error::MatchError;
use crate::matchers::MatcherConfig;
use crate::miter::MiterVerdict;
use crate::promise::PromiseInstance;
use crate::service::{job_seed, JobTicket, MatchService, ServiceConfig};
use crate::witness::MatchWitness;

/// The five job families the serving stack executes — see [`JobSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum JobKind {
    /// Promise matching: recover the witness of a promised X-Y pair.
    Promise,
    /// Non-promise identification: walk the Fig. 1 lattice for the
    /// minimal class explaining an arbitrary pair (§3).
    Identify,
    /// Inverse-free quantum matching of the classically-hard classes
    /// (N-I / NP-I) via swap tests or Simon-style sampling.
    Quantum,
    /// Direct complete equivalence check by SAT miter (white box).
    Sat,
    /// Witness enumeration: count every transform of a family explaining
    /// the pair, via incremental-assumption SAT over one shared solver.
    Enumerate,
}

impl JobKind {
    /// All five kinds, in metric-export order.
    pub const ALL: [JobKind; 5] = [
        JobKind::Promise,
        JobKind::Identify,
        JobKind::Quantum,
        JobKind::Sat,
        JobKind::Enumerate,
    ];

    /// The stable lowercase label used in metric names and flags.
    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::Promise => "promise",
            JobKind::Identify => "identify",
            JobKind::Quantum => "quantum",
            JobKind::Sat => "sat",
            JobKind::Enumerate => "enumerate",
        }
    }

    /// Index into per-kind metric arrays (dense, `0..5`).
    pub(crate) fn index(self) -> usize {
        match self {
            JobKind::Promise => 0,
            JobKind::Identify => 1,
            JobKind::Quantum => 2,
            JobKind::Sat => 3,
            JobKind::Enumerate => 4,
        }
    }
}

impl fmt::Display for JobKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for JobKind {
    type Err = MatchError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "promise" => Ok(JobKind::Promise),
            "identify" => Ok(JobKind::Identify),
            "quantum" => Ok(JobKind::Quantum),
            "sat" => Ok(JobKind::Sat),
            "enumerate" => Ok(JobKind::Enumerate),
            other => Err(MatchError::Parse {
                reason: format!("unknown job kind {other:?}"),
            }),
        }
    }
}

/// One matching problem for the engine: a promised pair plus the
/// resources the solver may assume.
#[derive(Debug, Clone)]
pub struct EngineJob {
    /// The promised equivalence type.
    pub equivalence: Equivalence,
    /// The transformed circuit.
    pub c1: Circuit,
    /// The base circuit.
    pub c2: Circuit,
    /// Whether the solver may derive and use inverse oracles (the
    /// paper's §3 variant).
    pub with_inverses: bool,
    /// Whether a recovered witness must additionally be proven (or
    /// refuted) by a SAT miter on the service's configured backend —
    /// the complete, any-width check behind [`JobReport::miter`].
    pub sat_verify: bool,
}

impl EngineJob {
    /// Builds a job from a generated [`PromiseInstance`] (no SAT
    /// verification by default).
    pub fn from_instance(instance: &PromiseInstance, with_inverses: bool) -> Self {
        Self {
            equivalence: instance.equivalence,
            c1: instance.c1.clone(),
            c2: instance.c2.clone(),
            with_inverses,
            sat_verify: false,
        }
    }

    /// Requests complete SAT-miter verification of the recovered witness.
    #[must_use]
    pub fn with_sat_verification(mut self) -> Self {
        self.sat_verify = true;
        self
    }
}

/// A non-promise identification job: find the **minimal** equivalence
/// class explaining an arbitrary circuit pair (the §3 lattice walk).
#[derive(Debug, Clone)]
pub struct IdentifyJob {
    /// The transformed circuit.
    pub c1: Circuit,
    /// The base circuit.
    pub c2: Circuit,
    /// Whether the UNIQUE-SAT-hard classes may be brute-forced at small
    /// widths (expensive; off keeps identification polynomial).
    pub allow_brute_force: bool,
}

impl IdentifyJob {
    /// An identification job over a circuit pair (brute force allowed).
    pub fn new(c1: Circuit, c2: Circuit) -> Self {
        Self {
            c1,
            c2,
            allow_brute_force: true,
        }
    }

    /// Disables the brute-force fallback for the hard classes.
    #[must_use]
    pub fn without_brute_force(mut self) -> Self {
        self.allow_brute_force = false;
        self
    }
}

/// Which inverse-free quantum algorithm a [`QuantumPathJob`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantumAlgorithm {
    /// Swap-test probing: the paper's Algorithm 1 for N-I
    /// (`O(n log 1/ε)`) and its NP-I extension (`O(n² log 1/ε)`).
    SwapTest,
    /// Simon-style hidden-shift sampling (footnote 2): exact answer in
    /// `~n` rounds, N-I only, needs `2n + 1` simulated qubits.
    Simon,
}

/// A quantum-path job: solve a promised N-I or NP-I instance **without
/// inverses** — the classes Theorem 1 proves classically exponential.
#[derive(Debug, Clone)]
pub struct QuantumPathJob {
    /// The promised equivalence (must be N-I or NP-I; Simon is N-I only).
    pub equivalence: Equivalence,
    /// The transformed circuit.
    pub c1: Circuit,
    /// The base circuit.
    pub c2: Circuit,
    /// The algorithm to run.
    pub algorithm: QuantumAlgorithm,
}

/// A direct SAT-equivalence job: prove or refute `C1 = T_Y ∘ C2 ∘ T_X`
/// completely (any width) on the service's configured solver backend.
#[derive(Debug, Clone)]
pub struct SatEquivalenceJob {
    /// The transformed circuit.
    pub c1: Circuit,
    /// The base circuit.
    pub c2: Circuit,
    /// The claimed witness to fold into the miter; `None` checks plain
    /// I-I equivalence (identity witness).
    pub witness: Option<MatchWitness>,
}

/// A witness-enumeration job: count (and exhibit) **every** transform of
/// `family` explaining the pair, by an incremental-assumption SAT sweep
/// over one shared solver (see [`crate::enumerate`]).
#[derive(Debug, Clone)]
pub struct EnumerateJob {
    /// The transformed circuit.
    pub c1: Circuit,
    /// The base circuit.
    pub c2: Circuit,
    /// The candidate family to sweep.
    pub family: WitnessFamily,
}

impl EnumerateJob {
    /// An enumeration job over a circuit pair.
    pub fn new(c1: Circuit, c2: Circuit, family: WitnessFamily) -> Self {
        Self { c1, c2, family }
    }
}

/// A job for the serving stack: one of the five scenario families, all
/// flowing through the same intake queue, shard routing, caches and
/// metrics of [`crate::service::MatchService`].
///
/// [`EngineJob`] (the original promise job) converts losslessly via
/// `From`, so batch-shaped callers keep submitting plain `EngineJob`s.
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// Promise matching (optionally SAT-verified) — the PR-1/2 workload.
    Promise(EngineJob),
    /// Minimal-class identification of an arbitrary pair.
    Identify(IdentifyJob),
    /// Inverse-free quantum matching (N-I / NP-I).
    QuantumPath(QuantumPathJob),
    /// Complete white-box equivalence verdict by SAT miter.
    SatEquivalence(SatEquivalenceJob),
    /// Witness enumeration over a candidate family.
    Enumerate(EnumerateJob),
}

impl JobSpec {
    /// The job's kind tag (used for routing, metrics and cache keys).
    pub fn kind(&self) -> JobKind {
        match self {
            JobSpec::Promise(_) => JobKind::Promise,
            JobSpec::Identify(_) => JobKind::Identify,
            JobSpec::QuantumPath(_) => JobKind::Quantum,
            JobSpec::SatEquivalence(_) => JobKind::Sat,
            JobSpec::Enumerate(_) => JobKind::Enumerate,
        }
    }

    /// Circuit width of the job's pair.
    pub fn width(&self) -> usize {
        match self {
            JobSpec::Promise(j) => j.c1.width(),
            JobSpec::Identify(j) => j.c1.width(),
            JobSpec::QuantumPath(j) => j.c1.width(),
            JobSpec::SatEquivalence(j) => j.c1.width(),
            JobSpec::Enumerate(j) => j.c1.width(),
        }
    }

    /// The promised (or enumerated) equivalence, for the kinds that carry
    /// one (identification and plain SAT checks have no a-priori class).
    pub fn equivalence(&self) -> Option<Equivalence> {
        match self {
            JobSpec::Promise(j) => Some(j.equivalence),
            JobSpec::QuantumPath(j) => Some(j.equivalence),
            JobSpec::Enumerate(j) => Some(j.family.equivalence()),
            JobSpec::Identify(_) | JobSpec::SatEquivalence(_) => None,
        }
    }
}

impl From<EngineJob> for JobSpec {
    fn from(job: EngineJob) -> Self {
        JobSpec::Promise(job)
    }
}

impl From<IdentifyJob> for JobSpec {
    fn from(job: IdentifyJob) -> Self {
        JobSpec::Identify(job)
    }
}

impl From<QuantumPathJob> for JobSpec {
    fn from(job: QuantumPathJob) -> Self {
        JobSpec::QuantumPath(job)
    }
}

impl From<SatEquivalenceJob> for JobSpec {
    fn from(job: SatEquivalenceJob) -> Self {
        JobSpec::SatEquivalence(job)
    }
}

impl From<EnumerateJob> for JobSpec {
    fn from(job: EnumerateJob) -> Self {
        JobSpec::Enumerate(job)
    }
}

/// Result of one job, uniform across every [`JobSpec`] kind.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Which job family produced this report.
    pub kind: JobKind,
    /// The recovered witness, or why matching failed.
    ///
    /// Per kind: promise and quantum jobs report the matcher's witness;
    /// identification reports the validated minimal witness (or
    /// [`MatchError::NoEquivalence`] when no class explains the pair — a
    /// clean negative, not counted as a failure); SAT jobs report the
    /// proven witness on `Equivalent`, [`MatchError::PromiseViolated`]
    /// on a counterexample, [`MatchError::Inconclusive`] on budget
    /// exhaustion.
    pub witness: Result<MatchWitness, MatchError>,
    /// Oracle queries this job spent (across all its oracles; for
    /// identification, across the whole lattice walk).
    pub queries: u64,
    /// Oracle queries actually issued in batched rounds — equals
    /// [`queries`](JobReport::queries) except for matchers with a
    /// distinct paper metric (the N-I collision search).
    pub charged_queries: u64,
    /// Algorithm-specific round count (probe rounds, Simon sampling
    /// rounds); 0 when the matcher reports none.
    pub rounds: u64,
    /// The minimal equivalence found, for identification jobs.
    pub identified: Option<Equivalence>,
    /// Number of family witnesses found, for enumeration jobs (`Some(0)`
    /// proves the pair is not family-equivalent — a clean negative, with
    /// [`MatchError::NoEquivalence`] in the witness slot).
    pub witness_count: Option<u64>,
    /// SAT-miter verdict: present for SAT-equivalence jobs and for
    /// promise jobs that asked for verification
    /// ([`EngineJob::with_sat_verification`]) and recovered a witness.
    /// `Equivalent` proves the witness correct on every input;
    /// `Counterexample` refutes it (a verified promise job then counts
    /// as failed); `Unknown` means the per-job miter budget ran out.
    pub miter: Option<MiterVerdict>,
    /// Per-stage wall-clock breakdown, stamped by the service on every
    /// completed job whether tracing is enabled or not. Engine-batch
    /// reports (no queue, no service) carry the default zeros.
    pub timing: crate::observe::JobTiming,
}

/// Aggregate result of a batch solve.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-job reports, in job order.
    pub reports: Vec<JobReport>,
    /// Total oracle queries across all jobs.
    pub total_queries: u64,
    /// Wall-clock time for the whole batch.
    pub elapsed: Duration,
}

impl BatchOutcome {
    /// Number of jobs whose witness was recovered.
    pub fn solved(&self) -> usize {
        self.reports.iter().filter(|r| r.witness.is_ok()).count()
    }

    /// Batch throughput in instances per second.
    pub fn instances_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.reports.len() as f64 / secs
        } else {
            f64::INFINITY
        }
    }
}

/// A reusable concurrent solver for batches of promise instances.
///
/// Each `solve_batch` call runs on a fresh, batch-sized
/// [`MatchService`]; callers that submit continuously should hold a
/// long-lived service instead and skip the per-batch spawn/join cost.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use revmatch::{random_instance, EngineJob, Equivalence, MatchEngine, MatcherConfig, Side};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let jobs: Vec<EngineJob> = (0..8)
///     .map(|_| {
///         let inst = random_instance(Equivalence::new(Side::Np, Side::I), 5, &mut rng);
///         EngineJob::from_instance(&inst, true)
///     })
///     .collect();
/// let engine = MatchEngine::new(MatcherConfig::default()).with_workers(4);
/// let outcome = engine.solve_batch(&jobs, 7);
/// assert_eq!(outcome.solved(), 8);
/// # Ok::<(), revmatch::MatchError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MatchEngine {
    config: MatcherConfig,
    workers: usize,
    solver_backend: SolverBackend,
}

impl MatchEngine {
    /// An engine with one worker per available CPU and the CDCL backend
    /// for SAT-verified jobs.
    pub fn new(config: MatcherConfig) -> Self {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self {
            config,
            workers,
            solver_backend: SolverBackend::default(),
        }
    }

    /// Picks the SAT backend used when jobs request miter verification
    /// ([`EngineJob::with_sat_verification`]).
    #[must_use]
    pub fn with_solver_backend(mut self, backend: SolverBackend) -> Self {
        self.solver_backend = backend;
        self
    }

    /// Overrides the worker count (clamped to at least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// The worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Solves every job on a batch-sized [`MatchService`].
    ///
    /// Results come back in job order. `seed` makes the whole batch
    /// deterministic (each job's RNG depends only on `seed` and its
    /// index, not on scheduling or shard placement).
    pub fn solve_batch(&self, jobs: &[EngineJob], seed: u64) -> BatchOutcome {
        let start = Instant::now();
        if jobs.is_empty() {
            return BatchOutcome {
                reports: Vec::new(),
                total_queries: 0,
                elapsed: start.elapsed(),
            };
        }
        let shards = self.workers.min(jobs.len()).max(1);
        let service = MatchService::start(
            ServiceConfig::default()
                .with_shards(shards)
                .with_queue_capacity(jobs.len().div_ceil(shards))
                .with_matcher(self.config.clone())
                .with_solver_backend(self.solver_backend)
                .with_seed(seed),
        );
        // Total intake capacity covers the batch, so no submit blocks.
        let tickets: Vec<JobTicket> = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| service.submit_wait_seeded(job.clone(), job_seed(seed, i as u64)))
            .collect();
        let reports: Vec<JobReport> = tickets.into_iter().map(JobTicket::wait).collect();
        service.shutdown();
        let total_queries = reports.iter().map(|r| r.queries).sum();
        BatchOutcome {
            reports,
            total_queries,
            elapsed: start.elapsed(),
        }
    }

    /// Convenience wrapper: solve a slice of generated instances.
    pub fn solve_instances(
        &self,
        instances: &[PromiseInstance],
        with_inverses: bool,
        seed: u64,
    ) -> BatchOutcome {
        let jobs: Vec<EngineJob> = instances
            .iter()
            .map(|inst| EngineJob::from_instance(inst, with_inverses))
            .collect();
        self.solve_batch(&jobs, seed)
    }
}

/// Generates a reproducible batch of promise instances for load tests
/// and benchmarks (reproducibility comes from the caller's `rng` seed).
pub fn random_job_batch(
    equivalence: Equivalence,
    width: usize,
    count: usize,
    with_inverses: bool,
    rng: &mut impl Rng,
) -> Vec<EngineJob> {
    (0..count)
        .map(|_| {
            let inst = crate::promise::random_instance(equivalence, width, rng);
            EngineJob::from_instance(&inst, with_inverses)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::Side;
    use crate::lattice::classify;
    use crate::promise::random_instance;
    use crate::verify::{check_witness, VerifyMode};
    use rand::SeedableRng;

    fn tractable_batch(width: usize, per_type: usize) -> (Vec<EngineJob>, Vec<PromiseInstance>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xE51E);
        let mut jobs = Vec::new();
        let mut instances = Vec::new();
        for e in Equivalence::all() {
            if !classify(e).is_tractable() {
                continue;
            }
            for _ in 0..per_type {
                let inst = random_instance(e, width, &mut rng);
                jobs.push(EngineJob::from_instance(&inst, true));
                instances.push(inst);
            }
        }
        (jobs, instances)
    }

    #[test]
    fn solves_mixed_batch_and_witnesses_verify() {
        let (jobs, instances) = tractable_batch(5, 2);
        let engine = MatchEngine::new(MatcherConfig::with_epsilon(1e-6)).with_workers(4);
        let outcome = engine.solve_batch(&jobs, 99);
        assert_eq!(outcome.reports.len(), jobs.len());
        assert_eq!(outcome.solved(), jobs.len());
        assert!(outcome.total_queries > 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for (report, inst) in outcome.reports.iter().zip(&instances) {
            let w = report.witness.as_ref().expect("tractable job solved");
            assert!(
                check_witness(&inst.c1, &inst.c2, w, VerifyMode::Exhaustive, &mut rng).unwrap(),
                "{}",
                inst.equivalence
            );
        }
    }

    #[test]
    fn deterministic_under_any_worker_count() {
        let (jobs, _) = tractable_batch(4, 1);
        let engine = MatchEngine::new(MatcherConfig::with_epsilon(1e-6));
        let single = engine.clone().with_workers(1).solve_batch(&jobs, 7);
        let many = engine.with_workers(8).solve_batch(&jobs, 7);
        for (a, b) in single.reports.iter().zip(&many.reports) {
            assert_eq!(a.queries, b.queries);
            match (&a.witness, &b.witness) {
                (Ok(wa), Ok(wb)) => assert_eq!(wa, wb),
                (Err(_), Err(_)) => {}
                _ => panic!("worker count changed a job outcome"),
            }
        }
    }

    #[test]
    fn intractable_jobs_report_errors_not_panics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let inst = random_instance(Equivalence::new(Side::N, Side::N), 3, &mut rng);
        let jobs = vec![EngineJob::from_instance(&inst, false)];
        let outcome = MatchEngine::new(MatcherConfig::default()).solve_batch(&jobs, 0);
        assert_eq!(outcome.solved(), 0);
        assert!(matches!(
            outcome.reports[0].witness,
            Err(MatchError::Intractable { .. })
        ));
    }

    #[test]
    fn empty_batch() {
        let outcome = MatchEngine::new(MatcherConfig::default()).solve_batch(&[], 0);
        assert!(outcome.reports.is_empty());
        assert_eq!(outcome.total_queries, 0);
        assert_eq!(outcome.solved(), 0);
    }

    #[test]
    fn throughput_metric_is_positive() {
        let (jobs, _) = tractable_batch(4, 1);
        let outcome = MatchEngine::new(MatcherConfig::default()).solve_batch(&jobs, 1);
        assert!(outcome.instances_per_sec() > 0.0);
        assert!(outcome.elapsed > Duration::ZERO);
    }

    #[test]
    fn random_job_batch_generates_requested_shape() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let jobs = random_job_batch(Equivalence::new(Side::I, Side::P), 4, 6, true, &mut rng);
        assert_eq!(jobs.len(), 6);
        assert!(jobs.iter().all(|j| j.c1.width() == 4 && j.with_inverses));
    }

    #[test]
    fn wrapper_matches_direct_service_submission() {
        let (jobs, _) = tractable_batch(4, 1);
        let engine = MatchEngine::new(MatcherConfig::with_epsilon(1e-6)).with_workers(3);
        let batch = engine.solve_batch(&jobs, 21);
        let service = MatchService::start(
            ServiceConfig::default()
                .with_shards(2)
                .with_matcher(MatcherConfig::with_epsilon(1e-6)),
        );
        let tickets: Vec<JobTicket> = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| service.submit_wait_seeded(job.clone(), job_seed(21, i as u64)))
            .collect();
        for (ticket, via_batch) in tickets.into_iter().zip(&batch.reports) {
            let direct = ticket.wait();
            assert_eq!(direct.queries, via_batch.queries);
            assert_eq!(
                direct.witness.as_ref().ok(),
                via_batch.witness.as_ref().ok()
            );
        }
        service.shutdown();
    }
}
