//! The job model: the five job kinds a [`MatchService`](super::MatchService)
//! executes and the uniform report each one resolves to.
//!
//! A [`JobSpec`] is one of five scenario families — promise matching
//! ([`EngineJob`], the witnesses of Table 1 with or without inverses),
//! non-promise identification ([`IdentifyJob`], the §3 minimal-class
//! walk), inverse-free quantum matching of N-I / NP-I
//! ([`QuantumPathJob`]), the white-box SAT-miter check
//! ([`SatEquivalenceJob`]) and witness enumeration ([`EnumerateJob`]).
//! Every kind completes with a [`JobReport`]; [`JobKind`] tags both for
//! routing, metrics and cache keys.

use std::fmt;

use revmatch_circuit::Circuit;

use crate::enumerate::WitnessFamily;
use crate::equivalence::Equivalence;
use crate::error::MatchError;
use crate::miter::MiterVerdict;
use crate::observe::JobTiming;
use crate::promise::PromiseInstance;
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

/// A promise-matching job: a promised pair plus the resources the
/// solver may assume.
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
    /// refuted) by a CDCL SAT miter — the complete, any-width check
    /// behind [`JobReport::miter`].
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
/// completely (any width) on the service's CDCL solver.
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
/// metrics of [`MatchService`](super::MatchService).
///
/// Every job type converts losslessly via `From`, so callers submit a
/// plain [`EngineJob`] (or any other kind) directly.
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// Promise matching, optionally SAT-verified.
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
    /// completed job whether tracing is enabled or not. A report that
    /// never reached a worker (an admission-shed job) carries the
    /// default zeros.
    pub timing: JobTiming,
}

impl JobReport {
    /// The report of a job that produced no result: `err` in the witness
    /// slot, every count 0 and every optional field `None`.
    pub fn error(kind: JobKind, err: MatchError) -> Self {
        Self {
            kind,
            witness: Err(err),
            queries: 0,
            charged_queries: 0,
            rounds: 0,
            identified: None,
            witness_count: None,
            miter: None,
            timing: JobTiming::default(),
        }
    }
}
