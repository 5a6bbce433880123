//! In-tree, zero-dependency job tracing and runtime introspection.
//!
//! The serving layer runs five job kinds across interchangeable
//! kernels, SAT backends and quantum backends; coarse counters say *how
//! much* work happened but not *where a slow job spent its time*. This
//! module is the missing window: a per-shard, lock-free span recorder
//! with a stable job-lifecycle taxonomy, drained into Chrome
//! trace-event JSON (`chrome://tracing` / Perfetto).
//!
//! ## Span taxonomy
//!
//! Every sampled job emits spans along its lifecycle:
//!
//! ```text
//! submit → queue_wait → dequeue → execute(kind, detail)[cache_probe*, table_compile*] → report
//! ```
//!
//! The bracketed stages nest directly in `execute`: one `cache_probe`
//! per oracle lookup, and one `table_compile` wherever a probe bought a
//! dense table.
//!
//! * [`Stage::Submit`] — the producer-side `submit` call (routing +
//!   enqueue), recorded into the dedicated submit ring;
//! * [`Stage::QueueWait`] — accept to dequeue: time the job sat in an
//!   intake lane;
//! * [`Stage::Dequeue`] — worker bookkeeping between the pop and the
//!   start of execution;
//! * [`Stage::CacheProbe`] — one worker-cache oracle lookup (per oracle
//!   the job builds). It is a pure lookup: a miss hands out an oracle
//!   that compiles on demand, so no compile ever runs inside it;
//! * [`Stage::Execute`] — the whole `execute_*` body; its [`Detail`]
//!   names the substrate (oracle kernel, quantum backend, or SAT
//!   backend);
//! * [`Stage::TableCompile`] — a dense-table compile, nested directly
//!   in `execute`: it starts at the probe that brought an on-demand
//!   oracle's charge to its buy price ([`crate::Oracle::on_demand`]);
//! * [`Stage::Report`] — ticket resolution and completion bookkeeping.
//!
//! ## Configuration
//!
//! Tracing is a per-service setting, like the SAT options and the
//! quantum backend: [`crate::ServiceConfig::with_trace`] sets it and the
//! default is **off** — an untraced service carries no recorder at all,
//! so the off path costs one `Option` check per job. The text forms
//! (`off`/`0`, `on`/`1`/`all`, or a sampling stride `N` / `sample:N`)
//! parse through [`TraceConfig`]'s `FromStr`; `revmatch-server` reads
//! them from its `REVMATCH_TRACE` deployment switch.
//!
//! ## Recorder
//!
//! [`Tracer`] owns one `ring::SpanRing` per worker shard plus one for
//! the submit side. Rings are fixed-capacity and overwrite-oldest;
//! recording is lock-free and allocation-free (see the `ring` module).
//! Sampling is deterministic by job id (`id % sample == 0`), so a re-run
//! traces the same jobs.

mod chrome;
pub(crate) mod ring;

pub use chrome::chrome_trace_json;

use std::str::FromStr;
use std::time::{Duration, Instant};

use revmatch_quantum::QuantumBackend;
use revmatch_sat::SolverBackend;

use crate::service::job::JobKind;
use ring::SpanRing;

/// The stable job-lifecycle span taxonomy — see the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Producer-side submit call (routing + enqueue).
    Submit,
    /// Accept to dequeue: time spent queued in an intake lane.
    QueueWait,
    /// Worker bookkeeping between the pop and execution start.
    Dequeue,
    /// One worker-cache oracle lookup (never compiles).
    CacheProbe,
    /// A dense-table compile inside `execute`, bought by the probe that
    /// brought an on-demand oracle's charge to its price.
    TableCompile,
    /// The job's `execute_*` body (kind + substrate in the labels).
    Execute,
    /// Ticket resolution and completion bookkeeping.
    Report,
}

impl Stage {
    /// Every stage, in lifecycle order.
    pub const ALL: [Stage; 7] = [
        Stage::Submit,
        Stage::QueueWait,
        Stage::Dequeue,
        Stage::CacheProbe,
        Stage::TableCompile,
        Stage::Execute,
        Stage::Report,
    ];

    /// The stable snake_case label used in trace events and tables.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Submit => "submit",
            Stage::QueueWait => "queue_wait",
            Stage::Dequeue => "dequeue",
            Stage::CacheProbe => "cache_probe",
            Stage::TableCompile => "table_compile",
            Stage::Execute => "execute",
            Stage::Report => "report",
        }
    }

    /// Dense index (`0..7`), for per-stage aggregation arrays.
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|&s| s == self).expect("in ALL")
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Names behind [`Detail`] codes; index 0 is "no detail".
const DETAIL_NAMES: [&str; 7] = [
    "",
    "dpll",
    "cdcl",
    "dense",
    "stabilizer",
    "wide256-portable",
    "wide256-avx2",
];

/// Substrate tag carried by execute/compile spans: which oracle kernel,
/// quantum backend or SAT backend did the work. Encoded as one byte so
/// spans stay plain words in the lock-free ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Detail(u8);

impl Detail {
    /// No substrate attribution (queue/report spans).
    pub const NONE: Detail = Detail(0);

    /// The SAT backend a sat/enumerate job solved on.
    pub fn solver(backend: SolverBackend) -> Self {
        match backend {
            SolverBackend::Dpll => Detail(1),
            SolverBackend::Cdcl => Detail(2),
        }
    }

    /// The quantum simulation backend a quantum-path job ran on.
    pub fn quantum(backend: QuantumBackend) -> Self {
        Detail(3 + backend.index() as u8)
    }

    /// The dispatch-resolved oracle evaluation kernel (classical jobs).
    pub fn active_kernel() -> Self {
        let name = revmatch_circuit::active_kernel_name();
        DETAIL_NAMES
            .iter()
            .position(|&n| n == name)
            .map_or(Detail::NONE, |i| Detail(i as u8))
    }

    /// The substrate name, when the span carries one.
    pub fn name(self) -> Option<&'static str> {
        match usize::from(self.0) {
            0 => None,
            i => DETAIL_NAMES.get(i).copied(),
        }
    }

    fn from_code(code: u8) -> Self {
        if usize::from(code) < DETAIL_NAMES.len() {
            Detail(code)
        } else {
            Detail::NONE
        }
    }
}

/// One completed span drained from a trace ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The job's accept index (ties every span of one job together).
    pub job: u64,
    /// Recording lane: worker shard index, or the submit ring
    /// (`worker shards`) for producer-side spans.
    pub tid: u32,
    /// Lifecycle stage.
    pub stage: Stage,
    /// The job's kind (trace category).
    pub kind: JobKind,
    /// Substrate attribution for execute/compile spans.
    pub detail: Detail,
    /// Start, in microseconds since the tracer's epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

impl SpanRecord {
    fn pack(&self) -> [u64; ring::SPAN_WORDS] {
        let meta = (self.stage.index() as u64)
            | ((self.kind.index() as u64) << 8)
            | ((u64::from(self.detail.0)) << 16)
            | ((u64::from(self.tid)) << 32);
        [self.job, meta, self.start_us, self.dur_us]
    }

    fn unpack(words: [u64; ring::SPAN_WORDS]) -> Option<Self> {
        let [job, meta, start_us, dur_us] = words;
        let stage = *Stage::ALL.get((meta & 0xFF) as usize)?;
        let kind = *JobKind::ALL.get(((meta >> 8) & 0xFF) as usize)?;
        Some(Self {
            job,
            tid: (meta >> 32) as u32,
            stage,
            kind,
            detail: Detail::from_code(((meta >> 16) & 0xFF) as u8),
            start_us,
            dur_us,
        })
    }
}

/// Tracing configuration: sampling stride and per-ring capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Trace every `sample`-th accepted job (by accept index); `0`
    /// disables tracing entirely, `1` traces every job.
    pub sample: u64,
    /// Spans retained per ring (one ring per shard + the submit ring);
    /// older spans are overwritten.
    pub capacity: usize,
}

impl TraceConfig {
    /// Default spans kept per ring.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Tracing disabled (the default).
    pub fn off() -> Self {
        Self {
            sample: 0,
            capacity: Self::DEFAULT_CAPACITY,
        }
    }

    /// Trace every job.
    pub fn all() -> Self {
        Self::sampled(1)
    }

    /// Trace every `n`-th job (`0` = off).
    pub fn sampled(n: u64) -> Self {
        Self {
            sample: n,
            capacity: Self::DEFAULT_CAPACITY,
        }
    }

    /// Overrides the per-ring span capacity (clamped ≥ 1).
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Whether any job gets traced under this config.
    pub fn enabled(&self) -> bool {
        self.sample > 0
    }
}

impl FromStr for TraceConfig {
    type Err = String;

    /// Parses the text forms: `off`/`0` (or empty) → off;
    /// `on`/`1`/`all` → every job; `N` or `sample:N` → every `N`-th job.
    fn from_str(value: &str) -> Result<Self, Self::Err> {
        match value {
            "" | "0" | "off" => Ok(Self::off()),
            "1" | "on" | "all" => Ok(Self::all()),
            other => {
                let stride = other.strip_prefix("sample:").unwrap_or(other);
                stride
                    .parse::<u64>()
                    .map(Self::sampled)
                    .map_err(|_| format!("expected off|on|all|N|sample:N, got {value:?}"))
            }
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// The span recorder behind a traced service: one lock-free ring per
/// worker shard plus one for the submit side, a shared monotonic epoch,
/// and the deterministic job sampler. See the [module docs](self).
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    sample: u64,
    rings: Vec<SpanRing>,
}

impl Tracer {
    /// A recorder for `shards` worker shards (allocates `shards + 1`
    /// rings; the last is the submit ring). `config.sample` is clamped
    /// ≥ 1 — construct a `Tracer` only for enabled configs.
    pub fn new(config: TraceConfig, shards: usize) -> Self {
        Self {
            epoch: Instant::now(),
            sample: config.sample.max(1),
            rings: (0..=shards.max(1))
                .map(|_| SpanRing::new(config.capacity.max(1)))
                .collect(),
        }
    }

    /// Whether the job with accept index `job` is sampled.
    pub fn traced(&self, job: u64) -> bool {
        job.is_multiple_of(self.sample)
    }

    /// Index of the producer-side (submit) ring.
    pub fn submit_ring(&self) -> usize {
        self.rings.len() - 1
    }

    /// Microseconds since the tracer's epoch for `t` (0 when `t`
    /// predates the epoch, which only a caller bug can produce).
    pub fn to_us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Records one completed span into `ring` (a shard index, or
    /// [`Tracer::submit_ring`]). Lock-free and allocation-free.
    // One parameter per SpanRecord field: bundling them into a struct
    // would just move the argument list one call up.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        ring: usize,
        job: u64,
        stage: Stage,
        kind: JobKind,
        detail: Detail,
        start: Instant,
        dur: Duration,
    ) {
        let record = SpanRecord {
            job,
            tid: ring as u32,
            stage,
            kind,
            detail,
            start_us: self.to_us(start),
            dur_us: dur.as_micros() as u64,
        };
        self.rings[ring].push(record.pack());
    }

    /// Drains a consistent snapshot of every retained span across all
    /// rings, sorted by start time (ties: longer span first, so nested
    /// stages follow their parent). Consuming: a span is handed out
    /// once — the next drain returns only what was recorded since.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut out: Vec<SpanRecord> = self
            .rings
            .iter()
            .flat_map(SpanRing::drain)
            .filter_map(SpanRecord::unpack)
            .collect();
        out.sort_by(|a, b| {
            a.start_us
                .cmp(&b.start_us)
                .then(b.dur_us.cmp(&a.dur_us))
                .then(a.job.cmp(&b.job))
        });
        out
    }

    /// Total spans ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.rings.iter().map(SpanRing::recorded).sum()
    }

    /// Spans overwritten before they could be drained. Nonzero means
    /// the rings wrapped — raise [`TraceConfig::capacity`] or the
    /// sampling stride for a complete picture.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(SpanRing::dropped).sum()
    }
}

/// Wall-clock timing breakdown carried by every completed job's report,
/// tracing on or off (the measurements are a handful of `Instant`
/// reads; only *span recording* is sampled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobTiming {
    /// Microseconds from intake accept to worker dequeue.
    pub queue_wait_us: u64,
    /// Microseconds inside the job's `execute_*` body.
    pub exec_us: u64,
    /// Whether any oracle of this job was served from the worker's
    /// dense-table cache.
    pub cache_hit: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_pack_roundtrip() {
        for stage in Stage::ALL {
            for kind in JobKind::ALL {
                let span = SpanRecord {
                    job: 0xDEAD_BEEF,
                    tid: 3,
                    stage,
                    kind,
                    detail: Detail::solver(SolverBackend::Cdcl),
                    start_us: 1_234_567,
                    dur_us: 89,
                };
                assert_eq!(SpanRecord::unpack(span.pack()), Some(span));
            }
        }
    }

    #[test]
    fn unpack_rejects_garbage_codes() {
        assert_eq!(SpanRecord::unpack([0, 0xFF, 0, 0]), None, "bad stage");
        assert_eq!(SpanRecord::unpack([0, 0x3F00, 0, 0]), None, "bad kind");
    }

    #[test]
    fn detail_names_resolve() {
        assert_eq!(Detail::NONE.name(), None);
        assert_eq!(Detail::solver(SolverBackend::Dpll).name(), Some("dpll"));
        assert_eq!(Detail::solver(SolverBackend::Cdcl).name(), Some("cdcl"));
        assert_eq!(
            Detail::quantum(QuantumBackend::Stabilizer).name(),
            Some("stabilizer")
        );
        let kernel = Detail::active_kernel().name().expect("kernel is known");
        assert!(DETAIL_NAMES.contains(&kernel));
    }

    #[test]
    fn env_forms_parse() {
        let parse = |s: &str| s.parse::<TraceConfig>().unwrap();
        assert!(!parse("off").enabled());
        assert!(!parse("0").enabled());
        assert_eq!(parse("on").sample, 1);
        assert_eq!(parse("all").sample, 1);
        assert_eq!(parse("7").sample, 7);
        assert_eq!(parse("sample:16").sample, 16);
    }

    #[test]
    fn unknown_trace_forms_are_errors() {
        for bad in ["sometimes", "sample:", "sample:x", "-1"] {
            let err = bad.parse::<TraceConfig>().unwrap_err();
            assert!(err.contains("off|on|all|N|sample:N"), "{bad}: {err}");
        }
    }

    #[test]
    fn tracer_records_and_drains_sorted() {
        let tracer = Tracer::new(TraceConfig::all(), 2);
        let t0 = Instant::now();
        tracer.record(
            1,
            7,
            Stage::Execute,
            JobKind::Promise,
            Detail::active_kernel(),
            t0,
            Duration::from_micros(50),
        );
        tracer.record(
            tracer.submit_ring(),
            7,
            Stage::Submit,
            JobKind::Promise,
            Detail::NONE,
            t0,
            Duration::from_micros(2),
        );
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        // Same start: the longer (outer) span sorts first.
        assert_eq!(spans[0].stage, Stage::Execute);
        assert_eq!(spans[1].stage, Stage::Submit);
        assert_eq!(spans[1].tid as usize, tracer.submit_ring());
        assert_eq!(tracer.recorded(), 2);
        assert_eq!(tracer.dropped(), 0);
    }

    #[test]
    fn sampling_is_deterministic_by_id() {
        let tracer = Tracer::new(TraceConfig::sampled(4), 1);
        let traced: Vec<u64> = (0..12).filter(|&i| tracer.traced(i)).collect();
        assert_eq!(traced, vec![0, 4, 8]);
    }
}
