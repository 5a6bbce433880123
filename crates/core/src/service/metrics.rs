//! Lock-free serving metrics with a Prometheus-style text export.
//!
//! [`Metrics`] is a fixed registry for the serving layer. Each
//! single-valued series is a [`Scalar`] and each per-shard counter a
//! `ShardCounter`: one table row declares its name, type and help, and
//! its value is a slot in one atomic array. Scalars are read back with
//! [`Metrics::get`]; the per-shard counters appear only in the export.
//! Alongside sit the per-kind and
//! per-backend job counters, one queue-depth gauge per shard, and the
//! latency, intake-depth, table-compile, queue-wait and execute-stage
//! histograms. Everything is plain atomics — recording a sample is a
//! handful of `fetch_add`s, cheap enough to leave on in production. The
//! one exception is the per-registry-entry counter map, whose label set
//! is whichever Table-1 entries have run: it takes a mutex once per
//! completed job, far off any hot path.
//!
//! [`Metrics::render`] serializes the whole registry in the Prometheus
//! text exposition format through one writer per family type: a counter
//! or gauge family is a `# HELP` / `# TYPE` header and one
//! `name{labels} value` line per series; a histogram family is the header
//! and, per series, cumulative `_bucket{le="…"}` rows, `_sum` and
//! `_count`. The output can be scraped or diffed as-is.

use std::collections::BTreeMap;
use std::fmt::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use revmatch_quantum::QuantumBackend;

use super::ServiceConfig;
use crate::service::job::JobKind;

/// Number of [`JobKind`]s — sizes the dense per-kind metric arrays.
const KINDS: usize = JobKind::ALL.len();

/// Number of [`QuantumBackend`]s — sizes the per-backend job counters.
const QBACKENDS: usize = QuantumBackend::ALL.len();

/// A single-valued series of [`Metrics`], read with [`Metrics::get`]:
/// fourteen counters (monotonic totals since service start), then two
/// gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scalar {
    /// Jobs accepted into the intake queue.
    JobsSubmitted,
    /// Jobs rejected with `QueueFull`.
    JobsRejected,
    /// Jobs fully executed (their ticket is resolved).
    JobsCompleted,
    /// Jobs shed by admission control under overload (never executed).
    JobsShed,
    /// Jobs deferred (re-queued) by admission control under overload.
    JobsRequeued,
    /// Worker panics converted into `WorkerLost` reports.
    WorkersLost,
    /// Completed jobs whose matcher returned an error.
    JobsFailed,
    /// Total oracle queries spent across completed jobs.
    OracleQueries,
    /// Jobs whose recovered witness was checked against a SAT miter.
    JobsSatVerified,
    /// SAT verifications that exhausted their budget (inconclusive).
    SatUnknown,
    /// XOR constraints extracted across all solver builds.
    SatXorsExtracted,
    /// Dense-table cache hits across all workers.
    TableCacheHits,
    /// SAT jobs answered from a worker's cached verdict or warm solver,
    /// across all workers.
    SolverCacheHits,
    /// Family witnesses found across completed enumeration jobs.
    EnumeratedWitnesses,
    /// Gauge: glue (LBD ≤ 2) clauses held by the most recently sampled
    /// solver.
    SatGlueKept,
    /// Gauge: learned-DB size of the most recently sampled solver.
    SatLearnedDbSize,
}

/// `(name, type, help)` of every [`Scalar`], indexed by `Scalar as usize`.
/// [`Metrics::render`] writes the counters first and the gauges after the
/// histograms, each in table order.
const SCALARS: [(&str, &str, &str); 16] = [
    (
        "revmatch_jobs_submitted_total",
        "counter",
        "Jobs accepted into the intake queue.",
    ),
    (
        "revmatch_jobs_rejected_total",
        "counter",
        "Jobs rejected because every intake lane was full.",
    ),
    (
        "revmatch_jobs_completed_total",
        "counter",
        "Jobs executed to completion.",
    ),
    (
        "revmatch_admission_shed_total",
        "counter",
        "Jobs shed by admission control under overload (never executed).",
    ),
    (
        "revmatch_admission_requeued_total",
        "counter",
        "Jobs deferred by admission control until the backlog drained.",
    ),
    (
        "revmatch_worker_lost_total",
        "counter",
        "Worker panics converted into WorkerLost job reports.",
    ),
    (
        "revmatch_jobs_failed_total",
        "counter",
        "Completed jobs whose matcher returned an error.",
    ),
    (
        "revmatch_oracle_queries_total",
        "counter",
        "Oracle queries spent across completed jobs.",
    ),
    (
        "revmatch_jobs_sat_verified_total",
        "counter",
        "Jobs whose recovered witness was checked against a SAT miter.",
    ),
    (
        "revmatch_sat_unknown_total",
        "counter",
        "SAT verifications that exhausted their budget.",
    ),
    (
        "revmatch_sat_xors_extracted_total",
        "counter",
        "XOR constraints extracted across all solver builds.",
    ),
    (
        "revmatch_table_cache_hits_total",
        "counter",
        "Worker dense-table cache hits.",
    ),
    (
        "revmatch_solver_cache_hits_total",
        "counter",
        "SAT jobs answered from a worker's cached verdict or warm solver.",
    ),
    (
        "revmatch_enumerated_witnesses_total",
        "counter",
        "Family witnesses found across completed enumeration jobs.",
    ),
    (
        "revmatch_sat_glue_kept",
        "gauge",
        "Glue (low-LBD) clauses held by the most recently sampled solver.",
    ),
    (
        "revmatch_sat_learned_db_size",
        "gauge",
        "Learned-clause DB size of the most recently sampled solver.",
    ),
];

/// A per-shard counter of [`Metrics`], exported as one series per shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShardCounter {
    /// Jobs the shard executed (counted for the shard that ran them, not
    /// the lane they were queued on).
    JobsExecuted,
    /// Jobs the shard pulled from other shards' lanes (steals performed).
    Steals,
    /// Jobs pulled out of the shard's lane by other shards.
    StolenFrom,
    /// Microseconds the shard has spent executing jobs (dequeue → report).
    BusyMicros,
    /// Microseconds the shard has spent parked waiting for work.
    IdleMicros,
}

/// `(name, help, unit divisor)` of every [`ShardCounter`], indexed by
/// `ShardCounter as usize`. A divisor above 1 exports the count in a
/// larger unit as a decimal (microseconds as seconds).
const SHARD_COUNTERS: [(&str, &str, u64); 5] = [
    (
        "revmatch_shard_jobs_total",
        "Jobs executed per worker shard.",
        1,
    ),
    (
        "revmatch_shard_steals_total",
        "Jobs a shard pulled from another shard's lane.",
        1,
    ),
    (
        "revmatch_shard_stolen_from_total",
        "Jobs pulled out of a shard's lane by other shards.",
        1,
    ),
    (
        "revmatch_shard_busy_seconds_total",
        "Seconds a shard has spent executing jobs.",
        1_000_000,
    ),
    (
        "revmatch_shard_idle_seconds_total",
        "Seconds a shard has spent parked waiting for work.",
        1_000_000,
    ),
];

/// A fixed-bucket cumulative histogram over `u64` samples.
///
/// Buckets are defined by inclusive upper bounds; a sample lands in every
/// bucket whose bound is ≥ the sample (cumulative, as Prometheus expects).
/// `sum`/`count` come for free with the observations.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    overflow: AtomicU64,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram with the given inclusive upper bounds (must be
    /// ascending).
    pub fn new(bounds: Vec<u64>) -> Self {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        let buckets = bounds.iter().map(|_| AtomicU64::new(0)).collect();
        Self {
            bounds,
            buckets,
            overflow: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn observe(&self, value: u64) {
        match self.bounds.iter().position(|&b| value <= b) {
            Some(i) => self.buckets[i].fetch_add(1, Ordering::Relaxed),
            None => self.overflow.fetch_add(1, Ordering::Relaxed),
        };
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Writes the bucket/sum/count rows of one series. `labels` (e.g.
    /// `kind="promise"`, empty for an unlabelled series) is spliced before
    /// `le`; `denom` converts the raw `u64` samples into the exported unit
    /// by division (e.g. `1e6` for µs → s; powers of ten divide cleanly,
    /// keeping `le` labels short).
    fn render_series(&self, out: &mut String, name: &str, labels: &str, denom: f64) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (bound, bucket) in self.bounds.iter().zip(&self.buckets) {
            cumulative += bucket.load(Ordering::Relaxed);
            let le = *bound as f64 / denom;
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}"
            );
        }
        cumulative += self.overflow.load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}"
        );
        let series = braced(labels);
        let _ = writeln!(out, "{name}_sum{series} {}", self.sum() as f64 / denom);
        let _ = writeln!(out, "{name}_count{series} {}", self.count());
    }
}

/// `{labels}`, or nothing for an empty label set.
fn braced(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

/// Writes a family's `# HELP` / `# TYPE` header.
fn write_header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Writes one counter or gauge family: the header, then one
/// `name{labels} value` line per `(labels, value)` series.
fn write_family<V: fmt::Display>(
    out: &mut String,
    name: &str,
    kind: &str,
    help: &str,
    series: impl IntoIterator<Item = (String, V)>,
) {
    write_header(out, name, kind, help);
    for (labels, value) in series {
        let _ = writeln!(out, "{name}{} {value}", braced(&labels));
    }
}

/// The `kind`-labelled series of a per-[`JobKind`] histogram array.
fn by_kind(histograms: &[Histogram; KINDS]) -> [(String, &Histogram); KINDS] {
    JobKind::ALL.map(|kind| (format!("kind=\"{kind}\""), &histograms[kind.index()]))
}

/// Writes one histogram family: the header, then the rows of every
/// `(labels, histogram)` series. `denom` is as in
/// [`Histogram::render_series`].
fn write_histograms<'a>(
    out: &mut String,
    name: &str,
    help: &str,
    denom: f64,
    series: impl IntoIterator<Item = (String, &'a Histogram)>,
) {
    write_header(out, name, "histogram", help);
    for (labels, histogram) in series {
        histogram.render_series(out, name, &labels, denom);
    }
}

/// Escapes a label *value* per the Prometheus text exposition format:
/// backslash, double-quote and newline must be written as `\\`, `\"` and
/// `\n` inside the quoted value, or the emitted series is unparseable.
/// Static label values in this registry are already clean; the dynamic
/// ones (registry entry names, dispatch-resolved kernel/backend/option
/// labels) pass through here on every render.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Latency bucket bounds in microseconds: 50 µs … ~52 s, doubling.
fn latency_bounds() -> Vec<u64> {
    (0..21).map(|i| 50u64 << i).collect()
}

/// Queue-depth bucket bounds: 0, 1, 2, 4, … 1024.
fn depth_bounds() -> Vec<u64> {
    std::iter::once(0)
        .chain((0..11).map(|i| 1u64 << i))
        .collect()
}

/// Table-compile bucket bounds in microseconds: 1 µs … ~1 s, doubling —
/// a width-12 compile lands in the single-digit-µs buckets, a width-20
/// one in the millisecond range.
fn compile_bounds() -> Vec<u64> {
    (0..21).map(|i| 1u64 << i).collect()
}

/// Metrics registry for one [`super::MatchService`].
///
/// All counters are monotonic totals since service start; gauges track the
/// live per-shard intake depth and the last sampled SAT solver. See
/// [`Metrics::render`] for the export.
#[derive(Debug)]
pub struct Metrics {
    /// One slot per [`Scalar`], indexed by `Scalar as usize`.
    scalars: [AtomicU64; SCALARS.len()],
    /// Completions per [`JobKind`], indexed by `JobKind::index`.
    completed_by_kind: [AtomicU64; KINDS],
    /// Failures per [`JobKind`], indexed by `JobKind::index`.
    failed_by_kind: [AtomicU64; KINDS],
    /// Accept-to-completion latency per [`JobKind`].
    latency_by_kind: [Histogram; KINDS],
    /// Quantum-path jobs per simulation backend, indexed by
    /// `QuantumBackend::index`.
    quantum_by_backend: [AtomicU64; QBACKENDS],
    /// Completions per registry entry (keyed by the entry's stable
    /// [`crate::matchers::Matcher::name`]). The label set is whichever
    /// entries have run, so this is the registry's one mutex — taken
    /// once per completed job that ran a named matcher, far off any hot
    /// path.
    entry_completions: Mutex<BTreeMap<&'static str, u64>>,
    shard_depth: Vec<AtomicU64>,
    /// One slot per [`ShardCounter`] for each worker shard.
    shard_counters: Vec<[AtomicU64; SHARD_COUNTERS.len()]>,
    latency: Histogram,
    intake_depth: Histogram,
    /// Latency of the dense-table compiles jobs' probes bought (cache
    /// misses only — hits never compile).
    table_compile: Histogram,
    /// Accept-to-dequeue wait (the queue_wait stage of every job).
    queue_wait: Histogram,
    /// Execute-stage latency per [`JobKind`] (the `execute_*` body
    /// alone, queue wait excluded).
    exec_by_kind: [Histogram; KINDS],
    /// The service's pinned quantum backend name, or `auto`.
    quantum_backend: &'static str,
    /// The service's SAT feature-set label (e.g. `lbd,xor`).
    sat_opts: String,
}

impl Metrics {
    /// A fresh registry for a service started with `config`: one set of
    /// shard series per worker shard, and info gauges naming the
    /// config's quantum backend and SAT options.
    pub fn new(config: &ServiceConfig) -> Self {
        let shards = config.shards.max(1);
        Self {
            scalars: std::array::from_fn(|_| AtomicU64::new(0)),
            completed_by_kind: std::array::from_fn(|_| AtomicU64::new(0)),
            failed_by_kind: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_by_kind: std::array::from_fn(|_| Histogram::new(latency_bounds())),
            quantum_by_backend: std::array::from_fn(|_| AtomicU64::new(0)),
            entry_completions: Mutex::new(BTreeMap::new()),
            shard_depth: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            shard_counters: (0..shards)
                .map(|_| std::array::from_fn(|_| AtomicU64::new(0)))
                .collect(),
            latency: Histogram::new(latency_bounds()),
            intake_depth: Histogram::new(depth_bounds()),
            table_compile: Histogram::new(compile_bounds()),
            queue_wait: Histogram::new(latency_bounds()),
            exec_by_kind: std::array::from_fn(|_| Histogram::new(latency_bounds())),
            quantum_backend: config
                .matcher
                .quantum_backend
                .map_or("auto", QuantumBackend::name),
            sat_opts: config.sat_opts.label(),
        }
    }

    /// Adds `n` to a [`Scalar`] counter.
    pub(crate) fn add(&self, scalar: Scalar, n: u64) {
        self.scalars[scalar as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The current value of a [`Scalar`].
    pub fn get(&self, scalar: Scalar) -> u64 {
        self.scalars[scalar as usize].load(Ordering::Relaxed)
    }

    /// Counts an accepted job. Called from the queue's `on_accept` hook,
    /// i.e. **under the lane lock with the job not yet poppable**: the
    /// counter stays monotonic and a concurrent scrape can never observe
    /// `completed > submitted`. `depth_after` is exact for the same
    /// reason.
    pub(crate) fn record_accept(&self, shard: usize, depth_after: usize) {
        self.add(Scalar::JobsSubmitted, 1);
        self.shard_depth[shard].store(depth_after as u64, Ordering::Relaxed);
        self.intake_depth.observe(depth_after as u64);
    }

    /// Re-entry of a deferred job into an intake lane: only the depth
    /// gauge moves — the job was already counted submitted when it was
    /// first accepted (at deferral time).
    pub(crate) fn record_requeue_accept(&self, shard: usize, depth_after: usize) {
        self.shard_depth[shard].store(depth_after as u64, Ordering::Relaxed);
        self.intake_depth.observe(depth_after as u64);
    }

    /// Called from the queue's `on_pop` hook (under the lane lock), so
    /// per-lane gauge stores are serialized and never stick stale.
    pub(crate) fn record_dequeue(&self, shard: usize, depth_after: usize) {
        self.shard_depth[shard].store(depth_after as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_completion(
        &self,
        kind: JobKind,
        failed: bool,
        queries: u64,
        latency_micros: u64,
    ) {
        self.add(Scalar::JobsCompleted, 1);
        self.completed_by_kind[kind.index()].fetch_add(1, Ordering::Relaxed);
        if failed {
            self.add(Scalar::JobsFailed, 1);
            self.failed_by_kind[kind.index()].fetch_add(1, Ordering::Relaxed);
        }
        self.add(Scalar::OracleQueries, queries);
        self.latency.observe(latency_micros);
        self.latency_by_kind[kind.index()].observe(latency_micros);
    }

    /// Records the per-stage decomposition of one completed job: queue
    /// wait (accept → dequeue) and the execute-stage body, both in
    /// microseconds.
    pub(crate) fn record_stage_timing(&self, kind: JobKind, queue_wait_us: u64, exec_us: u64) {
        self.queue_wait.observe(queue_wait_us);
        self.exec_by_kind[kind.index()].observe(exec_us);
    }

    /// Adds `n` to one shard's [`ShardCounter`].
    fn add_shard(&self, counter: ShardCounter, shard: usize, n: u64) {
        self.shard_counters[shard][counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Attributes one executed job to the shard that ran it. `lane` is
    /// the intake lane it was popped from — a differing lane means the
    /// job was stolen, counted for the thief (`shard`) and the victim
    /// (`lane`) both.
    pub(crate) fn record_execution(&self, shard: usize, lane: usize) {
        self.add_shard(ShardCounter::JobsExecuted, shard, 1);
        if lane != shard {
            self.add_shard(ShardCounter::Steals, shard, 1);
            self.add_shard(ShardCounter::StolenFrom, lane, 1);
        }
    }

    /// Adds executing time (dequeue → ticket resolved) to a shard's busy
    /// counter.
    pub(crate) fn record_shard_busy(&self, shard: usize, micros: u64) {
        self.add_shard(ShardCounter::BusyMicros, shard, micros);
    }

    /// Adds parked-waiting-for-work time to a shard's idle counter.
    pub(crate) fn record_shard_idle(&self, shard: usize, micros: u64) {
        self.add_shard(ShardCounter::IdleMicros, shard, micros);
    }

    /// Counts one SAT miter verification of a recovered witness;
    /// `unknown` records a budget-exhausted (inconclusive) verdict.
    pub(crate) fn record_sat_verify(&self, unknown: bool) {
        self.add(Scalar::JobsSatVerified, 1);
        if unknown {
            self.add(Scalar::SatUnknown, 1);
        }
    }

    /// Samples a CDCL solver's internals after a solve: glue and
    /// learned-DB sizes are live gauges (last sample wins — they
    /// describe the solver the service just ran), while the XOR figure
    /// is a delta accumulated into a total.
    pub(crate) fn record_sat_core(&self, glue_kept: u64, learned_db: u64, xors_delta: u64) {
        self.scalars[Scalar::SatGlueKept as usize].store(glue_kept, Ordering::Relaxed);
        self.scalars[Scalar::SatLearnedDbSize as usize].store(learned_db, Ordering::Relaxed);
        self.add(Scalar::SatXorsExtracted, xors_delta);
    }

    /// Records one dense-table compile an on-demand oracle bought (a
    /// worker table-cache miss whose probes paid for a table).
    pub(crate) fn record_table_compile(&self, micros: u64) {
        self.table_compile.observe(micros);
    }

    /// Counts one quantum-path job executed on `backend` (recorded at
    /// dispatch, whether or not the matcher succeeds).
    pub(crate) fn record_quantum_backend(&self, backend: QuantumBackend) {
        self.quantum_by_backend[backend.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one successful run of a named registry entry.
    pub(crate) fn record_entry_completion(&self, entry: &'static str) {
        *self
            .entry_completions
            .lock()
            .expect("entry metrics lock")
            .entry(entry)
            .or_insert(0) += 1;
    }

    /// Jobs of one [`JobKind`] executed to completion.
    pub fn jobs_completed_of(&self, kind: JobKind) -> u64 {
        self.completed_by_kind[kind.index()].load(Ordering::Relaxed)
    }

    /// Failed jobs of one [`JobKind`].
    pub fn jobs_failed_of(&self, kind: JobKind) -> u64 {
        self.failed_by_kind[kind.index()].load(Ordering::Relaxed)
    }

    /// Quantum-path jobs executed on one simulation backend.
    pub fn quantum_jobs_of_backend(&self, backend: QuantumBackend) -> u64 {
        self.quantum_by_backend[backend.index()].load(Ordering::Relaxed)
    }

    /// Completions of one registry entry (by its stable matcher name),
    /// counting every job that ran the entry successfully — the
    /// per-registry-entry view underneath the per-kind counters.
    pub fn jobs_completed_of_entry(&self, entry: &str) -> u64 {
        self.entry_completions
            .lock()
            .expect("entry metrics lock")
            .get(entry)
            .copied()
            .unwrap_or(0)
    }

    /// The job-latency histogram (accept → completion, microseconds).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// The dense-table compile histogram (microseconds).
    pub fn table_compile(&self) -> &Histogram {
        &self.table_compile
    }

    /// Writes the family of every [`Scalar`] of one type (`counter` or
    /// `gauge`), in table order.
    fn write_scalars(&self, out: &mut String, kind: &str) {
        for (slot, &(name, ty, help)) in self.scalars.iter().zip(&SCALARS) {
            if ty == kind {
                let value = slot.load(Ordering::Relaxed);
                write_family(out, name, ty, help, [(String::new(), value)]);
            }
        }
    }

    /// Serializes every metric in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_scalars(&mut out, "counter");
        // Per-kind completion/failure counters: one metric per kind so
        // dashboards can alert on a single scenario family.
        for kind in JobKind::ALL {
            for (suffix, what, counts) in [
                ("", "Completed", &self.completed_by_kind),
                ("_failed", "Failed", &self.failed_by_kind),
            ] {
                let name = format!("revmatch_jobs_{kind}{suffix}_total");
                let help = format!("{what} {kind} jobs.");
                let series = [(String::new(), counts[kind.index()].load(Ordering::Relaxed))];
                write_family(&mut out, &name, "counter", &help, series);
            }
        }
        // Always emitted for both backends so dashboards see explicit
        // zeroes.
        write_family(
            &mut out,
            "revmatch_quantum_backend_jobs_total",
            "counter",
            "Quantum-path jobs dispatched per simulation backend.",
            QuantumBackend::ALL
                .map(|b| (format!("backend=\"{b}\""), self.quantum_jobs_of_backend(b))),
        );
        // One labeled series per entry that actually ran, so dashboards
        // can watch a single algorithm; no family before the first.
        let entries: Vec<_> = self
            .entry_completions
            .lock()
            .expect("entry metrics lock")
            .iter()
            .map(|(entry, &count)| (format!("entry=\"{}\"", escape_label(entry)), count))
            .collect();
        if !entries.is_empty() {
            write_family(
                &mut out,
                "revmatch_registry_entry_jobs_total",
                "counter",
                "Completed jobs per algorithm entry (registry matcher names; \
                 enumeration families use their */sat-enumerate name).",
                entries,
            );
        }
        write_family(
            &mut out,
            "revmatch_shard_queue_depth",
            "gauge",
            "Live intake depth per worker shard.",
            self.shard_depth
                .iter()
                .enumerate()
                .map(|(i, depth)| (format!("shard=\"{i}\""), depth.load(Ordering::Relaxed))),
        );
        for (c, &(name, help, divisor)) in SHARD_COUNTERS.iter().enumerate() {
            let series = self.shard_counters.iter().enumerate().map(|(i, slots)| {
                let v = slots[c].load(Ordering::Relaxed);
                let value = if divisor == 1 {
                    v.to_string()
                } else {
                    (v as f64 / divisor as f64).to_string()
                };
                (format!("shard=\"{i}\""), value)
            });
            write_family(&mut out, name, "counter", help, series);
        }
        let unlabelled = |histogram| [(String::new(), histogram)];
        write_histograms(
            &mut out,
            "revmatch_job_latency_seconds",
            "Job latency from intake accept to completion.",
            1e6,
            unlabelled(&self.latency),
        );
        write_histograms(
            &mut out,
            "revmatch_job_kind_latency_seconds",
            "Job latency from intake accept to completion, by job kind.",
            1e6,
            by_kind(&self.latency_by_kind),
        );
        write_histograms(
            &mut out,
            "revmatch_intake_depth",
            "Intake-lane depth observed at each accepted submit.",
            1.0,
            unlabelled(&self.intake_depth),
        );
        write_histograms(
            &mut out,
            "revmatch_table_compile_seconds",
            "Latency of the dense-table compiles bought by job probes.",
            1e6,
            unlabelled(&self.table_compile),
        );
        write_histograms(
            &mut out,
            "revmatch_queue_wait_seconds",
            "Job wait from intake accept to worker dequeue.",
            1e6,
            unlabelled(&self.queue_wait),
        );
        write_histograms(
            &mut out,
            "revmatch_exec_seconds",
            "Execute-stage latency by job kind (queue wait excluded).",
            1e6,
            by_kind(&self.exec_by_kind),
        );
        self.write_scalars(&mut out, "gauge");
        // Info-style gauges (value always 1; the label carries the
        // setting): the kernel the batch entry points dispatch to (e.g.
        // wide256-avx2), and this service's quantum backend pin ("auto"
        // under the per-algorithm policy) and SAT feature set.
        let infos = [
            (
                "revmatch_kernel_info",
                "Active oracle evaluation kernel (dispatch-resolved).",
                "kernel",
                revmatch_circuit::active_kernel_name(),
            ),
            (
                "revmatch_quantum_backend_info",
                "Active quantum backend selection (pinned name or auto).",
                "backend",
                self.quantum_backend,
            ),
            (
                "revmatch_sat_opts_info",
                "Active SAT solver feature set (lbd/xor).",
                "opts",
                self.sat_opts.as_str(),
            ),
        ];
        for (name, help, key, value) in infos {
            let series = [(format!("{key}=\"{}\"", escape_label(value)), 1)];
            write_family(&mut out, name, "gauge", help, series);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_is_cumulative_with_overflow() {
        let h = Histogram::new(vec![1, 10, 100]);
        for v in [0, 1, 5, 50, 500] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 556);
        let mut out = String::new();
        h.render_series(&mut out, "t", "", 1.0);
        assert!(out.contains("t_bucket{le=\"1\"} 2"));
        assert!(out.contains("t_bucket{le=\"10\"} 3"));
        assert!(out.contains("t_bucket{le=\"100\"} 4"));
        assert!(out.contains("t_bucket{le=\"+Inf\"} 5"));
        assert!(out.contains("t_count 5"));
    }

    #[test]
    fn label_values_escape_per_exposition_format() {
        assert_eq!(escape_label("plain-name"), "plain-name");
        assert_eq!(
            escape_label("a\\b\"c\nd"),
            "a\\\\b\\\"c\\nd",
            "backslash, quote and newline must be escaped"
        );
        let m = Metrics::new(&ServiceConfig::default().with_shards(1));
        m.record_entry_completion("bad\\entry\"with\nnoise");
        let text = m.render();
        assert!(
            text.contains(
                "revmatch_registry_entry_jobs_total{entry=\"bad\\\\entry\\\"with\\nnoise\"} 1"
            ),
            "escaped entry series missing:\n{text}"
        );
        assert!(
            !text.contains("with\nnoise"),
            "raw newline leaked into a label"
        );
    }

    /// Pins the whole exposition byte for byte against a fixture: every
    /// family below is touched (both shards, a steal, a failed job past
    /// the last latency bound, entry names recorded out of sort order, a
    /// deferred accept and its requeue). The host-dependent kernel label
    /// is replaced by a placeholder before comparing.
    #[test]
    fn render_includes_every_family() {
        let m = Metrics::new(&ServiceConfig::default().with_shards(2));
        m.add(Scalar::JobsSubmitted, 1); // accepted into the deferral buffer
        m.add(Scalar::JobsRequeued, 1);
        m.record_requeue_accept(1, 3); // the deferred job re-enters lane 1
        m.record_dequeue(0, 2);
        m.record_completion(JobKind::Promise, false, 12, 250);
        m.record_completion(JobKind::Identify, true, 3, 60_000_000); // past the last bound
        m.add(Scalar::JobsRejected, 1);
        m.record_sat_verify(false);
        m.record_sat_verify(true);
        m.record_sat_core(3, 17, 2);
        m.record_sat_core(5, 20, 0);
        m.add(Scalar::TableCacheHits, 4);
        m.add(Scalar::SolverCacheHits, 1);
        m.record_table_compile(7);
        m.record_quantum_backend(QuantumBackend::Stabilizer);
        m.record_stage_timing(JobKind::Promise, 40, 210);
        m.record_execution(0, 0);
        m.record_execution(0, 1); // shard 0 steals from lane 1
        m.record_execution(1, 1);
        m.record_shard_busy(0, 250);
        m.record_shard_busy(1, 1_500_000);
        m.record_shard_idle(1, 1_000);
        m.add(Scalar::JobsShed, 1);
        m.add(Scalar::WorkersLost, 1);
        m.add(Scalar::EnumeratedWitnesses, 3);
        m.record_entry_completion("p-i/one-hot");
        m.record_entry_completion("i-p/randomized");
        m.record_entry_completion("p-i/one-hot");
        let kernel = format!(
            "kernel=\"{}\"",
            escape_label(revmatch_circuit::active_kernel_name())
        );
        let text = m.render().replace(&kernel, "kernel=\"KERNEL\"");
        let golden = include_str!("../../tests/data/metrics.golden");
        for (i, (got, want)) in text.lines().zip(golden.lines()).enumerate() {
            assert_eq!(got, want, "exposition line {} differs", i + 1);
        }
        assert_eq!(text, golden, "exposition length differs");
    }

    #[test]
    fn latency_scale_exports_seconds() {
        let m = Metrics::new(&ServiceConfig::default().with_shards(1));
        m.record_completion(JobKind::Sat, true, 1, 2_000_000); // 2 s
        let text = m.render();
        assert!(text.contains("revmatch_job_latency_seconds_sum 2"));
        assert!(text.contains("revmatch_jobs_failed_total 1"));
    }
}
