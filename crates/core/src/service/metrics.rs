//! Lock-free serving metrics with a Prometheus-style text export.
//!
//! [`Metrics`] is a fixed registry for the serving layer: monotonic
//! counters for job and query totals, one queue-depth gauge per shard, and
//! two histograms (job latency, intake depth at submit). Everything is
//! plain atomics — recording a sample is a handful of `fetch_add`s, cheap
//! enough to leave on in production. The one exception is the
//! per-registry-entry counter map, whose label set is dynamic (any
//! registered matcher name): it takes a mutex once per completed job,
//! far off any hot path. [`Metrics::render`] serializes
//! the whole registry in the Prometheus text exposition format (`# HELP`
//! / `# TYPE` headers, `_bucket{le="…"}` cumulative histogram rows), so
//! the output can be scraped or diffed as-is.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use revmatch_quantum::QuantumBackend;

use super::ServiceConfig;
use crate::service::job::JobKind;

/// Number of [`JobKind`]s — sizes the dense per-kind metric arrays.
const KINDS: usize = JobKind::ALL.len();

/// Number of [`QuantumBackend`]s — sizes the per-backend job counters.
const QBACKENDS: usize = QuantumBackend::ALL.len();

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
    max: AtomicU64,
    /// Smallest sample observed; `u64::MAX` while empty so the first
    /// `fetch_min` wins unconditionally.
    min: AtomicU64,
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
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
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
        self.max.fetch_max(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// The largest sample observed (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The smallest sample observed (0 when empty).
    pub fn min(&self) -> u64 {
        let min = self.min.load(Ordering::Relaxed);
        if min == u64::MAX {
            0
        } else {
            min
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0 <= q <= 1`), or `None` when the histogram is empty. `q = 0.0`
    /// reports the **observed minimum** — the rank used to be clamped to
    /// 1, which silently turned "minimum" into "first occupied bucket's
    /// upper bound". Samples past the last bound report the **observed
    /// maximum** — the old `u64::MAX` sentinel forced every consumer to
    /// special-case the edge and printed as garbage when one forgot.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min());
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (bound, bucket) in self.bounds.iter().zip(&self.buckets) {
            cumulative += bucket.load(Ordering::Relaxed);
            if cumulative >= rank {
                // The bucket bound can overshoot the true max when every
                // overflow-free sample sits low in its bucket.
                return Some((*bound).min(self.max()));
            }
        }
        Some(self.max())
    }

    /// The requested quantile upper bounds in one pass — `None` when the
    /// histogram is empty, so callers print `—` instead of fake zeros.
    ///
    /// ```
    /// use revmatch::Histogram;
    /// let h = Histogram::new(vec![10, 100]);
    /// assert_eq!(h.summary(&[0.5, 0.99]), None);
    /// for v in [4, 5, 6, 250] { h.observe(v); }
    /// let s = h.summary(&[0.5, 0.99]).unwrap();
    /// assert_eq!(s, vec![10, 250]); // p50 in-bucket, p99 at observed max
    /// ```
    pub fn summary(&self, quantiles: &[f64]) -> Option<Vec<u64>> {
        if self.count() == 0 {
            return None;
        }
        Some(
            quantiles
                .iter()
                .map(|&q| self.quantile_upper_bound(q).expect("count checked"))
                .collect(),
        )
    }

    /// Renders the histogram as Prometheus text. `denom` converts the raw
    /// `u64` samples into the exported unit by division (e.g. `1e6` for
    /// µs → s; powers of ten divide cleanly, keeping `le` labels short).
    /// The header is emitted by the caller when several labeled series
    /// share one metric family.
    fn render(&self, out: &mut String, name: &str, help: &str, denom: f64) {
        use std::fmt::Write;
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        self.render_series(out, name, "", denom);
    }

    /// Renders the bucket/sum/count rows with an optional extra label
    /// (e.g. `kind=\"promise\",`) spliced before `le`.
    fn render_series(&self, out: &mut String, name: &str, label: &str, denom: f64) {
        use std::fmt::Write;
        let mut cumulative = 0u64;
        for (bound, bucket) in self.bounds.iter().zip(&self.buckets) {
            cumulative += bucket.load(Ordering::Relaxed);
            let le = *bound as f64 / denom;
            let _ = writeln!(out, "{name}_bucket{{{label}le=\"{le}\"}} {cumulative}");
        }
        cumulative += self.overflow.load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_bucket{{{label}le=\"+Inf\"}} {cumulative}");
        if label.is_empty() {
            let _ = writeln!(out, "{name}_sum {}", self.sum() as f64 / denom);
            let _ = writeln!(out, "{name}_count {}", self.count());
        } else {
            let series = label.trim_end_matches(',');
            let _ = writeln!(out, "{name}_sum{{{series}}} {}", self.sum() as f64 / denom);
            let _ = writeln!(out, "{name}_count{{{series}}} {}", self.count());
        }
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
/// live per-shard intake depth. See [`Metrics::render`] for the export.
#[derive(Debug)]
pub struct Metrics {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    /// Jobs shed by admission control under overload (never executed).
    admission_shed: AtomicU64,
    /// Jobs deferred (re-queued) by admission control under overload.
    admission_requeued: AtomicU64,
    /// Worker panics converted into `WorkerLost` reports.
    worker_lost: AtomicU64,
    queries: AtomicU64,
    sat_verified: AtomicU64,
    sat_unknown: AtomicU64,
    /// Glue (LBD ≤ 2) clauses held by the most recently sampled cached
    /// solver — a gauge, not a total: it tracks working-set quality.
    sat_glue_kept: AtomicU64,
    /// Learned-DB size of the most recently sampled cached solver.
    sat_learned_db: AtomicU64,
    /// XOR constraints extracted across all solver builds.
    sat_xors_extracted: AtomicU64,
    table_cache_hits: AtomicU64,
    solver_cache_hits: AtomicU64,
    /// Family witnesses found across completed enumeration jobs.
    enumerated_witnesses: AtomicU64,
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
    /// [`crate::matchers::Matcher::name`]). The label set is dynamic, so
    /// this is the registry's one mutex — taken once per completed job
    /// that ran a named matcher, far off any hot path.
    entry_completions: Mutex<BTreeMap<&'static str, u64>>,
    shard_depth: Vec<AtomicU64>,
    /// Jobs executed per worker shard (by the shard that ran them, not
    /// the lane they were queued on).
    shard_jobs: Vec<AtomicU64>,
    /// Jobs a shard pulled from another shard's lane (steals performed).
    shard_steals: Vec<AtomicU64>,
    /// Jobs pulled *out of* a shard's lane by other shards (stolen-from).
    shard_stolen_from: Vec<AtomicU64>,
    /// Microseconds each shard spent executing jobs (dequeue → report).
    shard_busy_us: Vec<AtomicU64>,
    /// Microseconds each shard spent parked waiting for work.
    shard_idle_us: Vec<AtomicU64>,
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
        let shards = config.shards;
        Self {
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            admission_shed: AtomicU64::new(0),
            admission_requeued: AtomicU64::new(0),
            worker_lost: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            sat_verified: AtomicU64::new(0),
            sat_unknown: AtomicU64::new(0),
            sat_glue_kept: AtomicU64::new(0),
            sat_learned_db: AtomicU64::new(0),
            sat_xors_extracted: AtomicU64::new(0),
            table_cache_hits: AtomicU64::new(0),
            solver_cache_hits: AtomicU64::new(0),
            enumerated_witnesses: AtomicU64::new(0),
            completed_by_kind: std::array::from_fn(|_| AtomicU64::new(0)),
            failed_by_kind: std::array::from_fn(|_| AtomicU64::new(0)),
            latency_by_kind: std::array::from_fn(|_| Histogram::new(latency_bounds())),
            quantum_by_backend: std::array::from_fn(|_| AtomicU64::new(0)),
            entry_completions: Mutex::new(BTreeMap::new()),
            shard_depth: (0..shards.max(1)).map(|_| AtomicU64::new(0)).collect(),
            shard_jobs: (0..shards.max(1)).map(|_| AtomicU64::new(0)).collect(),
            shard_steals: (0..shards.max(1)).map(|_| AtomicU64::new(0)).collect(),
            shard_stolen_from: (0..shards.max(1)).map(|_| AtomicU64::new(0)).collect(),
            shard_busy_us: (0..shards.max(1)).map(|_| AtomicU64::new(0)).collect(),
            shard_idle_us: (0..shards.max(1)).map(|_| AtomicU64::new(0)).collect(),
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

    /// Counts an accepted job. Called from the queue's `on_accept` hook,
    /// i.e. **under the lane lock with the job not yet poppable**: the
    /// counter stays monotonic and a concurrent scrape can never observe
    /// `completed > submitted`. `depth_after` is exact for the same
    /// reason.
    pub(crate) fn record_accept(&self, shard: usize, depth_after: usize) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.shard_depth[shard].store(depth_after as u64, Ordering::Relaxed);
        self.intake_depth.observe(depth_after as u64);
    }

    pub(crate) fn record_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a job shed by admission control (rejected for cost under
    /// overload, never executed).
    pub(crate) fn record_admission_shed(&self) {
        self.admission_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a job deferred by admission control: accepted, but parked
    /// in the deferral buffer until the backlog drains.
    pub(crate) fn record_admission_requeued(&self) {
        self.admission_requeued.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a job accepted straight into the deferral buffer: it is
    /// submitted (its ticket will resolve) but sits in no lane yet, so
    /// the depth gauges move only at re-injection.
    pub(crate) fn record_defer_accept(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Re-entry of a deferred job into an intake lane: only the depth
    /// gauge moves — the job was already counted submitted when it was
    /// first accepted (at deferral time).
    pub(crate) fn record_requeue_accept(&self, shard: usize, depth_after: usize) {
        self.shard_depth[shard].store(depth_after as u64, Ordering::Relaxed);
        self.intake_depth.observe(depth_after as u64);
    }

    /// Counts one worker panic converted into a `WorkerLost` report.
    pub(crate) fn record_worker_lost(&self) {
        self.worker_lost.fetch_add(1, Ordering::Relaxed);
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
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.completed_by_kind[kind.index()].fetch_add(1, Ordering::Relaxed);
        if failed {
            self.failed.fetch_add(1, Ordering::Relaxed);
            self.failed_by_kind[kind.index()].fetch_add(1, Ordering::Relaxed);
        }
        self.queries.fetch_add(queries, Ordering::Relaxed);
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

    /// Attributes one executed job to the shard that ran it. `lane` is
    /// the intake lane it was popped from — a differing lane means the
    /// job was stolen, counted for the thief (`shard`) and the victim
    /// (`lane`) both.
    pub(crate) fn record_execution(&self, shard: usize, lane: usize) {
        self.shard_jobs[shard].fetch_add(1, Ordering::Relaxed);
        if lane != shard {
            self.shard_steals[shard].fetch_add(1, Ordering::Relaxed);
            self.shard_stolen_from[lane].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds executing time (dequeue → ticket resolved) to a shard's busy
    /// counter.
    pub(crate) fn record_shard_busy(&self, shard: usize, micros: u64) {
        self.shard_busy_us[shard].fetch_add(micros, Ordering::Relaxed);
    }

    /// Adds parked-waiting-for-work time to a shard's idle counter.
    pub(crate) fn record_shard_idle(&self, shard: usize, micros: u64) {
        self.shard_idle_us[shard].fetch_add(micros, Ordering::Relaxed);
    }

    /// Counts one SAT miter verification of a recovered witness;
    /// `unknown` records a budget-exhausted (inconclusive) verdict.
    pub(crate) fn record_sat_verify(&self, unknown: bool) {
        self.sat_verified.fetch_add(1, Ordering::Relaxed);
        if unknown {
            self.sat_unknown.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Samples a CDCL solver's internals after a solve: glue and
    /// learned-DB sizes are live gauges (last sample wins — they
    /// describe the solver the service just ran), while the XOR figure
    /// is a delta accumulated into a total.
    pub(crate) fn record_sat_core(&self, glue_kept: u64, learned_db: u64, xors_delta: u64) {
        self.sat_glue_kept.store(glue_kept, Ordering::Relaxed);
        self.sat_learned_db.store(learned_db, Ordering::Relaxed);
        self.sat_xors_extracted
            .fetch_add(xors_delta, Ordering::Relaxed);
    }

    /// Counts dense-table cache hits in a worker's oracle setup.
    pub(crate) fn record_table_cache_hits(&self, hits: u64) {
        self.table_cache_hits.fetch_add(hits, Ordering::Relaxed);
    }

    /// Counts one SAT job answered from a worker's cached verdict or
    /// warm solver.
    pub(crate) fn record_solver_cache_hit(&self) {
        self.solver_cache_hits.fetch_add(1, Ordering::Relaxed);
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

    /// Counts the witnesses found by one completed enumeration job.
    pub(crate) fn record_enumeration(&self, witnesses: u64) {
        self.enumerated_witnesses
            .fetch_add(witnesses, Ordering::Relaxed);
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

    /// Jobs accepted into the intake queue.
    pub fn jobs_submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Jobs rejected with `QueueFull`.
    pub fn jobs_rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Jobs shed by admission control under overload.
    pub fn jobs_shed(&self) -> u64 {
        self.admission_shed.load(Ordering::Relaxed)
    }

    /// Jobs deferred (re-queued) by admission control under overload.
    pub fn jobs_requeued(&self) -> u64 {
        self.admission_requeued.load(Ordering::Relaxed)
    }

    /// Worker panics converted into `WorkerLost` reports.
    pub fn workers_lost(&self) -> u64 {
        self.worker_lost.load(Ordering::Relaxed)
    }

    /// Jobs fully executed (their ticket is resolved).
    pub fn jobs_completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Jobs of one [`JobKind`] executed to completion.
    pub fn jobs_completed_of(&self, kind: JobKind) -> u64 {
        self.completed_by_kind[kind.index()].load(Ordering::Relaxed)
    }

    /// Failed jobs of one [`JobKind`].
    pub fn jobs_failed_of(&self, kind: JobKind) -> u64 {
        self.failed_by_kind[kind.index()].load(Ordering::Relaxed)
    }

    /// The accept-to-completion latency histogram of one [`JobKind`].
    pub fn latency_of(&self, kind: JobKind) -> &Histogram {
        &self.latency_by_kind[kind.index()]
    }

    /// Completed jobs whose matcher returned an error.
    pub fn jobs_failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Total oracle queries spent across completed jobs.
    pub fn oracle_queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Jobs whose recovered witness was checked against a SAT miter.
    pub fn jobs_sat_verified(&self) -> u64 {
        self.sat_verified.load(Ordering::Relaxed)
    }

    /// SAT verifications that exhausted their budget (inconclusive).
    pub fn sat_unknown(&self) -> u64 {
        self.sat_unknown.load(Ordering::Relaxed)
    }

    /// Glue (LBD ≤ 2) clauses held by the most recently sampled solver.
    pub fn sat_glue_kept(&self) -> u64 {
        self.sat_glue_kept.load(Ordering::Relaxed)
    }

    /// Learned-DB size of the most recently sampled solver.
    pub fn sat_learned_db_size(&self) -> u64 {
        self.sat_learned_db.load(Ordering::Relaxed)
    }

    /// XOR constraints extracted across all solver builds.
    pub fn sat_xors_extracted(&self) -> u64 {
        self.sat_xors_extracted.load(Ordering::Relaxed)
    }

    /// Dense-table cache hits across all workers.
    pub fn table_cache_hits(&self) -> u64 {
        self.table_cache_hits.load(Ordering::Relaxed)
    }

    /// SAT jobs answered from a worker's cached verdict or warm solver,
    /// across all workers.
    pub fn solver_cache_hits(&self) -> u64 {
        self.solver_cache_hits.load(Ordering::Relaxed)
    }

    /// Quantum-path jobs executed on one simulation backend.
    pub fn quantum_jobs_of_backend(&self, backend: QuantumBackend) -> u64 {
        self.quantum_by_backend[backend.index()].load(Ordering::Relaxed)
    }

    /// Family witnesses found across completed enumeration jobs.
    pub fn enumerated_witnesses(&self) -> u64 {
        self.enumerated_witnesses.load(Ordering::Relaxed)
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

    /// Every registry entry that completed at least one job, with its
    /// count, in stable (sorted-by-name) order.
    pub fn entry_completions(&self) -> Vec<(&'static str, u64)> {
        self.entry_completions
            .lock()
            .expect("entry metrics lock")
            .iter()
            .map(|(&name, &count)| (name, count))
            .collect()
    }

    /// The job-latency histogram (accept → completion, microseconds).
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// The intake-depth-at-submit histogram.
    pub fn intake_depth(&self) -> &Histogram {
        &self.intake_depth
    }

    /// The dense-table compile histogram (microseconds).
    pub fn table_compile(&self) -> &Histogram {
        &self.table_compile
    }

    /// The accept-to-dequeue queue-wait histogram (microseconds).
    pub fn queue_wait(&self) -> &Histogram {
        &self.queue_wait
    }

    /// The execute-stage latency histogram of one [`JobKind`]
    /// (microseconds; the `execute_*` body alone).
    pub fn exec_of(&self, kind: JobKind) -> &Histogram {
        &self.exec_by_kind[kind.index()]
    }

    /// Worker-shard count this registry was sized for.
    pub fn shards(&self) -> usize {
        self.shard_depth.len()
    }

    /// Jobs executed by one worker shard.
    pub fn shard_jobs_executed(&self, shard: usize) -> u64 {
        self.shard_jobs[shard].load(Ordering::Relaxed)
    }

    /// Jobs one shard pulled from other shards' lanes (steals performed).
    pub fn shard_steals(&self, shard: usize) -> u64 {
        self.shard_steals[shard].load(Ordering::Relaxed)
    }

    /// Jobs pulled out of one shard's lane by other shards.
    pub fn shard_stolen_from(&self, shard: usize) -> u64 {
        self.shard_stolen_from[shard].load(Ordering::Relaxed)
    }

    /// Microseconds one shard has spent executing jobs.
    pub fn shard_busy_micros(&self, shard: usize) -> u64 {
        self.shard_busy_us[shard].load(Ordering::Relaxed)
    }

    /// Microseconds one shard has spent parked waiting for work.
    pub fn shard_idle_micros(&self, shard: usize) -> u64 {
        self.shard_idle_us[shard].load(Ordering::Relaxed)
    }

    /// Serializes every metric in the Prometheus text exposition format.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let counters = [
            (
                "revmatch_jobs_submitted_total",
                "Jobs accepted into the intake queue.",
                self.jobs_submitted(),
            ),
            (
                "revmatch_jobs_rejected_total",
                "Jobs rejected because every intake lane was full.",
                self.jobs_rejected(),
            ),
            (
                "revmatch_jobs_completed_total",
                "Jobs executed to completion.",
                self.jobs_completed(),
            ),
            (
                "revmatch_admission_shed_total",
                "Jobs shed by admission control under overload (never executed).",
                self.jobs_shed(),
            ),
            (
                "revmatch_admission_requeued_total",
                "Jobs deferred by admission control until the backlog drained.",
                self.jobs_requeued(),
            ),
            (
                "revmatch_worker_lost_total",
                "Worker panics converted into WorkerLost job reports.",
                self.workers_lost(),
            ),
            (
                "revmatch_jobs_failed_total",
                "Completed jobs whose matcher returned an error.",
                self.jobs_failed(),
            ),
            (
                "revmatch_oracle_queries_total",
                "Oracle queries spent across completed jobs.",
                self.oracle_queries(),
            ),
            (
                "revmatch_jobs_sat_verified_total",
                "Jobs whose recovered witness was checked against a SAT miter.",
                self.jobs_sat_verified(),
            ),
            (
                "revmatch_sat_unknown_total",
                "SAT verifications that exhausted their budget.",
                self.sat_unknown(),
            ),
            (
                "revmatch_sat_xors_extracted_total",
                "XOR constraints extracted across all solver builds.",
                self.sat_xors_extracted(),
            ),
            (
                "revmatch_table_cache_hits_total",
                "Worker dense-table cache hits.",
                self.table_cache_hits(),
            ),
            (
                "revmatch_solver_cache_hits_total",
                "SAT jobs answered from a worker's cached verdict or warm solver.",
                self.solver_cache_hits(),
            ),
            (
                "revmatch_enumerated_witnesses_total",
                "Family witnesses found across completed enumeration jobs.",
                self.enumerated_witnesses(),
            ),
        ];
        for (name, help, value) in counters {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        // Per-kind completion/failure counters: one metric per kind so
        // dashboards can alert on a single scenario family.
        for kind in JobKind::ALL {
            let name = format!("revmatch_jobs_{kind}_total");
            let _ = writeln!(out, "# HELP {name} Completed {kind} jobs.");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", self.jobs_completed_of(kind));
            let name = format!("revmatch_jobs_{kind}_failed_total");
            let _ = writeln!(out, "# HELP {name} Failed {kind} jobs.");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", self.jobs_failed_of(kind));
        }
        // Per-backend quantum-path dispatch counters: always emitted for
        // all three backends so dashboards see explicit zeroes.
        let name = "revmatch_quantum_backend_jobs_total";
        let _ = writeln!(
            out,
            "# HELP {name} Quantum-path jobs dispatched per simulation backend."
        );
        let _ = writeln!(out, "# TYPE {name} counter");
        for backend in QuantumBackend::ALL {
            let _ = writeln!(
                out,
                "{name}{{backend=\"{backend}\"}} {}",
                self.quantum_jobs_of_backend(backend)
            );
        }
        // Per-registry-entry completions: one labeled series per matcher
        // that actually ran, so dashboards can watch a single algorithm.
        let entries = self.entry_completions();
        if !entries.is_empty() {
            let name = "revmatch_registry_entry_jobs_total";
            let _ = writeln!(
                out,
                "# HELP {name} Completed jobs per algorithm entry (registry matcher names; \
                 enumeration families use their */sat-enumerate name)."
            );
            let _ = writeln!(out, "# TYPE {name} counter");
            for (entry, count) in entries {
                let _ = writeln!(out, "{name}{{entry=\"{}\"}} {count}", escape_label(entry));
            }
        }
        let _ = writeln!(
            out,
            "# HELP revmatch_shard_queue_depth Live intake depth per worker shard."
        );
        let _ = writeln!(out, "# TYPE revmatch_shard_queue_depth gauge");
        for (i, d) in self.shard_depth.iter().enumerate() {
            let _ = writeln!(
                out,
                "revmatch_shard_queue_depth{{shard=\"{i}\"}} {}",
                d.load(Ordering::Relaxed)
            );
        }
        // Per-shard runtime introspection: executed jobs, steal flow in
        // both directions, and busy/idle seconds — enough to spot a hot
        // shard.
        let shard_counters: [(&str, &str, &Vec<AtomicU64>); 5] = [
            (
                "revmatch_shard_jobs_total",
                "Jobs executed per worker shard.",
                &self.shard_jobs,
            ),
            (
                "revmatch_shard_steals_total",
                "Jobs a shard pulled from another shard's lane.",
                &self.shard_steals,
            ),
            (
                "revmatch_shard_stolen_from_total",
                "Jobs pulled out of a shard's lane by other shards.",
                &self.shard_stolen_from,
            ),
            (
                "revmatch_shard_busy_seconds_total",
                "Seconds a shard has spent executing jobs.",
                &self.shard_busy_us,
            ),
            (
                "revmatch_shard_idle_seconds_total",
                "Seconds a shard has spent parked waiting for work.",
                &self.shard_idle_us,
            ),
        ];
        for (name, help, values) in shard_counters {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let seconds = name.ends_with("_seconds_total");
            for (i, v) in values.iter().enumerate() {
                let v = v.load(Ordering::Relaxed);
                if seconds {
                    let _ = writeln!(out, "{name}{{shard=\"{i}\"}} {}", v as f64 / 1e6);
                } else {
                    let _ = writeln!(out, "{name}{{shard=\"{i}\"}} {v}");
                }
            }
        }
        self.latency.render(
            &mut out,
            "revmatch_job_latency_seconds",
            "Job latency from intake accept to completion.",
            1e6,
        );
        // Per-kind latency as one labeled histogram family.
        let name = "revmatch_job_kind_latency_seconds";
        let _ = writeln!(
            out,
            "# HELP {name} Job latency from intake accept to completion, by job kind."
        );
        let _ = writeln!(out, "# TYPE {name} histogram");
        for kind in JobKind::ALL {
            self.latency_by_kind[kind.index()].render_series(
                &mut out,
                name,
                &format!("kind=\"{kind}\","),
                1e6,
            );
        }
        self.intake_depth.render(
            &mut out,
            "revmatch_intake_depth",
            "Intake-lane depth observed at each accepted submit.",
            1.0,
        );
        self.table_compile.render(
            &mut out,
            "revmatch_table_compile_seconds",
            "Latency of the dense-table compiles bought by job probes.",
            1e6,
        );
        self.queue_wait.render(
            &mut out,
            "revmatch_queue_wait_seconds",
            "Job wait from intake accept to worker dequeue.",
            1e6,
        );
        // Per-kind execute-stage latency as one labeled histogram family
        // (the execute_* body alone; queue wait reported above).
        let name = "revmatch_exec_seconds";
        let _ = writeln!(
            out,
            "# HELP {name} Execute-stage latency by job kind (queue wait excluded)."
        );
        let _ = writeln!(out, "# TYPE {name} histogram");
        for kind in JobKind::ALL {
            self.exec_by_kind[kind.index()].render_series(
                &mut out,
                name,
                &format!("kind=\"{kind}\","),
                1e6,
            );
        }
        // SAT-core introspection: the live clause-database shape as
        // gauges.
        let sat_gauges = [
            (
                "revmatch_sat_glue_kept",
                "Glue (low-LBD) clauses held by the most recently sampled solver.",
                self.sat_glue_kept(),
            ),
            (
                "revmatch_sat_learned_db_size",
                "Learned-clause DB size of the most recently sampled solver.",
                self.sat_learned_db_size(),
            ),
        ];
        for (name, help, value) in sat_gauges {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
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
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name}{{{key}=\"{}\"}} 1", escape_label(value));
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
        h.render(&mut out, "t", "test", 1.0);
        assert!(out.contains("t_bucket{le=\"1\"} 2"));
        assert!(out.contains("t_bucket{le=\"10\"} 3"));
        assert!(out.contains("t_bucket{le=\"100\"} 4"));
        assert!(out.contains("t_bucket{le=\"+Inf\"} 5"));
        assert!(out.contains("t_count 5"));
    }

    #[test]
    fn quantile_bounds() {
        let h = Histogram::new(vec![10, 100, 1000]);
        assert_eq!(h.quantile_upper_bound(0.5), None);
        for v in [5, 50, 50, 5000] {
            h.observe(v);
        }
        assert_eq!(h.quantile_upper_bound(0.25), Some(10));
        assert_eq!(h.quantile_upper_bound(0.5), Some(100));
        assert_eq!(h.quantile_upper_bound(0.75), Some(100));
        // Past the last bound: the observed maximum, not a u64::MAX
        // sentinel the caller would print as garbage.
        assert_eq!(h.quantile_upper_bound(1.0), Some(5000));
        assert_eq!(h.max(), 5000);
    }

    #[test]
    fn summary_reports_quantiles_and_caps_at_observed_max() {
        let h = Histogram::new(vec![10, 100, 1000]);
        assert_eq!(h.summary(&[0.5, 0.99]), None, "empty histogram");
        for v in [5, 6, 7, 8] {
            h.observe(v);
        }
        // All samples in the first bucket: every quantile is capped at
        // the observed max (8), not the bucket bound (10).
        assert_eq!(h.summary(&[0.5, 0.9, 0.99, 1.0]), Some(vec![8, 8, 8, 8]));
        h.observe(5000);
        assert_eq!(
            h.summary(&[0.5, 1.0]),
            Some(vec![10, 5000]),
            "p50 back to its bucket bound, overflow max reported exactly"
        );
    }

    #[test]
    fn quantile_zero_reports_the_observed_minimum() {
        let h = Histogram::new(vec![10, 100, 1000]);
        // Empty histogram: every quantile (including the edges) is None.
        assert_eq!(h.quantile_upper_bound(0.0), None);
        assert_eq!(h.quantile_upper_bound(1.0), None);
        for v in [7, 50, 5000] {
            h.observe(v);
        }
        // q=0 is the observed minimum, not the first occupied bucket's
        // upper bound (10) the old max(1) rank clamp reported.
        assert_eq!(h.quantile_upper_bound(0.0), Some(7));
        assert_eq!(h.min(), 7);
        assert_eq!(h.quantile_upper_bound(1.0), Some(5000));
        // A negative q clamps to the minimum too instead of panicking.
        assert_eq!(h.quantile_upper_bound(-0.5), Some(7));
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

    #[test]
    fn render_includes_every_family() {
        let m = Metrics::new(&ServiceConfig::default().with_shards(2));
        m.record_accept(1, 3);
        m.record_completion(JobKind::Promise, false, 12, 250);
        m.record_completion(JobKind::Identify, true, 3, 100);
        m.record_reject();
        m.record_sat_verify(false);
        m.record_sat_verify(true);
        m.record_sat_core(3, 17, 2);
        m.record_sat_core(5, 20, 0);
        m.record_table_cache_hits(4);
        m.record_solver_cache_hit();
        m.record_table_compile(7);
        m.record_quantum_backend(QuantumBackend::Stabilizer);
        m.record_stage_timing(JobKind::Promise, 40, 210);
        m.record_execution(0, 0);
        m.record_execution(0, 1); // shard 0 steals from lane 1
        m.record_shard_busy(0, 250);
        m.record_shard_idle(1, 1_000);
        m.record_admission_shed();
        m.record_admission_requeued();
        m.record_worker_lost();
        let text = m.render();
        for needle in [
            "revmatch_jobs_submitted_total 1",
            "revmatch_jobs_rejected_total 1",
            "revmatch_jobs_completed_total 2",
            "revmatch_admission_shed_total 1",
            "revmatch_admission_requeued_total 1",
            "revmatch_worker_lost_total 1",
            "revmatch_jobs_failed_total 1",
            "revmatch_oracle_queries_total 15",
            "revmatch_jobs_sat_verified_total 2",
            "revmatch_sat_unknown_total 1",
            "revmatch_table_cache_hits_total 4",
            "revmatch_solver_cache_hits_total 1",
            "revmatch_sat_glue_kept 5",
            "revmatch_sat_learned_db_size 20",
            "revmatch_sat_xors_extracted_total 2",
            "revmatch_sat_opts_info{opts=\"",
            "revmatch_jobs_promise_total 1",
            "revmatch_jobs_identify_total 1",
            "revmatch_jobs_identify_failed_total 1",
            "revmatch_jobs_quantum_total 0",
            "revmatch_jobs_sat_total 0",
            "revmatch_shard_queue_depth{shard=\"1\"} 3",
            "revmatch_job_latency_seconds_bucket",
            "revmatch_job_kind_latency_seconds_bucket{kind=\"promise\",le=",
            "revmatch_job_kind_latency_seconds_count{kind=\"identify\"} 1",
            "revmatch_intake_depth_count 1",
            "revmatch_table_compile_seconds_count 1",
            "revmatch_kernel_info{kernel=\"",
            "revmatch_quantum_backend_jobs_total{backend=\"dense\"} 0",
            "revmatch_quantum_backend_jobs_total{backend=\"stabilizer\"} 1",
            "revmatch_quantum_backend_info{backend=\"",
            "revmatch_shard_jobs_total{shard=\"0\"} 2",
            "revmatch_shard_steals_total{shard=\"0\"} 1",
            "revmatch_shard_steals_total{shard=\"1\"} 0",
            "revmatch_shard_stolen_from_total{shard=\"1\"} 1",
            "revmatch_shard_busy_seconds_total{shard=\"0\"} 0.00025",
            "revmatch_shard_idle_seconds_total{shard=\"1\"} 0.001",
            "revmatch_queue_wait_seconds_count 1",
            "revmatch_exec_seconds_bucket{kind=\"promise\",le=",
            "revmatch_exec_seconds_count{kind=\"promise\"} 1",
            "revmatch_exec_seconds_count{kind=\"quantum\"} 0",
        ] {
            assert!(text.contains(needle), "missing {needle}\n{text}");
        }
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
