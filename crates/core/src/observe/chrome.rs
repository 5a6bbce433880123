//! Trace drain: Chrome trace-event JSON and per-job stage attribution.
//!
//! [`chrome_trace_json`] serializes drained spans into the Trace Event
//! Format's JSON-object flavor — open the file in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev). Each recording lane (worker
//! shard, plus the submit side) becomes a named thread row; spans are
//! complete (`"ph":"X"`) events, so the viewer nests `table_compile`
//! (the compile a probe bought) and `cache_probe` directly inside their
//! `execute` purely by time containment. Hand-rolled writer — the span fields are numbers and
//! `'static` enum labels, so no escaping and no JSON dependency.
//!
//! [`slowest_jobs`] folds the same spans into per-job
//! [`JobBreakdown`]s — the loadgen prints the top-K table with
//! per-stage attribution, the fastest way from "p99 is high" to "it's
//! the table compiles".

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::service::job::JobKind;

use super::{SpanRecord, Stage};

/// Serializes spans (as drained by [`super::Tracer::spans`]) to Chrome
/// trace-event JSON. `worker_shards` names the thread rows: lanes
/// `0..worker_shards` are `shard N`, the lane past them is `submit`.
pub fn chrome_trace_json(spans: &[SpanRecord], worker_shards: usize) -> String {
    let mut out = String::with_capacity(64 + 160 * spans.len());
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n  ");
    };
    for tid in 0..=worker_shards {
        let name = if tid == worker_shards {
            "submit".to_string()
        } else {
            format!("shard {tid}")
        };
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        );
    }
    for span in spans {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{},\"dur\":{},\"args\":{{\"job\":{}",
            span.stage.as_str(),
            span.kind.as_str(),
            span.tid,
            span.start_us,
            span.dur_us.max(1), // zero-width spans vanish in the viewer
            span.job,
        );
        if let Some(detail) = span.detail.name() {
            let _ = write!(out, ",\"detail\":\"{detail}\"");
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

/// One traced job folded to totals: where its wall-clock went, stage by
/// stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobBreakdown {
    /// The job's accept index.
    pub job: u64,
    /// The job's kind.
    pub kind: JobKind,
    /// First span start to last span end, microseconds — the job's
    /// traced wall-clock footprint.
    pub total_us: u64,
    /// Summed span duration per stage, indexed by [`Stage::index`].
    /// Stages nest (`execute` ⊃ `cache_probe`, `execute` ⊃
    /// `table_compile`), so columns are attributions, not a partition of
    /// `total_us`.
    pub stage_us: [u64; Stage::ALL.len()],
}

impl JobBreakdown {
    /// Summed duration of one stage across the job's spans.
    pub fn stage(&self, stage: Stage) -> u64 {
        self.stage_us[stage.index()]
    }
}

/// The `k` jobs with the largest traced wall-clock footprint, slowest
/// first (ties broken toward earlier jobs, so the order is stable).
pub fn slowest_jobs(spans: &[SpanRecord], k: usize) -> Vec<JobBreakdown> {
    let mut per_job: HashMap<u64, (JobKind, u64, u64, [u64; Stage::ALL.len()])> = HashMap::new();
    for span in spans {
        let entry =
            per_job
                .entry(span.job)
                .or_insert((span.kind, u64::MAX, 0, [0; Stage::ALL.len()]));
        entry.1 = entry.1.min(span.start_us);
        entry.2 = entry.2.max(span.end_us());
        entry.3[span.stage.index()] += span.dur_us;
    }
    let mut jobs: Vec<JobBreakdown> = per_job
        .into_iter()
        .map(|(job, (kind, start, end, stage_us))| JobBreakdown {
            job,
            kind,
            total_us: end.saturating_sub(start),
            stage_us,
        })
        .collect();
    jobs.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.job.cmp(&b.job)));
    jobs.truncate(k);
    jobs
}

#[cfg(test)]
mod tests {
    use super::super::Detail;
    use super::*;

    fn span(job: u64, tid: u32, stage: Stage, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            job,
            tid,
            stage,
            kind: JobKind::Sat,
            detail: Detail::NONE,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn trace_json_shape() {
        let spans = vec![
            span(0, 1, Stage::QueueWait, 10, 5),
            span(0, 1, Stage::Execute, 15, 40),
        ];
        let json = chrome_trace_json(&spans, 2);
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        // Thread rows: shard 0, shard 1, submit (tid 2).
        assert!(json.contains("\"args\":{\"name\":\"shard 0\"}"));
        assert!(json.contains("\"args\":{\"name\":\"shard 1\"}"));
        assert!(json.contains("\"args\":{\"name\":\"submit\"}"));
        assert!(json.contains("\"name\":\"queue_wait\""));
        assert!(json.contains("\"ts\":15,\"dur\":40"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 3);
    }

    #[test]
    fn zero_width_spans_render_one_us() {
        let json = chrome_trace_json(&[span(3, 0, Stage::Dequeue, 100, 0)], 1);
        assert!(json.contains("\"ts\":100,\"dur\":1"));
    }

    #[test]
    fn detail_appears_only_when_present() {
        let mut with = span(1, 0, Stage::Execute, 0, 9);
        with.detail = Detail::solver(revmatch_sat::SolverBackend::Cdcl);
        let json = chrome_trace_json(&[with, span(2, 0, Stage::Report, 9, 1)], 1);
        assert_eq!(json.matches("\"detail\":\"cdcl\"").count(), 1);
    }

    #[test]
    fn slowest_jobs_ranks_by_footprint() {
        let spans = vec![
            // Job 1: footprint 100, execute 80 containing cache_probe 30.
            span(1, 0, Stage::QueueWait, 0, 20),
            span(1, 0, Stage::Execute, 20, 80),
            span(1, 0, Stage::CacheProbe, 25, 30),
            // Job 2: footprint 10.
            span(2, 1, Stage::Execute, 50, 10),
            // Job 3: footprint 300.
            span(3, 0, Stage::Execute, 400, 300),
        ];
        let top = slowest_jobs(&spans, 2);
        assert_eq!(top.len(), 2);
        assert_eq!((top[0].job, top[0].total_us), (3, 300));
        assert_eq!((top[1].job, top[1].total_us), (1, 100));
        assert_eq!(top[1].stage(Stage::Execute), 80);
        assert_eq!(top[1].stage(Stage::CacheProbe), 30);
        assert_eq!(top[1].stage(Stage::TableCompile), 0);
        assert_eq!(slowest_jobs(&spans, 10).len(), 3);
    }
}
