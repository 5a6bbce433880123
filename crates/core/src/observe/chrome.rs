//! Trace drain: Chrome trace-event JSON.
//!
//! [`chrome_trace_json`] serializes drained spans into the Trace Event
//! Format's JSON-object flavor — open the file in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev). Each recording lane (worker
//! shard, plus the submit side) becomes a named thread row; spans are
//! complete (`"ph":"X"`) events, so the viewer nests `table_compile`
//! (the compile a probe bought) and `cache_probe` directly inside their
//! `execute` purely by time containment. Hand-rolled writer — the span fields are numbers and
//! `'static` enum labels, so no escaping and no JSON dependency.

use std::fmt::Write as _;

use super::SpanRecord;

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

#[cfg(test)]
mod tests {
    use super::super::{Detail, Stage};
    use super::*;
    use crate::service::job::JobKind;

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
}
