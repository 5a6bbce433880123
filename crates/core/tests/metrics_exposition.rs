//! Round-trips the Prometheus text exposition through a small in-test
//! parser: every declared metric family has series, histogram buckets
//! are cumulative and end at `+Inf` with the family count, and counters
//! are monotone across a drain.

use std::collections::BTreeMap;

use rand::SeedableRng;
use revmatch::{
    job_seed, random_instance, EngineJob, Equivalence, JobSpec, MatchService, SatOptions,
    ServiceConfig, Side,
};
use revmatch_quantum::QuantumBackend;

/// One parsed sample: metric name, raw label string (`{}`-less, may be
/// empty), value.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    name: String,
    labels: String,
    value: f64,
}

/// A parsed exposition: `# TYPE` declarations plus every sample line.
#[derive(Debug, Default)]
struct Exposition {
    types: BTreeMap<String, String>,
    samples: Vec<Sample>,
}

/// Splits a rendered label set on the commas *between* pairs, never the
/// ones inside quoted values (`opts="lbd,xor"` is one pair).
/// Backslash-escape aware per the exposition format: `\"` inside a
/// quoted value does not close it, and `\\` does not escape what
/// follows it.
fn split_label_pairs(labels: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut start, mut quoted, mut escaped) = (0usize, false, false);
    for (i, b) in labels.bytes().enumerate() {
        if escaped {
            escaped = false;
            continue;
        }
        match b {
            b'\\' if quoted => escaped = true,
            b'"' => quoted = !quoted,
            b',' if !quoted => {
                out.push(&labels[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < labels.len() {
        out.push(&labels[start..]);
    }
    out
}

/// Minimal parser for the subset of the text format `render()` emits:
/// `# HELP`/`# TYPE` comments and `name{labels} value` samples. Panics
/// on anything else — a malformed line is exactly the regression this
/// test exists to catch.
fn parse(text: &str) -> Exposition {
    let mut out = Exposition::default();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("# TYPE metric name").to_string();
            let kind = it.next().expect("# TYPE metric kind").to_string();
            assert!(
                matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                "unknown metric type {kind:?} in {line:?}"
            );
            assert!(
                out.types.insert(name.clone(), kind).is_none(),
                "duplicate # TYPE for {name}"
            );
            continue;
        }
        if line.starts_with('#') {
            assert!(line.starts_with("# HELP "), "stray comment {line:?}");
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample needs a value");
        let value: f64 = value.parse().unwrap_or_else(|e| {
            panic!("unparseable sample value in {line:?}: {e}");
        });
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let labels = rest.strip_suffix('}').expect("unterminated label set");
                for pair in split_label_pairs(labels) {
                    let (k, v) = pair.split_once('=').expect("label needs key=value");
                    assert!(!k.is_empty() && v.starts_with('"') && v.ends_with('"'));
                }
                (name.to_string(), labels.to_string())
            }
            None => (series.to_string(), String::new()),
        };
        out.samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    out
}

impl Exposition {
    fn of(&self, name: &str) -> Vec<&Sample> {
        self.samples.iter().filter(|s| s.name == name).collect()
    }

    /// Every sample of `family` grouped by the label set minus `le`.
    fn histogram_groups(&self, family: &str) -> BTreeMap<String, Vec<(String, f64)>> {
        let mut groups: BTreeMap<String, Vec<(String, f64)>> = BTreeMap::new();
        for s in self.of(&format!("{family}_bucket")) {
            let mut le = None;
            let rest: Vec<&str> = split_label_pairs(&s.labels)
                .into_iter()
                .filter(|pair| match pair.strip_prefix("le=") {
                    Some(bound) => {
                        le = Some(bound.trim_matches('"').to_string());
                        false
                    }
                    None => true,
                })
                .collect();
            groups
                .entry(rest.join(","))
                .or_default()
                .push((le.expect("bucket without le"), s.value));
        }
        groups
    }
}

fn value_of(exp: &Exposition, name: &str, labels: &str) -> f64 {
    exp.of(name)
        .iter()
        .find(|s| s.labels == labels)
        .unwrap_or_else(|| panic!("{name}{{{labels}}} missing"))
        .value
}

/// Label values carrying the exposition format's escapable bytes
/// (quote, backslash, comma) survive the quote-aware parser as one
/// pair each — the regression shape for unescaped-label exports.
#[test]
fn parser_handles_escaped_label_values() {
    let text = "# TYPE demo_total counter\n\
                # HELP demo_total demo.\n\
                demo_total{path=\"a\\\"b,c\\\\\",kind=\"x,y\"} 3\n";
    let exp = parse(text);
    assert_eq!(exp.samples.len(), 1);
    let pairs = split_label_pairs(&exp.samples[0].labels);
    assert_eq!(
        pairs,
        vec!["path=\"a\\\"b,c\\\\\"", "kind=\"x,y\""],
        "escaped quote and trailing escaped backslash stay inside one pair"
    );
    assert_eq!(exp.samples[0].value, 3.0);
}

/// Histogram quantile edges through a served workload: an untouched
/// histogram answers `None` for every quantile, and after traffic
/// `q=0.0` reports the observed minimum (not the first bucket's upper
/// bound) while `q=1.0` stays within the observed maximum's bucket.
#[test]
fn histogram_quantile_edges_round_trip() {
    let service = MatchService::start(ServiceConfig::default().with_shards(1));
    let empty = service.metrics().latency();
    assert_eq!(empty.quantile_upper_bound(0.0), None);
    assert_eq!(empty.quantile_upper_bound(1.0), None);
    assert_eq!(empty.quantile_upper_bound(0.5), None);

    let mut rng = rand::rngs::StdRng::seed_from_u64(0xE48);
    for i in 0..8u64 {
        let inst = random_instance(Equivalence::new(Side::N, Side::I), 4, &mut rng);
        service
            .submit_wait_seeded(
                JobSpec::Promise(EngineJob::from_instance(&inst, true)),
                job_seed(9, i),
            )
            .wait();
    }
    service.drain();
    let h = service.metrics().latency();
    let q0 = h.quantile_upper_bound(0.0).expect("non-empty histogram");
    let q1 = h.quantile_upper_bound(1.0).expect("non-empty histogram");
    assert_eq!(q0, h.min(), "q=0.0 is the observed minimum");
    assert!(q1 >= h.max(), "q=1.0 bucket bound covers the maximum");
    assert!(q0 <= q1);
    // And the exported histogram agrees with the counters it came from.
    let exp = parse(&service.metrics_text());
    let count = value_of(&exp, "revmatch_job_latency_seconds_count", "");
    assert_eq!(count, h.count() as f64);
    service.shutdown();
}

/// Drives a small promise workload and validates the full exposition.
#[test]
fn exposition_parses_and_is_internally_consistent() {
    let service = MatchService::start(ServiceConfig::default().with_shards(2));
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xE47);
    for i in 0..12u64 {
        let inst = random_instance(
            Equivalence::new(Side::N, Side::I),
            4 + (i % 2) as usize,
            &mut rng,
        );
        service
            .submit_wait_seeded(
                JobSpec::Promise(EngineJob::from_instance(&inst, true)),
                job_seed(5, i),
            )
            .wait();
    }
    service.drain();
    let first = parse(&service.metrics_text());

    // Every declared family has at least one sample series.
    for (family, kind) in &first.types {
        let series: Vec<&Sample> = match kind.as_str() {
            "histogram" => first
                .samples
                .iter()
                .filter(|s| {
                    s.name == format!("{family}_bucket")
                        || s.name == format!("{family}_sum")
                        || s.name == format!("{family}_count")
                })
                .collect(),
            _ => first.of(family),
        };
        assert!(!series.is_empty(), "# TYPE {family} {kind} has no samples");
    }
    // And no sample belongs to an undeclared family.
    for s in &first.samples {
        let family = s
            .name
            .strip_suffix("_bucket")
            .or_else(|| s.name.strip_suffix("_sum"))
            .or_else(|| s.name.strip_suffix("_count"))
            .filter(|f| first.types.get(*f).map(String::as_str) == Some("histogram"))
            .unwrap_or(&s.name);
        assert!(
            first.types.contains_key(family),
            "sample {} has no # TYPE declaration",
            s.name
        );
    }

    // Histograms: buckets cumulative, ending at le="+Inf" == _count,
    // for every label group of every histogram family.
    let histograms: Vec<&String> = first
        .types
        .iter()
        .filter(|(_, k)| k.as_str() == "histogram")
        .map(|(f, _)| f)
        .collect();
    assert!(!histograms.is_empty());
    for family in histograms {
        for (group, buckets) in first.histogram_groups(family) {
            let mut prev = 0.0;
            for (le, count) in &buckets {
                assert!(
                    *count >= prev,
                    "{family}{{{group}}} bucket le={le} not cumulative"
                );
                prev = *count;
            }
            let (last_le, last_count) = buckets.last().expect("at least one bucket");
            assert_eq!(last_le, "+Inf", "{family}{{{group}}} must end at +Inf");
            let total = value_of(&first, &format!("{family}_count"), &group);
            assert_eq!(
                *last_count, total,
                "{family}{{{group}}} +Inf bucket must equal _count"
            );
        }
    }

    // The workload actually shows up where the new families promise.
    assert_eq!(value_of(&first, "revmatch_jobs_completed_total", ""), 12.0);
    assert!(value_of(&first, "revmatch_queue_wait_seconds_count", "") >= 12.0);
    assert_eq!(
        value_of(&first, "revmatch_exec_seconds_count", "kind=\"promise\""),
        12.0
    );
    // The SAT-core introspection series are part of the exposition
    // contract even on a promise-only workload: the gauges report the
    // last (possibly zero) sample and the info gauge always carries the
    // active option set.
    for series in [
        "revmatch_sat_glue_kept",
        "revmatch_sat_learned_db_size",
        "revmatch_sat_xors_extracted_total",
    ] {
        assert!(value_of(&first, series, "") >= 0.0, "{series} negative");
    }
    let opts_info = first.of("revmatch_sat_opts_info");
    assert_eq!(opts_info.len(), 1, "one active option set");
    assert_eq!(opts_info[0].value, 1.0);
    assert!(opts_info[0].labels.starts_with("opts=\""));

    let per_shard_jobs: f64 = (0..2)
        .map(|s| {
            value_of(
                &first,
                "revmatch_shard_jobs_total",
                &format!("shard=\"{s}\""),
            )
        })
        .sum();
    assert_eq!(per_shard_jobs, 12.0);

    // Counters are monotone across another drained batch of work.
    for i in 12..20u64 {
        let inst = random_instance(Equivalence::new(Side::N, Side::I), 4, &mut rng);
        service
            .submit_wait_seeded(
                JobSpec::Promise(EngineJob::from_instance(&inst, true)),
                job_seed(5, i),
            )
            .wait();
    }
    service.drain();
    let second = parse(&service.metrics_text());
    assert_eq!(first.types, second.types, "families are stable");
    for s in &first.samples {
        let is_counter = first.types.get(&s.name).map(String::as_str) == Some("counter")
            || s.name.ends_with("_count")
            || s.name.ends_with("_bucket")
            || s.name.ends_with("_sum");
        if !is_counter {
            continue;
        }
        let after = value_of(&second, &s.name, &s.labels);
        assert!(
            after >= s.value,
            "counter {}{{{}}} went backwards: {} -> {after}",
            s.name,
            s.labels,
            s.value
        );
    }
    service.shutdown();
}

/// The quantum-backend and SAT-options info gauges describe the service
/// that renders them: a pinned service and a default one, side by side
/// in one process, each export their own values.
#[test]
fn info_gauges_describe_the_service_config() {
    let info = |service: &MatchService, name: &str| -> Vec<(String, f64)> {
        parse(&service.metrics_text())
            .of(name)
            .iter()
            .map(|s| (s.labels.clone(), s.value))
            .collect()
    };
    let pinned = MatchService::start(
        ServiceConfig::default()
            .with_shards(1)
            .with_sat_opts(SatOptions::NONE)
            .with_quantum_backend(QuantumBackend::Dense),
    );
    let default = MatchService::start(ServiceConfig::default().with_shards(1));
    assert_eq!(
        info(&pinned, "revmatch_sat_opts_info"),
        [("opts=\"none\"".to_string(), 1.0)]
    );
    assert_eq!(
        info(&pinned, "revmatch_quantum_backend_info"),
        [("backend=\"dense\"".to_string(), 1.0)]
    );
    assert_eq!(
        info(&default, "revmatch_sat_opts_info"),
        [("opts=\"lbd,xor\"".to_string(), 1.0)]
    );
    assert_eq!(
        info(&default, "revmatch_quantum_backend_info"),
        [("backend=\"auto\"".to_string(), 1.0)]
    );
}
