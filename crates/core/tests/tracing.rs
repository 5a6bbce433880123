//! End-to-end tests for the tracing subsystem through the public
//! service API: span taxonomy coverage for every job kind, sampling
//! stride behaviour, the off-mode zero-footprint guarantee, and the
//! always-on per-job timing breakdown.

use std::collections::{BTreeSet, HashMap};

use rand::SeedableRng;
use revmatch::{
    job_seed, random_instance, EngineJob, EnumerateJob, Equivalence, IdentifyJob, JobKind, JobSpec,
    MatchService, QuantumAlgorithm, QuantumPathJob, SatEquivalenceJob, ServiceConfig, Side, Stage,
    TraceConfig, WitnessFamily,
};

/// One job of every kind over small planted instances, deterministic.
fn one_of_each() -> Vec<JobSpec> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7ACE);
    let e = Equivalence::new(Side::N, Side::I);
    let width = 4;
    let promise = random_instance(e, width, &mut rng);
    let identify = random_instance(e, width, &mut rng);
    let quantum = random_instance(e, width, &mut rng);
    let sat = random_instance(e, width, &mut rng);
    let enumerate = random_instance(e, width, &mut rng);
    vec![
        JobSpec::Promise(EngineJob::from_instance(&promise, true)),
        JobSpec::Identify(IdentifyJob::new(identify.c1, identify.c2).without_brute_force()),
        JobSpec::QuantumPath(QuantumPathJob {
            equivalence: e,
            c1: quantum.c1,
            c2: quantum.c2,
            algorithm: QuantumAlgorithm::Simon,
        }),
        JobSpec::SatEquivalence(SatEquivalenceJob {
            c1: sat.c1,
            c2: sat.c2,
            witness: Some(sat.witness),
        }),
        JobSpec::Enumerate(EnumerateJob::new(
            enumerate.c1,
            enumerate.c2,
            WitnessFamily::InputNegation,
        )),
    ]
}

fn traced_service(trace: TraceConfig) -> MatchService {
    MatchService::start(
        ServiceConfig::default()
            .with_shards(2)
            .with_queue_capacity(32)
            .with_trace(trace),
    )
}

/// With tracing fully on, every job kind emits the worker-side span
/// taxonomy and the drain is consistent: per-job stages nest inside the
/// job's submit→report window.
#[test]
fn every_kind_emits_the_span_taxonomy() {
    let service = traced_service(TraceConfig::all());
    for (i, job) in one_of_each().into_iter().enumerate() {
        service
            .submit_wait_seeded(job, job_seed(1, i as u64))
            .wait();
    }
    // A ticket resolves before its worker finishes recording spans;
    // drain() is the consistent cut.
    service.drain();
    let spans = service.trace_spans();

    // Every kind is covered, and every traced job carries the
    // unconditional stages.
    let mut stages_by_job: HashMap<u64, BTreeSet<Stage>> = HashMap::new();
    let mut kinds = BTreeSet::new();
    for s in &spans {
        stages_by_job.entry(s.job).or_default().insert(s.stage);
        kinds.insert(s.kind);
    }
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        JobKind::ALL.to_vec(),
        "all five kinds must appear in the trace"
    );
    assert_eq!(stages_by_job.len(), 5, "one traced job per kind");
    for (job, stages) in &stages_by_job {
        for required in [
            Stage::Submit,
            Stage::QueueWait,
            Stage::Dequeue,
            Stage::Execute,
            Stage::Report,
        ] {
            assert!(
                stages.contains(&required),
                "job {job} is missing its {required} span; has {stages:?}"
            );
        }
    }
    // The cache-backed oracle path shows up for at least one job: every
    // oracle lookup is a cache_probe span, and a w4 oracle buys its
    // table on its first probe ⇒ a table_compile span inside execute.
    let all_stages: BTreeSet<Stage> = spans.iter().map(|s| s.stage).collect();
    assert!(all_stages.contains(&Stage::CacheProbe));
    assert!(all_stages.contains(&Stage::TableCompile));

    // Execute spans carry a backend/kernel detail; drained spans are
    // start-ordered and stages sit inside the job's overall window.
    for s in &spans {
        if s.stage == Stage::Execute {
            assert!(
                s.detail.name().is_some(),
                "execute span for {} must attribute a backend/kernel",
                s.kind
            );
        }
    }
    assert!(
        spans.windows(2).all(|w| w[0].start_us <= w[1].start_us),
        "drained spans are sorted by start"
    );

    // Nothing was overwritten, so the drain returned every span
    // recorded so far.
    let tracer = service.tracer().expect("tracing on");
    assert_eq!(tracer.dropped(), 0);
    assert_eq!(tracer.recorded(), spans.len() as u64);

    // The Chrome trace JSON holds one complete ("X") event per span and
    // names every kind as a category. The drain above emptied the rings,
    // so serve the same jobs again and serialize that second drain.
    for (i, job) in one_of_each().into_iter().enumerate() {
        service
            .submit_wait_seeded(job, job_seed(1, i as u64))
            .wait();
    }
    service.drain();
    let json = service.trace_json().expect("tracing on ⇒ json available");
    assert!(json.starts_with('{') && json.contains("\"traceEvents\""));
    assert_eq!(
        json.matches("\"ph\":\"X\"").count() as u64,
        tracer.recorded() - spans.len() as u64,
        "one complete event per span"
    );
    for kind in JobKind::ALL {
        assert!(
            json.contains(&format!("\"cat\":\"{}\"", kind.as_str())),
            "no {kind} event in the trace JSON"
        );
    }
    // Serializing drains the rings as `trace_spans` does: with no job in
    // between, a second trace holds no event.
    let again = service.trace_json().expect("tracing on ⇒ json available");
    assert!(again.contains("\"traceEvents\""));
    assert_eq!(again.matches("\"ph\":\"X\"").count(), 0, "{again}");
    service.shutdown();
}

/// `sampled(3)` keeps exactly the jobs whose service-assigned id is a
/// multiple of the stride (ids start at 0), and a second drain starts
/// empty.
#[test]
fn sampling_stride_thins_the_span_stream() {
    let service = traced_service(TraceConfig::sampled(3));
    let jobs = one_of_each();
    for i in 0..9usize {
        let job = jobs[i % jobs.len()].clone();
        service
            .submit_wait_seeded(job, job_seed(2, i as u64))
            .wait();
    }
    service.drain();
    let spans = service.trace_spans();
    let traced_ids: BTreeSet<u64> = spans.iter().map(|s| s.job).collect();
    assert_eq!(
        traced_ids.into_iter().collect::<Vec<_>>(),
        vec![0, 3, 6],
        "ids 0..9 under stride 3 trace exactly 0, 3, 6"
    );
    assert!(service.trace_spans().is_empty(), "drain consumes the rings");
    service.shutdown();
}

/// Off is the default and records nothing — no tracer, no spans, no
/// JSON — while the per-job timing breakdown stays on.
#[test]
fn off_mode_records_no_spans_but_still_times_jobs() {
    let service = traced_service(TraceConfig::off());
    assert!(service.tracer().is_none(), "off ⇒ no tracer allocated");
    let report = service
        .submit_wait_seeded(one_of_each().remove(4), job_seed(3, 0))
        .wait();
    assert!(service.trace_spans().is_empty());
    assert!(service.trace_json().is_none());
    // Enumerate sweeps 2^4 candidate masks — far above µs resolution.
    assert!(report.timing.exec_us > 0, "timing is unconditional");
    service.shutdown();
}

/// The timing breakdown observes real queueing and cache behaviour:
/// paused workers inflate `queue_wait_us`, and the second identical
/// promise job hits the dense-table cache.
#[test]
fn timing_breakdown_sees_queue_wait_and_cache_hits() {
    let service = MatchService::start(
        ServiceConfig::default()
            .with_shards(1)
            .with_queue_capacity(8)
            .with_trace(TraceConfig::off()),
    );
    let job = one_of_each().remove(0);

    service.pause();
    let ticket = service.submit_wait_seeded(job.clone(), job_seed(4, 0));
    std::thread::sleep(std::time::Duration::from_millis(20));
    service.resume();
    let cold = ticket.wait();
    assert!(
        cold.timing.queue_wait_us >= 10_000,
        "a 20ms pause must show up as queue wait, got {}µs",
        cold.timing.queue_wait_us
    );
    assert!(!cold.timing.cache_hit, "first probe of this pair is cold");

    let warm = service.submit_wait_seeded(job, job_seed(4, 1)).wait();
    assert!(
        warm.timing.cache_hit,
        "identical circuits re-probe warm tables"
    );
    service.shutdown();
}
