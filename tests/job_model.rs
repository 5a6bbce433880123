//! Unified job model regression tests: every [`JobSpec`] kind completes
//! through the serving layer with bit-identical results under any worker
//! count, the service's identification path is differentially equal to
//! the direct library call, and the Simon quantum path is deterministic
//! under fixed seeds.

use proptest::prelude::*;
use rand::SeedableRng;
use revmatch::{
    check_witness, identify_equivalence, job_seed, match_n_i_simon_with, random_instance,
    EngineJob, EnumerateJob, Equivalence, IdentifyJob, IdentifyOptions, JobKind, JobReport,
    JobSpec, JobTicket, MatchError, MatchService, MatcherConfig, MiterVerdict, Oracle,
    QuantumAlgorithm, QuantumPathJob, SatEquivalenceJob, Scalar, ServiceConfig, Side, VerifyMode,
    WitnessFamily,
};

fn epsilon() -> f64 {
    1e-9
}

fn service(shards: usize) -> MatchService {
    MatchService::start(
        ServiceConfig::default()
            .with_shards(shards)
            .with_matcher(MatcherConfig::with_epsilon(epsilon())),
    )
}

/// One job of every kind over deterministically generated instances.
fn mixed_jobs(width: usize, master_seed: u64) -> Vec<JobSpec> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(master_seed);
    let promise = random_instance(Equivalence::new(Side::Np, Side::I), width, &mut rng);
    let ident = random_instance(Equivalence::new(Side::P, Side::N), width, &mut rng);
    let ni = random_instance(Equivalence::new(Side::N, Side::I), width, &mut rng);
    let npi = random_instance(Equivalence::new(Side::Np, Side::I), width, &mut rng);
    let sat = random_instance(Equivalence::new(Side::I, Side::P), width, &mut rng);
    let enumerate = random_instance(Equivalence::new(Side::N, Side::I), width, &mut rng);
    vec![
        JobSpec::Promise(EngineJob::from_instance(&promise, true)),
        JobSpec::Identify(IdentifyJob::new(ident.c1.clone(), ident.c2.clone())),
        JobSpec::QuantumPath(QuantumPathJob {
            equivalence: ni.equivalence,
            c1: ni.c1.clone(),
            c2: ni.c2.clone(),
            algorithm: QuantumAlgorithm::Simon,
        }),
        JobSpec::QuantumPath(QuantumPathJob {
            equivalence: npi.equivalence,
            c1: npi.c1.clone(),
            c2: npi.c2.clone(),
            algorithm: QuantumAlgorithm::SwapTest,
        }),
        JobSpec::SatEquivalence(SatEquivalenceJob {
            c1: sat.c1.clone(),
            c2: sat.c2.clone(),
            witness: Some(sat.witness.clone()),
        }),
        JobSpec::Enumerate(EnumerateJob::new(
            enumerate.c1.clone(),
            enumerate.c2.clone(),
            WitnessFamily::InputNegation,
        )),
    ]
}

fn run_jobs(jobs: &[JobSpec], shards: usize, seed: u64) -> Vec<JobReport> {
    let svc = service(shards);
    let tickets: Vec<JobTicket> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| svc.submit_wait_seeded(job.clone(), job_seed(seed, i as u64)))
        .collect();
    let reports: Vec<JobReport> = tickets.into_iter().map(JobTicket::wait).collect();
    svc.shutdown();
    reports
}

/// Acceptance: all five kinds complete with bit-identical results across
/// 1, 2 and `available_parallelism` workers, and the metrics export
/// carries nonzero per-kind counters plus per-kind latency series.
#[test]
fn all_five_kinds_bit_identical_across_worker_counts() {
    let jobs = mixed_jobs(4, 0xA11);
    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let baseline = run_jobs(&jobs, 1, 77);
    assert_eq!(baseline.len(), jobs.len());
    for (i, report) in baseline.iter().enumerate() {
        assert!(
            report.witness.is_ok(),
            "job {i} ({:?}) failed: {:?}",
            report.kind,
            report.witness
        );
    }
    assert_eq!(baseline[1].kind, JobKind::Identify);
    assert!(baseline[1].identified.is_some(), "identify names a class");
    assert!(
        matches!(baseline[4].miter, Some(MiterVerdict::Equivalent)),
        "sat job proves the planted witness"
    );
    assert_eq!(baseline[5].kind, JobKind::Enumerate);
    assert!(
        baseline[5].witness_count.is_some_and(|c| c >= 1),
        "enumeration counts the planted witness"
    );
    for shards in [2, parallelism] {
        let other = run_jobs(&jobs, shards, 77);
        for (i, (a, b)) in baseline.iter().zip(&other).enumerate() {
            assert_eq!(a.kind, b.kind, "job {i} kind under {shards} shards");
            assert_eq!(a.queries, b.queries, "job {i} queries under {shards}");
            assert_eq!(
                a.charged_queries, b.charged_queries,
                "job {i} charged under {shards}"
            );
            assert_eq!(a.rounds, b.rounds, "job {i} rounds under {shards}");
            assert_eq!(a.identified, b.identified, "job {i} class under {shards}");
            assert_eq!(
                a.witness_count, b.witness_count,
                "job {i} witness count under {shards}"
            );
            assert_eq!(
                a.witness.as_ref().ok(),
                b.witness.as_ref().ok(),
                "job {i} witness under {shards} shards"
            );
            assert_eq!(a.miter, b.miter, "job {i} verdict under {shards}");
        }
    }

    // Per-kind metrics: run once more on a kept service and inspect.
    let svc = service(2);
    for (i, job) in jobs.iter().enumerate() {
        let _ = svc
            .submit_wait_seeded(job.clone(), job_seed(77, i as u64))
            .wait();
    }
    let m = svc.metrics();
    assert_eq!(m.jobs_completed_of(JobKind::Promise), 1);
    assert_eq!(m.jobs_completed_of(JobKind::Identify), 1);
    assert_eq!(m.jobs_completed_of(JobKind::Quantum), 2);
    assert_eq!(m.jobs_completed_of(JobKind::Sat), 1);
    assert_eq!(m.jobs_completed_of(JobKind::Enumerate), 1);
    assert_eq!(m.get(Scalar::JobsFailed), 0);
    assert!(
        m.get(Scalar::EnumeratedWitnesses) >= 1,
        "the enumeration job's witnesses feed the counter"
    );
    // Per-registry-entry counters (not just per-kind): the NP-I promise
    // job with inverses selects the c2-inverse entry, the two quantum
    // jobs name their algorithms, and the enumeration job records its
    // family's sat-enumerate entry. Identification walks many entries
    // and records none.
    for (entry, expected) in [
        ("np-i/c2-inverse", 1),
        ("n-i/simon", 1),
        ("np-i/quantum", 1),
        ("n-i/sat-enumerate", 1),
        ("i-p/randomized", 0),
    ] {
        assert_eq!(
            m.jobs_completed_of_entry(entry),
            expected,
            "per-entry counter for {entry}"
        );
    }
    let text = svc.metrics_text();
    for needle in [
        "revmatch_jobs_promise_total 1",
        "revmatch_jobs_identify_total 1",
        "revmatch_jobs_quantum_total 2",
        "revmatch_jobs_sat_total 1",
        "revmatch_jobs_enumerate_total 1",
        "revmatch_enumerated_witnesses_total",
        "revmatch_registry_entry_jobs_total{entry=\"n-i/simon\"} 1",
        "revmatch_registry_entry_jobs_total{entry=\"np-i/c2-inverse\"} 1",
        "revmatch_registry_entry_jobs_total{entry=\"n-i/sat-enumerate\"} 1",
        "revmatch_job_kind_latency_seconds_count{kind=\"promise\"} 1",
        "revmatch_job_kind_latency_seconds_count{kind=\"identify\"} 1",
        "revmatch_job_kind_latency_seconds_count{kind=\"quantum\"} 2",
        "revmatch_job_kind_latency_seconds_count{kind=\"sat\"} 1",
        "revmatch_job_kind_latency_seconds_count{kind=\"enumerate\"} 1",
        "revmatch_job_kind_latency_seconds_bucket{kind=\"sat\",le=",
    ] {
        assert!(text.contains(needle), "missing {needle}\n{text}");
    }
    svc.shutdown();
}

/// Enumeration jobs through the service: a repeated family hits the
/// per-shard solver cache, and a zero count is a clean negative (not a
/// metrics failure), mirroring identification semantics.
#[test]
fn enumerate_jobs_reuse_solvers_and_report_clean_negatives() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xE7);
    let inst = random_instance(Equivalence::new(Side::N, Side::I), 5, &mut rng);
    let job = EnumerateJob::new(
        inst.c1.clone(),
        inst.c2.clone(),
        WitnessFamily::InputNegation,
    );
    let svc = service(1);
    let first = svc.submit_wait(job.clone()).wait();
    let planted_count = first.witness_count.expect("enumeration completes");
    assert!(planted_count >= 1);
    assert_eq!(first.kind, JobKind::Enumerate);
    let second = svc.submit_wait(job).wait();
    assert_eq!(second.witness_count, Some(planted_count));
    assert_eq!(
        second.witness.as_ref().ok(),
        first.witness.as_ref().ok(),
        "warm re-enumeration is bit-identical"
    );
    assert!(
        svc.metrics().get(Scalar::SolverCacheHits) >= 1,
        "the second sweep must re-enter the cached family solver"
    );

    // Unrelated pair: count 0, NoEquivalence, not a failure.
    let a = revmatch_circuit::random_function_circuit(4, &mut rng);
    let b = revmatch_circuit::random_function_circuit(4, &mut rng);
    let report = svc
        .submit_wait(EnumerateJob::new(a, b, WitnessFamily::InputNegation))
        .wait();
    if report.witness_count == Some(0) {
        assert!(matches!(report.witness, Err(MatchError::NoEquivalence)));
        assert_eq!(
            svc.metrics().get(Scalar::JobsFailed),
            0,
            "a zero count is a complete answer, not a failure"
        );
    }
    svc.shutdown();
}

/// A SAT-equivalence job on an unrelated pair yields a counterexample
/// verdict — a definitive answer, not a failure.
#[test]
fn sat_jobs_report_counterexamples_without_failing() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let a = revmatch_circuit::random_function_circuit(4, &mut rng);
    let b = revmatch_circuit::random_function_circuit(4, &mut rng);
    assert!(!a.functionally_eq(&b), "seed picked an equivalent pair");
    let svc = service(1);
    let report = svc
        .submit_wait(SatEquivalenceJob {
            c1: a.clone(),
            c2: b.clone(),
            witness: None,
        })
        .wait();
    match report.miter {
        Some(MiterVerdict::Counterexample { input }) => {
            assert_ne!(a.apply(input), b.apply(input), "counterexample is real");
        }
        other => panic!("expected a counterexample, got {other:?}"),
    }
    assert!(matches!(report.witness, Err(MatchError::PromiseViolated)));
    assert_eq!(
        svc.metrics().get(Scalar::JobsFailed),
        0,
        "a verdict is not a failure"
    );
    assert_eq!(svc.metrics().jobs_failed_of(JobKind::Sat), 0);
    svc.shutdown();
}

/// An identify job on an unrelated pair answers `NoEquivalence` cleanly.
#[test]
fn identify_jobs_report_no_equivalence_cleanly() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let a = revmatch_circuit::random_function_circuit(4, &mut rng);
    let b = revmatch_circuit::random_function_circuit(4, &mut rng);
    let svc = service(1);
    let report = svc.submit_wait(IdentifyJob::new(a, b)).wait();
    assert!(matches!(report.witness, Err(MatchError::NoEquivalence)));
    assert!(report.identified.is_none());
    assert_eq!(
        svc.metrics().get(Scalar::JobsFailed),
        0,
        "a clean negative answer is not a failure"
    );
    svc.shutdown();
}

/// The Simon path is deterministic under fixed seeds: the same `(job,
/// seed)` yields the same witness, rounds and query count, directly and
/// through the service at every worker count.
#[test]
fn simon_path_is_deterministic_under_fixed_seeds() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x51A0);
    for width in [3usize, 5] {
        let inst = random_instance(Equivalence::new(Side::N, Side::I), width, &mut rng);
        let job = QuantumPathJob {
            equivalence: inst.equivalence,
            c1: inst.c1.clone(),
            c2: inst.c2.clone(),
            algorithm: QuantumAlgorithm::Simon,
        };
        let seed = 0xD5 + width as u64;
        // Direct reference run with the same per-job RNG construction,
        // on the same backend the service's auto policy resolves for
        // Simon jobs (the stabilizer tableau).
        let c1 = Oracle::new(inst.c1.clone());
        let c2 = Oracle::new(inst.c2.clone());
        let mut job_rng = rand::rngs::StdRng::seed_from_u64(seed);
        let backend = MatcherConfig::default().simon_backend();
        let direct = match_n_i_simon_with(&c1, &c2, backend, &mut job_rng).unwrap();
        assert_eq!(direct.witness.nu_x(), inst.witness.nu_x());
        for shards in [1usize, 2, 4] {
            let svc = service(shards);
            let report = svc.submit_wait_seeded(job.clone(), seed).wait();
            let witness = report.witness.expect("promised N-I pair solves");
            assert_eq!(witness, direct.witness, "width {width}, {shards} shards");
            assert_eq!(
                report.rounds, direct.rounds,
                "width {width}, {shards} shards"
            );
            assert_eq!(report.queries, direct.queries);
            assert_eq!(report.charged_queries, direct.charged_queries);
            svc.shutdown();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Differential: `JobSpec::Identify` through the service returns the
    /// same minimal equivalence, the same validated witness and the same
    /// walk-wide query total as direct `identify_equivalence`, across
    /// 1/2/N workers.
    #[test]
    fn service_identify_matches_direct_walk(seed in any::<u64>(), w in 3usize..=4) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // Plant an arbitrary class so the walk exercises different
        // depths (including hard classes via brute force at this width).
        let classes: Vec<Equivalence> = Equivalence::all().collect();
        let planted = classes[(seed % classes.len() as u64) as usize];
        let inst = random_instance(planted, w, &mut rng);
        let job_seed_value = seed ^ 0x1DE7;

        // Direct walk with the job's own RNG construction and the same
        // matcher tuning the service uses.
        let options = IdentifyOptions {
            config: MatcherConfig::with_epsilon(epsilon()),
            allow_brute_force: true,
            verify: VerifyMode::Exhaustive,
        };
        let mut direct_rng = rand::rngs::StdRng::seed_from_u64(job_seed_value);
        let direct = identify_equivalence(&inst.c1, &inst.c2, &options, &mut direct_rng)
            .unwrap()
            .expect("planted pair identifies");
        prop_assert!(direct.witness.conforms_to(direct.equivalence));

        let parallelism = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        for shards in [1usize, 2, parallelism] {
            let svc = service(shards);
            let report = svc
                .submit_wait_seeded(
                    IdentifyJob::new(inst.c1.clone(), inst.c2.clone()),
                    job_seed_value,
                )
                .wait();
            let witness = report.witness.expect("service walk identifies");
            prop_assert_eq!(report.identified, Some(direct.equivalence),
                "minimal class, {} shards", shards);
            prop_assert_eq!(&witness, &direct.witness, "witness, {} shards", shards);
            prop_assert_eq!(report.queries, direct.queries,
                "walk-wide query accounting, {} shards", shards);
            prop_assert_eq!(report.rounds, direct.classes_tried as u64);
            // And the witness actually explains the pair.
            let mut check_rng = rand::rngs::StdRng::seed_from_u64(1);
            prop_assert!(check_witness(
                &inst.c1, &inst.c2, &witness, VerifyMode::Exhaustive, &mut check_rng
            ).unwrap());
            svc.shutdown();
        }
    }
}
