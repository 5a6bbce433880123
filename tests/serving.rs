//! Serving-layer regression tests: determinism across worker/shard
//! counts, backpressure semantics, and drain/shutdown guarantees.

use rand::SeedableRng;
use revmatch::{
    check_witness, classify, job_seed, random_instance, random_wide_instance, EngineJob,
    EnumerateJob, Equivalence, JobReport, JobSpec, JobTicket, MatchError, MatchService,
    MatcherConfig, MiterVerdict, QuantumAlgorithm, QuantumPathJob, SatEquivalenceJob, Scalar,
    ServiceConfig, Side, SubmitOutcome, VerifyMode, WitnessFamily,
};
use revmatch_quantum::QuantumBackend;

/// One job per tractable equivalence type (inverses available).
fn tractable_jobs(width: usize, per_type: usize) -> Vec<EngineJob> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
    let mut jobs = Vec::new();
    for e in Equivalence::all() {
        if !classify(e).is_tractable() {
            continue;
        }
        for _ in 0..per_type {
            let inst = random_instance(e, width, &mut rng);
            jobs.push(EngineJob::from_instance(&inst, true));
        }
    }
    jobs
}

fn assert_reports_identical(a: &[JobReport], b: &[JobReport], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: report count");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.queries, rb.queries, "{label}: job {i} query count");
        match (&ra.witness, &rb.witness) {
            (Ok(wa), Ok(wb)) => assert_eq!(wa, wb, "{label}: job {i} witness"),
            (Err(_), Err(_)) => {}
            _ => panic!("{label}: job {i} changed outcome"),
        }
    }
}

/// Solves `jobs` on a fresh `shards`-shard service, seeding job `i` with
/// `job_seed(seed, i)`, and returns the reports in job order.
fn solve_on_shards(jobs: &[EngineJob], shards: usize, seed: u64) -> Vec<JobReport> {
    let service = MatchService::start(
        ServiceConfig::default()
            .with_shards(shards)
            .with_matcher(MatcherConfig::with_epsilon(1e-6)),
    );
    let tickets: Vec<JobTicket> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| service.submit_wait_seeded(job.clone(), job_seed(seed, i as u64)))
        .collect();
    let reports = tickets.into_iter().map(JobTicket::wait).collect();
    service.shutdown();
    reports
}

/// A mixed pool of tractable jobs on a 4-shard service: every job is
/// solved, the pool spends queries, and every recovered witness holds on
/// every input.
#[test]
fn service_solves_mixed_pool_and_witnesses_verify() {
    let jobs = tractable_jobs(5, 2);
    let reports = solve_on_shards(&jobs, 4, 99);
    assert_eq!(reports.len(), jobs.len());
    assert!(reports.iter().map(|r| r.queries).sum::<u64>() > 0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    for (job, report) in jobs.iter().zip(&reports) {
        let w = report.witness.as_ref().expect("tractable job solved");
        assert!(
            check_witness(&job.c1, &job.c2, w, VerifyMode::Exhaustive, &mut rng).unwrap(),
            "{}",
            job.equivalence
        );
    }
}

/// Identical seeds ⇒ identical witnesses and query counts on 1, 2 and
/// `available_parallelism` shards.
#[test]
fn service_deterministic_across_shard_counts() {
    let jobs = tractable_jobs(5, 1);
    let baseline = solve_on_shards(&jobs, 1, 0xCAFE);
    let parallelism = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    for shards in [2, parallelism] {
        let reports = solve_on_shards(&jobs, shards, 0xCAFE);
        assert_reports_identical(&baseline, &reports, &format!("{shards} shards"));
    }
}

/// An intractable promise job (N-N) resolves to `Err(Intractable)`
/// without losing its worker, and the same shard goes on to solve the
/// next job.
#[test]
fn intractable_jobs_report_errors_and_the_shard_keeps_serving() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let hard = random_instance(Equivalence::new(Side::N, Side::N), 3, &mut rng);
    let easy = random_instance(Equivalence::new(Side::Np, Side::I), 3, &mut rng);
    let service = MatchService::start(ServiceConfig::default().with_shards(1));
    let report = service
        .submit_wait(EngineJob::from_instance(&hard, false))
        .wait();
    assert!(
        matches!(report.witness, Err(MatchError::Intractable { .. })),
        "{:?}",
        report.witness
    );
    assert_eq!(service.metrics().get(Scalar::WorkersLost), 0);
    let next = service
        .submit_wait(EngineJob::from_instance(&easy, true))
        .wait();
    assert!(next.witness.is_ok(), "{:?}", next.witness);
    service.shutdown();
}

/// A full intake rejects with `QueueFull` and hands the job back; every
/// *accepted* job still completes.
#[test]
fn full_queue_rejects_without_dropping_accepted_jobs() {
    let jobs = tractable_jobs(4, 2);
    let service = MatchService::start(
        ServiceConfig::default()
            .with_shards(2)
            .with_queue_capacity(2),
    );
    // Parked workers make the backpressure deterministic: nothing drains
    // while we fill the lanes.
    service.pause();
    let capacity = 2 * 2;
    let mut tickets = Vec::new();
    let mut rejected = 0;
    for job in &jobs {
        match service.submit(job.clone()) {
            SubmitOutcome::Enqueued(t) => tickets.push(t),
            SubmitOutcome::QueueFull(handed_back) => {
                assert_eq!(handed_back.width(), job.c1.width(), "job returned intact");
                rejected += 1;
            }
            SubmitOutcome::Shed(_) => unreachable!("admission control is off"),
        }
    }
    assert_eq!(tickets.len(), capacity, "accepts exactly the capacity");
    assert_eq!(rejected, jobs.len() - capacity);
    assert_eq!(service.metrics().get(Scalar::JobsRejected), rejected as u64);
    assert_eq!(service.queue_depth(), capacity);

    service.resume();
    service.drain();
    assert_eq!(service.queue_depth(), 0);
    assert_eq!(
        service.metrics().get(Scalar::JobsCompleted),
        capacity as u64
    );
    for t in tickets {
        assert!(t.is_done(), "accepted job lost");
        assert!(t.wait().witness.is_ok());
    }
    service.shutdown();
}

/// `drain` blocks until every accepted job has a resolved ticket.
#[test]
fn drain_completes_every_accepted_job() {
    let jobs = tractable_jobs(5, 2);
    let service = MatchService::start(
        ServiceConfig::default()
            .with_shards(2)
            .with_queue_capacity(jobs.len()),
    );
    let tickets: Vec<JobTicket> = jobs
        .iter()
        .map(|job| {
            service
                .submit(job.clone())
                .ticket()
                .expect("capacity covers the batch")
        })
        .collect();
    service.drain();
    for t in &tickets {
        assert!(t.is_done(), "drain returned before a job finished");
    }
    assert_eq!(
        service.metrics().get(Scalar::JobsCompleted),
        jobs.len() as u64
    );
    assert_eq!(
        service.metrics().get(Scalar::JobsSubmitted),
        service.metrics().get(Scalar::JobsCompleted)
    );
    service.shutdown();
}

/// Concurrent submitters over a tiny queue: blocking submits never lose a
/// result, and every ticket resolves to a verified witness.
#[test]
fn no_result_lost_under_concurrent_submitters() {
    let jobs = tractable_jobs(4, 1);
    let service = MatchService::start(
        ServiceConfig::default()
            .with_shards(2)
            .with_queue_capacity(1),
    );
    let submitters = 4;
    let total = submitters * jobs.len();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..submitters)
            .map(|s| {
                let service = &service;
                let jobs = &jobs;
                scope.spawn(move || {
                    jobs.iter()
                        .enumerate()
                        .map(|(i, job)| {
                            service.submit_wait_seeded(
                                job.clone(),
                                job_seed(7, (s * jobs.len() + i) as u64),
                            )
                        })
                        .collect::<Vec<JobTicket>>()
                })
            })
            .collect();
        let mut solved = 0;
        for handle in handles {
            for ticket in handle.join().expect("submitter panicked") {
                if ticket.wait().witness.is_ok() {
                    solved += 1;
                }
            }
        }
        assert_eq!(solved, total, "every accepted job resolves with a witness");
    });
    assert_eq!(service.metrics().get(Scalar::JobsCompleted), total as u64);
    assert_eq!(service.metrics().get(Scalar::JobsRejected), 0);
    service.shutdown();
}

/// Shutdown finishes the backlog: tickets accepted before `shutdown` are
/// all resolved after it returns.
#[test]
fn shutdown_resolves_outstanding_tickets() {
    let jobs = tractable_jobs(4, 1);
    let service = MatchService::start(
        ServiceConfig::default()
            .with_shards(1)
            .with_queue_capacity(jobs.len()),
    );
    let tickets: Vec<JobTicket> = jobs
        .iter()
        .map(|job| service.submit(job.clone()).ticket().expect("fits"))
        .collect();
    service.shutdown();
    for t in tickets {
        assert!(t.is_done(), "shutdown dropped a queued job");
    }
}

/// The Prometheus export reflects the counters after a drained burst.
#[test]
fn metrics_export_matches_counters() {
    let jobs = tractable_jobs(4, 1);
    let service = MatchService::start(ServiceConfig::default().with_shards(2));
    let tickets: Vec<JobTicket> = jobs
        .iter()
        .map(|job| service.submit_wait(job.clone()))
        .collect();
    service.drain();
    let text = service.metrics_text();
    assert!(text.contains(&format!("revmatch_jobs_submitted_total {}", jobs.len())));
    assert!(text.contains(&format!("revmatch_jobs_completed_total {}", jobs.len())));
    assert!(text.contains("revmatch_jobs_rejected_total 0"));
    assert!(text.contains("revmatch_job_latency_seconds_bucket"));
    assert!(text.contains("revmatch_shard_queue_depth{shard=\"1\"} 0"));
    assert_eq!(
        service.metrics().latency().count(),
        jobs.len() as u64,
        "one latency sample per job"
    );
    drop(tickets);
    service.shutdown();
}

/// SAT-verified jobs come back with a complete `Equivalent` proof for
/// every recovered witness, and the warm (cached) pass over a repeated
/// pool hits the per-shard solver and table caches.
#[test]
fn sat_verified_jobs_prove_their_witnesses() {
    let jobs: Vec<EngineJob> = tractable_jobs(5, 1)
        .into_iter()
        .map(EngineJob::with_sat_verification)
        .collect();
    // One shard: every job hits the same worker-local caches, so the
    // warm-pass assertions below are deterministic (with more shards,
    // work stealing may move a repeated job to a cold cache — still
    // correct, just not guaranteed to hit).
    let service = MatchService::start(ServiceConfig::default().with_shards(1).with_seed(11));
    // Two passes over the same pool: the second is the warm one.
    for pass in 0..2 {
        let tickets: Vec<JobTicket> = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| service.submit_wait_seeded(job.clone(), job_seed(11, i as u64)))
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let report = t.wait();
            assert!(report.witness.is_ok(), "pass {pass} job {i}");
            match report.miter {
                Some(MiterVerdict::Equivalent) => {}
                other => panic!("pass {pass} job {i}: expected a complete proof, got {other:?}"),
            }
        }
    }
    let m = service.metrics();
    assert_eq!(m.get(Scalar::JobsSatVerified), 2 * jobs.len() as u64);
    assert_eq!(m.get(Scalar::SatUnknown), 0);
    assert_eq!(m.get(Scalar::JobsFailed), 0);
    assert!(
        m.get(Scalar::SolverCacheHits) >= jobs.len() as u64,
        "warm pass must re-enter cached miter solvers \
         (hits: {})",
        m.get(Scalar::SolverCacheHits)
    );
    assert!(
        m.get(Scalar::TableCacheHits) > 0,
        "repeated circuits must reuse dense tables"
    );
    let text = service.metrics_text();
    assert!(text.contains("revmatch_jobs_sat_verified_total"));
    service.shutdown();
}

/// The served pool's SAT shape — 24 planted sat jobs interleaved with
/// 24 input-negation enumerate jobs, 48 distinct formulas — cycled twice
/// through one shard. A cyclic scan of 48 formulas through a 32-entry
/// solver LRU keyed by formula never hits; keyed by job inputs, the sat
/// jobs answer from remembered verdicts and the family sweeps fit the
/// LRU, so every job of the second pass hits, with unchanged answers.
#[test]
fn repeated_sat_pool_answers_from_worker_caches() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5A7);
    let served = [
        Equivalence::new(Side::Np, Side::I),
        Equivalence::new(Side::I, Side::P),
        Equivalence::new(Side::P, Side::N),
    ];
    let mut sat = Vec::new();
    let mut enumerate = Vec::new();
    for width in [4, 5] {
        for e in served {
            for _ in 0..4 {
                let inst = random_instance(e, width, &mut rng);
                sat.push(JobSpec::SatEquivalence(SatEquivalenceJob {
                    c1: inst.c1,
                    c2: inst.c2,
                    witness: Some(inst.witness),
                }));
                let inst = random_instance(Equivalence::new(Side::N, Side::I), width, &mut rng);
                enumerate.push(JobSpec::Enumerate(EnumerateJob::new(
                    inst.c1,
                    inst.c2,
                    WitnessFamily::InputNegation,
                )));
            }
        }
    }
    let jobs: Vec<JobSpec> = sat
        .into_iter()
        .zip(enumerate)
        .flat_map(<[_; 2]>::from)
        .collect();
    assert_eq!(jobs.len(), 48);

    let service = MatchService::start(ServiceConfig::default().with_shards(1).with_seed(5));
    let mut passes = Vec::new();
    let mut hits = Vec::new();
    for _ in 0..2 {
        let reports: Vec<JobReport> = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| service.submit_wait_seeded(job.clone(), job_seed(5, i as u64)))
            .map(JobTicket::wait)
            .collect();
        hits.push(service.metrics().get(Scalar::SolverCacheHits));
        passes.push(reports);
    }
    assert!(
        hits[1] - hits[0] >= jobs.len() as u64,
        "the second pass must answer every job from the caches (hits per pass: {hits:?})"
    );
    for (i, (first, second)) in passes[0].iter().zip(&passes[1]).enumerate() {
        if matches!(jobs[i], JobSpec::SatEquivalence(_)) {
            assert_eq!(first.miter, Some(MiterVerdict::Equivalent), "job {i}");
        } else {
            assert!(first.witness_count.is_some_and(|n| n >= 1), "job {i}");
        }
        assert_eq!(first.witness, second.witness, "job {i} witness");
        assert_eq!(first.miter, second.miter, "job {i} miter");
        assert_eq!(first.witness_count, second.witness_count, "job {i} count");
        assert_eq!(first.rounds, second.rounds, "job {i} rounds");
        assert_eq!(first.queries, second.queries, "job {i} queries");
    }
    assert_eq!(service.metrics().get(Scalar::JobsFailed), 0);
    service.shutdown();
}

/// Unverified jobs never pay for (or report) a miter verdict, and a job
/// whose matcher fails carries no verdict either.
#[test]
fn sat_verification_is_opt_in() {
    let jobs = tractable_jobs(4, 1);
    let service = MatchService::start(ServiceConfig::default().with_shards(1));
    let reports: Vec<JobReport> = jobs
        .iter()
        .map(|job| service.submit_wait(job.clone()))
        .map(JobTicket::wait)
        .collect();
    assert!(reports.iter().all(|r| r.miter.is_none()));
    assert_eq!(service.metrics().get(Scalar::JobsSatVerified), 0);

    // An intractable job requesting verification: matcher errors, no
    // miter runs.
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let hard = random_instance(
        Equivalence::new(revmatch::Side::N, revmatch::Side::N),
        3,
        &mut rng,
    );
    let job = EngineJob::from_instance(&hard, false).with_sat_verification();
    let report = service.submit_wait(job).wait();
    assert!(report.witness.is_err());
    assert!(report.miter.is_none());
    assert_eq!(service.metrics().get(Scalar::JobsSatVerified), 0);
    service.shutdown();
}

/// A tiny per-verification budget degrades to an explicit `Unknown`
/// (counted in the metrics) — never a wrong verdict or a stalled shard.
#[test]
fn miter_budget_exhaustion_is_explicit() {
    let jobs: Vec<EngineJob> = tractable_jobs(6, 1)
        .into_iter()
        .map(EngineJob::with_sat_verification)
        .collect();
    let service = MatchService::start(ServiceConfig::default().with_shards(1).with_miter_budget(1));
    let reports: Vec<JobReport> = jobs
        .iter()
        .map(|job| service.submit_wait(job.clone()))
        .map(JobTicket::wait)
        .collect();
    for r in &reports {
        match &r.miter {
            Some(MiterVerdict::Equivalent) | Some(MiterVerdict::Unknown { .. }) => {}
            other => panic!("budget-starved miter must not refute a true witness: {other:?}"),
        }
    }
    let m = service.metrics();
    assert_eq!(m.get(Scalar::JobsSatVerified), jobs.len() as u64);
    assert_eq!(m.get(Scalar::JobsFailed), 0);
    service.shutdown();
}

/// The panic-injection hook: a worker dying mid-job resolves that job's
/// ticket with a clean `Err(WorkerLost)` report — no poisoned mutex, no
/// hung waiter — and the service keeps serving afterwards.
#[test]
fn worker_panic_resolves_ticket_as_worker_lost() {
    fn inject(id: u64) -> bool {
        id == 1
    }
    let jobs = tractable_jobs(4, 1);
    let service = MatchService::start(
        ServiceConfig::default()
            .with_shards(2)
            .with_matcher(MatcherConfig::with_epsilon(1e-6))
            .with_panic_injection(inject),
    );
    let tickets: Vec<JobTicket> = jobs
        .iter()
        .map(|job| service.submit_wait(job.clone()))
        .collect();
    let reports: Vec<JobReport> = tickets.into_iter().map(JobTicket::wait).collect();
    let lost: Vec<usize> = reports
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r.witness, Err(revmatch::MatchError::WorkerLost)))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(lost, vec![1], "exactly the injected job is lost");
    assert_eq!(service.metrics().get(Scalar::WorkersLost), 1);
    for (i, report) in reports.iter().enumerate() {
        if i != 1 {
            assert!(report.witness.is_ok(), "job {i} unaffected by the panic");
        }
    }
    // The shard that panicked rebuilt its caches and still serves.
    let after: Vec<JobReport> = jobs
        .iter()
        .map(|job| service.submit_wait(job.clone()))
        .map(JobTicket::wait)
        .collect();
    assert!(after.iter().all(|r| r.witness.is_ok()));
    service.shutdown();
}

/// Admission control end to end: under a paused (fully backlogged)
/// service, expensive jobs defer up to the buffer's capacity, the
/// overflow sheds, and every accepted job still completes on drain.
#[test]
fn admission_defers_then_sheds_under_overload() {
    use revmatch::AdmissionConfig;
    let jobs = tractable_jobs(5, 2);
    assert!(jobs.len() >= 4, "need at least four jobs");
    let service = MatchService::start(
        ServiceConfig::default()
            .with_shards(1)
            .with_queue_capacity(8)
            .with_matcher(MatcherConfig::with_epsilon(1e-6))
            .with_admission(
                AdmissionConfig::default()
                    .with_overload_us(1)
                    .with_expensive_us(1)
                    .with_defer_capacity(2),
            ),
    );
    service.pause();
    let mut tickets = Vec::new();
    let mut shed = 0;
    for job in &jobs {
        match service.submit(job.clone()) {
            SubmitOutcome::Enqueued(t) => tickets.push(t),
            SubmitOutcome::Shed(_) => shed += 1,
            SubmitOutcome::QueueFull(_) => panic!("intake capacity not reached"),
        }
    }
    // First submit lands on an empty backlog (not overloaded); every
    // later one is expensive-and-overloaded: two defer, the rest shed.
    assert_eq!(service.metrics().get(Scalar::JobsRequeued), 2);
    assert_eq!(shed as u64, jobs.len() as u64 - 3);
    assert_eq!(service.metrics().get(Scalar::JobsShed), shed as u64);
    assert_eq!(service.deferred_depth(), 2);
    service.resume();
    service.drain();
    for ticket in tickets {
        assert!(
            ticket.wait().witness.is_ok(),
            "deferred jobs complete after the overload clears"
        );
    }
    let m = service.metrics();
    assert_eq!(m.get(Scalar::JobsCompleted), m.get(Scalar::JobsSubmitted));
    assert_eq!(m.get(Scalar::JobsCompleted), 3);
    service.shutdown();
}

/// Workers compile a dense table only once a job's probes have paid
/// for it. Wide jobs whose matchers probe a few dozen times never
/// compile; a narrow job buys on its first probe and its repeat hits
/// the adopted tables; a quantum window application buys at once. The
/// reports match a 2-shard run at the same seeds.
#[test]
fn dense_tables_compile_only_once_probes_pay_for_them() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7AB1E);
    let np_i = Equivalence::new(Side::Np, Side::I);
    let n_i = Equivalence::new(Side::N, Side::I);
    let simon = |width, rng: &mut rand::rngs::StdRng| {
        let inst = random_wide_instance(n_i, width, 4 * width, rng);
        JobSpec::QuantumPath(QuantumPathJob {
            equivalence: n_i,
            c1: inst.c1,
            c2: inst.c2,
            algorithm: QuantumAlgorithm::Simon,
        })
    };
    let wide_promise: JobSpec =
        EngineJob::from_instance(&random_wide_instance(np_i, 16, 64, &mut rng), true).into();
    let wide_simon = simon(16, &mut rng);
    let narrow: JobSpec =
        EngineJob::from_instance(&random_instance(np_i, 5, &mut rng), true).into();
    let sparse_simon = simon(12, &mut rng);
    let run = |service: &MatchService, job: &JobSpec, seed: u64| {
        service
            .submit_wait_seeded(job.clone(), job_seed(0x7AB1E, seed))
            .wait()
    };

    let mut runs = Vec::new();
    for shards in [1, 2] {
        let auto = MatchService::start(ServiceConfig::default().with_shards(shards));
        let m = auto.metrics();
        let mut reports = vec![run(&auto, &wide_promise, 0), run(&auto, &wide_simon, 1)];
        assert_eq!(
            m.table_compile().count(),
            0,
            "{shards} shards: no w16 oracle reaches its buy price"
        );
        reports.push(run(&auto, &narrow, 2));
        let bought = m.table_compile().count();
        assert!(
            bought > 0,
            "{shards} shards: a w5 job buys on its first probe"
        );
        reports.push(run(&auto, &narrow, 2));
        if shards == 1 {
            assert!(
                reports[3].timing.cache_hit,
                "the repeat hits adopted tables"
            );
            assert!(m.get(Scalar::TableCacheHits) > 0);
            assert_eq!(m.table_compile().count(), bought, "the repeat buys nothing");
        }
        auto.shutdown();

        let sparse = MatchService::start(
            ServiceConfig::default()
                .with_shards(shards)
                .with_quantum_backend(QuantumBackend::Sparse),
        );
        reports.push(run(&sparse, &sparse_simon, 3));
        assert_eq!(
            sparse.metrics().table_compile().count(),
            2,
            "{shards} shards: the first sparse Simon round buys both tables"
        );
        sparse.shutdown();
        runs.push(reports);
    }
    assert_reports_identical(&runs[0], &runs[1], "1 vs 2 shards");
    for (i, (a, b)) in runs[0].iter().zip(&runs[1]).enumerate() {
        assert!(a.witness.is_ok(), "job {i}: {:?}", a.witness);
        assert_eq!(a.charged_queries, b.charged_queries, "job {i}");
        assert_eq!(a.rounds, b.rounds, "job {i}");
    }
}

/// An I-I promise over circuits of different widths is a width error,
/// like every other class's matcher reports: from the library, and from
/// the service with and without inverses and SAT verification, without
/// losing a worker.
#[test]
fn i_i_promise_rejects_mismatched_widths() {
    use revmatch::{solve_promise, Oracle, ProblemOracles};
    use revmatch_circuit::{Circuit, Gate};

    let i_i = Equivalence::new(Side::I, Side::I);
    let c1 = Circuit::from_gates(5, [Gate::cnot(0, 4)]).unwrap();
    let c2 = Circuit::from_gates(6, [Gate::cnot(0, 5)]).unwrap();
    let mismatch = MatchError::WidthMismatch { left: 5, right: 6 };

    let (o1, o2) = (Oracle::new(c1.clone()), Oracle::new(c2.clone()));
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let oracles = ProblemOracles::without_inverses(&o1, &o2);
    assert_eq!(
        solve_promise(i_i, &oracles, &MatcherConfig::default(), &mut rng),
        Err(mismatch.clone())
    );

    let service = MatchService::start(ServiceConfig::default().with_shards(1));
    for with_inverses in [false, true] {
        for sat_verify in [false, true] {
            let job = EngineJob {
                equivalence: i_i,
                c1: c1.clone(),
                c2: c2.clone(),
                with_inverses,
                sat_verify,
            };
            let report = service.submit_wait(job).wait();
            let label = format!("inverses={with_inverses} sat_verify={sat_verify}");
            assert_eq!(report.witness, Err(mismatch.clone()), "{label}");
            assert_eq!(report.miter, None, "{label}");
        }
    }
    assert_eq!(service.metrics().get(Scalar::WorkersLost), 0);
    service.shutdown();
}
