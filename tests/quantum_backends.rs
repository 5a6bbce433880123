//! Differential tests for the quantum simulation backends: an oracle's
//! quantum query must give the same amplitudes whether it walks its
//! gates or reads its truth table, both backends must recover
//! bit-identical Simon witnesses under fixed seeds (directly and
//! through the service at every shard count), and widths past a
//! backend's capacity must come back as clean failed jobs — never a
//! panic, never a wedged shard.

use proptest::prelude::*;
use rand::SeedableRng;
use revmatch::{
    match_n_i_simon_with, random_instance, random_wide_instance, Equivalence, JobKind, JobSpec,
    MatchError, MatchService, Oracle, QuantumAlgorithm, QuantumOracle, QuantumPathJob, Scalar,
    ServiceConfig, Side,
};
use revmatch_quantum::{ProductState, QuantumBackend, QuantumError, Qubit};

fn ni_instance(width: usize, seed: u64) -> revmatch::PromiseInstance {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    random_instance(Equivalence::new(Side::N, Side::I), width, &mut rng)
}

/// A planted N-I pair past the dense-table ceiling: a bounded MCT
/// cascade, so oracle evaluation stays cheap at any width.
fn wide_ni_instance(width: usize, seed: u64) -> revmatch::PromiseInstance {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    random_wide_instance(
        Equivalence::new(Side::N, Side::I),
        width,
        4 * width,
        &mut rng,
    )
}

fn quantum_job(inst: &revmatch::PromiseInstance, algorithm: QuantumAlgorithm) -> JobSpec {
    JobSpec::QuantumPath(QuantumPathJob {
        equivalence: inst.equivalence,
        c1: inst.c1.clone(),
        c2: inst.c2.clone(),
        algorithm,
    })
}

fn simon_job(inst: &revmatch::PromiseInstance) -> JobSpec {
    quantum_job(inst, QuantumAlgorithm::Simon)
}

/// Fixed seeds, widths 2–8: every backend recovers the planted negation
/// mask bit-for-bit (the GF(2) system has a unique solution at full
/// rank, so agreement is exact, not statistical).
#[test]
fn backends_recover_bit_identical_witnesses_at_fixed_seeds() {
    for width in 2..=8usize {
        let inst = ni_instance(width, 0xA11CE + width as u64);
        let mut recovered = Vec::new();
        for backend in QuantumBackend::ALL {
            let c1 = Oracle::new(inst.c1.clone());
            let c2 = Oracle::new(inst.c2.clone());
            let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED ^ width as u64);
            let report = match_n_i_simon_with(&c1, &c2, backend, &mut rng)
                .unwrap_or_else(|e| panic!("width {width} on {backend}: {e}"));
            assert_eq!(
                report.witness.nu_x(),
                inst.witness.nu_x(),
                "width {width} on {backend}"
            );
            recovered.push(report.witness);
        }
        assert!(
            recovered.windows(2).all(|w| w[0] == w[1]),
            "width {width}: backends disagree"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Table ≡ gate walk on the oracle layer: querying the same random
    /// planted circuit on the same product state yields identical
    /// amplitudes whether the oracle walks its gates or reads its truth
    /// table — both permute the amplitudes, so they agree exactly.
    #[test]
    fn table_and_gate_walk_oracle_queries_agree(width in 2usize..=7, seed in 0u64..1_000) {
        let inst = ni_instance(width, seed);
        let walk = Oracle::new(inst.c1.clone());
        let table = Oracle::precompiled(inst.c1.clone());
        let mut input = ProductState::uniform(width, Qubit::Plus);
        input = input.with_qubit(seed as usize % width, Qubit::Zero);
        let walked = QuantumOracle::query_quantum(&walk, &input).unwrap();
        let read = QuantumOracle::query_quantum(&table, &input).unwrap();
        prop_assert!(walked == read, "w{width} seed {seed}: amplitudes differ");
        prop_assert_eq!(walk.queries(), 1);
        prop_assert_eq!(table.queries(), 1);
    }

    /// Per-backend round distributions agree in aggregate: across many
    /// seeds, each backend's recovered witness equals the planted one —
    /// the measurement statistics can only all be right if each backend
    /// samples the same `y·ν ≡ c` constraint distribution.
    #[test]
    fn backends_agree_across_random_seeds(width in 2usize..=6, seed in 0u64..10_000) {
        let inst = ni_instance(width, seed);
        for backend in QuantumBackend::ALL {
            let c1 = Oracle::new(inst.c1.clone());
            let c2 = Oracle::new(inst.c2.clone());
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xD1FF);
            let report = match_n_i_simon_with(&c1, &c2, backend, &mut rng).unwrap();
            prop_assert_eq!(report.witness.nu_x(), inst.witness.nu_x());
            prop_assert_eq!(report.charged_queries, 2 * report.rounds);
        }
    }
}

/// Every backend serves Simon jobs through the service, pinned via
/// `ServiceConfig::with_quantum_backend`, with identical witnesses at
/// 1, 2 and 4 shards and the per-backend dispatch counter matching.
#[test]
fn service_pins_backends_and_stays_deterministic_across_shards() {
    let insts: Vec<_> = (4..=6usize)
        .map(|w| ni_instance(w, 0xBAC0 + w as u64))
        .collect();
    for backend in QuantumBackend::ALL {
        let mut baseline = Vec::new();
        for shards in [1usize, 2, 4] {
            let svc = MatchService::start(
                ServiceConfig::default()
                    .with_shards(shards)
                    .with_quantum_backend(backend),
            );
            let tickets: Vec<_> = insts
                .iter()
                .enumerate()
                .map(|(i, inst)| svc.submit_wait_seeded(simon_job(inst), 0xFEED + i as u64))
                .collect();
            let reports: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
            for (inst, report) in insts.iter().zip(&reports) {
                let witness = report.witness.as_ref().expect("planted pair solves");
                assert_eq!(witness.nu_x(), inst.witness.nu_x(), "{backend}");
            }
            let m = svc.metrics();
            assert_eq!(m.get(Scalar::JobsFailed), 0);
            assert_eq!(m.quantum_jobs_of_backend(backend), insts.len() as u64);
            for other in QuantumBackend::ALL {
                if other != backend {
                    assert_eq!(m.quantum_jobs_of_backend(other), 0, "{other} leaked");
                }
            }
            let text = svc.metrics_text();
            let needle = format!(
                "revmatch_quantum_backend_jobs_total{{backend=\"{backend}\"}} {}",
                insts.len()
            );
            assert!(text.contains(&needle), "missing {needle}");
            let info = format!("revmatch_quantum_backend_info{{backend=\"{backend}\"}} 1");
            assert!(text.contains(&info), "missing {info}");
            let outcome: Vec<_> = reports
                .iter()
                .map(|r| {
                    (
                        r.witness.as_ref().unwrap().clone(),
                        r.rounds,
                        r.charged_queries,
                    )
                })
                .collect();
            if baseline.is_empty() {
                baseline = outcome;
            } else {
                assert_eq!(baseline, outcome, "{backend}: shard count changed results");
            }
            svc.shutdown();
        }
    }
}

/// Width past a backend's capacity: the job completes as a clean
/// failure with the quantum error surfaced in the report — no panic,
/// and the shard keeps serving afterwards.
#[test]
fn oversized_jobs_fail_cleanly_and_do_not_wedge_the_service() {
    let cases = [
        // Dense refuses a w12 Simon round (25 qubits > 20).
        (
            Some(QuantumBackend::Dense),
            simon_job(&wide_ni_instance(12, 0x0DD + 12)),
            QuantumBackend::Dense,
        ),
        // Every swap test runs on the dense vector: a w21 probe is one
        // line past its 20 qubits.
        (
            None,
            quantum_job(
                &wide_ni_instance(21, 0x0DD + 21),
                QuantumAlgorithm::SwapTest,
            ),
            QuantumBackend::Dense,
        ),
        // The stabilizer holds 63 qubits: 62 lines and the b qubit.
        (
            Some(QuantumBackend::Stabilizer),
            simon_job(&wide_ni_instance(63, 0x0DD + 63)),
            QuantumBackend::Stabilizer,
        ),
    ];
    for (pin, job, ran_on) in cases {
        let mut config = ServiceConfig::default().with_shards(1);
        if let Some(backend) = pin {
            config = config.with_quantum_backend(backend);
        }
        let svc = MatchService::start(config);
        let width = job.width();
        let report = svc.submit_wait_seeded(job, 1).wait();
        match report.witness {
            Err(MatchError::Quantum(QuantumError::TooManyQubits { .. })) => {}
            other => panic!("{ran_on} at width {width}: expected a capacity error, got {other:?}"),
        }
        let m = svc.metrics();
        assert_eq!(m.jobs_completed_of(JobKind::Quantum), 1);
        assert_eq!(
            m.get(Scalar::JobsFailed),
            1,
            "{ran_on}: capacity miss counts failed"
        );
        // The shard is still alive: in-capacity Simon jobs complete
        // next. Off the dense pin that includes w12, 25 qubits: past the
        // dense wall of 20.
        let simon_on = pin.unwrap_or(QuantumBackend::Stabilizer);
        let mut follow_ups = vec![ni_instance(4, 0x600D)];
        if simon_on == QuantumBackend::Stabilizer {
            follow_ups.push(wide_ni_instance(12, 0x600D + 12));
        }
        for (i, inst) in follow_ups.iter().enumerate() {
            let report = svc.submit_wait_seeded(simon_job(inst), 2 + i as u64).wait();
            assert_eq!(
                report.witness.expect("in-capacity job solves").nu_x(),
                inst.witness.nu_x(),
                "{simon_on} at width {}",
                inst.c1.width()
            );
        }
        for backend in QuantumBackend::ALL {
            let expected = u64::from(backend == ran_on)
                + u64::from(backend == simon_on) * follow_ups.len() as u64;
            assert_eq!(
                m.quantum_jobs_of_backend(backend),
                expected,
                "jobs dispatched on {backend}"
            );
        }
        assert_eq!(m.get(Scalar::JobsFailed), 1, "{ran_on}: follow-ups solve");
        svc.shutdown();
    }
}

/// The headline capability: Simon jobs at widths 16 and 20 — far past
/// the dense wall of 9 — complete through the service under the auto
/// policy, which resolves them onto the stabilizer tableau.
#[test]
fn wide_simon_jobs_complete_through_the_service_on_the_stabilizer() {
    let svc = MatchService::start(ServiceConfig::default().with_shards(2));
    let insts: Vec<_> = [16usize, 20]
        .iter()
        .map(|&w| wide_ni_instance(w, 0x57AB + w as u64))
        .collect();
    let tickets: Vec<_> = insts
        .iter()
        .enumerate()
        .map(|(i, inst)| svc.submit_wait_seeded(simon_job(inst), 0x71DE + i as u64))
        .collect();
    for (inst, ticket) in insts.iter().zip(tickets) {
        let report = ticket.wait();
        let witness = report.witness.expect("wide planted pair solves");
        assert_eq!(witness.nu_x(), inst.witness.nu_x());
        assert_eq!(report.charged_queries, 2 * report.rounds);
    }
    let m = svc.metrics();
    assert_eq!(m.get(Scalar::JobsFailed), 0);
    assert_eq!(
        m.quantum_jobs_of_backend(QuantumBackend::Stabilizer),
        insts.len() as u64,
        "auto policy must resolve Simon onto the stabilizer"
    );
    svc.shutdown();
}
