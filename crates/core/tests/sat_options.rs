//! Differential service test for the `SatOptions`-gated solver upgrades
//! (LBD clause management, the XOR/Gauss layer).
//!
//! The optimisations must be *invisible* at the API: the same seeded
//! workload of SAT-equivalence and enumeration jobs, pushed through
//! services configured with 1/2/4 shards and with the upgrades fully on
//! vs fully off, must report bit-identical verdicts, witnesses and
//! witness counts. Shard count and clause-management policy may change
//! *how fast* a verdict arrives, never *which* verdict — or which
//! witness bits — arrive.

use rand::SeedableRng;
use revmatch_circuit::{NegationMask, NpTransform};

use revmatch::{
    job_seed, random_instance, EnumerateJob, Equivalence, JobSpec, MatchError, MatchService,
    MatchWitness, MiterVerdict, SatEquivalenceJob, SatOptions, ServiceConfig, Side, WitnessFamily,
};

/// Canonical, comparable digest of one job's report: the full verdict
/// surface a caller can observe, minus timings and queue accounting.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    witness: Result<MatchWitness, String>,
    miter: Option<MiterVerdict>,
    witness_count: Option<u64>,
}

/// The fixed differential workload: planted-equivalent miters (proven
/// `Equivalent`), deliberately broken witnesses (refuted by
/// counterexample), and family enumerations over negation families,
/// all from one seeded stream so every service run sees byte-identical
/// job specs.
fn workload(seed: u64) -> Vec<JobSpec> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut jobs = Vec::new();
    for width in [4usize, 5, 6] {
        // Planted NP-I pair with its true witness: the miter is UNSAT
        // and the service must prove the witness Equivalent.
        let inst = random_instance(Equivalence::new(Side::Np, Side::I), width, &mut rng);
        jobs.push(JobSpec::SatEquivalence(SatEquivalenceJob {
            c1: inst.c1.clone(),
            c2: inst.c2.clone(),
            witness: Some(inst.witness.clone()),
        }));
        // Same pair under the identity witness: almost surely *not*
        // I-I equivalent, so the SAT check finds a counterexample.
        jobs.push(JobSpec::SatEquivalence(SatEquivalenceJob {
            c1: inst.c1.clone(),
            c2: inst.c2.clone(),
            witness: None,
        }));
        // Family sweeps exercise the incremental-assumption path
        // (solve_under + analyze_final cores) inside one shared solver.
        // BothNegations is 4^n candidates — keep it to the narrow pair.
        let families: &[WitnessFamily] = if width == 4 {
            &[WitnessFamily::InputNegation, WitnessFamily::BothNegations]
        } else {
            &[WitnessFamily::InputNegation]
        };
        for &family in families {
            let planted = random_instance(family.equivalence(), width, &mut rng);
            jobs.push(JobSpec::Enumerate(EnumerateJob::new(
                planted.c1.clone(),
                planted.c2.clone(),
                family,
            )));
        }
    }
    jobs
}

/// Runs the workload on one service configuration and digests reports.
fn run(shards: usize, opts: SatOptions, jobs: &[JobSpec]) -> Vec<Outcome> {
    let service = MatchService::start(
        ServiceConfig::default()
            .with_shards(shards)
            .with_sat_opts(opts),
    );
    let outcomes = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let report = service
                .submit_wait_seeded(job.clone(), job_seed(9, i as u64))
                .wait();
            Outcome {
                witness: report.witness.map_err(|e| e.to_string()),
                miter: report.miter,
                witness_count: report.witness_count,
            }
        })
        .collect();
    service.shutdown();
    outcomes
}

/// The solver upgrades and shard fan-out change throughput, never
/// verdicts: every (shards × options) cell reports bit-identical
/// witnesses, miter verdicts and enumeration counts.
#[test]
fn sat_options_and_sharding_are_verdict_invisible() {
    let jobs = workload(0x9A7_0915);
    let baseline = run(1, SatOptions::NONE, &jobs);

    // The workload actually exercises all three verdict shapes.
    assert!(baseline
        .iter()
        .any(|o| o.miter == Some(MiterVerdict::Equivalent)));
    assert!(baseline
        .iter()
        .any(|o| matches!(o.miter, Some(MiterVerdict::Counterexample { .. }))));
    assert!(baseline.iter().any(|o| o.witness_count.is_some()));
    // Planted enumerations must find at least the planted witness.
    for o in baseline.iter().filter(|o| o.witness_count.is_some()) {
        assert!(o.witness_count.unwrap() >= 1, "planted family lost: {o:?}");
    }

    // Every upgrade on at each shard fan-out, plus one mixed cell; the
    // all-off single-shard cell is the baseline itself.
    let cells = [
        (1usize, SatOptions::ALL),
        (2, SatOptions::ALL),
        (4, SatOptions::ALL),
        (
            2,
            SatOptions {
                lbd: false,
                xor: true,
            },
        ),
    ];
    for (shards, opts) in cells {
        let got = run(shards, opts, &jobs);
        assert_eq!(
            got, baseline,
            "verdict drift at shards={shards} opts={opts}",
        );
    }
}

/// Proven-equivalent reports carry the original witness back out of the
/// service bit-for-bit, and counterexample refutations stay honest
/// (`PromiseViolated`, never `Inconclusive`) under the full option set.
#[test]
fn proven_witnesses_round_trip_bit_identical() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9A7_B17);
    let service = MatchService::start(
        ServiceConfig::default()
            .with_shards(2)
            .with_sat_opts(SatOptions::ALL),
    );
    for i in 0..6u64 {
        let inst = random_instance(Equivalence::new(Side::Np, Side::I), 5, &mut rng);
        let report = service
            .submit_wait_seeded(
                JobSpec::SatEquivalence(SatEquivalenceJob {
                    c1: inst.c1.clone(),
                    c2: inst.c2.clone(),
                    witness: Some(inst.witness.clone()),
                }),
                job_seed(9, 100 + i),
            )
            .wait();
        assert_eq!(report.miter, Some(MiterVerdict::Equivalent));
        let witness = report.witness.expect("proven witness is returned");
        assert!(witness == inst.witness, "witness bits drifted in transit");

        // Corrupt the witness: flip one input-negation bit. The miter
        // must refute it with a concrete counterexample.
        let mut bad = inst.witness.clone();
        bad.input = NpTransform::new(
            NegationMask::new(bad.nu_x().mask() ^ 1, 5).unwrap(),
            bad.pi_x().clone(),
        )
        .unwrap();
        let report = service
            .submit_wait_seeded(
                JobSpec::SatEquivalence(SatEquivalenceJob {
                    c1: inst.c1.clone(),
                    c2: inst.c2.clone(),
                    witness: Some(bad),
                }),
                job_seed(9, 200 + i),
            )
            .wait();
        assert!(matches!(
            report.miter,
            Some(MiterVerdict::Counterexample { .. })
        ));
        assert!(matches!(report.witness, Err(MatchError::PromiseViolated)));
    }
    service.shutdown();
}
