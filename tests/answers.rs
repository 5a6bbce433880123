//! The answer ledger: served answers pinned across commits.
//!
//! Every other bit-identity suite compares two runs inside one commit
//! (shard counts, substrates, the wire, a reference walk). This one
//! submits a fixed, explicitly seeded job list and compares every
//! [`JobReport`] field except `timing` with `tests/data/answers.golden`,
//! line by line and then whole. A change that moves an answer, a query
//! count, a round count or an RNG draw the same way everywhere fails
//! here.
//!
//! A change that alters answers on purpose re-blesses the fixture:
//!
//! ```text
//! cargo test --test answers -- --ignored bless_answer_ledger
//! ```
//!
//! and names each changed line and why.

use rand::rngs::StdRng;
use rand::SeedableRng;
use revmatch::{
    job_seed, random_instance, random_wide_instance, EngineJob, EnumerateJob, Equivalence,
    IdentifyJob, JobReport, JobSpec, JobTicket, MatchService, QuantumAlgorithm, QuantumPathJob,
    SatEquivalenceJob, ServiceConfig, Side, WitnessFamily,
};
use revmatch_circuit::random_function_circuit;
use revmatch_quantum::QuantumBackend;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/answers.golden");

/// One ledger section: the jobs one service configuration runs.
struct Section {
    name: &'static str,
    backend: Option<QuantumBackend>,
    jobs: Vec<(String, JobSpec)>,
}

fn promise_rows(rng: &mut StdRng) -> Vec<(String, JobSpec)> {
    let mut rows = Vec::new();
    for width in 3..=6 {
        for e in Equivalence::all() {
            let inst = random_instance(e, width, rng);
            for with_inverses in [false, true] {
                let label = format!("promise {e} w{width} inverses={with_inverses}");
                rows.push((label, EngineJob::from_instance(&inst, with_inverses).into()));
            }
        }
    }
    // SAT-verified promise jobs: the miter verdict rides on the report.
    for width in [4, 6] {
        let inst = random_instance(Equivalence::new(Side::Np, Side::P), width, rng);
        let job = EngineJob::from_instance(&inst, true).with_sat_verification();
        rows.push((format!("promise NP-P w{width} sat-verified"), job.into()));
    }
    rows
}

fn identify_rows(rng: &mut StdRng) -> Vec<(String, JobSpec)> {
    let classes = [
        Equivalence::new(Side::I, Side::I),
        Equivalence::new(Side::N, Side::I),
        Equivalence::new(Side::Np, Side::I),
        Equivalence::new(Side::I, Side::P),
        Equivalence::new(Side::P, Side::N),
        Equivalence::new(Side::N, Side::N),
        Equivalence::new(Side::Np, Side::Np),
    ];
    let mut rows = Vec::new();
    for width in 3..=6 {
        for e in classes {
            let inst = random_instance(e, width, rng);
            for brute in [true, false] {
                let mut job = IdentifyJob::new(inst.c1.clone(), inst.c2.clone());
                if !brute {
                    job = job.without_brute_force();
                }
                rows.push((format!("identify {e} w{width} brute={brute}"), job.into()));
            }
        }
        let (a, b) = (
            random_function_circuit(width, rng),
            random_function_circuit(width, rng),
        );
        rows.push((
            format!("identify unrelated w{width}"),
            IdentifyJob::new(a, b).into(),
        ));
    }
    rows
}

fn quantum_rows(rng: &mut StdRng) -> Vec<(String, JobSpec)> {
    let mut rows = Vec::new();
    for width in 3..=6 {
        for (e, algorithm) in [
            (Equivalence::new(Side::N, Side::I), QuantumAlgorithm::Simon),
            (
                Equivalence::new(Side::N, Side::I),
                QuantumAlgorithm::SwapTest,
            ),
            (
                Equivalence::new(Side::Np, Side::I),
                QuantumAlgorithm::SwapTest,
            ),
        ] {
            let inst = random_instance(e, width, rng);
            let job = QuantumPathJob {
                equivalence: e,
                c1: inst.c1,
                c2: inst.c2,
                algorithm,
            };
            rows.push((format!("quantum {e} {algorithm:?} w{width}"), job.into()));
        }
    }
    rows
}

fn sat_rows(rng: &mut StdRng) -> Vec<(String, JobSpec)> {
    let mut rows = Vec::new();
    for width in 3..=6 {
        let e = Equivalence::new(Side::Np, Side::N);
        let inst = random_instance(e, width, rng);
        rows.push((
            format!("sat planted {e} w{width}"),
            SatEquivalenceJob {
                c1: inst.c1.clone(),
                c2: inst.c2.clone(),
                witness: Some(inst.witness.clone()),
            }
            .into(),
        ));
        let other = random_function_circuit(width, rng);
        rows.push((
            format!("sat unrelated w{width}"),
            SatEquivalenceJob {
                c1: inst.c1,
                c2: other,
                witness: Some(inst.witness),
            }
            .into(),
        ));
    }
    rows
}

fn enumerate_rows(rng: &mut StdRng) -> Vec<(String, JobSpec)> {
    let mut rows = Vec::new();
    for family in WitnessFamily::ALL {
        for width in [3, 5] {
            let inst = random_instance(family.equivalence(), width, rng);
            rows.push((
                format!("enumerate {family:?} planted w{width}"),
                EnumerateJob::new(inst.c1.clone(), inst.c2, family).into(),
            ));
            let other = random_function_circuit(width, rng);
            rows.push((
                format!("enumerate {family:?} unrelated w{width}"),
                EnumerateJob::new(inst.c1, other, family).into(),
            ));
        }
    }
    rows
}

/// The wide row, built as the wide-cold workload sends it: `4 × width`
/// gate cascades, promise jobs with inverses, Simon on N-I pairs.
fn wide_rows(rng: &mut StdRng) -> Vec<(String, JobSpec)> {
    let mut rows = Vec::new();
    for width in [12, 16, 20] {
        for e in [
            Equivalence::new(Side::Np, Side::I),
            Equivalence::new(Side::I, Side::P),
            Equivalence::new(Side::P, Side::N),
        ] {
            let inst = random_wide_instance(e, width, 4 * width, rng);
            rows.push((
                format!("wide promise {e} w{width}"),
                EngineJob::from_instance(&inst, true).into(),
            ));
        }
        let e = Equivalence::new(Side::N, Side::I);
        let inst = random_wide_instance(e, width, 4 * width, rng);
        let job = QuantumPathJob {
            equivalence: e,
            c1: inst.c1,
            c2: inst.c2,
            algorithm: QuantumAlgorithm::Simon,
        };
        rows.push((format!("wide quantum {e} Simon w{width}"), job.into()));
    }
    rows
}

/// The whole ledger, each section from its own explicitly seeded RNG.
fn ledger() -> Vec<Section> {
    let seeded = |seed: u64| StdRng::seed_from_u64(seed);
    let mut sections = vec![
        Section {
            name: "promise",
            backend: None,
            jobs: promise_rows(&mut seeded(0xA1)),
        },
        Section {
            name: "identify",
            backend: None,
            jobs: identify_rows(&mut seeded(0xA2)),
        },
        Section {
            name: "sat",
            backend: None,
            jobs: sat_rows(&mut seeded(0xA3)),
        },
        Section {
            name: "enumerate",
            backend: None,
            jobs: enumerate_rows(&mut seeded(0xA4)),
        },
        Section {
            name: "wide",
            backend: None,
            jobs: wide_rows(&mut seeded(0xA5)),
        },
    ];
    for backend in QuantumBackend::ALL {
        sections.push(Section {
            name: backend.name(),
            backend: Some(backend),
            jobs: quantum_rows(&mut seeded(0xA6)),
        });
    }
    sections
}

/// Every report field except `timing`, on one line.
fn render(report: &JobReport) -> String {
    let witness = match &report.witness {
        Ok(w) => format!("Ok({w})"),
        Err(e) => format!("Err({e:?})"),
    };
    format!(
        "kind={} witness={witness} queries={} charged={} rounds={} identified={:?} \
         count={:?} miter={:?}",
        report.kind,
        report.queries,
        report.charged_queries,
        report.rounds,
        report.identified.map(|e| e.to_string()),
        report.witness_count,
        report.miter,
    )
}

/// Runs the ledger, one service per section, and renders it.
fn answers() -> String {
    let mut out = String::new();
    for (s, section) in ledger().into_iter().enumerate() {
        let mut config = ServiceConfig::default().with_shards(2);
        if let Some(backend) = section.backend {
            config = config.with_quantum_backend(backend);
        }
        let service = MatchService::start(config);
        let base = 0x1ED6_E500 + s as u64;
        let tickets: Vec<(String, JobTicket)> = section
            .jobs
            .into_iter()
            .enumerate()
            .map(|(i, (label, job))| {
                let ticket = service.submit_wait_seeded(job, job_seed(base, i as u64));
                (label, ticket)
            })
            .collect();
        for (label, ticket) in tickets {
            let report = ticket.wait();
            out.push_str(&format!(
                "[{}] {label}: {}\n",
                section.name,
                render(&report)
            ));
        }
        service.shutdown();
    }
    out
}

#[test]
fn served_answers_match_the_ledger() {
    let text = answers();
    let golden = std::fs::read_to_string(GOLDEN).expect("tests/data/answers.golden");
    for (i, (got, want)) in text.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "ledger line {} differs", i + 1);
    }
    assert_eq!(text, golden, "ledger length differs");
}

/// Rewrites the fixture from the current code.
#[test]
#[ignore = "rewrites tests/data/answers.golden"]
fn bless_answer_ledger() {
    std::fs::write(GOLDEN, answers()).expect("write tests/data/answers.golden");
}
