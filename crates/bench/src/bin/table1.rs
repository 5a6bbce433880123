//! Regenerates **Table 1**: measured oracle-query counts for every
//! tractable equivalence, against the paper's closed-form bounds.
//!
//! For each row, random promised instances are generated and the matcher
//! of that row is run with query-counting oracles. Counts are totals over
//! all supplied oracles (a composite access charges each underlying box).
//!
//! Trials execute on the sharded [`MatchService`] — instance generation
//! stays sequential (deterministic row values) while solving fans out
//! over `--shards` workers behind a `--queue-capacity`-bounded intake.
//!
//! Run with: `cargo run --release -p revmatch-bench --bin table1 -- \
//!   [--shards N] [--queue-capacity N]`

use revmatch::{
    EngineJob, Equivalence, JobTicket, MatchService, MatcherConfig, Scalar, ServiceConfig,
};
use revmatch_bench::{harness_rng, median, service_flags, Flags, SERVICE_FLAGS};

const USAGE: &str = "usage: table1 [--shards N] [--queue-capacity N]";
const TRIALS: usize = 9;
const EPSILON: f64 = 1e-3;

struct Row {
    inverse: &'static str,
    equivalence: &'static str,
    paradigm: &'static str,
    bound: &'static str,
    /// Measured (n, median queries) pairs.
    series: Vec<(usize, u64)>,
}

fn instance(e: Equivalence, n: usize, rng: &mut impl rand::Rng) -> revmatch::PromiseInstance {
    if n <= 10 {
        revmatch::random_instance(e, n, rng)
    } else {
        revmatch::random_wide_instance(e, n, 3 * n, rng)
    }
}

/// Measures one row cell: `TRIALS` instances of `e` at width `n`,
/// submitted to the service, median of their per-job query totals.
///
/// A `RandomizedFailure` (the ε-probability signature collision of the
/// Eq. 1 matchers) is retried with a fresh derived seed, and the retry's
/// queries are charged to the trial — the total cost of solving it.
fn cell(
    service: &MatchService,
    e: Equivalence,
    n: usize,
    with_inverses: bool,
    rng: &mut rand::rngs::StdRng,
) -> u64 {
    let jobs: Vec<EngineJob> = (0..TRIALS)
        .map(|_| EngineJob::from_instance(&instance(e, n, rng), with_inverses))
        .collect();
    let tickets: Vec<JobTicket> = jobs
        .iter()
        .map(|job| service.submit_wait(job.clone()))
        .collect();
    let samples: Vec<u64> = jobs
        .iter()
        .zip(tickets)
        .map(|(job, ticket)| {
            let mut report = ticket.wait();
            let mut queries = report.queries;
            for _ in 0..5 {
                match &report.witness {
                    Ok(_) => return queries,
                    Err(revmatch::MatchError::RandomizedFailure { .. }) => {
                        report = service.submit_wait(job.clone()).wait();
                        queries += report.queries;
                    }
                    Err(other) => panic!("promised instance must solve: {other}"),
                }
            }
            report.witness.expect("randomized matcher kept failing");
            queries
        })
        .collect();
    median(&samples)
}

fn series(
    service: &MatchService,
    e: Equivalence,
    ns: &[usize],
    with_inverses: bool,
    rng: &mut rand::rngs::StdRng,
) -> Vec<(usize, u64)> {
    ns.iter()
        .map(|&n| (n, cell(service, e, n, with_inverses, rng)))
        .collect()
}

fn main() {
    let flags = Flags::parse(&SERVICE_FLAGS, USAGE);
    let (shards, capacity) = service_flags(&flags);
    let service = MatchService::start(
        ServiceConfig::default()
            .with_shards(shards)
            .with_queue_capacity(capacity)
            .with_matcher(MatcherConfig::with_epsilon(EPSILON))
            .with_seed(0x0DAC_2024),
    );

    let mut rng = harness_rng();
    let e = |s: &str| s.parse::<Equivalence>().unwrap();
    let classical_ns = [4usize, 8, 16, 32, 64];
    let quantum_ns = [2usize, 4, 6, 8];

    let mut rows: Vec<Row> = Vec::new();

    // --- Inverse available -------------------------------------------
    for name in ["N-I", "I-N"] {
        rows.push(Row {
            inverse: "available",
            equivalence: name,
            paradigm: "classical",
            bound: "O(1)",
            series: series(&service, e(name), &classical_ns, true, &mut rng),
        });
    }
    for name in ["I-P", "P-I", "N-P", "P-N", "I-NP", "NP-I"] {
        rows.push(Row {
            inverse: "available",
            equivalence: name,
            paradigm: "classical",
            bound: "O(log n)",
            series: series(&service, e(name), &classical_ns, true, &mut rng),
        });
    }

    // --- Inverse not available ---------------------------------------
    rows.push(Row {
        inverse: "not available",
        equivalence: "I-N",
        paradigm: "classical",
        bound: "O(1)",
        series: series(&service, e("I-N"), &classical_ns, false, &mut rng),
    });
    for name in ["I-P", "I-NP"] {
        rows.push(Row {
            inverse: "not available",
            equivalence: name,
            paradigm: "classical",
            bound: "O(log n + log 1/eps)",
            series: series(&service, e(name), &classical_ns, false, &mut rng),
        });
    }
    for name in ["P-I", "P-N"] {
        rows.push(Row {
            inverse: "not available",
            equivalence: name,
            paradigm: "classical",
            bound: "O(n)",
            series: series(&service, e(name), &classical_ns, false, &mut rng),
        });
    }
    rows.push(Row {
        inverse: "not available",
        equivalence: "N-I",
        paradigm: "quantum",
        bound: "O(n log 1/eps)",
        series: series(&service, e("N-I"), &quantum_ns, false, &mut rng),
    });
    rows.push(Row {
        inverse: "not available",
        equivalence: "NP-I",
        paradigm: "quantum",
        bound: "O(n^2 log 1/eps)",
        series: series(&service, e("NP-I"), &quantum_ns, false, &mut rng),
    });

    // --- Print --------------------------------------------------------
    println!(
        "Table 1 (reproduced): measured oracle queries, median of {TRIALS} trials, eps = {EPSILON}"
    );
    println!(
        "k_rand = ceil(log2(n(n-1)/eps)) probes; quantum k = {} swap-test rounds",
        MatcherConfig::with_epsilon(EPSILON).quantum_k
    );
    println!(
        "solved on {} worker shard{} (lane capacity {capacity}), {} jobs total\n",
        shards,
        if shards == 1 { "" } else { "s" },
        service.metrics().get(Scalar::JobsCompleted),
    );
    println!(
        "{:<14} {:<6} {:<10} {:<22} measured queries per n",
        "inverse", "equiv", "paradigm", "paper bound"
    );
    for row in &rows {
        let series_str: Vec<String> = row
            .series
            .iter()
            .map(|(n, q)| format!("n={n}:{q}"))
            .collect();
        println!(
            "{:<14} {:<6} {:<10} {:<22} {}",
            row.inverse,
            row.equivalence,
            row.paradigm,
            row.bound,
            series_str.join("  ")
        );
    }

    // --- Shape checks (who wins / scaling), printed for EXPERIMENTS.md.
    println!("\nshape checks:");
    let find = |inv: &str, eq_name: &str| {
        rows.iter()
            .find(|r| r.inverse == inv && r.equivalence == eq_name)
            .expect("row exists")
    };
    let flat = |r: &Row| r.series.first().unwrap().1 == r.series.last().unwrap().1;
    println!(
        "  O(1) rows flat in n:            N-I*: {}, I-N*: {}, I-N: {}",
        flat(find("available", "N-I")),
        flat(find("available", "I-N")),
        flat(find("not available", "I-N")),
    );
    let pi = find("not available", "P-I");
    let linear = pi.series.last().unwrap().1 as f64 / pi.series.first().unwrap().1 as f64;
    println!(
        "  P-I one-hot grows ~linearly:    {}x queries for 16x larger n",
        linear
    );
    let ip = find("available", "I-P");
    println!(
        "  I-P* grows ~logarithmically:    {:?}",
        ip.series.iter().map(|&(_, q)| q).collect::<Vec<_>>()
    );
    service.shutdown();
}
