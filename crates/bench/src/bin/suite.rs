//! Benchmark-suite runner: builds a RevLib-style suite of named circuits
//! (standard gates plus synthesized arithmetic/random functions), hides
//! random transforms, and runs the full identification pipeline over the
//! all-pairs matrix — the workload a library user (e.g. a technology
//! mapper) would run.
//!
//! For every pair the spectral prefilter verdict and the identified
//! minimal class are printed; diagonal blocks (same base, transformed)
//! must identify, off-diagonal pairs must be rejected, and the prefilter
//! must never contradict a successful identification.
//!
//! A final serving stage pushes promised NP-I instances built from every
//! suite circuit through the sharded [`MatchService`] — the continuous
//! form of the same workload — and reports throughput and verification.
//!
//! Run with: `cargo run --release -p revmatch-bench --bin suite -- \
//!   [--shards N] [--queue-capacity N]`

use revmatch::{
    check_witness, identify_equivalence, EngineJob, Equivalence, IdentifyOptions, JobTicket,
    MatchService, MatcherConfig, Scalar, ServiceConfig, Side, VerifyMode,
};
use revmatch_bench::{harness_rng, service_flags, Flags, SERVICE_FLAGS};
use revmatch_circuit::{
    circuit_quantum_cost, signatures_compatible, synthesize, Circuit, Gate, SynthesisStrategy,
    TruthTable,
};

const USAGE: &str = "usage: suite [--shards N] [--queue-capacity N]";

struct Entry {
    name: &'static str,
    circuit: Circuit,
}

fn build_suite(width: usize, rng: &mut rand::rngs::StdRng) -> Vec<Entry> {
    assert!(width >= 3);
    let mut suite = Vec::new();
    // Toffoli chain.
    let mut toffoli = Circuit::new(width);
    for i in 0..width - 2 {
        toffoli.push(Gate::toffoli(i, i + 1, i + 2)).unwrap();
    }
    suite.push(Entry {
        name: "tof_chain",
        circuit: toffoli,
    });
    // Modular increment.
    let inc =
        TruthTable::from_fn(width, |x| (x + 1) & revmatch_circuit::width_mask(width)).unwrap();
    suite.push(Entry {
        name: "increment",
        circuit: synthesize(&inc, SynthesisStrategy::Bidirectional).unwrap(),
    });
    // Bit-reversal-of-index permutation (on the value space).
    let rev = TruthTable::from_fn(width, |x| {
        let mut y = 0u64;
        for i in 0..width {
            y |= ((x >> i) & 1) << (width - 1 - i);
        }
        y
    })
    .unwrap();
    suite.push(Entry {
        name: "bit_reverse",
        circuit: synthesize(&rev, SynthesisStrategy::Bidirectional).unwrap(),
    });
    // Two random functions.
    suite.push(Entry {
        name: "random_a",
        circuit: revmatch_circuit::random_function_circuit(width, rng),
    });
    suite.push(Entry {
        name: "random_b",
        circuit: revmatch_circuit::random_function_circuit(width, rng),
    });
    suite
}

fn main() {
    let flags = Flags::parse(&SERVICE_FLAGS, USAGE);
    let (shards, queue_capacity) = service_flags(&flags);
    let mut rng = harness_rng();
    let width = 4;
    let suite = build_suite(width, &mut rng);

    println!("suite: {} circuits on {width} lines", suite.len());
    for e in &suite {
        println!(
            "  {:<12} {:>4} gates, quantum cost {:>5}",
            e.name,
            e.circuit.len(),
            circuit_quantum_cost(&e.circuit)
        );
    }

    // Hide each circuit behind a random NP-NP transform — the hardest
    // class; identification may still succeed through a *smaller* class
    // when the transform degenerates, or via brute force at this width.
    let hidden: Vec<(usize, Circuit)> = suite
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let inst = revmatch::random_instance_from(
                e.circuit.clone(),
                Equivalence::new(Side::Np, Side::Np),
                &mut rng,
            );
            (i, inst.c1)
        })
        .collect();

    println!("\nall-pairs identification (rows: transformed, cols: suite bases)");
    print!("{:<14}", "");
    for e in &suite {
        print!("{:<13}", e.name);
    }
    println!();
    let mut diagonal_hits = 0;
    let mut off_diagonal_rejections = 0;
    let mut filter_agreements = 0;
    let mut cells = 0;
    for (src, transformed) in &hidden {
        print!("{:<14}", format!("T({})", suite[*src].name));
        for (col, base) in suite.iter().enumerate() {
            cells += 1;
            let filter_ok = signatures_compatible(transformed, &base.circuit).unwrap();
            let found = identify_equivalence(
                transformed,
                &base.circuit,
                &IdentifyOptions::default(),
                &mut rng,
            )
            .unwrap();
            let cell = match &found {
                Some(id) => format!("{}", id.equivalence),
                None => "-".to_owned(),
            };
            // The prefilter may only reject when identification fails.
            if !filter_ok {
                assert!(found.is_none(), "filter contradicted a match");
            }
            if found.is_some() == filter_ok || found.is_none() {
                filter_agreements += 1;
            }
            if col == *src {
                assert!(found.is_some(), "diagonal pair failed to identify");
                diagonal_hits += 1;
            } else if found.is_none() {
                off_diagonal_rejections += 1;
            }
            print!("{cell:<13}");
        }
        println!();
    }
    println!(
        "\ndiagonal identified: {diagonal_hits}/{}; off-diagonal rejected: {off_diagonal_rejections}/{}",
        suite.len(),
        cells - suite.len()
    );
    println!("prefilter consistent on {filter_agreements}/{cells} cells");
    println!("(off-diagonal matches, if any, are genuine accidental equivalences — verified)");

    // --- Serving stage: the same suite as continuous promised traffic. --
    // Each base circuit is hidden behind fresh NP-I transforms and the
    // promised pairs stream through the sharded service.
    let per_base = 8;
    let e_npi = Equivalence::new(Side::Np, Side::I);
    let mut pairs = Vec::new();
    for entry in &suite {
        for _ in 0..per_base {
            pairs.push(revmatch::random_instance_from(
                entry.circuit.clone(),
                e_npi,
                &mut rng,
            ));
        }
    }
    let service = MatchService::start(
        ServiceConfig::default()
            .with_shards(shards)
            .with_queue_capacity(queue_capacity)
            .with_matcher(MatcherConfig::with_epsilon(1e-6))
            .with_seed(0x0DAC_2024),
    );
    let start = std::time::Instant::now();
    let tickets: Vec<JobTicket> = pairs
        .iter()
        .map(|inst| service.submit_wait(EngineJob::from_instance(inst, true)))
        .collect();
    let mut verified = 0;
    for (ticket, inst) in tickets.into_iter().zip(&pairs) {
        let report = ticket.wait();
        let w = report.witness.expect("promised NP-I pair must solve");
        if check_witness(&inst.c1, &inst.c2, &w, VerifyMode::Exhaustive, &mut rng).unwrap() {
            verified += 1;
        }
    }
    let elapsed = start.elapsed();
    assert_eq!(verified, pairs.len(), "every served witness verifies");
    println!(
        "\nserving stage: {} NP-I jobs over {shards} shard{} (lane capacity {queue_capacity}) \
         in {:.1}ms — {:.0} inst/s, {} oracle queries",
        pairs.len(),
        if shards == 1 { "" } else { "s" },
        elapsed.as_secs_f64() * 1e3,
        pairs.len() as f64 / elapsed.as_secs_f64(),
        service.metrics().get(Scalar::OracleQueries),
    );
    service.shutdown();
}
