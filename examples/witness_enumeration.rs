//! Witness enumeration end to end: count *every* transform explaining a
//! pair, two ways.
//!
//! 1. Library call: `enumerate_witnesses_sat` sweeps a whole candidate
//!    family (here: all `2^n` input negation masks) with one incremental
//!    CDCL solver — each candidate is a set of assumption literals, UNSAT
//!    means "this mask is a witness".
//! 2. Serving layer: the same question as a `JobSpec::Enumerate` job
//!    through `MatchService`, with per-kind metrics and per-shard solver
//!    caching (submit the family twice and the second sweep runs warm).
//!
//! Run with: `cargo run --release --example witness_enumeration`

use rand::SeedableRng;
use revmatch::{
    enumerate_witnesses_sat, random_instance, EnumerateJob, Equivalence, JobKind, MatchService,
    Scalar, ServiceConfig, Side, WitnessFamily,
};

fn main() {
    let width = 6;
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let family = WitnessFamily::InputNegation;
    let inst = random_instance(Equivalence::new(Side::N, Side::I), width, &mut rng);
    println!(
        "planted N-I pair at width {width}: hidden mask ν = {:#0w$b}",
        inst.witness.nu_x().mask(),
        w = width + 2
    );

    // 1. Assumption sweep: one solver, 2^n solve_under calls.
    let sweep =
        enumerate_witnesses_sat(&inst.c1, &inst.c2, family).expect("width under the family cap");
    println!(
        "assumption sweep: {} witness(es) among {} candidates in {} solves",
        sweep.count(),
        sweep.candidates,
        sweep.solves
    );
    for w in &sweep.witnesses {
        println!("  witness: {w}");
    }
    assert!(sweep.witnesses.contains(&inst.witness));

    // 2. Through the serving layer, twice: the repeat hits the per-shard
    //    solver cache and re-answers from learned clauses. One shard, so
    //    no idle shard can steal the repeat and run it cold.
    let service = MatchService::start(ServiceConfig::default().with_shards(1));
    let job = EnumerateJob::new(inst.c1.clone(), inst.c2.clone(), family);
    let first = service.submit_wait(job.clone()).wait();
    let second = service.submit_wait(job).wait();
    assert_eq!(first.witness_count, Some(sweep.count()));
    assert_eq!(second.witness_count, first.witness_count);
    let m = service.metrics();
    println!(
        "service: {} enumerate jobs, {} witnesses counted, {} solver cache hit(s)",
        m.jobs_completed_of(JobKind::Enumerate),
        m.get(Scalar::EnumeratedWitnesses),
        m.get(Scalar::SolverCacheHits)
    );
    assert_eq!(m.jobs_completed_of(JobKind::Enumerate), 2);
    assert!(
        m.get(Scalar::SolverCacheHits) >= 1,
        "second sweep must run warm"
    );
    service.shutdown();
    println!("both paths agree.");
}
