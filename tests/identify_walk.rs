//! The identification walk against a reference written from the public
//! API: the walk as §3 states it, which re-simulates both circuits for
//! every candidate (`signatures_compatible`, `solve_promise` or
//! `brute_force_match`, then `check_witness`), in the
//! `(search_space, name)` class order. The library walk decides on two
//! truth tables built once per job; every `Identification` field and the
//! next RNG draw must come out the same. Also: an exhaustive walk above
//! the truth-table limit is an error, in process and through the service.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use revmatch::matchers::BRUTE_FORCE_MAX_WIDTH;
use revmatch::{
    brute_force_match, check_witness, classify, identify_equivalence,
    identify_equivalence_with_oracles, job_seed, random_instance, random_wide_instance,
    solve_promise, Equivalence, Identification, IdentifyJob, IdentifyOptions, JobKind, MatchError,
    MatchService, Oracle, ProblemOracles, Scalar, ServiceConfig, Side, VerifyMode,
};
use revmatch_circuit::{
    random_function_circuit, signatures_compatible, Circuit, CircuitError, TruthTable,
};

/// The §3 walk, re-simulating both circuits for every candidate.
fn reference_walk(
    c1: &Circuit,
    c2: &Circuit,
    options: &IdentifyOptions,
    rng: &mut StdRng,
) -> Result<Option<Identification>, MatchError> {
    let n = c1.width();
    if n <= TruthTable::MAX_WIDTH && !signatures_compatible(c1, c2)? {
        return Ok(None);
    }
    let (o1, o2) = (Oracle::new(c1.clone()), Oracle::new(c2.clone()));
    let (o1_inv, o2_inv) = (o1.inverse_oracle(), o2.inverse_oracle());
    let oracles = ProblemOracles::with_inverses(&o1, &o2, &o1_inv, &o2_inv);
    let initial_queries = oracles.total_queries();
    let mut classes: Vec<Equivalence> = Equivalence::all().collect();
    classes.sort_by_key(|e| (e.search_space(n.min(16)), e.to_string()));
    let mut classes_tried = 0;
    for e in classes {
        let before = oracles.total_queries();
        let candidate = if classify(e).is_tractable() {
            classes_tried += 1;
            solve_promise(e, &oracles, &options.config, rng).ok()
        } else if options.allow_brute_force && n <= BRUTE_FORCE_MAX_WIDTH {
            classes_tried += 1;
            brute_force_match(c1, c2, e)?
        } else {
            None
        };
        if let Some(witness) = candidate {
            if witness.conforms_to(e) && check_witness(c1, c2, &witness, options.verify, rng)? {
                let total = oracles.total_queries();
                return Ok(Some(Identification {
                    equivalence: e,
                    witness,
                    queries: total - initial_queries,
                    winner_queries: total - before,
                    classes_tried,
                }));
            }
        }
    }
    Ok(None)
}

fn assert_same(
    got: &Result<Option<Identification>, MatchError>,
    want: &Result<Option<Identification>, MatchError>,
    label: &str,
) {
    match (got, want) {
        (Ok(Some(g)), Ok(Some(w))) => {
            assert_eq!(g.equivalence, w.equivalence, "{label}: equivalence");
            assert_eq!(g.witness, w.witness, "{label}: witness");
            assert_eq!(g.queries, w.queries, "{label}: queries");
            assert_eq!(
                g.winner_queries, w.winner_queries,
                "{label}: winner queries"
            );
            assert_eq!(g.classes_tried, w.classes_tried, "{label}: classes tried");
        }
        (Ok(None), Ok(None)) => {}
        (Err(g), Err(w)) => assert_eq!(g, w, "{label}: error"),
        _ => panic!("{label}: got {got:?}, reference {want:?}"),
    }
}

/// Runs the reference and both library entry points from one seed and
/// checks every field and the next RNG draw.
fn check_pair(c1: &Circuit, c2: &Circuit, options: &IdentifyOptions, seed: u64, label: &str) {
    let mut rng = StdRng::seed_from_u64(seed);
    let want = reference_walk(c1, c2, options, &mut rng);
    let want_next: u64 = rng.gen();

    let mut rng = StdRng::seed_from_u64(seed);
    let got = identify_equivalence(c1, c2, options, &mut rng);
    assert_same(&got, &want, &format!("{label} identify_equivalence"));
    assert_eq!(rng.gen::<u64>(), want_next, "{label}: next draw");

    // The served path's oracles: on demand, owning the circuits.
    let (o1, o2) = (Oracle::on_demand(c1.clone()), Oracle::on_demand(c2.clone()));
    let (o1_inv, o2_inv) = (
        Oracle::on_demand(c1.inverse()),
        Oracle::on_demand(c2.inverse()),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let got = identify_equivalence_with_oracles(
        o1.circuit(),
        o2.circuit(),
        &o1,
        &o2,
        &o1_inv,
        &o2_inv,
        options,
        &mut rng,
    );
    assert_same(&got, &want, &format!("{label} with_oracles"));
    assert_eq!(
        rng.gen::<u64>(),
        want_next,
        "{label}: next draw (with_oracles)"
    );
}

#[test]
fn planted_instances_of_every_class_match_the_reference_walk() {
    let mut rng = StdRng::seed_from_u64(0x1D_3A1C);
    for w in 3..=6 {
        for e in Equivalence::all() {
            let inst = random_instance(e, w, &mut rng);
            for allow_brute_force in [false, true] {
                let options = IdentifyOptions {
                    allow_brute_force,
                    ..IdentifyOptions::default()
                };
                let label = format!("w{w} {e} brute={allow_brute_force}");
                check_pair(&inst.c1, &inst.c2, &options, rng.gen(), &label);
            }
        }
    }
}

#[test]
fn unrelated_pairs_match_the_reference_walk() {
    let mut rng = StdRng::seed_from_u64(0xFACE);
    for w in 3..=6 {
        for _ in 0..4 {
            let a = random_function_circuit(w, &mut rng);
            let b = random_function_circuit(w, &mut rng);
            for allow_brute_force in [false, true] {
                let options = IdentifyOptions {
                    allow_brute_force,
                    ..IdentifyOptions::default()
                };
                let label = format!("w{w} unrelated brute={allow_brute_force}");
                check_pair(&a, &b, &options, rng.gen(), &label);
            }
        }
    }
    // Linear circuits share the identity's spectrum, so the prefilter
    // passes them and the walk runs to its end.
    let cnot = Circuit::from_gates(4, [revmatch_circuit::Gate::cnot(0, 1)]).unwrap();
    check_pair(
        &cnot,
        &Circuit::new(4),
        &IdentifyOptions::default(),
        7,
        "linear",
    );
}

#[test]
fn sampled_verification_matches_the_reference_walk() {
    let mut rng = StdRng::seed_from_u64(0x5A3B);
    for w in 3..=6 {
        for e in Equivalence::all() {
            let inst = random_instance(e, w, &mut rng);
            let options = IdentifyOptions {
                allow_brute_force: w <= 4,
                verify: VerifyMode::Sampled(64),
                ..IdentifyOptions::default()
            };
            check_pair(
                &inst.c1,
                &inst.c2,
                &options,
                rng.gen(),
                &format!("w{w} {e} sampled"),
            );
        }
        let a = random_function_circuit(w, &mut rng);
        let b = random_function_circuit(w, &mut rng);
        let options = IdentifyOptions {
            verify: VerifyMode::Sampled(64),
            ..IdentifyOptions::default()
        };
        check_pair(
            &a,
            &b,
            &options,
            rng.gen(),
            &format!("w{w} unrelated sampled"),
        );
    }
}

/// Above 24 lines no truth table exists: an exhaustive walk is refused
/// before any query, while a sampled one still runs.
#[test]
fn wide_walks_are_refused_only_when_exhaustive() {
    let mut rng = StdRng::seed_from_u64(0xD1DE);
    for w in [25, 30] {
        let inst = random_wide_instance(Equivalence::new(Side::I, Side::N), w, 4 * w, &mut rng);
        let (o1, o2) = (Oracle::new(inst.c1.clone()), Oracle::new(inst.c2.clone()));
        let (o1_inv, o2_inv) = (o1.inverse_oracle(), o2.inverse_oracle());
        let refused = identify_equivalence_with_oracles(
            &inst.c1,
            &inst.c2,
            &o1,
            &o2,
            &o1_inv,
            &o2_inv,
            &IdentifyOptions::default(),
            &mut rng,
        );
        assert_eq!(
            refused.unwrap_err(),
            MatchError::Circuit(CircuitError::WidthTooLarge { width: w, max: 24 }),
            "w{w}"
        );
        let spent = o1.queries() + o2.queries() + o1_inv.queries() + o2_inv.queries();
        assert_eq!(spent, 0, "w{w}: refused before any query");
        let sampled = IdentifyOptions {
            verify: VerifyMode::Sampled(64),
            ..IdentifyOptions::default()
        };
        let found = identify_equivalence(&inst.c1, &inst.c2, &sampled, &mut rng)
            .unwrap()
            .expect("the planted pair identifies under sampling");
        assert!(found.equivalence.search_space(w) <= inst.equivalence.search_space(w));
    }
}

/// A served identify job above 24 lines reports the width error with 0
/// queries; its worker survives with its caches.
#[test]
fn served_wide_identify_jobs_report_the_width_error() {
    let mut rng = StdRng::seed_from_u64(0x5E4D);
    let service = MatchService::start(ServiceConfig::default().with_shards(1));
    for (i, w) in [25usize, 30].into_iter().enumerate() {
        let inst = random_wide_instance(Equivalence::new(Side::I, Side::N), w, 4 * w, &mut rng);
        let report = service
            .submit_wait_seeded(IdentifyJob::new(inst.c1, inst.c2), job_seed(1, i as u64))
            .wait();
        assert_eq!(report.kind, JobKind::Identify);
        assert_eq!(
            report.witness,
            Err(MatchError::Circuit(CircuitError::WidthTooLarge {
                width: w,
                max: 24
            })),
            "w{w}"
        );
        assert_eq!(report.queries, 0, "w{w}");
        assert_eq!(report.identified, None, "w{w}");
    }
    assert_eq!(service.metrics().get(Scalar::WorkersLost), 0);
    service.shutdown();
}
