//! Equivalence identification: the non-promise workflow of §3.
//!
//! Problem 1 is a promise problem, but the paper observes that a promise
//! solver plus one round of equivalence checking handles the general case:
//! *try* the conditions a matcher proposes, *validate* them, and walk on.
//! [`identify_equivalence`] packages that loop: given two white-box
//! circuits, it walks the Fig. 1 lattice bottom-up (cheapest classes
//! first), runs the corresponding tractable matcher with derived inverses,
//! validates every candidate witness, and returns the **minimal**
//! equivalence type that explains the pair.
//!
//! UNIQUE-SAT-hard classes are reached only through the brute-force
//! matcher and only at widths where it is feasible — exactly the situation
//! Theorems 2–3 say one cannot improve in general.
//!
//! Validation is white-box and costs no oracle query. Up to
//! [`TruthTable::MAX_WIDTH`] lines the walk builds both circuits' truth
//! tables once per job; the Walsh-signature prefilter, every
//! [`VerifyMode::Exhaustive`] candidate check and every brute-force pass
//! read those two tables. [`VerifyMode::Sampled`] keeps drawing fresh
//! inputs for each candidate, so its RNG stream does not depend on the
//! tables. Above that width no table exists, so an exhaustive walk
//! returns [`CircuitError::WidthTooLarge`] before it spends a query.

use rand::Rng;

use crate::equivalence::{Equivalence, Side};
use crate::error::MatchError;
use crate::lattice::classify;
use crate::matchers::{
    brute_force_match_tables, solve_promise, MatcherConfig, ProblemOracles, BRUTE_FORCE_MAX_WIDTH,
};
use crate::oracle::Oracle;
use crate::verify::{check_witness, check_witness_tables, VerifyMode};
use crate::witness::MatchWitness;
use revmatch_circuit::{Circuit, CircuitError, MatchSignature, TruthTable};

/// Result of an identification run, with full walk accounting.
#[derive(Debug, Clone)]
pub struct Identification {
    /// The minimal equivalence type under which the pair matched.
    pub equivalence: Equivalence,
    /// A validated witness for that type.
    pub witness: MatchWitness,
    /// **Total** oracle queries spent across the whole lattice walk —
    /// every attempted class, not just the winning matcher. This is the
    /// number a serving layer must charge the job.
    pub queries: u64,
    /// Oracle queries spent by the winning class's matcher alone.
    pub winner_queries: u64,
    /// Equivalence classes actually attempted (tractable matchers plus
    /// brute-force passes), including the winner.
    pub classes_tried: usize,
}

/// Options for [`identify_equivalence`].
#[derive(Debug, Clone)]
pub struct IdentifyOptions {
    /// Matcher tuning (ε, swap-test rounds).
    pub config: MatcherConfig,
    /// Whether the UNIQUE-SAT-hard classes may be attempted by brute
    /// force when the width allows it.
    pub allow_brute_force: bool,
    /// Verification mode for candidate witnesses.
    pub verify: VerifyMode,
}

impl Default for IdentifyOptions {
    fn default() -> Self {
        Self {
            config: MatcherConfig::with_epsilon(1e-9),
            allow_brute_force: true,
            verify: VerifyMode::Exhaustive,
        }
    }
}

/// Finds the minimal X-Y equivalence relating `c1` and `c2`, if any.
///
/// Classes are tried in order of increasing transform-space size, so the
/// returned type is minimal (no strictly weaker class explains the pair).
/// Tractable classes use the Table 1 matchers (inverses are derived from
/// the white boxes, per §3); hard classes fall back to brute force when
/// permitted and feasible.
///
/// Returns `Ok(None)` when no class explains the pair — including the
/// case where only a hard class might but brute force was not allowed.
///
/// # Errors
///
/// Returns [`MatchError::WidthMismatch`] if the circuits disagree on
/// width, and [`MatchError::Circuit`] with [`CircuitError::WidthTooLarge`]
/// for [`VerifyMode::Exhaustive`] above [`TruthTable::MAX_WIDTH`] lines
/// (before any query); matcher-internal errors are treated as "this class
/// does not match" and skipped.
///
/// # Examples
///
/// ```
/// use revmatch::{identify_equivalence, Equivalence, IdentifyOptions, Side};
/// use revmatch_circuit::{Circuit, Gate};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let c2 = Circuit::from_gates(3, [Gate::toffoli(0, 1, 2)])?;
/// let c1 = Circuit::from_gates(3, [Gate::not(0)])?.then(&c2)?;
/// let found = identify_equivalence(&c1, &c2, &IdentifyOptions::default(), &mut rng)?
///     .expect("pair is N-I equivalent");
/// assert_eq!(found.equivalence, Equivalence::new(Side::N, Side::I));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn identify_equivalence(
    c1: &Circuit,
    c2: &Circuit,
    options: &IdentifyOptions,
    rng: &mut impl Rng,
) -> Result<Option<Identification>, MatchError> {
    let o1 = Oracle::new(c1.clone());
    let o2 = Oracle::new(c2.clone());
    let o1_inv = o1.inverse_oracle();
    let o2_inv = o2.inverse_oracle();
    identify_equivalence_with_oracles(c1, c2, &o1, &o2, &o1_inv, &o2_inv, options, rng)
}

/// [`identify_equivalence`] over caller-supplied oracles for the white
/// boxes and their inverses — the serving layer passes its cached or
/// on-demand dense-table oracles here, so repeated identification jobs
/// skip the compile sweep. The oracles must compute `c1`, `c2` and their
/// inverses; query accounting in the returned [`Identification`] is
/// relative to the counters at entry.
///
/// # Errors
///
/// Same as [`identify_equivalence`].
#[allow(clippy::too_many_arguments)] // the four oracles mirror ProblemOracles
pub fn identify_equivalence_with_oracles(
    c1: &Circuit,
    c2: &Circuit,
    o1: &Oracle,
    o2: &Oracle,
    o1_inv: &Oracle,
    o2_inv: &Oracle,
    options: &IdentifyOptions,
    rng: &mut impl Rng,
) -> Result<Option<Identification>, MatchError> {
    let n = c1.width();
    if n != c2.width() {
        return Err(MatchError::WidthMismatch {
            left: n,
            right: c2.width(),
        });
    }
    // White-box truth tables, built once per job: the spectral prefilter,
    // every exhaustive candidate check and every brute-force pass read
    // these two instead of re-simulating the circuits.
    let tables = if n <= TruthTable::MAX_WIDTH {
        let (t1, t2) = (c1.truth_table()?, c2.truth_table()?);
        // Spectral prefilter (no oracle queries): a Walsh-signature
        // mismatch refutes every X-Y class at once.
        if MatchSignature::of_table(&t1) != MatchSignature::of_table(&t2) {
            return Ok(None);
        }
        Some((t1, t2))
    } else if options.verify == VerifyMode::Exhaustive {
        return Err(CircuitError::WidthTooLarge {
            width: n,
            max: TruthTable::MAX_WIDTH,
        }
        .into());
    } else {
        None
    };
    let oracles = ProblemOracles::with_inverses(o1, o2, o1_inv, o2_inv);
    let initial_queries = oracles.total_queries();

    let mut classes: Vec<Equivalence> = Equivalence::all().collect();
    classes.sort_by_cached_key(|&e| walk_key(e, n));

    let mut classes_tried = 0usize;
    for e in classes {
        let before = oracles.total_queries();
        let candidate = if classify(e).is_tractable() {
            classes_tried += 1;
            solve_promise(e, &oracles, &options.config, rng).ok()
        } else if let Some((t1, t2)) = tables
            .as_ref()
            .filter(|_| options.allow_brute_force && n <= BRUTE_FORCE_MAX_WIDTH)
        {
            classes_tried += 1;
            brute_force_match_tables(t1, t2, e)?
        } else {
            None
        };
        let Some(witness) = candidate.filter(|w| w.conforms_to(e)) else {
            continue;
        };
        // `Sampled` draws fresh inputs for every candidate even when the
        // tables exist: later matchers read the same RNG stream.
        let holds = match (&tables, options.verify) {
            (Some((t1, t2)), VerifyMode::Exhaustive) => check_witness_tables(t1, t2, &witness)?,
            _ => check_witness(c1, c2, &witness, options.verify, rng)?,
        };
        if holds {
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
    Ok(None)
}

/// The walk order: cheapest classes first, by search space at
/// `min(n, 16)` lines, ties broken by class name (`e.to_string()`)
/// without building the strings. Side names sort `I < N < NP < P` as
/// strings (`"N-"` precedes `"NP"` because `'-' < 'P'`), which is not
/// `Side`'s declaration order.
fn walk_key(e: Equivalence, n: usize) -> (u128, u8, u8) {
    let name_rank = |side| match side {
        Side::I => 0,
        Side::N => 1,
        Side::Np => 2,
        Side::P => 3,
    };
    (e.search_space(n.min(16)), name_rank(e.x), name_rank(e.y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::promise::random_instance;
    use rand::SeedableRng;

    #[test]
    fn identifies_minimal_class_for_planted_instances() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for e in Equivalence::all() {
            let inst = random_instance(e, 4, &mut rng);
            let found =
                identify_equivalence(&inst.c1, &inst.c2, &IdentifyOptions::default(), &mut rng)
                    .unwrap()
                    .unwrap_or_else(|| panic!("{e}: no class identified"));
            // The found class must be minimal: it is subsumed by the
            // planted class OR incomparable-but-valid (both witnessed).
            assert!(
                found.witness.conforms_to(found.equivalence),
                "{e} -> {}",
                found.equivalence
            );
            assert!(
                check_witness(
                    &inst.c1,
                    &inst.c2,
                    &found.witness,
                    VerifyMode::Exhaustive,
                    &mut rng
                )
                .unwrap(),
                "{e} -> {} witness invalid",
                found.equivalence
            );
            // Minimality against the planted witness: the identified
            // class's search space is never larger than the planted
            // witness's own minimal class.
            let planted_min = inst.witness.minimal_equivalence();
            assert!(
                found.equivalence.search_space(4) <= planted_min.search_space(4),
                "{e}: identified {} but planted minimal is {planted_min}",
                found.equivalence
            );
        }
    }

    #[test]
    fn walk_accounting_covers_every_attempted_class() {
        // An NP-I pair makes the walk fail through several cheaper
        // classes first: the total must strictly exceed the winner's own
        // queries, and both must land on the oracle counters exactly.
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let inst = random_instance(Equivalence::new(Side::Np, Side::I), 4, &mut rng);
        let o1 = crate::Oracle::new(inst.c1.clone());
        let o2 = crate::Oracle::new(inst.c2.clone());
        let o1_inv = o1.inverse_oracle();
        let o2_inv = o2.inverse_oracle();
        let found = identify_equivalence_with_oracles(
            &inst.c1,
            &inst.c2,
            &o1,
            &o2,
            &o1_inv,
            &o2_inv,
            &IdentifyOptions::default(),
            &mut rng,
        )
        .unwrap()
        .expect("planted pair identifies");
        let on_counters = o1.queries() + o2.queries() + o1_inv.queries() + o2_inv.queries();
        assert_eq!(found.queries, on_counters, "walk total = counter delta");
        assert!(found.winner_queries > 0);
        assert!(
            found.queries > found.winner_queries,
            "failed classes before the winner must be charged \
             (total {}, winner {})",
            found.queries,
            found.winner_queries
        );
        assert!(found.classes_tried > 1, "cheaper classes were attempted");
    }

    #[test]
    fn identity_pair_identifies_as_i_i() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let c = revmatch_circuit::random_function_circuit(4, &mut rng);
        let found = identify_equivalence(&c, &c, &IdentifyOptions::default(), &mut rng)
            .unwrap()
            .unwrap();
        assert_eq!(found.equivalence, Equivalence::new(Side::I, Side::I));
    }

    #[test]
    fn unrelated_pair_identifies_as_nothing() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = revmatch_circuit::random_function_circuit(4, &mut rng);
        let b = revmatch_circuit::random_function_circuit(4, &mut rng);
        let found = identify_equivalence(&a, &b, &IdentifyOptions::default(), &mut rng).unwrap();
        assert!(found.is_none(), "random pair matched: {found:?}");
    }

    #[test]
    fn hard_classes_skipped_without_brute_force() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        // An N-N instance whose ν masks are nontrivial on both sides.
        let inst = loop {
            let inst = random_instance(Equivalence::new(Side::N, Side::N), 4, &mut rng);
            if !inst.witness.nu_x().is_identity() && !inst.witness.nu_y().is_identity() {
                break inst;
            }
        };
        let mut options = IdentifyOptions {
            allow_brute_force: false,
            ..IdentifyOptions::default()
        };
        let without = identify_equivalence(&inst.c1, &inst.c2, &options, &mut rng).unwrap();
        options.allow_brute_force = true;
        let with = identify_equivalence(&inst.c1, &inst.c2, &options, &mut rng).unwrap();
        // With brute force the pair is explained; without, usually not
        // (no tractable class covers generic N-N pairs).
        assert!(with.is_some());
        if let Some(found) = without {
            // If something tractable explained it, it must verify.
            assert!(check_witness(
                &inst.c1,
                &inst.c2,
                &found.witness,
                VerifyMode::Exhaustive,
                &mut rng
            )
            .unwrap());
        }
    }

    #[test]
    fn walk_key_gives_the_string_order_at_every_width() {
        for n in 1..=64 {
            let mut by_key: Vec<Equivalence> = Equivalence::all().collect();
            by_key.sort_by_key(|&e| walk_key(e, n));
            let mut by_name: Vec<Equivalence> = Equivalence::all().collect();
            by_name.sort_by_key(|e| (e.search_space(n.min(16)), e.to_string()));
            assert_eq!(by_key, by_name, "width {n}");
        }
    }

    #[test]
    fn width_mismatch_is_error() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let a = Circuit::new(2);
        let b = Circuit::new(3);
        assert!(identify_equivalence(&a, &b, &IdentifyOptions::default(), &mut rng).is_err());
    }
}
