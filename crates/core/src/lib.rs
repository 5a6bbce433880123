//! # revmatch — Boolean matching of reversible circuits
//!
//! A faithful, self-contained implementation of *“Boolean Matching
//! Reversible Circuits: Algorithm and Complexity”* (Chen & Jiang, DAC
//! 2024): given two black-box reversible circuits promised to be
//! equivalent up to input/output negations and permutations, find the
//! witness conditions — counting every oracle query.
//!
//! ## The problem
//!
//! For `X, Y ∈ {I, N, P, NP}`, circuits `C1`, `C2` are **X-Y equivalent**
//! when `C1 = T_Y ∘ C2 ∘ T_X` with `T_X` (resp. `T_Y`) drawn from the
//! class `X` (resp. `Y`) of negation/permutation transforms. The
//! complexity landscape ([`classify`], Fig. 1 of the paper) splits the 16
//! types into classically easy, quantum-easy (N-I, NP-I — classically
//! exponential by Theorem 1), conditionally easy (N-P), and
//! UNIQUE-SAT-hard (everything subsuming N-N or P-P).
//!
//! ## Quick start
//!
//! ```
//! use revmatch::{
//!     check_witness, random_instance, solve_promise, Equivalence, MatcherConfig,
//!     Oracle, ProblemOracles, Side, VerifyMode,
//! };
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//!
//! // A promised NP-I-equivalent pair with a hidden (ν, π).
//! let inst = random_instance(Equivalence::new(Side::Np, Side::I), 5, &mut rng);
//!
//! // Black boxes (with inverses, as the paper's §3 variant allows).
//! let c1 = Oracle::new(inst.c1.clone());
//! let c2 = Oracle::new(inst.c2.clone());
//! let c2_inv = c2.inverse_oracle();
//! let oracles = ProblemOracles {
//!     c1: &c1, c2: &c2, c1_inv: None, c2_inv: Some(&c2_inv),
//! };
//!
//! // Recover the hidden conditions in O(log n) queries…
//! let witness = solve_promise(inst.equivalence, &oracles, &MatcherConfig::default(), &mut rng)?;
//!
//! // …and validate them with the single-round check of §3.
//! assert!(check_witness(&inst.c1, &inst.c2, &witness, VerifyMode::Exhaustive, &mut rng)?);
//! assert!(oracles.total_queries() <= 10);
//! # Ok::<(), revmatch::MatchError>(())
//! ```
//!
//! ## Crate map
//!
//! * [`equivalence`], [`lattice`] — the 16 X-Y types and the Fig. 1
//!   domination lattice (with Graphviz export);
//! * [`oracle`] — query-counted black boxes (classical, quantum, and the
//!   XOR-oracle form used by Simon-style algorithms);
//! * [`matchers`] — every algorithm of Table 1, the classical collision
//!   baseline of Theorem 1, the Simon-style hidden-shift matcher, a
//!   brute-force matcher and witness counting — each a [`Matcher`]
//!   entry of the fixed Table-1 [`MatcherRegistry`] keyed by
//!   `(Equivalence, InverseAvailability, Path)` and returning a uniform
//!   [`MatchReport`];
//! * [`service`] — the sharded serving layer, the one way to run a job:
//!   the job model in [`service::job`] ([`JobSpec`]: promise, identify,
//!   quantum-path, SAT-equivalence and enumeration jobs, each resolving
//!   to a [`JobReport`]), persistent worker shards, a bounded intake
//!   queue with backpressure, per-job completion tickets and
//!   Prometheus-style metrics with per-kind counters and latency;
//! * [`observe`] — opt-in job tracing: lock-free per-shard span rings
//!   over the `submit → queue_wait → … → execute → report` lifecycle,
//!   drained to Chrome trace-event JSON, plus the per-job
//!   [`JobTiming`] breakdown every completed job carries;
//! * [`hardness`] — the Fig. 5 UNIQUE-SAT encodings behind Theorems 2–3;
//! * [`miter`] — complete SAT-based equivalence/witness checking with
//!   counterexamples, backend-parameterized over [`SolverBackend`]
//!   (CDCL default, DPLL for differential testing);
//! * [`identify`] — minimal-class identification for non-promised pairs;
//! * [`promise`], [`verify`], [`witness`] — instance generation, witness
//!   types and the single-round validation.
//!
//! ## Batched probes and backend selection
//!
//! Every classical probe loop in [`matchers`] issues its probes through
//! [`oracle::ClassicalOracle::query_batch`]: the binary-code rounds of
//! §4.2, the one-hot scans of §4.4, the randomized signature rounds of
//! Eq. 1 and the Theorem-1 collision sweeps all hand the oracle one
//! probe group per round. A batch of `k` probes always counts exactly
//! `k` oracle queries — batching changes execution, never the paper's
//! accounting.
//!
//! Execution backends (see `revmatch_circuit::batch`):
//!
//! * **bit-sliced** — probes are transposed into per-line lanes of
//!   256-bit words (AVX2 where the CPU has it, portable `[u64; 4]`
//!   otherwise) and the gate cascade is walked once per block of 256
//!   probes, 512 half-word packed at width ≤ 32; the default for every
//!   [`Oracle`].
//! * **truth table** — [`Oracle::precompiled`] compiles circuits of
//!   width ≤ 20 into their `2^n`-entry
//!   [`TruthTable`](revmatch_circuit::TruthTable) (one
//!   `TruthTable::compile`, the same table every white-box check
//!   reads), making each probe a single load; [`Oracle::on_demand`]
//!   compiles it only once the probes' gate walks have paid for it, at
//!   a price of `max(1, 2^n / 64)` scalar walks. That rent-or-buy rule
//!   is the only table policy the serving layer runs, and the identify
//!   walk reads a table its oracles hold instead of compiling another.
//!
//! The [`service`] module scales this across instances:
//! [`MatchService`] runs persistent worker shards behind a bounded
//! intake queue with explicit backpressure, deterministic per-job
//! seeding and a metrics registry — see its module docs for the
//! serving-layer design. Batches, streams and the network front end all
//! submit to it.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod enumerate;
pub mod equivalence;
pub mod error;
pub mod hardness;
pub mod identify;
pub mod lattice;
pub mod matchers;
pub mod miter;
pub mod observe;
pub mod oracle;
pub mod promise;
pub mod service;
pub mod verify;
pub mod wire;
pub mod witness;

pub use enumerate::{
    count_witnesses_sat, enumerate_witnesses_sat, sweep_family, FamilyMiter, WitnessEnumeration,
    WitnessFamily,
};
pub use equivalence::{Equivalence, Side};
pub use error::MatchError;
pub use hardness::{dual_rail, NnReduction, PpReduction, SatLayout};
pub use identify::{
    identify_equivalence, identify_equivalence_with_oracles, Identification, IdentifyOptions,
};
pub use lattice::{classify, hasse_dot, hasse_edges, render_lattice, Complexity, DominationEdge};
pub use matchers::{
    brute_force_match, count_witnesses, match_i_n, match_i_np_randomized,
    match_i_np_via_c1_inverse, match_i_np_via_c2_inverse, match_i_p_randomized,
    match_i_p_via_c1_inverse, match_i_p_via_c2_inverse, match_n_i_collision, match_n_i_quantum,
    match_n_i_simon, match_n_i_simon_with, match_n_i_via_c1_inverse, match_n_i_via_c2_inverse,
    match_n_p_via_inverses, match_np_i_quantum, match_np_i_via_c1_inverse,
    match_np_i_via_c2_inverse, match_p_i_one_hot, match_p_i_via_c1_inverse,
    match_p_i_via_c2_inverse, match_p_n, match_p_n_via_inverses, solve_promise,
    solve_promise_report, InverseAvailability, MatchReport, Matcher, MatcherConfig,
    MatcherRegistry, Path, ProblemOracles, Verdict,
};
pub use miter::{
    check_equivalence_sat, check_equivalence_sat_budgeted, check_equivalence_sat_budgeted_with,
    check_equivalence_sat_with, check_witness_sat, check_witness_sat_budgeted,
    check_witness_sat_budgeted_with, check_witness_sat_with, MiterEncoding, MiterVerdict,
    SatEquivalence,
};
pub use observe::{
    chrome_trace_json, slowest_jobs, Detail, JobBreakdown, JobTiming, SpanRecord, Stage,
    TraceConfig, Tracer,
};
pub use oracle::{
    ClassicalOracle, ComposedOracle, Oracle, QuantumOracle, XorInputOracle, XorOutputOracle,
};
pub use promise::{random_instance, random_instance_from, random_wide_instance, PromiseInstance};
pub use revmatch_sat::{SatOptions, SolverBackend};
pub use service::{
    job_seed, AdmissionConfig, EngineJob, EnumerateJob, Histogram, IdentifyJob, JobKind, JobReport,
    JobSpec, JobTicket, MatchService, Metrics, QuantumAlgorithm, QuantumPathJob, SatEquivalenceJob,
    Scalar, ServiceConfig, ShardCounter, SubmitOutcome, DEFAULT_MITER_BUDGET,
};
pub use verify::{check_witness, VerifyMode};
pub use wire::{
    read_client_frame, read_server_frame, write_client_frame, write_server_frame, ClientFrame,
    ServerFrame, WireError, MAX_FRAME_LEN,
};
pub use witness::MatchWitness;

#[cfg(test)]
mod dispatcher_tests {
    use super::*;
    use rand::SeedableRng;

    /// The dispatcher solves every tractable type, with and without
    /// inverses, and the recovered witness verifies functionally.
    #[test]
    fn solve_promise_covers_every_tractable_type() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let config = MatcherConfig::with_epsilon(1e-6);
        for e in Equivalence::all() {
            if !classify(e).is_tractable() {
                continue;
            }
            for with_inverses in [true, false] {
                // N-P without both inverses is the open problem.
                if e == Equivalence::new(Side::N, Side::P) && !with_inverses {
                    continue;
                }
                let inst = random_instance(e, 5, &mut rng);
                let c1 = Oracle::new(inst.c1.clone());
                let c2 = Oracle::new(inst.c2.clone());
                let c1_inv = c1.inverse_oracle();
                let c2_inv = c2.inverse_oracle();
                let oracles = if with_inverses {
                    ProblemOracles::with_inverses(&c1, &c2, &c1_inv, &c2_inv)
                } else {
                    ProblemOracles::without_inverses(&c1, &c2)
                };
                let witness = solve_promise(e, &oracles, &config, &mut rng)
                    .unwrap_or_else(|err| panic!("{e} (inverses: {with_inverses}): {err}"));
                assert!(witness.conforms_to(e), "{e}");
                assert!(
                    check_witness(
                        &inst.c1,
                        &inst.c2,
                        &witness,
                        VerifyMode::Exhaustive,
                        &mut rng
                    )
                    .unwrap(),
                    "{e} (inverses: {with_inverses}) returned a wrong witness"
                );
            }
        }
    }

    #[test]
    fn solve_promise_rejects_hard_types() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let config = MatcherConfig::default();
        for e in Equivalence::all() {
            if classify(e).is_tractable() {
                continue;
            }
            let inst = random_instance(e, 3, &mut rng);
            let c1 = Oracle::new(inst.c1);
            let c2 = Oracle::new(inst.c2);
            let oracles = ProblemOracles::without_inverses(&c1, &c2);
            assert!(matches!(
                solve_promise(e, &oracles, &config, &mut rng),
                Err(MatchError::Intractable { .. })
            ));
        }
    }

    #[test]
    fn solve_promise_np_open_problem() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let config = MatcherConfig::default();
        let e = Equivalence::new(Side::N, Side::P);
        let inst = random_instance(e, 4, &mut rng);
        let c1 = Oracle::new(inst.c1);
        let c2 = Oracle::new(inst.c2);
        let oracles = ProblemOracles::without_inverses(&c1, &c2);
        assert!(matches!(
            solve_promise(e, &oracles, &config, &mut rng),
            Err(MatchError::OpenProblem { .. })
        ));
    }

    /// Brute force agrees with the fast matchers on every tractable type.
    #[test]
    fn brute_force_cross_validates_dispatcher() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(14);
        let config = MatcherConfig::with_epsilon(1e-6);
        for e in Equivalence::all() {
            if !classify(e).is_tractable() || e == Equivalence::new(Side::N, Side::P) {
                continue;
            }
            let inst = random_instance(e, 4, &mut rng);
            let c1 = Oracle::new(inst.c1.clone());
            let c2 = Oracle::new(inst.c2.clone());
            let fast = solve_promise(
                e,
                &ProblemOracles::without_inverses(&c1, &c2),
                &config,
                &mut rng,
            )
            .unwrap();
            let brute = brute_force_match(&inst.c1, &inst.c2, e).unwrap().unwrap();
            // Witnesses may differ; both must verify.
            for w in [fast, brute] {
                assert!(
                    check_witness(&inst.c1, &inst.c2, &w, VerifyMode::Exhaustive, &mut rng)
                        .unwrap()
                );
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Inverse-assisted matchers recover witnesses for arbitrary
        /// random instances (any seed, widths 2–7).
        #[test]
        fn inverse_matchers_always_succeed(seed in any::<u64>(), w in 2usize..=7) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let config = MatcherConfig::with_epsilon(1e-9);
            for e in [
                Equivalence::new(Side::I, Side::Np),
                Equivalence::new(Side::Np, Side::I),
                Equivalence::new(Side::P, Side::N),
                Equivalence::new(Side::N, Side::P),
            ] {
                let inst = random_instance(e, w, &mut rng);
                let c1 = Oracle::new(inst.c1.clone());
                let c2 = Oracle::new(inst.c2.clone());
                let c1_inv = c1.inverse_oracle();
                let c2_inv = c2.inverse_oracle();
                let oracles = ProblemOracles::with_inverses(&c1, &c2, &c1_inv, &c2_inv);
                let witness = solve_promise(e, &oracles, &config, &mut rng).unwrap();
                prop_assert!(check_witness(
                    &inst.c1, &inst.c2, &witness, VerifyMode::Exhaustive, &mut rng
                ).unwrap(), "{}", e);
            }
        }

        /// The witness recovered by the quantum Algorithm 1 equals the
        /// planted ν for any N-I instance.
        #[test]
        fn algorithm1_recovers_planted_nu(seed in any::<u64>(), w in 1usize..=6) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let config = MatcherConfig::with_epsilon(1e-9);
            let inst = random_instance(Equivalence::new(Side::N, Side::I), w, &mut rng);
            let c1 = Oracle::new(inst.c1.clone());
            let c2 = Oracle::new(inst.c2.clone());
            let nu = match_n_i_quantum(&c1, &c2, &config, &mut rng).unwrap();
            prop_assert_eq!(nu, inst.witness.nu_x());
        }

        /// The SAT miter agrees with exhaustive functional comparison on
        /// arbitrary circuit pairs (equivalent or not), on *both* solver
        /// backends — the CDCL/DPLL differential for structured (miter)
        /// encodings.
        #[test]
        fn miter_agrees_with_exhaustive(seed in any::<u64>(), w in 1usize..=5) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // Mix of equivalent and non-equivalent pairs.
            let a = revmatch_circuit::random_circuit(
                &revmatch_circuit::RandomCircuitSpec::for_width(w), &mut rng);
            let b = if seed.is_multiple_of(2) {
                // Structurally different, functionally equal.
                revmatch_circuit::synthesize(
                    &a.truth_table().unwrap(),
                    revmatch_circuit::SynthesisStrategy::Basic,
                ).unwrap()
            } else {
                revmatch_circuit::random_circuit(
                    &revmatch_circuit::RandomCircuitSpec::for_width(w), &mut rng)
            };
            for backend in SolverBackend::ALL {
                let verdict = check_equivalence_sat_with(&a, &b, backend).unwrap();
                prop_assert_eq!(
                    verdict.is_equivalent(),
                    a.functionally_eq(&b),
                    "{} disagrees with exhaustive comparison",
                    backend
                );
                if let SatEquivalence::Counterexample { input } = verdict {
                    prop_assert_ne!(a.apply(input), b.apply(input));
                }
            }
        }

        /// The Simon matcher recovers ν exactly for arbitrary instances.
        #[test]
        fn simon_recovers_planted_nu(seed in any::<u64>(), w in 1usize..=6) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let inst = random_instance(Equivalence::new(Side::N, Side::I), w, &mut rng);
            let c1 = Oracle::new(inst.c1.clone());
            let c2 = Oracle::new(inst.c2.clone());
            let outcome = match_n_i_simon(&c1, &c2, &mut rng).unwrap();
            prop_assert_eq!(outcome.witness.nu_x(), inst.witness.nu_x());
        }

        /// Query counts respect Table 1 bounds (inverse-assisted rows).
        #[test]
        fn table1_query_bounds_hold(seed in any::<u64>(), w in 2usize..=7) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let config = MatcherConfig::default();
            let log_n = crate::matchers::ceil_log2(w) as u64;
            // I-N without inverse: exactly 2 queries.
            let inst = random_instance(Equivalence::new(Side::I, Side::N), w, &mut rng);
            let c1 = Oracle::new(inst.c1);
            let c2 = Oracle::new(inst.c2);
            let oracles = ProblemOracles::without_inverses(&c1, &c2);
            solve_promise(inst.equivalence, &oracles, &config, &mut rng).unwrap();
            prop_assert_eq!(oracles.total_queries(), 2);
            // NP-I with inverse: 2(1 + ⌈log2 n⌉) queries.
            let inst = random_instance(Equivalence::new(Side::Np, Side::I), w, &mut rng);
            let c1 = Oracle::new(inst.c1);
            let c2 = Oracle::new(inst.c2);
            let c1_inv = c1.inverse_oracle();
            let c2_inv = c2.inverse_oracle();
            let oracles = ProblemOracles::with_inverses(&c1, &c2, &c1_inv, &c2_inv);
            solve_promise(inst.equivalence, &oracles, &config, &mut rng).unwrap();
            prop_assert!(oracles.total_queries() <= 2 * (1 + log_n));
        }
    }
}
