//! The Table-1 [`MatcherRegistry`] of [`Matcher`] entries.
//!
//! Every algorithm in [`crate::matchers`] used to be reachable only as a
//! free function with its own return shape (`LinePermutation`,
//! `NpTransform`, `(π, ν)` tuples, collision/Simon outcome structs). The
//! registry normalizes them into one table:
//!
//! * a [`Matcher`] solves exactly one [`Equivalence`] along one execution
//!   [`Path`] (classical probes, quantum probes, or a white-box SAT
//!   miter), declares the inverse oracles it [`requires`], and returns a
//!   uniform [`MatchReport`] — witness, paper-faithful and batched query
//!   accounting, round count, and a definitive-vs-ε [`Verdict`];
//! * a [`MatcherRegistry`] is keyed by `(Equivalence,
//!   InverseAvailability, Path)`: [`lookup`] answers "which algorithm
//!   runs this class on this path with these resources", [`select`]
//!   picks the cheapest entry the resources allow (the Table-1 dispatch
//!   policy), and [`solve`] is the end-to-end promise solver used by
//!   [`crate::matchers::solve_promise`] and the serving layer.
//!
//! The set of entries is fixed: the service's `JobSpec` kinds, the
//! identification walk and the bench drivers all dispatch through the
//! same built-in table.
//!
//! [`requires`]: Matcher::requires
//! [`lookup`]: MatcherRegistry::lookup
//! [`select`]: MatcherRegistry::select
//! [`solve`]: MatcherRegistry::solve

use std::fmt;
use std::sync::OnceLock;

use rand::RngCore;

use crate::equivalence::{Equivalence, Side};
use crate::error::MatchError;
use crate::matchers::{
    ensure_same_width, match_i_n, match_i_np_randomized, match_i_np_via_c1_inverse,
    match_i_np_via_c2_inverse, match_i_p_randomized, match_i_p_via_c1_inverse,
    match_i_p_via_c2_inverse, match_n_i_collision, match_n_i_quantum, match_n_i_simon_with,
    match_n_i_via_c1_inverse, match_n_i_via_c2_inverse, match_n_p_via_inverses, match_np_i_quantum,
    match_np_i_via_c1_inverse, match_np_i_via_c2_inverse, match_p_i_one_hot,
    match_p_i_via_c1_inverse, match_p_i_via_c2_inverse, match_p_n, match_p_n_via_inverses,
    randomized_rounds, MatcherConfig, ProblemOracles,
};
use crate::miter::{check_equivalence_sat_budgeted_with, MiterVerdict};
use crate::oracle::ClassicalOracle;
use crate::witness::MatchWitness;

/// The execution paradigm of a matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Path {
    /// Classical oracle probes (deterministic or randomized).
    Classical,
    /// Quantum probes (swap tests, Simon-style sampling).
    Quantum,
    /// White-box SAT miter (complete, no oracle queries).
    Sat,
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Path::Classical => write!(f, "classical"),
            Path::Quantum => write!(f, "quantum"),
            Path::Sat => write!(f, "sat"),
        }
    }
}

/// Which inverse oracles a problem offers — or a matcher needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InverseAvailability {
    /// Forward oracles only.
    None,
    /// `C1⁻¹` available.
    C1Only,
    /// `C2⁻¹` available.
    C2Only,
    /// Both inverses available.
    Both,
}

impl InverseAvailability {
    /// What the supplied oracles actually offer.
    pub fn of(oracles: &ProblemOracles<'_>) -> Self {
        match (oracles.c1_inv.is_some(), oracles.c2_inv.is_some()) {
            (true, true) => Self::Both,
            (true, false) => Self::C1Only,
            (false, true) => Self::C2Only,
            (false, false) => Self::None,
        }
    }

    /// Whether this availability satisfies a matcher's requirement.
    pub fn covers(self, required: InverseAvailability) -> bool {
        matches!(
            (self, required),
            (_, Self::None)
                | (Self::Both, _)
                | (Self::C1Only, Self::C1Only)
                | (Self::C2Only, Self::C2Only)
        )
    }
}

/// How strong a matcher's answer is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// The witness is exact under the promise (no failure probability).
    Definitive,
    /// The witness is correct except with probability at most `epsilon`.
    Probabilistic {
        /// The failure-probability budget the run was configured with.
        epsilon: f64,
    },
}

impl Verdict {
    /// Whether the answer carries no failure probability.
    pub fn is_definitive(&self) -> bool {
        matches!(self, Self::Definitive)
    }
}

/// The uniform result of any matcher: witness plus cost accounting.
///
/// Replaces the per-algorithm `CollisionOutcome` / `SimonOutcome` /
/// tuple returns of earlier revisions.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchReport {
    /// The recovered witness conditions.
    pub witness: MatchWitness,
    /// Oracle queries under the paper's accounting: for the collision
    /// matcher this stops at the colliding pair (the Theorem-1 metric);
    /// for every other matcher it equals [`charged_queries`].
    ///
    /// [`charged_queries`]: MatchReport::charged_queries
    pub queries: u64,
    /// Oracle queries actually issued (whole batched rounds) — always
    /// the delta on the underlying oracle counters.
    pub charged_queries: u64,
    /// Algorithm-specific round count: batched probe rounds for the
    /// classical matchers, per-line swap-test passes for Algorithm 1,
    /// sampling rounds for the Simon-style matcher, birthday rounds for
    /// the collision search.
    pub rounds: u64,
    /// Definitive-vs-ε quality of the answer.
    pub verdict: Verdict,
}

/// Signature of a registry entry body.
type MatcherFn =
    fn(&ProblemOracles<'_>, &MatcherConfig, &mut dyn RngCore) -> Result<MatchReport, MatchError>;

/// One matching algorithm, normalized for registry dispatch: static
/// metadata plus the function that runs it.
///
/// Every entry is deterministic given the supplied `rng` — the serving
/// layer relies on a fixed `(job, seed)` reproducing the same report
/// under any worker count.
#[derive(Debug)]
pub struct Matcher {
    name: &'static str,
    equivalence: Equivalence,
    path: Path,
    requires: InverseAvailability,
    run: MatcherFn,
}

impl Matcher {
    /// Stable identifier, e.g. `"n-i/algorithm1"`.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The equivalence type this matcher solves.
    pub fn equivalence(&self) -> Equivalence {
        self.equivalence
    }

    /// The execution paradigm.
    pub fn path(&self) -> Path {
        self.path
    }

    /// The inverse oracles this matcher needs.
    pub fn requires(&self) -> InverseAvailability {
        self.requires
    }

    /// Runs the matcher on a promised instance.
    ///
    /// # Errors
    ///
    /// [`MatchError::InverseRequired`] when a needed inverse is missing,
    /// plus the algorithm's own width/promise/randomized errors.
    pub fn run(
        &self,
        oracles: &ProblemOracles<'_>,
        config: &MatcherConfig,
        rng: &mut dyn RngCore,
    ) -> Result<MatchReport, MatchError> {
        (self.run)(oracles, config, rng)
    }
}

/// The registry of matchers, in preference order — see the
/// [`matchers`](crate::matchers) module docs.
#[derive(Debug)]
pub struct MatcherRegistry {
    entries: Vec<Matcher>,
}

impl MatcherRegistry {
    /// The full Table-1 registry: every built-in algorithm, ordered so
    /// that [`select`](Self::select) reproduces the paper's dispatch
    /// policy (inverse-assisted `O(log n)` variants first, then the
    /// cheapest no-inverse variant, then specialist alternatives like
    /// the Simon-style sampler, the collision baseline and the SAT
    /// miter).
    pub fn with_table1() -> Self {
        Self {
            entries: builtin_entries(),
        }
    }

    /// The process-wide default registry (built once, never mutated).
    pub fn global() -> &'static MatcherRegistry {
        static GLOBAL: OnceLock<MatcherRegistry> = OnceLock::new();
        GLOBAL.get_or_init(Self::with_table1)
    }

    /// Number of registered matchers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over every registered matcher in preference order.
    pub fn iter(&self) -> impl Iterator<Item = &Matcher> {
        self.entries.iter()
    }

    /// The preferred matcher for `(equivalence, availability, path)` —
    /// the registry key of the module docs.
    pub fn lookup(
        &self,
        equivalence: Equivalence,
        availability: InverseAvailability,
        path: Path,
    ) -> Option<&Matcher> {
        self.iter().find(|m| {
            m.equivalence() == equivalence && m.path() == path && availability.covers(m.requires())
        })
    }

    /// The matcher with the given stable [`Matcher::name`].
    pub fn lookup_named(&self, name: &str) -> Option<&Matcher> {
        self.iter().find(|m| m.name() == name)
    }

    /// The preferred matcher across all paths given the available
    /// resources — the Table-1 dispatch policy.
    pub fn select(
        &self,
        equivalence: Equivalence,
        availability: InverseAvailability,
    ) -> Option<&Matcher> {
        self.iter()
            .find(|m| m.equivalence() == equivalence && availability.covers(m.requires()))
    }

    /// Solves a promised instance end to end: inspects the oracles'
    /// inverse availability, picks the preferred matcher, runs it.
    ///
    /// # Errors
    ///
    /// * [`MatchError::Intractable`] when no matcher is registered for
    ///   the equivalence (the UNIQUE-SAT-hard classes);
    /// * [`MatchError::OpenProblem`] when matchers exist but every one
    ///   needs inverses the oracles do not offer (N-P without both);
    /// * errors from the selected matcher.
    pub fn solve(
        &self,
        equivalence: Equivalence,
        oracles: &ProblemOracles<'_>,
        config: &MatcherConfig,
        rng: &mut dyn RngCore,
    ) -> Result<MatchReport, MatchError> {
        self.solve_named(equivalence, oracles, config, rng)
            .map(|(_, report)| report)
    }

    /// [`MatcherRegistry::solve`] returning the selected entry's stable
    /// [`Matcher::name`] alongside the report — the serving layer keys
    /// its per-registry-entry metrics on it.
    ///
    /// # Errors
    ///
    /// Same as [`MatcherRegistry::solve`].
    pub fn solve_named(
        &self,
        equivalence: Equivalence,
        oracles: &ProblemOracles<'_>,
        config: &MatcherConfig,
        rng: &mut dyn RngCore,
    ) -> Result<(&'static str, MatchReport), MatchError> {
        let availability = InverseAvailability::of(oracles);
        match self.select(equivalence, availability) {
            Some(matcher) => {
                let name = matcher.name();
                matcher.run(oracles, config, rng).map(|r| (name, r))
            }
            None if self.iter().any(|m| m.equivalence() == equivalence) => {
                Err(MatchError::OpenProblem {
                    case: format!("{equivalence} without the required inverse oracles"),
                })
            }
            None => Err(MatchError::Intractable {
                equivalence: equivalence.to_string(),
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Built-in entries.

/// Wraps a matcher body with oracle-counter delta accounting: `queries`
/// and `charged_queries` both become the number of probes the body
/// issued across all four oracles.
fn counted(
    oracles: &ProblemOracles<'_>,
    rounds: u64,
    verdict: Verdict,
    body: impl FnOnce() -> Result<MatchWitness, MatchError>,
) -> Result<MatchReport, MatchError> {
    let before = oracles.total_queries();
    let witness = body()?;
    let spent = oracles.total_queries() - before;
    Ok(MatchReport {
        witness,
        queries: spent,
        charged_queries: spent,
        rounds,
        verdict,
    })
}

fn c1_inv<'a>(oracles: &ProblemOracles<'a>) -> Result<&'a crate::oracle::Oracle, MatchError> {
    oracles.c1_inv.ok_or(MatchError::InverseRequired)
}

fn c2_inv<'a>(oracles: &ProblemOracles<'a>) -> Result<&'a crate::oracle::Oracle, MatchError> {
    oracles.c2_inv.ok_or(MatchError::InverseRequired)
}

/// Builds the two-sided witness of a P-N match (`π` on inputs, `ν` on
/// outputs).
fn p_n_witness(
    pi: revmatch_circuit::LinePermutation,
    nu: revmatch_circuit::NegationMask,
) -> Result<MatchWitness, MatchError> {
    let n = pi.width();
    MatchWitness::new(
        revmatch_circuit::NpTransform::new(revmatch_circuit::NegationMask::identity(n), pi)?,
        revmatch_circuit::NpTransform::new(nu, revmatch_circuit::LinePermutation::identity(n))?,
    )
}

/// Builds the two-sided witness of an N-P match (`ν` on inputs, `π` on
/// outputs).
fn n_p_witness(
    nu: revmatch_circuit::NegationMask,
    pi: revmatch_circuit::LinePermutation,
) -> Result<MatchWitness, MatchError> {
    let n = pi.width();
    MatchWitness::new(
        revmatch_circuit::NpTransform::new(nu, revmatch_circuit::LinePermutation::identity(n))?,
        revmatch_circuit::NpTransform::new(revmatch_circuit::NegationMask::identity(n), pi)?,
    )
}

/// Body of the white-box enumeration entries: sweep the family on the
/// incremental solver and report the first witness of the deterministic
/// candidate order (no oracle queries; `rounds` counts solver calls).
fn run_enumeration_entry(
    oracles: &ProblemOracles<'_>,
    family: crate::enumerate::WitnessFamily,
) -> Result<MatchReport, MatchError> {
    let c1 = oracles.c1.circuit();
    let c2 = oracles.c2.circuit();
    let found = crate::enumerate::enumerate_witnesses_sat(c1, c2, family)?;
    let witness = found
        .witnesses
        .first()
        .cloned()
        .ok_or(MatchError::PromiseViolated)?;
    Ok(MatchReport {
        witness,
        queries: 0,
        charged_queries: 0,
        rounds: found.solves,
        verdict: Verdict::Definitive,
    })
}

fn builtin_entries() -> Vec<Matcher> {
    use Side::{Np, I, N, P};
    let e = Equivalence::new;
    vec![
        // --- I-I ---------------------------------------------------------
        Matcher {
            name: "i-i/trivial",
            equivalence: e(I, I),
            path: Path::Classical,
            requires: InverseAvailability::None,
            run: |oracles, _config, _rng| {
                Ok(MatchReport {
                    witness: MatchWitness::identity(ensure_same_width(oracles.c1, oracles.c2)?),
                    queries: 0,
                    charged_queries: 0,
                    rounds: 0,
                    verdict: Verdict::Definitive,
                })
            },
        },
        // --- I-N ---------------------------------------------------------
        Matcher {
            name: "i-n/zero-probe",
            equivalence: e(I, N),
            path: Path::Classical,
            requires: InverseAvailability::None,
            run: |oracles, _config, _rng| {
                counted(oracles, 1, Verdict::Definitive, || {
                    Ok(MatchWitness::output_negation(match_i_n(
                        oracles.c1, oracles.c2,
                    )?))
                })
            },
        },
        // --- I-P ---------------------------------------------------------
        Matcher {
            name: "i-p/c2-inverse",
            equivalence: e(I, P),
            path: Path::Classical,
            requires: InverseAvailability::C2Only,
            run: |oracles, _config, _rng| {
                counted(oracles, 1, Verdict::Definitive, || {
                    Ok(MatchWitness::output_permutation(match_i_p_via_c2_inverse(
                        oracles.c1,
                        c2_inv(oracles)?,
                    )?))
                })
            },
        },
        Matcher {
            name: "i-p/c1-inverse",
            equivalence: e(I, P),
            path: Path::Classical,
            requires: InverseAvailability::C1Only,
            run: |oracles, _config, _rng| {
                counted(oracles, 1, Verdict::Definitive, || {
                    Ok(MatchWitness::output_permutation(match_i_p_via_c1_inverse(
                        c1_inv(oracles)?,
                        oracles.c2,
                    )?))
                })
            },
        },
        Matcher {
            name: "i-p/randomized",
            equivalence: e(I, P),
            path: Path::Classical,
            requires: InverseAvailability::None,
            run: |oracles, config, mut rng| {
                let rounds =
                    randomized_rounds(ClassicalOracle::width(oracles.c1), config.epsilon) as u64;
                let verdict = Verdict::Probabilistic {
                    epsilon: config.epsilon,
                };
                counted(oracles, rounds, verdict, || {
                    Ok(MatchWitness::output_permutation(match_i_p_randomized(
                        oracles.c1,
                        oracles.c2,
                        config.epsilon,
                        &mut rng,
                    )?))
                })
            },
        },
        // --- I-NP --------------------------------------------------------
        Matcher {
            name: "i-np/c2-inverse",
            equivalence: e(I, Np),
            path: Path::Classical,
            requires: InverseAvailability::C2Only,
            run: |oracles, _config, _rng| {
                counted(oracles, 1, Verdict::Definitive, || {
                    Ok(MatchWitness::output_only(match_i_np_via_c2_inverse(
                        oracles.c1,
                        c2_inv(oracles)?,
                    )?))
                })
            },
        },
        Matcher {
            name: "i-np/c1-inverse",
            equivalence: e(I, Np),
            path: Path::Classical,
            requires: InverseAvailability::C1Only,
            run: |oracles, _config, _rng| {
                counted(oracles, 1, Verdict::Definitive, || {
                    Ok(MatchWitness::output_only(match_i_np_via_c1_inverse(
                        c1_inv(oracles)?,
                        oracles.c2,
                    )?))
                })
            },
        },
        Matcher {
            name: "i-np/randomized",
            equivalence: e(I, Np),
            path: Path::Classical,
            requires: InverseAvailability::None,
            run: |oracles, config, mut rng| {
                let rounds =
                    randomized_rounds(ClassicalOracle::width(oracles.c1), config.epsilon) as u64;
                let verdict = Verdict::Probabilistic {
                    epsilon: config.epsilon,
                };
                counted(oracles, rounds, verdict, || {
                    Ok(MatchWitness::output_only(match_i_np_randomized(
                        oracles.c1,
                        oracles.c2,
                        config.epsilon,
                        &mut rng,
                    )?))
                })
            },
        },
        // --- P-I ---------------------------------------------------------
        Matcher {
            name: "p-i/c2-inverse",
            equivalence: e(P, I),
            path: Path::Classical,
            requires: InverseAvailability::C2Only,
            run: |oracles, _config, _rng| {
                counted(oracles, 1, Verdict::Definitive, || {
                    Ok(MatchWitness::input_permutation(match_p_i_via_c2_inverse(
                        oracles.c1,
                        c2_inv(oracles)?,
                    )?))
                })
            },
        },
        Matcher {
            name: "p-i/c1-inverse",
            equivalence: e(P, I),
            path: Path::Classical,
            requires: InverseAvailability::C1Only,
            run: |oracles, _config, _rng| {
                counted(oracles, 1, Verdict::Definitive, || {
                    Ok(MatchWitness::input_permutation(match_p_i_via_c1_inverse(
                        c1_inv(oracles)?,
                        oracles.c2,
                    )?))
                })
            },
        },
        Matcher {
            name: "p-i/one-hot",
            equivalence: e(P, I),
            path: Path::Classical,
            requires: InverseAvailability::None,
            run: |oracles, _config, _rng| {
                counted(oracles, 1, Verdict::Definitive, || {
                    Ok(MatchWitness::input_permutation(match_p_i_one_hot(
                        oracles.c1, oracles.c2,
                    )?))
                })
            },
        },
        // --- N-I ---------------------------------------------------------
        Matcher {
            name: "n-i/c2-inverse",
            equivalence: e(N, I),
            path: Path::Classical,
            requires: InverseAvailability::C2Only,
            run: |oracles, _config, _rng| {
                counted(oracles, 1, Verdict::Definitive, || {
                    Ok(MatchWitness::input_negation(match_n_i_via_c2_inverse(
                        oracles.c1,
                        c2_inv(oracles)?,
                    )?))
                })
            },
        },
        Matcher {
            name: "n-i/c1-inverse",
            equivalence: e(N, I),
            path: Path::Classical,
            requires: InverseAvailability::C1Only,
            run: |oracles, _config, _rng| {
                counted(oracles, 1, Verdict::Definitive, || {
                    Ok(MatchWitness::input_negation(match_n_i_via_c1_inverse(
                        c1_inv(oracles)?,
                        oracles.c2,
                    )?))
                })
            },
        },
        Matcher {
            name: "n-i/algorithm1",
            equivalence: e(N, I),
            path: Path::Quantum,
            requires: InverseAvailability::None,
            run: |oracles, config, mut rng| {
                let n = ClassicalOracle::width(oracles.c1) as u64;
                let verdict = Verdict::Probabilistic {
                    epsilon: config.epsilon,
                };
                counted(oracles, n, verdict, || {
                    Ok(MatchWitness::input_negation(match_n_i_quantum(
                        oracles.c1, oracles.c2, config, &mut rng,
                    )?))
                })
            },
        },
        Matcher {
            name: "n-i/simon",
            equivalence: e(N, I),
            path: Path::Quantum,
            requires: InverseAvailability::None,
            run: |oracles, config, mut rng| {
                match_n_i_simon_with(oracles.c1, oracles.c2, config.simon_backend(), &mut rng)
            },
        },
        Matcher {
            name: "n-i/collision",
            equivalence: e(N, I),
            path: Path::Classical,
            requires: InverseAvailability::None,
            run: |oracles, _config, mut rng| match_n_i_collision(oracles.c1, oracles.c2, &mut rng),
        },
        // --- NP-I --------------------------------------------------------
        Matcher {
            name: "np-i/c2-inverse",
            equivalence: e(Np, I),
            path: Path::Classical,
            requires: InverseAvailability::C2Only,
            run: |oracles, _config, _rng| {
                counted(oracles, 1, Verdict::Definitive, || {
                    Ok(MatchWitness::input_only(match_np_i_via_c2_inverse(
                        oracles.c1,
                        c2_inv(oracles)?,
                    )?))
                })
            },
        },
        Matcher {
            name: "np-i/c1-inverse",
            equivalence: e(Np, I),
            path: Path::Classical,
            requires: InverseAvailability::C1Only,
            run: |oracles, _config, _rng| {
                counted(oracles, 1, Verdict::Definitive, || {
                    Ok(MatchWitness::input_only(match_np_i_via_c1_inverse(
                        c1_inv(oracles)?,
                        oracles.c2,
                    )?))
                })
            },
        },
        Matcher {
            name: "np-i/quantum",
            equivalence: e(Np, I),
            path: Path::Quantum,
            requires: InverseAvailability::None,
            run: |oracles, config, mut rng| {
                let n = ClassicalOracle::width(oracles.c1) as u64;
                let verdict = Verdict::Probabilistic {
                    epsilon: config.epsilon,
                };
                counted(oracles, n * (n + 1), verdict, || {
                    Ok(MatchWitness::input_only(match_np_i_quantum(
                        oracles.c1, oracles.c2, config, &mut rng,
                    )?))
                })
            },
        },
        // --- P-N ---------------------------------------------------------
        Matcher {
            name: "p-n/c2-inverse",
            equivalence: e(P, N),
            path: Path::Classical,
            requires: InverseAvailability::C2Only,
            run: |oracles, _config, _rng| {
                counted(oracles, 2, Verdict::Definitive, || {
                    let (pi, nu) = match_p_n_via_inverses(
                        oracles.c1,
                        oracles.c2,
                        None,
                        Some(c2_inv(oracles)? as &dyn ClassicalOracle),
                    )?;
                    p_n_witness(pi, nu)
                })
            },
        },
        Matcher {
            name: "p-n/c1-inverse",
            equivalence: e(P, N),
            path: Path::Classical,
            requires: InverseAvailability::C1Only,
            run: |oracles, _config, _rng| {
                counted(oracles, 2, Verdict::Definitive, || {
                    let (pi, nu) = match_p_n_via_inverses(
                        oracles.c1,
                        oracles.c2,
                        Some(c1_inv(oracles)? as &dyn ClassicalOracle),
                        None,
                    )?;
                    p_n_witness(pi, nu)
                })
            },
        },
        Matcher {
            name: "p-n/one-hot",
            equivalence: e(P, N),
            path: Path::Classical,
            requires: InverseAvailability::None,
            run: |oracles, _config, _rng| {
                counted(oracles, 2, Verdict::Definitive, || {
                    let (pi, nu) = match_p_n(oracles.c1, oracles.c2)?;
                    p_n_witness(pi, nu)
                })
            },
        },
        // --- N-P ---------------------------------------------------------
        Matcher {
            name: "n-p/via-inverses",
            equivalence: e(N, P),
            path: Path::Classical,
            requires: InverseAvailability::Both,
            run: |oracles, _config, _rng| {
                counted(oracles, 2, Verdict::Definitive, || {
                    let (nu, pi) =
                        match_n_p_via_inverses(oracles.c1, c1_inv(oracles)?, c2_inv(oracles)?)?;
                    n_p_witness(nu, pi)
                })
            },
        },
        // --- Witness enumeration via incremental SAT (white box) ---------
        // Complete family sweeps on the shared-solver assumption path:
        // the recovered witness is the first of the enumerated set
        // (deterministic candidate order), and a zero count refutes the
        // promise outright. Registered after the classical entries so
        // `select` still prefers the O(1)/O(log n) query algorithms.
        Matcher {
            name: "n-i/sat-enumerate",
            equivalence: e(N, I),
            path: Path::Sat,
            requires: InverseAvailability::None,
            run: |oracles, _config, _rng| {
                run_enumeration_entry(oracles, crate::enumerate::WitnessFamily::InputNegation)
            },
        },
        Matcher {
            name: "i-n/sat-enumerate",
            equivalence: e(I, N),
            path: Path::Sat,
            requires: InverseAvailability::None,
            run: |oracles, _config, _rng| {
                run_enumeration_entry(oracles, crate::enumerate::WitnessFamily::OutputNegation)
            },
        },
        Matcher {
            name: "p-i/sat-enumerate",
            equivalence: e(P, I),
            path: Path::Sat,
            requires: InverseAvailability::None,
            run: |oracles, _config, _rng| {
                run_enumeration_entry(oracles, crate::enumerate::WitnessFamily::InputPermutation)
            },
        },
        Matcher {
            name: "i-p/sat-enumerate",
            equivalence: e(I, P),
            path: Path::Sat,
            requires: InverseAvailability::None,
            run: |oracles, _config, _rng| {
                run_enumeration_entry(oracles, crate::enumerate::WitnessFamily::OutputPermutation)
            },
        },
        // --- I-I via SAT (white box, complete) ---------------------------
        Matcher {
            name: "i-i/sat-miter",
            equivalence: e(I, I),
            path: Path::Sat,
            requires: InverseAvailability::None,
            run: |oracles, _config, _rng| {
                let c1 = oracles.c1.circuit();
                let c2 = oracles.c2.circuit();
                match check_equivalence_sat_budgeted_with(
                    c1,
                    c2,
                    crate::service::DEFAULT_MITER_BUDGET,
                    revmatch_sat::SolverBackend::default(),
                )? {
                    MiterVerdict::Equivalent => Ok(MatchReport {
                        witness: MatchWitness::identity(c1.width()),
                        queries: 0,
                        charged_queries: 0,
                        rounds: 0,
                        verdict: Verdict::Definitive,
                    }),
                    MiterVerdict::Counterexample { .. } => Err(MatchError::PromiseViolated),
                    MiterVerdict::Unknown { .. } => Err(MatchError::Inconclusive),
                }
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::classify;
    use crate::oracle::Oracle;
    use crate::promise::random_instance;
    use crate::verify::{check_witness, VerifyMode};
    use rand::SeedableRng;

    #[test]
    fn availability_covers_is_a_lattice() {
        use InverseAvailability::{Both, C1Only, C2Only, None as Nn};
        for a in [Nn, C1Only, C2Only, Both] {
            assert!(a.covers(Nn));
            assert!(a.covers(a));
            assert!(Both.covers(a));
        }
        assert!(!C1Only.covers(C2Only));
        assert!(!C2Only.covers(C1Only));
        assert!(!Nn.covers(Both));
    }

    #[test]
    fn every_tractable_class_has_entries_and_hard_classes_have_none() {
        let r = MatcherRegistry::global();
        for e in Equivalence::all() {
            let has = r.iter().any(|m| m.equivalence() == e);
            assert_eq!(has, classify(e).is_tractable(), "{e}");
        }
    }

    #[test]
    fn lookup_respects_the_three_part_key() {
        let r = MatcherRegistry::global();
        let ni = Equivalence::new(Side::N, Side::I);
        // Quantum path without inverses: Algorithm 1 wins.
        let m = r
            .lookup(ni, InverseAvailability::None, Path::Quantum)
            .unwrap();
        assert_eq!(m.name(), "n-i/algorithm1");
        // Classical path without inverses: the Theorem-1 collision search.
        let m = r
            .lookup(ni, InverseAvailability::None, Path::Classical)
            .unwrap();
        assert_eq!(m.name(), "n-i/collision");
        // Classical with C2⁻¹: the O(1) inverse variant.
        let m = r
            .lookup(ni, InverseAvailability::C2Only, Path::Classical)
            .unwrap();
        assert_eq!(m.name(), "n-i/c2-inverse");
        // Nothing solves N-N on any path.
        let nn = Equivalence::new(Side::N, Side::N);
        for path in [Path::Classical, Path::Quantum, Path::Sat] {
            assert!(r.lookup(nn, InverseAvailability::Both, path).is_none());
        }
    }

    #[test]
    fn named_lookup_finds_the_simon_specialist() {
        let r = MatcherRegistry::global();
        let m = r.lookup_named("n-i/simon").unwrap();
        assert_eq!(m.path(), Path::Quantum);
        assert_eq!(m.equivalence(), Equivalence::new(Side::N, Side::I));
        assert!(r.lookup_named("no/such-matcher").is_none());
    }

    #[test]
    fn select_prefers_inverse_assisted_variants() {
        let r = MatcherRegistry::global();
        let ip = Equivalence::new(Side::I, Side::P);
        assert_eq!(
            r.select(ip, InverseAvailability::Both).unwrap().name(),
            "i-p/c2-inverse"
        );
        assert_eq!(
            r.select(ip, InverseAvailability::C1Only).unwrap().name(),
            "i-p/c1-inverse"
        );
        assert_eq!(
            r.select(ip, InverseAvailability::None).unwrap().name(),
            "i-p/randomized"
        );
    }

    #[test]
    fn reports_carry_witness_and_accounting_for_every_entry() {
        // Every runnable entry recovers a verified witness on a planted
        // instance, and its accounting invariants hold.
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let config = MatcherConfig::with_epsilon(1e-9);
        let r = MatcherRegistry::global();
        for m in r.iter() {
            let e = m.equivalence();
            let inst = random_instance(e, 5, &mut rng);
            let c1 = Oracle::new(inst.c1.clone());
            let c2 = Oracle::new(inst.c2.clone());
            let c1i = c1.inverse_oracle();
            let c2i = c2.inverse_oracle();
            let oracles = ProblemOracles::with_inverses(&c1, &c2, &c1i, &c2i);
            let report = m
                .run(&oracles, &config, &mut rand::rngs::StdRng::seed_from_u64(7))
                .unwrap_or_else(|err| panic!("{}: {err}", m.name()));
            assert!(
                report.queries <= report.charged_queries,
                "{}: paper metric exceeds issued probes",
                m.name()
            );
            assert_eq!(
                report.charged_queries,
                oracles.total_queries(),
                "{}: charged probes must equal the counter delta",
                m.name()
            );
            assert!(
                check_witness(
                    &inst.c1,
                    &inst.c2,
                    &report.witness,
                    VerifyMode::Exhaustive,
                    &mut rng
                )
                .unwrap(),
                "{}: witness does not explain the pair",
                m.name()
            );
        }
    }

    #[test]
    fn solve_matches_the_legacy_dispatch_errors() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let r = MatcherRegistry::global();
        let config = MatcherConfig::default();
        // Hard class: Intractable.
        let inst = random_instance(Equivalence::new(Side::N, Side::N), 3, &mut rng);
        let c1 = Oracle::new(inst.c1);
        let c2 = Oracle::new(inst.c2);
        let oracles = ProblemOracles::without_inverses(&c1, &c2);
        assert!(matches!(
            r.solve(inst.equivalence, &oracles, &config, &mut rng),
            Err(MatchError::Intractable { .. })
        ));
        // N-P without both inverses: OpenProblem.
        let inst = random_instance(Equivalence::new(Side::N, Side::P), 3, &mut rng);
        let c1 = Oracle::new(inst.c1);
        let c2 = Oracle::new(inst.c2);
        let oracles = ProblemOracles::without_inverses(&c1, &c2);
        assert!(matches!(
            r.solve(inst.equivalence, &oracles, &config, &mut rng),
            Err(MatchError::OpenProblem { .. })
        ));
    }

    #[test]
    fn sat_path_entry_proves_i_i_pairs() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let c = revmatch_circuit::random_function_circuit(4, &mut rng);
        let resynth = revmatch_circuit::synthesize(
            &c.truth_table().unwrap(),
            revmatch_circuit::SynthesisStrategy::Basic,
        )
        .unwrap();
        let o1 = Oracle::new(c);
        let o2 = Oracle::new(resynth);
        let oracles = ProblemOracles::without_inverses(&o1, &o2);
        let r = MatcherRegistry::global();
        let m = r
            .lookup(
                Equivalence::new(Side::I, Side::I),
                InverseAvailability::None,
                Path::Sat,
            )
            .unwrap();
        let report = m
            .run(&oracles, &MatcherConfig::default(), &mut rng)
            .unwrap();
        assert!(report.verdict.is_definitive());
        assert_eq!(report.charged_queries, 0, "white-box path queries nothing");
        // A non-equivalent pair is refuted, not mis-witnessed.
        let other = revmatch_circuit::random_function_circuit(4, &mut rng);
        let o3 = Oracle::new(other);
        let oracles = ProblemOracles::without_inverses(&o1, &o3);
        assert!(matches!(
            m.run(&oracles, &MatcherConfig::default(), &mut rng),
            Err(MatchError::PromiseViolated)
        ));
    }
}
