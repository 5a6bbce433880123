//! Off-the-clock answer checks.
//!
//! Promise and quantum witnesses are checked against the planted witness
//! and, when they differ, against the circuits themselves; SAT jobs must
//! prove the planted witness, which is itself checked against the
//! circuits; identify classes and enumerate counts must equal a
//! single-threaded replay of the same job at the same seed.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use revmatch::{
    check_witness, check_witness_sat, Equivalence, JobReport, JobSpec, MatchError, MatchService,
    MatchWitness, MiterVerdict, SatEquivalence, ServiceConfig, TraceConfig, VerifyMode,
};
use revmatch_circuit::Circuit;

use crate::pool::{Expect, Item, Source};

/// How one attempted job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Correct,
    Failed(String),
    Refused,
    Wrong(String),
}

/// The answers a single-threaded replay gave.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Replayed {
    identified: Option<Equivalence>,
    witness_count: Option<u64>,
}

/// Checks reports against their jobs, memoizing per distinct job.
pub struct Checker<'a> {
    source: &'a Source,
    replay: Option<MatchService>,
    replayed: HashMap<u64, Replayed>,
    verified: HashMap<u64, (MatchWitness, bool)>,
}

/// Whether `witness` maps `c2` onto `c1`: exhaustively up to width 16,
/// by a complete SAT miter beyond.
fn holds(c1: &Circuit, c2: &Circuit, witness: &MatchWitness) -> bool {
    if c1.width() <= 16 {
        let mut rng = StdRng::seed_from_u64(0);
        check_witness(c1, c2, witness, VerifyMode::Exhaustive, &mut rng) == Ok(true)
    } else {
        matches!(
            check_witness_sat(c1, c2, witness),
            Ok(SatEquivalence::Equivalent)
        )
    }
}

impl<'a> Checker<'a> {
    pub fn new(source: &'a Source) -> Self {
        Checker {
            source,
            replay: None,
            replayed: HashMap::new(),
            verified: HashMap::new(),
        }
    }

    /// Checks the report of the job submitted as number `index`.
    pub fn check(&mut self, index: u64, report: &JobReport) -> Outcome {
        if matches!(report.witness, Err(MatchError::Overloaded)) {
            return Outcome::Refused;
        }
        let item = self.source.get(index);
        let key = self.source.key(index);
        match (&item.expect, &item.job) {
            (Expect::Witness(planted), JobSpec::Promise(j)) => {
                self.witness(key, &j.c1, &j.c2, j.equivalence, planted, report)
            }
            (Expect::Witness(planted), JobSpec::QuantumPath(j)) => {
                self.witness(key, &j.c1, &j.c2, j.equivalence, planted, report)
            }
            (Expect::Equivalent(planted), JobSpec::SatEquivalence(j)) => {
                match (&report.witness, &report.miter) {
                    (_, Some(MiterVerdict::Unknown { .. }))
                    | (Err(MatchError::Inconclusive), _) => {
                        Outcome::Failed("miter budget exhausted".into())
                    }
                    (Ok(w), Some(MiterVerdict::Equivalent)) if w == planted => {
                        if self.verify(key, &j.c1, &j.c2, w) {
                            Outcome::Correct
                        } else {
                            Outcome::Wrong("planted witness does not hold".into())
                        }
                    }
                    (w, m) => Outcome::Wrong(format!("sat verdict {m:?} with witness {w:?}")),
                }
            }
            (Expect::Replay, job) => self.against_replay(key, &item, job, report),
            (expect, job) => Outcome::Wrong(format!("no check for {expect:?} on {:?}", job.kind())),
        }
    }

    fn witness(
        &mut self,
        key: u64,
        c1: &Circuit,
        c2: &Circuit,
        e: Equivalence,
        planted: &MatchWitness,
        report: &JobReport,
    ) -> Outcome {
        match &report.witness {
            Err(err) => Outcome::Failed(err.to_string()),
            Ok(w) if w == planted => Outcome::Correct,
            Ok(w) if !w.conforms_to(e) => Outcome::Wrong(format!("witness escapes {e}")),
            // A witness other than the planted one is right only if it
            // maps C2 onto C1.
            Ok(w) if self.verify(key, c1, c2, w) => Outcome::Correct,
            Ok(_) => Outcome::Wrong("witness does not hold".into()),
        }
    }

    /// Checks a witness against the circuits, once per distinct job and
    /// witness.
    fn verify(&mut self, key: u64, c1: &Circuit, c2: &Circuit, w: &MatchWitness) -> bool {
        if let Some((seen, ok)) = self.verified.get(&key) {
            if seen == w {
                return *ok;
            }
        }
        let ok = holds(c1, c2, w);
        self.verified.insert(key, (w.clone(), ok));
        ok
    }

    fn against_replay(
        &mut self,
        key: u64,
        item: &Item,
        job: &JobSpec,
        report: &JobReport,
    ) -> Outcome {
        if let Err(err) = &report.witness {
            if !matches!(err, MatchError::NoEquivalence) {
                return Outcome::Failed(err.to_string());
            }
        }
        let want = match self.replayed.get(&key) {
            Some(want) => want.clone(),
            None => {
                let svc = self.replay.get_or_insert_with(|| {
                    MatchService::start(
                        ServiceConfig::default()
                            .with_shards(1)
                            .with_trace(TraceConfig::off()),
                    )
                });
                let r = svc.submit_wait_seeded(item.job.clone(), item.seed).wait();
                let want = Replayed {
                    identified: r.identified,
                    witness_count: r.witness_count,
                };
                self.replayed.insert(key, want.clone());
                want
            }
        };
        let got = Replayed {
            identified: report.identified,
            witness_count: report.witness_count,
        };
        if got != want {
            return Outcome::Wrong(format!("{got:?}, single-threaded replay gave {want:?}"));
        }
        match (job, &report.witness) {
            (JobSpec::Identify(j), Ok(w)) if !self.verify(key, &j.c1, &j.c2, w) => {
                Outcome::Wrong("identified witness does not hold".into())
            }
            _ => Outcome::Correct,
        }
    }
}
