//! The workloads' job sources, generated from the benchmark seed.
//!
//! `served-mix` and `cheap-tcp` cycle a small pool (four jobs per
//! width × equivalence × kind cell, as loadgen builds it) so per-shard
//! caches hit; `wide-cold` generates job `i` from `(seed, i)` on demand, so
//! no instance repeats within a run and the pool costs no memory.

use std::borrow::Cow;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use revmatch::{
    random_instance, random_wide_instance, EngineJob, EnumerateJob, Equivalence, IdentifyJob,
    JobKind, JobSpec, MatchWitness, QuantumAlgorithm, QuantumPathJob, SatEquivalenceJob, Side,
    WitnessFamily,
};

/// Jobs generated per (width, equivalence, kind) cell of a cyclic pool.
const PER_CELL: usize = 4;

/// What the off-clock check compares a job's report against.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Promise and quantum jobs: the planted witness (any other witness
    /// must verify against the circuits).
    Witness(MatchWitness),
    /// SAT jobs: the planted witness must come back proven equivalent.
    Equivalent(MatchWitness),
    /// Identify and enumerate jobs: the answer of a single-threaded replay
    /// of the same job at the same seed.
    Replay,
}

/// One job with its per-job seed and expected answer.
#[derive(Debug, Clone)]
pub struct Item {
    pub job: JobSpec,
    pub seed: u64,
    pub expect: Expect,
}

/// A workload's job stream, indexed by submission number.
#[derive(Debug)]
pub enum Source {
    /// A fixed pool, cycled.
    Cyclic(Vec<Item>),
    /// A fresh instance per index.
    Fresh { seed: u64 },
}

/// SplitMix64 finalizer: decorrelates per-job seeds from the run seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn eq(x: Side, y: Side) -> Equivalence {
    Equivalence::new(x, y)
}

/// The served equivalence mix: NP-I, I-P, P-N.
fn served_equivalences() -> [Equivalence; 3] {
    [
        eq(Side::Np, Side::I),
        eq(Side::I, Side::P),
        eq(Side::P, Side::N),
    ]
}

/// One narrow job of `kind`, built like loadgen's served mix: promise jobs
/// may use inverses, identify walks without brute force, quantum jobs run
/// Simon on an N-I pair, enumerate sweeps the N-I negation family.
fn narrow_job(kind: JobKind, width: usize, e: Equivalence, rng: &mut StdRng) -> (JobSpec, Expect) {
    let ni = eq(Side::N, Side::I);
    match kind {
        JobKind::Promise => {
            let inst = random_instance(e, width, rng);
            let job = EngineJob::from_instance(&inst, true);
            (JobSpec::Promise(job), Expect::Witness(inst.witness))
        }
        JobKind::Identify => {
            let inst = random_instance(e, width, rng);
            let job = IdentifyJob::new(inst.c1, inst.c2).without_brute_force();
            (JobSpec::Identify(job), Expect::Replay)
        }
        JobKind::Quantum => {
            let inst = random_instance(ni, width, rng);
            (quantum_job(inst.c1, inst.c2), Expect::Witness(inst.witness))
        }
        JobKind::Sat => {
            let inst = random_instance(e, width, rng);
            (
                sat_job(inst.c1, inst.c2, &inst.witness),
                Expect::Equivalent(inst.witness),
            )
        }
        JobKind::Enumerate => {
            let inst = random_instance(ni, width, rng);
            let job = EnumerateJob::new(inst.c1, inst.c2, WitnessFamily::InputNegation);
            (JobSpec::Enumerate(job), Expect::Replay)
        }
    }
}

fn quantum_job(c1: revmatch_circuit::Circuit, c2: revmatch_circuit::Circuit) -> JobSpec {
    JobSpec::QuantumPath(QuantumPathJob {
        equivalence: eq(Side::N, Side::I),
        c1,
        c2,
        algorithm: QuantumAlgorithm::Simon,
    })
}

fn sat_job(
    c1: revmatch_circuit::Circuit,
    c2: revmatch_circuit::Circuit,
    witness: &MatchWitness,
) -> JobSpec {
    JobSpec::SatEquivalence(SatEquivalenceJob {
        c1,
        c2,
        witness: Some(witness.clone()),
    })
}

/// A cyclic pool over widths 5–6 × the served equivalences × `kinds`,
/// shuffled once so consecutive submissions mix kinds.
pub fn narrow_pool(seed: u64, kinds: &[JobKind]) -> Source {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut items = Vec::new();
    for width in [5, 6] {
        for e in served_equivalences() {
            for &kind in kinds {
                for _ in 0..PER_CELL {
                    let (job, expect) = narrow_job(kind, width, e, &mut rng);
                    items.push((job, expect));
                }
            }
        }
    }
    items.shuffle(&mut rng);
    Source::Cyclic(
        items
            .into_iter()
            .enumerate()
            .map(|(i, (job, expect))| Item {
                job,
                seed: mix(seed, i as u64),
                expect,
            })
            .collect(),
    )
}

/// Widths of the wide-cold promise and quantum cells.
pub const WIDE_WIDTHS: [usize; 3] = [12, 16, 20];
/// Width of the wide-cold SAT cell.
pub const WIDE_SAT_WIDTH: usize = 8;
/// Wide-cold cells: 9 promise (3 widths × 3 equivalences), 3 quantum,
/// 1 SAT; job `i` belongs to cell `i % WIDE_CELLS`.
pub const WIDE_CELLS: u64 = 13;

/// Wide-cold job `index`: MCT cascades (a uniform random function is too
/// slow to generate at these widths) of `4 × width` gates, or `8 × width`
/// for the SAT cell, where that makes one cold CDCL miter cost ~15 ms.
fn wide_item(seed: u64, index: u64) -> Item {
    let job_seed = mix(seed, index);
    let mut rng = StdRng::seed_from_u64(job_seed ^ 0x5EED);
    let cell = (index % WIDE_CELLS) as usize;
    let (job, expect) = if cell < 9 {
        let width = WIDE_WIDTHS[cell / 3];
        let inst =
            random_wide_instance(served_equivalences()[cell % 3], width, 4 * width, &mut rng);
        let job = EngineJob::from_instance(&inst, true);
        (JobSpec::Promise(job), Expect::Witness(inst.witness))
    } else if cell < 12 {
        let width = WIDE_WIDTHS[cell - 9];
        let inst = random_wide_instance(eq(Side::N, Side::I), width, 4 * width, &mut rng);
        (quantum_job(inst.c1, inst.c2), Expect::Witness(inst.witness))
    } else {
        let e = served_equivalences()[(index / WIDE_CELLS % 3) as usize];
        let inst = random_wide_instance(e, WIDE_SAT_WIDTH, 8 * WIDE_SAT_WIDTH, &mut rng);
        (
            sat_job(inst.c1, inst.c2, &inst.witness),
            Expect::Equivalent(inst.witness),
        )
    };
    Item {
        job,
        seed: job_seed,
        expect,
    }
}

impl Source {
    /// The job submitted as number `index`.
    pub fn get(&self, index: u64) -> Cow<'_, Item> {
        match self {
            Source::Cyclic(items) => Cow::Borrowed(&items[self.key(index) as usize]),
            Source::Fresh { seed } => Cow::Owned(wide_item(*seed, index)),
        }
    }

    /// Identity of the job behind `index`: equal keys are the same job
    /// with the same seed, hence the same answer.
    pub fn key(&self, index: u64) -> u64 {
        match self {
            Source::Cyclic(items) => index % items.len() as u64,
            Source::Fresh { .. } => index,
        }
    }

    /// Distinct jobs a warm-up pass submits: the whole cyclic pool, or one
    /// job per wide cell.
    pub fn warmup_len(&self) -> u64 {
        match self {
            Source::Cyclic(items) => items.len() as u64,
            Source::Fresh { .. } => WIDE_CELLS,
        }
    }

    /// A sample of distinct jobs for the per-layer replay: the cyclic pool,
    /// or two jobs per wide cell taken past every index a run submits.
    pub fn replay_sample(&self) -> Vec<Item> {
        match self {
            Source::Cyclic(items) => items.clone(),
            Source::Fresh { seed } => (0..2 * WIDE_CELLS)
                .map(|i| wide_item(*seed, u64::MAX / 2 + i))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_reproducible_from_the_seed() {
        let kinds = [JobKind::Promise, JobKind::Identify, JobKind::Quantum];
        let (Source::Cyclic(a), Source::Cyclic(b)) =
            (narrow_pool(7, &kinds), narrow_pool(7, &kinds))
        else {
            unreachable!()
        };
        assert_eq!(a.len(), 2 * 3 * 3 * PER_CELL);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert_eq!(format!("{:?}", x.job), format!("{:?}", y.job));
        }
        let fresh = Source::Fresh { seed: 7 };
        assert_eq!(
            format!("{:?}", fresh.get(40).job),
            format!("{:?}", Source::Fresh { seed: 7 }.get(40).job)
        );
        assert_ne!(
            format!("{:?}", fresh.get(40).job),
            format!("{:?}", Source::Fresh { seed: 8 }.get(40).job)
        );
    }

    #[test]
    fn wide_cells_cover_every_kind_and_width() {
        let fresh = Source::Fresh { seed: 1 };
        let mut seen = Vec::new();
        for i in 0..WIDE_CELLS {
            let item = fresh.get(i);
            seen.push((item.job.kind(), item.job.width()));
        }
        for w in WIDE_WIDTHS {
            assert_eq!(
                seen.iter().filter(|&&s| s == (JobKind::Promise, w)).count(),
                3
            );
            assert!(seen.contains(&(JobKind::Quantum, w)));
        }
        assert!(seen.contains(&(JobKind::Sat, WIDE_SAT_WIDTH)));
    }
}
