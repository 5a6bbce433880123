//! Per-layer replays for the traced run. The benchmark times its own calls
//! into each layer's public functions on a sample of the workload's jobs,
//! so the numbers need nothing inside the program to change.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use revmatch::{
    check_witness_sat_with, identify_equivalence_with_oracles, match_n_i_simon_with,
    solve_promise_report, sweep_family, FamilyMiter, IdentifyOptions, JobSpec, MatcherConfig,
    MiterEncoding, Oracle, ProblemOracles, SolverBackend, VerifyMode,
};
use revmatch_circuit::{width_mask, Circuit, DenseTable};
use revmatch_sat::CdclSolver;

use crate::pool::{mix, Item, WIDE_WIDTHS};
use crate::stats::mean;

/// Inputs per `apply_batch` probe measurement.
const PROBES: usize = 4096;

fn us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Per-layer numbers of one replay; every field is a mean per call or job.
#[derive(Debug, Default)]
pub struct LayerStats {
    pub promise_us: Vec<f64>,
    pub identify_us: Vec<f64>,
    pub queries: Vec<f64>,
    pub charged_queries: Vec<f64>,
    pub rounds: Vec<f64>,
    /// `DenseTable::compile` µs per wide width, in `WIDE_WIDTHS` order.
    pub compile_us: [Vec<f64>; 3],
    pub probe_ns: Vec<f64>,
    pub simon_us: Vec<f64>,
    pub simon_rounds: Vec<f64>,
    pub miter_cold_us: Vec<f64>,
    pub enumerate_warm_us: Vec<f64>,
    pub enumerate_cold_us: Vec<f64>,
    pub conflicts: Vec<f64>,
}

/// Dense-table oracles for a pair and its inverses, as the service's
/// table cache builds them.
fn oracles(c1: &Circuit, c2: &Circuit) -> [Oracle; 4] {
    [c1.clone(), c2.clone(), c1.inverse(), c2.inverse()].map(Oracle::precompiled)
}

fn circuits(job: &JobSpec) -> [&Circuit; 2] {
    match job {
        JobSpec::Promise(j) => [&j.c1, &j.c2],
        JobSpec::Identify(j) => [&j.c1, &j.c2],
        JobSpec::QuantumPath(j) => [&j.c1, &j.c2],
        JobSpec::SatEquivalence(j) => [&j.c1, &j.c2],
        JobSpec::Enumerate(j) => [&j.c1, &j.c2],
    }
}

/// Replays `items` through the matchers, circuit, quantum and SAT layers,
/// with the served matcher configuration and per-job seeds.
pub fn replay(items: &[Item]) -> LayerStats {
    let config = MatcherConfig::default();
    let mut s = LayerStats::default();
    for item in items {
        let mut rng = StdRng::seed_from_u64(item.seed);
        match &item.job {
            JobSpec::Promise(j) => {
                let [o1, o2, i1, i2] = oracles(&j.c1, &j.c2);
                let oracles = if j.with_inverses {
                    ProblemOracles::with_inverses(&o1, &o2, &i1, &i2)
                } else {
                    ProblemOracles::without_inverses(&o1, &o2)
                };
                let t = Instant::now();
                let report = solve_promise_report(j.equivalence, &oracles, &config, &mut rng);
                s.promise_us.push(us(t));
                if let Ok(r) = report {
                    s.queries.push(r.queries as f64);
                    s.charged_queries.push(r.charged_queries as f64);
                    s.rounds.push(r.rounds as f64);
                }
            }
            JobSpec::Identify(j) => {
                let [o1, o2, i1, i2] = oracles(&j.c1, &j.c2);
                let options = IdentifyOptions {
                    config: config.clone(),
                    allow_brute_force: j.allow_brute_force,
                    verify: VerifyMode::Exhaustive,
                };
                let t = Instant::now();
                let found = identify_equivalence_with_oracles(
                    &j.c1, &j.c2, &o1, &o2, &i1, &i2, &options, &mut rng,
                );
                s.identify_us.push(us(t));
                if let Ok(Some(id)) = found {
                    s.queries.push(id.queries as f64);
                    s.charged_queries.push(id.queries as f64);
                    s.rounds.push(id.classes_tried as f64);
                }
            }
            JobSpec::QuantumPath(j) => {
                let (o1, o2) = (
                    Oracle::precompiled(j.c1.clone()),
                    Oracle::precompiled(j.c2.clone()),
                );
                let t = Instant::now();
                let report = match_n_i_simon_with(&o1, &o2, config.simon_backend(), &mut rng);
                s.simon_us.push(us(t));
                if let Ok(r) = report {
                    s.simon_rounds.push(r.rounds as f64);
                }
            }
            JobSpec::SatEquivalence(j) => {
                let witness = j.witness.clone().expect("sat jobs carry a witness");
                let t = Instant::now();
                let verdict = check_witness_sat_with(&j.c1, &j.c2, &witness, SolverBackend::Cdcl);
                s.miter_cold_us.push(us(t));
                black_box(verdict.is_ok());
                // The same miter on a solver of our own, for its conflicts.
                let miter = MiterEncoding::build(&j.c1, &j.c2, &witness)
                    .expect("pool sat jobs share one width");
                let mut solver = CdclSolver::new(&miter.cnf).with_branch_hint(miter.input_hint());
                black_box(solver.solve_budgeted());
                s.conflicts.push(solver.conflicts() as f64);
            }
            JobSpec::Enumerate(j) => {
                let t = Instant::now();
                let miter = FamilyMiter::build(&j.c1, &j.c2, j.family)
                    .expect("pool enumerate jobs fit the family's width cap");
                let mut solver = CdclSolver::new(&miter.cnf).with_branch_hint(miter.input_hint());
                let cold = sweep_family(&mut solver, &miter, None);
                s.enumerate_cold_us.push(us(t));
                s.conflicts.push(solver.conflicts() as f64);
                let t = Instant::now();
                let warm = sweep_family(&mut solver, &miter, None);
                s.enumerate_warm_us.push(us(t));
                black_box((cold.is_ok(), warm.is_ok()));
            }
        }
        for c in circuits(&item.job) {
            if let Some(w) = WIDE_WIDTHS.iter().position(|&w| w == c.width()) {
                let t = Instant::now();
                black_box(DenseTable::compile(c).expect("width within the dense limit"));
                s.compile_us[w].push(us(t));
            }
            let xs: Vec<u64> = (0..PROBES as u64)
                .map(|k| mix(item.seed, k) & width_mask(c.width()))
                .collect();
            let t = Instant::now();
            black_box(c.apply_batch(black_box(&xs)));
            s.probe_ns
                .push(t.elapsed().as_nanos() as f64 / PROBES as f64);
        }
    }
    s
}

impl LayerStats {
    /// `(name, unit, value)` for every per-layer replay metric.
    pub fn metrics(&self) -> Vec<(String, &'static str, f64)> {
        let m = |v: &Vec<f64>| mean(v.iter().copied());
        let mut out = vec![
            ("matchers.promise_us".to_string(), "us", m(&self.promise_us)),
            ("matchers.identify_us".into(), "us", m(&self.identify_us)),
            ("matchers.queries_per_job".into(), "count", m(&self.queries)),
            (
                "matchers.charged_queries_per_job".into(),
                "count",
                m(&self.charged_queries),
            ),
            ("matchers.rounds_per_job".into(), "count", m(&self.rounds)),
        ];
        for (w, v) in WIDE_WIDTHS.iter().zip(&self.compile_us) {
            out.push((format!("circuit.table_compile_us.w{w}"), "us", m(v)));
        }
        out.extend([
            ("circuit.probe_ns".into(), "ns", m(&self.probe_ns)),
            ("quantum.simon_us".into(), "us", m(&self.simon_us)),
            (
                "quantum.rounds_per_job".into(),
                "count",
                m(&self.simon_rounds),
            ),
            ("sat.miter_us.cold".into(), "us", m(&self.miter_cold_us)),
            (
                "sat.enumerate_us.warm".into(),
                "us",
                m(&self.enumerate_warm_us),
            ),
            (
                "sat.enumerate_us.cold".into(),
                "us",
                m(&self.enumerate_cold_us),
            ),
            ("sat.conflicts_per_job".into(), "count", m(&self.conflicts)),
        ]);
        out
    }
}
