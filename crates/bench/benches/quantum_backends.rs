//! Benchmarks for the quantum simulation backends: the Simon matcher on
//! dense, sparse and stabilizer substrates across a backend × width
//! matrix, plus Simon-only service throughput at widths past the dense
//! state-vector ceiling.
//!
//! Beyond the criterion groups, `main` prints the latency matrix and
//! **asserts** the acceptance floors in-bench: all backends recover
//! bit-identical witnesses vs dense at fixed seeds, the stabilizer
//! completes width-20 Simon jobs, and a Simon-only mix at widths 10–12
//! runs ≥ 5× the jobs/s of a dense-pinned service (which must serve
//! those widths through its swap-test capacity fallback — dense Simon
//! needs 2n+1 ≤ 20 qubits). Each service pins its backend through its
//! own `ServiceConfig`.

use std::time::Instant;

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use rand::SeedableRng;
use revmatch::{
    job_seed, match_n_i_simon_with, random_wide_instance, Equivalence, JobSpec, JobTicket,
    MatchService, Oracle, PromiseInstance, QuantumAlgorithm, QuantumPathJob, ServiceConfig, Side,
};
use revmatch_quantum::{QuantumBackend, MAX_QUBITS};

/// Planted N-I pair as a bounded MCT cascade: oracle evaluation cost is
/// gate-count-linear, so the same generator serves every width.
fn wide_ni_instance(width: usize, seed: u64) -> PromiseInstance {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    random_wide_instance(
        Equivalence::new(Side::N, Side::I),
        width,
        4 * width,
        &mut rng,
    )
}

/// Widest Simon problem each backend can register (the matcher's own
/// capacity check; see `check_simon_capacity`).
fn simon_cap(backend: QuantumBackend) -> usize {
    match backend {
        QuantumBackend::Dense => (MAX_QUBITS - 1) / 2,
        QuantumBackend::Sparse => revmatch_quantum::SPARSE_MAX_ENTRIES.ilog2() as usize - 1,
        QuantumBackend::Stabilizer => 31,
    }
}

fn run_simon(inst: &PromiseInstance, backend: QuantumBackend, seed: u64) -> revmatch::MatchReport {
    let c1 = Oracle::new(inst.c1.clone());
    let c2 = Oracle::new(inst.c2.clone());
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    match_n_i_simon_with(&c1, &c2, backend, &mut rng)
        .unwrap_or_else(|e| panic!("simon w={} on {backend}: {e}", inst.c1.width()))
}

/// The backend × width matrix under criterion: each in-capacity backend
/// solves the same planted instance end to end.
fn bench_simon_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("simon_backends");
    group.sample_size(10);
    for &width in &[6usize, 9, 12, 16, 20] {
        let inst = wide_ni_instance(width, 0xB0B + width as u64);
        for backend in QuantumBackend::ALL {
            if width > simon_cap(backend) {
                continue;
            }
            // Dense at width 9 builds 2^19-amplitude rounds; keep the
            // criterion matrix to its cheaper widths and let the
            // summary time it once.
            if backend == QuantumBackend::Dense && width > 6 {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(backend.name(), width), &width, |b, &w| {
                b.iter(|| run_simon(black_box(&inst), backend, 0xC0FFEE + w as u64));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_simon_matrix);

/// Best-of-N wall-clock for one Simon match, adaptive: one warm-up
/// decides how many repeats fit a sensible budget on slow substrates.
fn time_simon(inst: &PromiseInstance, backend: QuantumBackend) -> f64 {
    let warm = Instant::now();
    black_box(run_simon(inst, backend, 7));
    let once = warm.elapsed().as_secs_f64();
    let reps = ((0.3 / once.max(1e-9)) as usize).clamp(1, 25);
    let mut best = once;
    for r in 0..reps {
        let start = Instant::now();
        black_box(run_simon(inst, backend, 7 + r as u64));
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Acceptance: identical fixed seeds ⇒ every backend recovers the
/// planted negation mask bit for bit, and agrees with dense exactly.
fn witness_identity_summary() {
    for width in [3usize, 5, 7, 9] {
        let inst = wide_ni_instance(width, 0x1D + width as u64);
        let dense = run_simon(&inst, QuantumBackend::Dense, 0x5EED ^ width as u64);
        assert_eq!(
            dense.witness.nu_x(),
            inst.witness.nu_x(),
            "acceptance: dense misses the planted mask at width {width}"
        );
        for backend in [QuantumBackend::Sparse, QuantumBackend::Stabilizer] {
            let got = run_simon(&inst, backend, 0x5EED ^ width as u64);
            assert_eq!(
                got.witness, dense.witness,
                "acceptance: {backend} witness diverges from dense at width {width}"
            );
        }
        println!(
            "witness identity w={width:2}: dense == sparse == stabilizer == planted \
             (mask {:#x})",
            dense.witness.nu_x().mask()
        );
    }
}

/// The README matrix: median-of-best Simon match latency per backend at
/// widths through 24. Also asserts the stabilizer completes width 20.
fn simon_matrix_summary() {
    println!("simon match latency (one job, direct matcher):");
    println!("width | dense        | sparse       | stabilizer");
    for width in [6usize, 9, 12, 16, 20, 24] {
        let inst = wide_ni_instance(width, 0xB0B + width as u64);
        let mut cells = Vec::new();
        for backend in QuantumBackend::ALL {
            if width > simon_cap(backend) {
                cells.push("      —     ".to_string());
                continue;
            }
            let secs = time_simon(&inst, backend);
            cells.push(format!("{:9.3} ms", secs * 1e3));
        }
        println!("w={width:2}  | {} | {} | {}", cells[0], cells[1], cells[2]);
        if width == 20 {
            // time_simon panics on failure, so reaching here means the
            // stabilizer solved width 20 — the dense wall is at 9.
            println!("acceptance: stabilizer completes w=20 Simon (dense caps at w=9)");
        }
    }
}

/// Acceptance floor: a Simon-only mix at widths 10–12 through the
/// service on the stabilizer must clear 5× the jobs/s of a dense-pinned
/// service over the same instances. Dense cannot register Simon past
/// width 9, so its jobs take the swap-test fallback — exactly the path
/// loadgen plans for it — and that dense swap-test wall is the baseline
/// this PR exists to break.
fn service_floor_summary() {
    for width in [10usize, 12] {
        let insts: Vec<PromiseInstance> = (0..8)
            .map(|i| wide_ni_instance(width, 0xF100 + (width * 31 + i) as u64))
            .collect();
        let throughput = |backend: QuantumBackend, algorithm: QuantumAlgorithm| -> f64 {
            let service = MatchService::start(
                ServiceConfig::default()
                    .with_shards(1)
                    .with_quantum_backend(backend),
            );
            let mut best = 0.0f64;
            for _pass in 0..2 {
                let start = Instant::now();
                let tickets: Vec<JobTicket> = insts
                    .iter()
                    .enumerate()
                    .map(|(i, inst)| {
                        let job = JobSpec::QuantumPath(QuantumPathJob {
                            equivalence: inst.equivalence,
                            c1: inst.c1.clone(),
                            c2: inst.c2.clone(),
                            algorithm,
                        });
                        service.submit_wait_seeded(job, job_seed(9, i as u64))
                    })
                    .collect();
                let reports: Vec<_> = tickets.into_iter().map(JobTicket::wait).collect();
                best = best.max(insts.len() as f64 / start.elapsed().as_secs_f64());
                for (inst, report) in insts.iter().zip(&reports) {
                    let witness = report
                        .witness
                        .as_ref()
                        .unwrap_or_else(|e| panic!("{backend} w={width}: {e}"));
                    assert_eq!(witness.nu_x(), inst.witness.nu_x(), "{backend} w={width}");
                }
            }
            service.shutdown();
            best
        };
        let stabilizer = throughput(QuantumBackend::Stabilizer, QuantumAlgorithm::Simon);
        let dense = throughput(QuantumBackend::Dense, QuantumAlgorithm::SwapTest);
        let ratio = stabilizer / dense;
        println!(
            "simon-only mix w={width}: stabilizer {stabilizer:8.0} jobs/s | \
             dense fallback {dense:8.0} jobs/s | {ratio:6.1}x"
        );
        assert!(
            ratio >= 5.0,
            "acceptance: stabilizer Simon at w={width} must clear 5x the \
             dense-path jobs/s, got {ratio:.1}x"
        );
    }
}

fn main() {
    benches();
    witness_identity_summary();
    simon_matrix_summary();
    service_floor_summary();
}
