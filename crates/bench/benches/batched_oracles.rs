//! Benchmarks for the batched oracle engine: per-probe scalar `query`
//! vs the bit-sliced kernels (`sliced64`, `wide256` with AVX2 dispatch)
//! vs precompiled dense tables, plus `DenseTable::compile` old-vs-new
//! and end-to-end `MatchService` throughput.
//!
//! Beyond the criterion groups, `main` prints speedup summaries and
//! **asserts** the kernel-layer acceptance floors in-bench: every
//! kernel's outputs bit-identical to per-probe scalar evaluation
//! always, and — when the AVX2 path is what dispatch resolves to —
//! `wide256` ≥ 2× over `sliced64` on width-12 probes and the new
//! compile ≥ 3× over the old transpose-sweep at width 16. The kernel
//! the entry points without a kernel argument dispatch to is logged
//! (`selected kernel: …`) so CI can check it is a `wide256` variant.

use std::time::Instant;

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use revmatch::{
    job_seed, random_wide_instance, ClassicalOracle, EngineJob, Equivalence, JobTicket,
    MatchService, MatcherConfig, Oracle, ServiceConfig, Side,
};
use revmatch_circuit::{
    active_kernel_name, random_circuit, width_mask, BatchEvaluator, DenseTable, EvalBackend,
    Kernel, RandomCircuitSpec,
};

const PROBES: usize = 4096;

fn probe_set(width: usize, count: usize, seed: u64) -> Vec<u64> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| rng.gen::<u64>() & width_mask(width))
        .collect()
}

fn bench_eval_backends(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle_eval");
    for &width in &[12usize, 20] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let circuit = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
        let xs = probe_set(width, PROBES, 2);

        let scalar = Oracle::new(circuit.clone());
        group.bench_with_input(BenchmarkId::new("scalar_query", width), &width, |b, _| {
            b.iter(|| {
                let mut acc = 0u64;
                for &x in &xs {
                    acc ^= scalar.query(black_box(x));
                }
                acc
            });
        });

        let sliced = Oracle::new(circuit.clone());
        group.bench_with_input(
            BenchmarkId::new("batch_bitsliced", width),
            &width,
            |b, _| {
                b.iter(|| sliced.query_batch(black_box(&xs)));
            },
        );

        let dense = Oracle::precompiled(circuit.clone());
        group.bench_with_input(BenchmarkId::new("batch_dense", width), &width, |b, _| {
            b.iter(|| dense.query_batch(black_box(&xs)));
        });
    }
    group.finish();
}

/// The kernel × width matrix: every bit-sliced kernel at widths
/// straddling the packing cutoff (≤ 32 packs) and the dense-auto rule.
fn bench_kernel_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle_kernels");
    for &width in &[8usize, 12, 16, 20, 33] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let circuit = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
        let xs = probe_set(width, PROBES, 2);
        for kernel in [Kernel::Sliced64, Kernel::Wide256Portable, Kernel::Wide256] {
            let eval = BatchEvaluator::with_kernel(&circuit, kernel);
            group.bench_with_input(BenchmarkId::new(kernel.name(), width), &width, |b, _| {
                b.iter(|| eval.apply_batch(black_box(&xs)));
            });
        }
    }
    group.finish();
}

/// `DenseTable::compile` old vs new: the PR-1 transpose-sweep path
/// (`Kernel::Sliced64`) against the constant-init wide sweep that
/// `DenseTable::compile` runs.
fn bench_table_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_compile");
    group.sample_size(10);
    for &width in &[12usize, 16, 20] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let circuit = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
        group.bench_with_input(BenchmarkId::new("sweep_old", width), &width, |b, _| {
            b.iter(|| DenseTable::compile_with(black_box(&circuit), Kernel::Sliced64).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("wide_new", width), &width, |b, _| {
            b.iter(|| DenseTable::compile(black_box(&circuit)).unwrap());
        });
    }
    group.finish();
}

/// A reproducible batch of NP-I jobs over random MCT cascades (3n
/// gates), wide enough to exercise the dense-table oracle backend.
fn npi_jobs(width: usize, count: usize) -> Vec<EngineJob> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    (0..count)
        .map(|_| {
            let inst = random_wide_instance(
                Equivalence::new(Side::Np, Side::I),
                width,
                3 * width,
                &mut rng,
            );
            EngineJob::from_instance(&inst, true)
        })
        .collect()
}

/// A persistent sharded service solving the same 64 jobs and seeds per
/// iteration: the serving path every job takes.
fn bench_service_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("match_service");
    group.sample_size(10);
    let jobs = npi_jobs(16, 64);
    for &workers in &[1usize, 4] {
        let service = MatchService::start(
            ServiceConfig::default()
                .with_shards(workers)
                .with_queue_capacity(jobs.len())
                .with_matcher(MatcherConfig::default()),
        );
        group.bench_with_input(
            BenchmarkId::new("service_npi_w16_x64", workers),
            &workers,
            |b, _| {
                b.iter(|| {
                    let tickets: Vec<JobTicket> = jobs
                        .iter()
                        .enumerate()
                        .map(|(i, job)| {
                            service
                                .submit_wait_seeded(black_box(job.clone()), job_seed(7, i as u64))
                        })
                        .collect();
                    let solved = tickets
                        .into_iter()
                        .map(JobTicket::wait)
                        .filter(|r| r.witness.is_ok())
                        .count();
                    assert_eq!(solved, jobs.len());
                    solved
                });
            },
        );
        service.shutdown();
    }
    group.finish();
}

/// Times `f` over `reps` runs and returns the best ns per probe.
fn best_ns_per_probe(reps: usize, probes: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        let ns = start.elapsed().as_nanos() as f64 / probes as f64;
        best = best.min(ns);
    }
    best
}

/// Per-kernel ns/probe at one width, with bit-identity asserted against
/// per-probe scalar `apply` on every kernel.
fn kernel_row(width: usize) -> (f64, f64, f64, f64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let circuit = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
    let xs = probe_set(width, PROBES, 2);
    let expect: Vec<u64> = xs.iter().map(|&x| circuit.apply(x)).collect();
    let mut ns = [0.0f64; 4];
    for (slot, kernel) in ns.iter_mut().zip(Kernel::ALL) {
        let eval = BatchEvaluator::with_kernel(&circuit, kernel);
        assert_eq!(
            eval.apply_batch(&xs),
            expect,
            "kernel {kernel} diverged from scalar at width {width}"
        );
        *slot = best_ns_per_probe(20, PROBES, || {
            eval.apply_batch(&xs).iter().fold(0, |a, &y| a ^ y)
        });
    }
    let [scalar, sliced64, portable, wide] = ns;
    (scalar, sliced64, portable, wide)
}

/// The kernel matrix summary plus the width-12 acceptance floor:
/// `wide256` ≥ 2× over `sliced64`, asserted when dispatch resolves to
/// the AVX2 path (the portable fallback carries no such guarantee).
fn kernel_summary() {
    println!("\n== kernel matrix ({PROBES} probes, 3·width gates, ns/probe) ==");
    println!("width |   scalar | sliced64 | wide256-portable |  wide256 | wide/sliced");
    for width in [8usize, 12, 16, 20, 33] {
        let (scalar, sliced64, portable, wide) = kernel_row(width);
        let ratio = sliced64 / wide;
        println!(
            "{width:5} | {scalar:8.2} | {sliced64:8.2} | {portable:16.2} | {wide:8.2} | {ratio:10.2}x"
        );
        if width == 12 && Kernel::Wide256.dispatch_name() == "wide256-avx2" {
            assert!(
                ratio >= 2.0,
                "acceptance: wide256 must be ≥ 2x sliced64 at width 12, got {ratio:.2}x"
            );
        }
    }
}

/// `DenseTable::compile` old-vs-new summary plus the width-16
/// acceptance floor (≥ 3× when the AVX2 path is active), with the
/// tables asserted bit-identical to the scalar compile.
fn compile_summary() {
    println!("\n== dense-table compile, old transpose-sweep vs new wide sweep ==");
    for width in [12usize, 16, 20] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let circuit = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
        let reference = DenseTable::compile_with(&circuit, Kernel::Scalar).unwrap();
        assert_eq!(
            DenseTable::compile(&circuit).unwrap(),
            reference,
            "new compile diverged from scalar at width {width}"
        );
        let reps = 12;
        let mut old_best = f64::INFINITY;
        let mut new_best = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            black_box(DenseTable::compile_with(black_box(&circuit), Kernel::Sliced64).unwrap());
            old_best = old_best.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            black_box(DenseTable::compile(black_box(&circuit)).unwrap());
            new_best = new_best.min(start.elapsed().as_secs_f64());
        }
        let ratio = old_best / new_best;
        println!(
            "width {width:2}: old {:9.1} µs | new {:9.1} µs | {ratio:5.2}x",
            old_best * 1e6,
            new_best * 1e6
        );
        if width == 16 && active_kernel_name() == "wide256-avx2" {
            assert!(
                ratio >= 3.0,
                "acceptance: new compile must be ≥ 3x the old sweep at width 16, got {ratio:.2}x"
            );
        }
    }
}

fn speedup_summary() {
    for width in [12usize, 20] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let circuit = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
        let xs = probe_set(width, PROBES, 2);

        // Oracle-level comparison: per-probe `query` vs one `query_batch`
        // per round, with identical query accounting on all three paths.
        let scalar_oracle = Oracle::new(circuit.clone());
        let scalar = best_ns_per_probe(30, PROBES, || {
            let mut acc = 0u64;
            for &x in &xs {
                acc ^= scalar_oracle.query(x);
            }
            acc
        });
        let sliced_oracle = Oracle::new(circuit.clone());
        let sliced = best_ns_per_probe(30, PROBES, || {
            sliced_oracle.query_batch(&xs).iter().fold(0, |a, &y| a ^ y)
        });
        let dense_oracle = Oracle::precompiled(circuit.clone());
        let dense = best_ns_per_probe(30, PROBES, || {
            dense_oracle.query_batch(&xs).iter().fold(0, |a, &y| a ^ y)
        });

        // Raw evaluator numbers (no oracle wrapper/counter) for reference.
        let sliced_eval = BatchEvaluator::with_backend(&circuit, EvalBackend::BitSliced).unwrap();
        let raw_sliced = best_ns_per_probe(30, PROBES, || {
            sliced_eval.apply_batch(&xs).iter().fold(0, |a, &y| a ^ y)
        });
        let auto = BatchEvaluator::compile(&circuit);

        println!(
            "\n== speedup summary (width {width}, {PROBES} probes, {} gates, auto backend {:?}) ==",
            circuit.len(),
            auto.backend(),
        );
        println!("scalar oracle query      : {scalar:8.2} ns/probe   1.00x");
        println!(
            "batched     query_batch  : {sliced:8.2} ns/probe   {:5.2}x  (raw kernel {raw_sliced:.2} ns)",
            scalar / sliced
        );
        println!(
            "dense-table query_batch  : {dense:8.2} ns/probe   {:5.2}x",
            scalar / dense
        );
    }

    // Two job shapes: heavy jobs (width 16, dense-table compile
    // dominated) and light jobs (width 6), where submit, hand-off and
    // ticket wake-ups are a real fraction of the work.
    for (label, jobs) in [
        ("npi w16 ×64", npi_jobs(16, 64)),
        ("npi w6 ×256", npi_jobs(6, 256)),
    ] {
        println!();
        service_throughput(label, &jobs);
    }
}

/// Best-of-five throughput of a persistent sharded service over the same
/// jobs and per-job seeds.
fn service_throughput(label: &str, jobs: &[EngineJob]) {
    for workers in [1usize, 4] {
        let service = MatchService::start(
            ServiceConfig::default()
                .with_shards(workers)
                .with_queue_capacity(jobs.len())
                .with_matcher(MatcherConfig::default()),
        );
        let mut service_best = 0.0f64;
        let mut queries = 0;
        for _ in 0..5 {
            let start = Instant::now();
            let tickets: Vec<JobTicket> = jobs
                .iter()
                .enumerate()
                .map(|(i, job)| service.submit_wait_seeded(job.clone(), job_seed(7, i as u64)))
                .collect();
            let reports: Vec<_> = tickets.into_iter().map(JobTicket::wait).collect();
            let ips = jobs.len() as f64 / start.elapsed().as_secs_f64();
            service_best = service_best.max(ips);
            assert!(
                reports.iter().all(|r| r.witness.is_ok()),
                "{label}: unsolved job"
            );
            queries = reports.iter().map(|r| r.queries).sum::<u64>();
        }
        service.shutdown();

        println!(
            "service {label}, {workers} worker{}: {service_best:7.0} inst/s | \
             {queries} queries",
            if workers == 1 { "" } else { "s" },
        );
    }
}

criterion_group!(
    benches,
    bench_eval_backends,
    bench_kernel_matrix,
    bench_table_compile,
    bench_service_throughput
);

fn main() {
    // The CI smoke greps this line for the auto-dispatched kernel.
    println!("selected kernel: {}", active_kernel_name());
    benches();
    kernel_summary();
    compile_summary();
    speedup_summary();
}
