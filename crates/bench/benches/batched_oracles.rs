//! Benchmarks for the batched oracle engine: per-probe scalar `query`
//! vs the bit-sliced kernels (`wide256` with AVX2 dispatch and its
//! portable twin) vs precompiled dense tables, plus `DenseTable::compile`
//! against the scalar compile and end-to-end `MatchService` throughput.
//!
//! Beyond the criterion groups, `main` prints speedup summaries and
//! **asserts** the kernel-layer acceptance floors in-bench: `scalar`,
//! `wide256-portable` and `wide256` outputs bit-identical always, and —
//! when the AVX2 path is what dispatch resolves to — `wide256` ≥ 17×
//! the scalar kernel per width-12 probe and the wide compile ≥ 27× the
//! scalar compile at width 16. The kernel the entry points without a
//! kernel argument dispatch to is logged (`selected kernel: …`) so CI
//! can check it is a `wide256` variant.

use std::time::Instant;

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use revmatch::{
    job_seed, random_wide_instance, ClassicalOracle, EngineJob, Equivalence, JobTicket,
    MatchService, MatcherConfig, Oracle, ServiceConfig, Side,
};
use revmatch_circuit::{
    active_kernel_name, apply_kernel, random_circuit, width_mask, DenseTable, Kernel,
    RandomCircuitSpec,
};

const PROBES: usize = 4096;

/// Width-12 floor: `wide256` ≥ this many times the scalar kernel per
/// probe (AVX2 only). At least as strict as the floor it replaces,
/// `wide256` ≥ 2× the retired single-`u64`-lane kernel: scalar ran 8.1×
/// slower than that kernel (median of six runs, 2-vCPU AVX2 VM), and
/// 2 × 8.1 rounds up to 17.
const PROBE_FLOOR_W12: f64 = 17.0;

/// Width-16 floor: the wide compile ≥ this many times the scalar
/// compile (AVX2 only). At least as strict as the floor it replaces,
/// ≥ 3× the retired single-`u64`-lane compile sweep: the scalar compile
/// ran 8.95× slower than that sweep (same six runs), and 3 × 8.95
/// rounds up to 27.
const COMPILE_FLOOR_W16: f64 = 27.0;

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

/// The kernel × width matrix: both bit-sliced kernels at widths
/// straddling the packing cutoff (≤ 32 packs).
fn bench_kernel_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("oracle_kernels");
    for &width in &[8usize, 12, 16, 20, 33] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let circuit = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
        let xs = probe_set(width, PROBES, 2);
        for kernel in [Kernel::Wide256Portable, Kernel::Wide256] {
            group.bench_with_input(BenchmarkId::new(kernel.name(), width), &width, |b, _| {
                b.iter(|| apply_kernel(&circuit, kernel, black_box(&xs)));
            });
        }
    }
    group.finish();
}

/// `DenseTable::compile`: the scalar reference compile (one cascade
/// walk per entry) against the constant-init wide sweep that
/// `DenseTable::compile` runs.
fn bench_table_compile(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_compile");
    group.sample_size(10);
    for &width in &[12usize, 16, 20] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let circuit = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
        group.bench_with_input(BenchmarkId::new("scalar", width), &width, |b, _| {
            b.iter(|| DenseTable::compile_with(black_box(&circuit), Kernel::Scalar).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("wide", width), &width, |b, _| {
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

/// Per-kernel ns/probe at one width (in [`Kernel::ALL`] order: scalar,
/// wide256-portable, wide256), with every kernel's outputs asserted
/// bit-identical to per-probe scalar `apply`.
fn kernel_row(width: usize) -> [f64; 3] {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let circuit = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
    let xs = probe_set(width, PROBES, 2);
    let expect: Vec<u64> = xs.iter().map(|&x| circuit.apply(x)).collect();
    Kernel::ALL.map(|kernel| {
        assert_eq!(
            apply_kernel(&circuit, kernel, &xs),
            expect,
            "kernel {kernel} diverged from scalar at width {width}"
        );
        best_ns_per_probe(20, PROBES, || {
            apply_kernel(&circuit, kernel, &xs)
                .iter()
                .fold(0, |a, &y| a ^ y)
        })
    })
}

/// The kernel matrix summary plus the width-12 acceptance floor
/// ([`PROBE_FLOOR_W12`]), asserted when dispatch resolves to the AVX2
/// path (the portable fallback carries no such guarantee).
fn kernel_summary() {
    println!("\n== kernel matrix ({PROBES} probes, 3·width gates, ns/probe) ==");
    println!("width |   scalar | wide256-portable |  wide256 | scalar/wide");
    for width in [8usize, 12, 16, 20, 33] {
        let [scalar, portable, wide] = kernel_row(width);
        let ratio = scalar / wide;
        println!("{width:5} | {scalar:8.2} | {portable:16.2} | {wide:8.2} | {ratio:10.2}x");
        if width == 12 && Kernel::Wide256.dispatch_name() == "wide256-avx2" {
            assert!(
                ratio >= PROBE_FLOOR_W12,
                "acceptance: wide256 must be ≥ {PROBE_FLOOR_W12}x scalar at width 12, \
                 got {ratio:.2}x"
            );
        }
    }
}

/// `DenseTable::compile` scalar-vs-wide summary plus the width-16
/// acceptance floor ([`COMPILE_FLOOR_W16`] when the AVX2 path is
/// active), with the tables asserted bit-identical to the scalar
/// compile.
fn compile_summary() {
    println!("\n== dense-table compile, scalar walk per entry vs wide sweep ==");
    for width in [12usize, 16, 20] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let circuit = random_circuit(&RandomCircuitSpec::for_width(width), &mut rng);
        let reference = DenseTable::compile_with(&circuit, Kernel::Scalar).unwrap();
        assert_eq!(
            DenseTable::compile(&circuit).unwrap(),
            reference,
            "wide compile diverged from scalar at width {width}"
        );
        let reps = 12;
        let mut scalar_best = f64::INFINITY;
        let mut wide_best = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            black_box(DenseTable::compile_with(black_box(&circuit), Kernel::Scalar).unwrap());
            scalar_best = scalar_best.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            black_box(DenseTable::compile(black_box(&circuit)).unwrap());
            wide_best = wide_best.min(start.elapsed().as_secs_f64());
        }
        let ratio = scalar_best / wide_best;
        println!(
            "width {width:2}: scalar {:9.1} µs | wide {:9.1} µs | {ratio:6.2}x",
            scalar_best * 1e6,
            wide_best * 1e6
        );
        if width == 16 && active_kernel_name() == "wide256-avx2" {
            assert!(
                ratio >= COMPILE_FLOOR_W16,
                "acceptance: the wide compile must be ≥ {COMPILE_FLOOR_W16}x the scalar \
                 compile at width 16, got {ratio:.2}x"
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

        // Raw kernel numbers (no oracle wrapper/counter) for reference.
        let raw_sliced = best_ns_per_probe(30, PROBES, || {
            circuit.apply_batch(&xs).iter().fold(0, |a, &y| a ^ y)
        });

        println!(
            "\n== speedup summary (width {width}, {PROBES} probes, {} gates) ==",
            circuit.len(),
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
