//! Open-loop load generator for the serving layer.
//!
//! Drives a [`MatchService`] the way production traffic would: jobs
//! arrive on a fixed schedule (`--rate` per second) regardless of how
//! fast the service drains them — the open-loop discipline that exposes
//! real queueing behaviour. Arrivals hitting a full intake are **dropped
//! and counted** (`QueueFull`), never retried, so the rejection rate is
//! the backpressure signal.
//!
//! The traffic is a cycle over `--widths` × `--mix` promised instances,
//! pre-generated deterministically from `--seed`, fanned across the
//! `--job-mix` scenario families (colon-separated `JobSpec` kinds;
//! repeat a kind to weight it):
//!
//! * `promise` — recover the planted witness (add `--sat-verify 1` to
//!   prove each one by a CDCL miter);
//! * `identify` — feed the pair *without* its promise and walk the
//!   lattice for the minimal class (brute force off to stay
//!   polynomial);
//! * `quantum` — inverse-free N-I jobs on the quantum path
//!   (Simon-style sampling where `2n+1` simulated qubits fit, swap-test
//!   Algorithm 1 beyond);
//! * `sat` — complete white-box verdicts on the planted witness;
//! * `enumerate` — sweep the whole N-I negation-mask family of the
//!   pair on one incremental-assumption solver, counting *all*
//!   witnesses (per-shard solver-cache reuse makes repeats warm).
//!
//! At the end the generator drains the service, prints a per-kind
//! latency table (p50/p90/p99/max), steal/shard accounting, a
//! latency/throughput summary plus the full Prometheus metrics export,
//! and verifies that every accepted job completed with no failures.
//!
//! With `--trace out.json` the service records lifecycle spans
//! (`submit → queue_wait → dequeue → execute → report`, with
//! `cache_probe` and `table_compile` nested in `execute`) and the
//! generator writes them as Chrome
//! trace-event JSON — load the file in `chrome://tracing` or
//! <https://ui.perfetto.dev> — plus a top-K slowest-jobs table with
//! per-stage attribution. `--trace-sample N` traces every N-th job
//! (default 1 = all) to bound overhead at high rates.
//!
//! With `--connect HOST:PORT` the jobs go over the wire to a running
//! `revmatch-server`, which owns its configuration: the flags that
//! configure the in-process service are usage errors there.
//!
//! Run with: `cargo run --release -p revmatch-bench --bin loadgen -- \
//!   --rate 500 --duration-ms 2000 --shards 4 --queue-capacity 64 \
//!   --job-mix promise:identify:quantum:sat --trace trace.json`

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use revmatch::{
    chrome_trace_json, random_instance, read_server_frame, slowest_jobs, write_client_frame,
    AdmissionConfig, ClientFrame, EngineJob, EnumerateJob, Equivalence, IdentifyJob, JobKind,
    JobSpec, MatchError, MatchService, MatcherConfig, QuantumAlgorithm, QuantumPathJob,
    SatEquivalenceJob, ServerFrame, ServiceConfig, Side, Stage, SubmitOutcome, TraceConfig,
    WitnessFamily,
};
use revmatch_bench::{service_flags, Flags};
use revmatch_quantum::QuantumBackend;
use revmatch_sat::SatOptions;

use rand::SeedableRng;

const USAGE: &str = "usage: loadgen [--rate JOBS_PER_SEC] [--duration-ms MS] \
[--shards N] [--queue-capacity N] [--widths CSV] [--mix CSV_EQUIVALENCES] \
[--job-mix KIND[:KIND...]] [--seed N] [--epsilon F] [--sat-verify 0|1] \
[--sat-opts lbd,xor|all|none] \
[--quantum-backend dense|sparse|stabilizer] [--trace OUT.json] [--trace-sample N] \
[--admission 0|1] [--overload-us N] [--expensive-us N] \
[--connect HOST:PORT] [--connections N]";

const KNOWN_FLAGS: [&str; 19] = [
    "rate",
    "duration-ms",
    "shards",
    "queue-capacity",
    "widths",
    "mix",
    "job-mix",
    "seed",
    "epsilon",
    "sat-verify",
    "sat-opts",
    "quantum-backend",
    "trace",
    "trace-sample",
    "admission",
    "overload-us",
    "expensive-us",
    "connect",
    "connections",
];

/// Flags that configure the in-process service: usage errors under
/// `--connect`, where the server owns its configuration.
const IN_PROCESS_FLAGS: [&str; 10] = [
    "shards",
    "queue-capacity",
    "epsilon",
    "sat-opts",
    "quantum-backend",
    "trace",
    "trace-sample",
    "admission",
    "overload-us",
    "expensive-us",
];

/// Prints a usage diagnostic and exits nonzero (malformed flag values
/// are user errors, not panics).
fn usage_error(message: &str) -> ! {
    eprintln!("loadgen: error: {message}\n{USAGE}");
    std::process::exit(2);
}

/// Pre-generated jobs per (width, equivalence, kind-entry) cell of the
/// mix. Every `--job-mix` entry gets its own cells, so repeated kinds
/// weight the traffic and no requested kind can be starved.
const POOL_PER_CELL: usize = 4;

/// Builds one job of `kind` from a fresh planted instance.
fn job_for_kind(
    kind: JobKind,
    width: usize,
    equivalence: Equivalence,
    sat_verify: bool,
    qbackend: Option<QuantumBackend>,
    rng: &mut rand::rngs::StdRng,
) -> JobSpec {
    match kind {
        JobKind::Promise => {
            let inst = random_instance(equivalence, width, rng);
            let job = EngineJob::from_instance(&inst, true);
            JobSpec::Promise(if sat_verify {
                job.with_sat_verification()
            } else {
                job
            })
        }
        // The walk gets the pair without its promise; brute force stays
        // off so hard-class probing cannot stall a shard.
        JobKind::Identify => {
            let inst = random_instance(equivalence, width, rng);
            JobSpec::Identify(IdentifyJob::new(inst.c1, inst.c2).without_brute_force())
        }
        // Quantum-path jobs run the classically-exponential N-I case:
        // Simon-style sampling while the *planned* simulation backend
        // (pinned via --quantum-backend, stabilizer under auto policy)
        // can hold the round, swap-test Algorithm 1 beyond — so a
        // pinned narrow backend degrades to the wider algorithm instead
        // of submitting jobs that can only fail.
        JobKind::Quantum => {
            let e = Equivalence::new(Side::N, Side::I);
            // Wide instances (past the dense-table ceiling) come from a
            // bounded MCT cascade: a synthesized uniform function would
            // make both pool generation and oracle evaluation quadratic
            // in the truth table.
            let inst = if 2 * width < revmatch_quantum::MAX_QUBITS {
                random_instance(e, width, rng)
            } else {
                revmatch::random_wide_instance(e, width, 4 * width, rng)
            };
            let simon_cap = match qbackend {
                Some(QuantumBackend::Dense) => (revmatch_quantum::MAX_QUBITS - 1) / 2,
                Some(QuantumBackend::Sparse) => {
                    revmatch_quantum::SPARSE_MAX_ENTRIES.ilog2() as usize - 1
                }
                // Auto resolves Simon to the stabilizer tableau; 31 keeps
                // the sampled x₀ comfortably inside a u64 word.
                None | Some(QuantumBackend::Stabilizer) => 31,
            };
            let algorithm = if width <= simon_cap {
                QuantumAlgorithm::Simon
            } else {
                QuantumAlgorithm::SwapTest
            };
            JobSpec::QuantumPath(QuantumPathJob {
                equivalence: e,
                c1: inst.c1,
                c2: inst.c2,
                algorithm,
            })
        }
        JobKind::Sat => {
            let inst = random_instance(equivalence, width, rng);
            JobSpec::SatEquivalence(SatEquivalenceJob {
                c1: inst.c1,
                c2: inst.c2,
                witness: Some(inst.witness),
            })
        }
        // Enumeration jobs sweep the full N-I mask family of a planted
        // pair on the shared incremental solver (2^width candidates per
        // job; the cyclic pool makes the per-shard solver cache hit).
        JobKind::Enumerate => {
            let e = Equivalence::new(Side::N, Side::I);
            let inst = random_instance(e, width, rng);
            JobSpec::Enumerate(EnumerateJob::new(
                inst.c1,
                inst.c2,
                WitnessFamily::InputNegation,
            ))
        }
    }
}

fn build_pool(
    widths: &[usize],
    mix: &[Equivalence],
    kinds: &[JobKind],
    seed: u64,
    sat_verify: bool,
    qbackend: Option<QuantumBackend>,
) -> Vec<JobSpec> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut pool = Vec::new();
    for &w in widths {
        for &e in mix {
            for &kind in kinds {
                for _ in 0..POOL_PER_CELL {
                    pool.push(job_for_kind(kind, w, e, sat_verify, qbackend, &mut rng));
                }
            }
        }
    }
    pool
}

fn main() {
    let flags = Flags::parse(&KNOWN_FLAGS, USAGE);
    if let Some(flag) = IN_PROCESS_FLAGS.into_iter().find(|&f| flags.has(f)) {
        if flags.has("connect") {
            usage_error(&format!(
                "--{flag} configures the in-process service; under --connect the server owns it"
            ));
        }
    }
    let rate = flags.get_f64("rate", 500.0);
    if rate.is_nan() || rate <= 0.0 {
        usage_error("--rate must be positive");
    }
    let duration = Duration::from_millis(flags.get_u64("duration-ms", 2000));
    let (shards, capacity) = service_flags(&flags);
    let seed = flags.get_u64("seed", 0x10AD);
    let epsilon = flags.get_f64("epsilon", 1e-6);
    let sat_verify = flags.get_u64("sat-verify", 0) != 0;
    // --trace OUT.json turns span recording on; --trace-sample N keeps
    // every N-th job (1 = all). Without --trace tracing stays off.
    let trace_path = flags.get_str("trace", "");
    let trace_sample = flags.get_u64("trace-sample", 1);
    if trace_sample == 0 {
        usage_error("--trace-sample must be positive");
    }
    let trace_config = if trace_path.is_empty() {
        TraceConfig::off()
    } else {
        TraceConfig::sampled(trace_sample)
    };
    // Malformed, zero, or empty entries in the traffic-shape flags are
    // hard usage errors: a silently-skipped width or kind would change
    // the offered mix without any signal.
    let widths: Vec<usize> = flags
        .get_str("widths", "5,6")
        .split(',')
        .map(|s| {
            let w: usize = s
                .trim()
                .parse()
                .unwrap_or_else(|_| usage_error(&format!("--widths: bad width {:?}", s.trim())));
            if w == 0 {
                usage_error("--widths: width 0 carries no jobs");
            }
            w
        })
        .collect();
    if widths.is_empty() {
        usage_error("--widths: at least one width is required");
    }
    let mix: Vec<Equivalence> = flags
        .get_str("mix", "NP-I,I-P,P-N")
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .unwrap_or_else(|_| usage_error(&format!("--mix: bad equivalence {:?}", s.trim())))
        })
        .collect();
    if mix.is_empty() {
        usage_error("--mix: at least one equivalence is required");
    }
    let kinds: Vec<JobKind> = flags
        .get_str("job-mix", "promise")
        .split(':')
        .map(|s| {
            s.trim().parse().unwrap_or_else(|_| {
                usage_error(&format!(
                    "--job-mix: unknown kind {:?} (expected promise|identify|quantum|sat|enumerate)",
                    s.trim()
                ))
            })
        })
        .collect();
    if kinds.is_empty() {
        usage_error("--job-mix: at least one kind is required");
    }
    let admission = flags.get_u64("admission", 0) != 0;
    let overload_us = flags.get_u64("overload-us", 0);
    let expensive_us = flags.get_u64("expensive-us", 0);
    if !admission && (overload_us != 0 || expensive_us != 0) {
        usage_error("--overload-us/--expensive-us require --admission 1");
    }
    let connect = flags.get_str("connect", "");
    let connections = flags.get_u64("connections", 4) as usize;
    if connections == 0 {
        usage_error("--connections must be at least 1");
    }
    // The CDCL feature set every worker-cached solver runs with, and
    // the quantum backend pin (unpinned, the per-algorithm auto policy
    // applies: stabilizer for Simon, sparse for swap tests).
    let sat_opts: SatOptions = flags
        .get_str("sat-opts", "all")
        .parse()
        .unwrap_or_else(|_| usage_error("--sat-opts: expected lbd,xor, all or none"));
    let qbackend: Option<QuantumBackend> = match flags.get_str("quantum-backend", "").as_str() {
        "" => None,
        name => Some(name.parse().unwrap_or_else(|_| {
            usage_error("--quantum-backend: expected dense|sparse|stabilizer")
        })),
    };
    let qbackend_name = qbackend.map_or("auto", QuantumBackend::name);

    let pool = build_pool(&widths, &mix, &kinds, seed, sat_verify, qbackend);
    // Settings are echoed only when they describe the service this run
    // drives: under --connect the server owns them.
    let target = if connect.is_empty() {
        println!("sat opts: {sat_opts}");
        println!("oracle kernel: {}", revmatch_circuit::active_kernel_name());
        println!("quantum backend: {qbackend_name}");
        format!("over {shards} shards (lane capacity {capacity})")
    } else {
        format!("to {connect}")
    };
    println!(
        "loadgen: {rate} jobs/s for {duration:?} {target}; \
         pool of {} jobs ({:?} × {:?} × [{}]){}",
        pool.len(),
        widths,
        mix.iter().map(ToString::to_string).collect::<Vec<_>>(),
        kinds
            .iter()
            .map(|k| k.as_str())
            .collect::<Vec<_>>()
            .join(":"),
        if sat_verify {
            "; promise jobs SAT-verified"
        } else {
            ""
        },
    );

    // Client mode: same open-loop discipline, but the jobs travel the
    // wire to a running revmatch-server instead of an in-process
    // service.
    if !connect.is_empty() {
        run_connect_mode(&connect, connections, rate, duration, &pool);
        return;
    }

    let mut service_config = ServiceConfig::default()
        .with_shards(shards)
        .with_queue_capacity(capacity)
        .with_matcher(MatcherConfig::with_epsilon(epsilon))
        .with_sat_opts(sat_opts)
        .with_seed(seed)
        .with_trace(trace_config);
    if let Some(b) = qbackend {
        service_config = service_config.with_quantum_backend(b);
    }
    if admission {
        let mut a = AdmissionConfig::default();
        if overload_us != 0 {
            a = a.with_overload_us(overload_us);
        }
        if expensive_us != 0 {
            a = a.with_expensive_us(expensive_us);
        }
        service_config = service_config.with_admission(a);
    }
    let service = MatchService::start(service_config);

    // Open loop: arrival i is due at start + i/rate, slept to — never
    // gated on service progress.
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let mut next_arrival = start;
    let mut offered = 0u64;
    while start.elapsed() < duration {
        let now = Instant::now();
        if now < next_arrival {
            std::thread::sleep(next_arrival - now);
        }
        next_arrival += interval;
        let job = pool[offered as usize % pool.len()].clone();
        offered += 1;
        match service.submit(job) {
            SubmitOutcome::Enqueued(ticket) => drop(ticket), // streamed elsewhere
            SubmitOutcome::QueueFull(_) => {}                // open loop: drop it
            SubmitOutcome::Shed(_) => {}                     // admission shed it; counted below
        }
    }
    let offered_elapsed = start.elapsed();
    service.drain();
    let drained_elapsed = start.elapsed();

    let m = service.metrics();
    let accepted = m.jobs_submitted();
    let rejected = m.jobs_rejected();
    let shed = m.jobs_shed();
    let completed = m.jobs_completed();
    assert_eq!(
        offered,
        accepted + rejected + shed,
        "every arrival is accounted"
    );
    assert_eq!(completed, accepted, "drain completed every accepted job");
    assert_eq!(
        m.jobs_failed(),
        0,
        "planted instances must all solve (and no witness may be refuted)"
    );
    let mut by_kind = String::new();
    for kind in JobKind::ALL {
        let done = m.jobs_completed_of(kind);
        if kinds.contains(&kind) {
            assert!(
                done > 0 || completed == 0,
                "requested kind {kind} never completed a job"
            );
        }
        if done > 0 {
            by_kind.push_str(&format!(" {kind}={done}"));
        }
    }
    println!("per-kind completions:{by_kind}");
    if kinds.contains(&JobKind::Quantum) {
        let mut by_backend = String::new();
        for backend in QuantumBackend::ALL {
            let dispatched = m.quantum_jobs_of_backend(backend);
            if dispatched > 0 {
                by_backend.push_str(&format!(" {backend}={dispatched}"));
            }
        }
        println!("quantum dispatch [{qbackend_name}]:{by_backend}");
    }
    if kinds.contains(&JobKind::Enumerate) {
        let done = m.jobs_completed_of(JobKind::Enumerate);
        assert!(
            done == 0 || m.enumerated_witnesses() >= done,
            "every planted enumeration job finds at least its planted witness"
        );
        println!(
            "enumerate: {} jobs found {} family witnesses | {} solver cache hits",
            done,
            m.enumerated_witnesses(),
            m.solver_cache_hits(),
        );
    }
    if sat_verify {
        assert_eq!(
            m.jobs_sat_verified(),
            m.jobs_completed_of(JobKind::Promise) + m.jobs_completed_of(JobKind::Sat),
            "every promise job (and sat job) must carry a SAT verdict"
        );
        println!(
            "sat-verify: {} verdicts ({} unknown) | caches: {} solver hits, {} table hits",
            m.jobs_sat_verified(),
            m.sat_unknown(),
            m.solver_cache_hits(),
            m.table_cache_hits(),
        );
    }

    // SAT-core introspection: whenever a CDCL solver ran (verification,
    // direct sat jobs, or enumeration sweeps), report the feature set
    // and what the options did. Mirrors the revmatch_sat_* metrics.
    if m.jobs_sat_verified() > 0 || m.jobs_completed_of(JobKind::Enumerate) > 0 {
        println!(
            "sat core [{sat_opts}]: glue kept {} | learned db {} | xors extracted {}",
            m.sat_glue_kept(),
            m.sat_learned_db_size(),
            m.sat_xors_extracted(),
        );
    }

    let p = |q: f64| match m.latency().quantile_upper_bound(q) {
        Some(us) => format!("≤{:.1}ms", us as f64 / 1000.0),
        None => "n/a".to_owned(),
    };
    println!(
        "\noffered {offered} ({:.0}/s) | accepted {accepted} | rejected {rejected} \
         ({:.1}% backpressure) | shed {shed}",
        offered as f64 / offered_elapsed.as_secs_f64(),
        100.0 * rejected as f64 / offered as f64,
    );
    if admission {
        println!(
            "admission: shed {} | requeued {} | backlog {}µs at drain",
            m.jobs_shed(),
            m.jobs_requeued(),
            service.admission_backlog_us(),
        );
    }
    // Machine-readable summary for CI smokes: one RESULT line, one
    // KINDLAT line per requested kind (quantiles in µs, bucket upper
    // bounds).
    println!(
        "RESULT mode=local offered={offered} accepted={accepted} rejected={rejected} \
         shed={shed} requeued={} completed={completed} throughput_jps={:.1}",
        m.jobs_requeued(),
        completed as f64 / drained_elapsed.as_secs_f64(),
    );
    for kind in JobKind::ALL {
        let h = m.latency_of(kind);
        if let Some(q) = h.summary(&[0.5, 0.99]) {
            println!(
                "KINDLAT kind={} count={} p50_us={} p99_us={} max_us={}",
                kind.as_str(),
                h.count(),
                q[0],
                q[1],
                h.max(),
            );
        }
    }
    println!(
        "completed {completed} in {:.2}s ({:.0}/s) | {} oracle queries | \
         latency mean {:.1}ms p50 {} p99 {}",
        drained_elapsed.as_secs_f64(),
        completed as f64 / drained_elapsed.as_secs_f64(),
        m.oracle_queries(),
        m.latency().sum() as f64 / m.latency().count().max(1) as f64 / 1000.0,
        p(0.50),
        p(0.99),
    );
    // Warm-up cost: the dense-table compiles this run's probes bought
    // (a cache miss compiles only once its probes pay for the table),
    // on the kernel reported above.
    let tc = m.table_compile();
    let tc_p99 = match tc.quantile_upper_bound(0.99) {
        Some(us) => format!("≤{us}µs"),
        None => "n/a".to_owned(),
    };
    println!(
        "table compiles: {} cold, {:.2}ms total, p99 {tc_p99} | {} table cache hits",
        tc.count(),
        tc.sum() as f64 / 1000.0,
        m.table_cache_hits(),
    );

    // Per-kind accept→completion latency from the kind-labelled
    // histograms: bucket upper bounds for the quantiles (capped at the
    // observed max), the max exact.
    println!("\nper-kind latency (accept→completion):");
    println!(
        "  {:<10} {:>7} {:>10} {:>10} {:>10} {:>10}",
        "kind", "count", "p50", "p90", "p99", "max"
    );
    for kind in JobKind::ALL {
        let h = m.latency_of(kind);
        let Some(q) = h.summary(&[0.5, 0.9, 0.99]) else {
            continue;
        };
        let ms = |us: u64| format!("{:.2}ms", us as f64 / 1000.0);
        println!(
            "  {:<10} {:>7} {:>10} {:>10} {:>10} {:>10}",
            kind.as_str(),
            h.count(),
            format!("≤{}", ms(q[0])),
            format!("≤{}", ms(q[1])),
            format!("≤{}", ms(q[2])),
            ms(h.max()),
        );
    }

    // Shard-level execution accounting: jobs each worker ran, how many
    // it stole from other lanes (and lost to thieves), and the split of
    // its wall time between executing and waiting for work.
    println!("\nper-shard execution:");
    println!(
        "  {:<6} {:>7} {:>7} {:>7} {:>10} {:>10}",
        "shard", "jobs", "stole", "lost", "busy", "idle"
    );
    let mut steals_total = 0u64;
    for s in 0..m.shards() {
        steals_total += m.shard_steals(s);
        println!(
            "  {:<6} {:>7} {:>7} {:>7} {:>9.2}s {:>9.2}s",
            s,
            m.shard_jobs_executed(s),
            m.shard_steals(s),
            m.shard_stolen_from(s),
            m.shard_busy_micros(s) as f64 / 1e6,
            m.shard_idle_micros(s) as f64 / 1e6,
        );
    }
    println!("  steals total: {steals_total}");

    // Trace drain: write the Chrome trace-event JSON and attribute the
    // slowest traced jobs stage by stage.
    if let Some(tracer) = service.tracer() {
        let spans = service.trace_spans();
        let json = chrome_trace_json(&spans, m.shards());
        std::fs::write(&trace_path, &json).expect("--trace: cannot write trace file");
        println!(
            "\ntrace: {} spans ({} overwritten in ring) → {trace_path} \
             [sample 1/{}; load in chrome://tracing or ui.perfetto.dev]",
            spans.len(),
            tracer.dropped(),
            tracer.sample(),
        );
        let worst = slowest_jobs(&spans, 5);
        if !worst.is_empty() {
            print!(
                "top {} slowest traced jobs:\n  {:<8} {:<10} {:>10}",
                worst.len(),
                "job",
                "kind",
                "total"
            );
            for stage in Stage::ALL {
                if stage != Stage::Submit {
                    print!(" {:>13}", stage.as_str());
                }
            }
            println!();
            for b in &worst {
                print!(
                    "  {:<8} {:<10} {:>9.2}ms",
                    b.job,
                    b.kind.as_str(),
                    b.total_us as f64 / 1000.0
                );
                for stage in Stage::ALL {
                    if stage != Stage::Submit {
                        print!(" {:>11.2}ms", b.stage(stage) as f64 / 1000.0);
                    }
                }
                println!();
            }
        }
    }

    println!("\n--- metrics export ---");
    print!("{}", service.metrics_text());
    service.shutdown();
}

/// One completed wire round-trip, as seen by a connection's reader.
struct WireReply {
    client_id: u64,
    shed: bool,
    failed: bool,
    received_at: Instant,
}

/// What one connection observed end to end.
struct ConnOutcome {
    offered: u64,
    replies: Vec<WireReply>,
    sent_at: Vec<Instant>,
    kinds: Vec<JobKind>,
    metrics_text: Option<String>,
}

/// Drives a remote `revmatch-server` over `--connections` sockets with
/// the same open-loop schedule as in-process mode: arrival `i` is due at
/// `start + i/rate` and goes out on connection `i % connections`. Every
/// submit gets exactly one report back (admission sheds resolve to an
/// `Err(Overloaded)` report), so `offered == completed + shed` holds by
/// protocol; the function asserts it and prints the same RESULT/KINDLAT
/// machine lines as local mode.
fn run_connect_mode(
    addr: &str,
    connections: usize,
    rate: f64,
    duration: Duration,
    pool: &[JobSpec],
) {
    println!("loadgen: connecting {connections} streams to {addr}");
    let interval = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now();
    let mut workers = Vec::new();
    for conn in 0..connections {
        let addr = addr.to_string();
        let pool: Vec<JobSpec> = pool.to_vec();
        workers.push(std::thread::spawn(move || -> ConnOutcome {
            let stream = TcpStream::connect(&addr)
                .unwrap_or_else(|e| usage_error(&format!("--connect {addr}: {e}")));
            stream.set_nodelay(true).ok();
            let read_half = stream.try_clone().expect("clone stream");
            let reader_addr = addr.clone();
            let reader = std::thread::spawn(move || {
                let mut input = BufReader::new(read_half);
                let mut replies = Vec::new();
                let mut metrics_text = None;
                loop {
                    match read_server_frame(&mut input) {
                        Ok(Some(ServerFrame::Report { client_id, report })) => {
                            replies.push(WireReply {
                                client_id,
                                shed: matches!(report.witness, Err(MatchError::Overloaded)),
                                failed: report.witness.is_err()
                                    && !matches!(report.witness, Err(MatchError::Overloaded)),
                                received_at: Instant::now(),
                            });
                        }
                        Ok(Some(ServerFrame::MetricsText(text))) => metrics_text = Some(text),
                        Ok(None) => break,
                        Err(e) => {
                            eprintln!("loadgen: {reader_addr}: protocol error: {e}");
                            break;
                        }
                    }
                }
                (replies, metrics_text)
            });

            // Open loop over this connection's share of the schedule:
            // arrival i goes out at start + i*interval for
            // i ≡ conn (mod connections).
            let mut out = BufWriter::new(stream.try_clone().expect("clone stream"));
            let mut offered = 0u64;
            let mut sent_at = Vec::new();
            let mut kinds = Vec::new();
            let mut i = conn as u64;
            loop {
                let due = start + interval.mul_f64(i as f64);
                let now = Instant::now();
                if now.duration_since(start) >= duration {
                    break;
                }
                if due > now {
                    std::thread::sleep(due - now);
                }
                let job = pool[i as usize % pool.len()].clone();
                kinds.push(job.kind());
                let frame = ClientFrame::Submit {
                    client_id: offered,
                    seed: None,
                    job,
                };
                sent_at.push(Instant::now());
                if write_client_frame(&mut out, &frame)
                    .and_then(|()| out.flush())
                    .is_err()
                {
                    eprintln!("loadgen: {addr}: write failed, stopping this connection");
                    break;
                }
                offered += 1;
                i += connections as u64;
            }
            // Connection 0 also grabs one metrics snapshot before the
            // half-close, so the run can assert on server counters.
            if conn == 0 {
                let _ = write_client_frame(&mut out, &ClientFrame::MetricsRequest)
                    .and_then(|()| out.flush());
            }
            // Half-close: the server reader sees EOF, finishes every
            // accepted job, flushes the reports, then closes its side.
            let _ = out.flush();
            drop(out);
            let _ = stream.shutdown(Shutdown::Write);
            let (replies, metrics_text) = reader.join().expect("reader thread");
            ConnOutcome {
                offered,
                replies,
                sent_at,
                kinds,
                metrics_text,
            }
        }));
    }

    let outcomes: Vec<ConnOutcome> = workers
        .into_iter()
        .map(|w| w.join().expect("connection thread"))
        .collect();
    let elapsed = start.elapsed();

    let offered: u64 = outcomes.iter().map(|o| o.offered).sum();
    let replies: u64 = outcomes.iter().map(|o| o.replies.len() as u64).sum();
    let shed: u64 = outcomes
        .iter()
        .map(|o| o.replies.iter().filter(|r| r.shed).count() as u64)
        .sum();
    let failed: u64 = outcomes
        .iter()
        .map(|o| o.replies.iter().filter(|r| r.failed).count() as u64)
        .sum();
    let completed = replies - shed;
    assert_eq!(
        offered, replies,
        "every submitted job must come back as exactly one report"
    );

    // Client-observed submit→report latency per kind (exact, not
    // bucketed: the client holds both timestamps).
    let mut latencies: HashMap<JobKind, Vec<u64>> = HashMap::new();
    for o in &outcomes {
        for r in &o.replies {
            if r.shed {
                continue;
            }
            let idx = r.client_id as usize;
            let us = r
                .received_at
                .saturating_duration_since(o.sent_at[idx])
                .as_micros() as u64;
            latencies.entry(o.kinds[idx]).or_default().push(us);
        }
    }

    println!(
        "\noffered {offered} over {connections} connections in {:.2}s | \
         completed {completed} | shed {shed} | failed {failed}",
        elapsed.as_secs_f64(),
    );
    println!(
        "RESULT mode=connect offered={offered} completed={completed} shed={shed} \
         failed={failed} throughput_jps={:.1}",
        completed as f64 / elapsed.as_secs_f64(),
    );
    let quantile = |sorted: &[u64], q: f64| -> u64 {
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx]
    };
    for kind in JobKind::ALL {
        let Some(samples) = latencies.get_mut(&kind) else {
            continue;
        };
        samples.sort_unstable();
        println!(
            "KINDLAT kind={} count={} p50_us={} p99_us={} max_us={}",
            kind.as_str(),
            samples.len(),
            quantile(samples, 0.5),
            quantile(samples, 0.99),
            samples[samples.len() - 1],
        );
    }
    if let Some(text) = outcomes.iter().find_map(|o| o.metrics_text.as_deref()) {
        println!("\n--- server metrics (admission & totals) ---");
        for line in text.lines().filter(|l| {
            !l.starts_with('#')
                && (l.contains("revmatch_admission")
                    || l.contains("revmatch_jobs_submitted_total")
                    || l.contains("revmatch_jobs_completed_total")
                    || l.contains("revmatch_workers_lost_total"))
        }) {
            println!("{line}");
        }
    }
}
