//! The revmatch serving benchmark: one seeded command per workload that
//! drives the public `revmatch` API (an in-process `MatchService`, or a
//! spawned `revmatch-server` over TCP), checks every answer off the clock,
//! and prints its metrics by name and unit. See `README.md` beside this
//! crate for the workloads and metrics.
//!
//! ```text
//! revmatch-servebench --workload served-mix|cheap-tcp|wide-cold --seed N
//!     --seconds N --trace 0|1 --server PATH [--root DIR]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is a separate run with span tracing of every job on plus
//! the per-layer replays, and prints the per-layer metrics. The last line
//! of stdout is the JSON result.

mod checks;
mod inproc;
mod layers;
mod phase;
mod pool;
mod record;
mod stats;
mod tcp;

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use revmatch::{JobKind, MatchService};

use checks::{Checker, Outcome};
use phase::{Phase, Plan, Stop};
use pool::Source;
use stats::{median, micros, Summary, Tally};

const USAGE: &str = "usage: revmatch-servebench --workload served-mix|cheap-tcp|wide-cold \
--seed N --seconds N --trace 0|1 --server PATH [--root DIR]";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Closed-loop windows per phase; `throughput_jps` is their median.
const WINDOWS: u32 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServedMix,
    CheapTcp,
    WideCold,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        [Workload::ServedMix, Workload::CheapTcp, Workload::WideCold]
            .into_iter()
            .find(|w| w.name() == name)
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServedMix => "served-mix",
            Workload::CheapTcp => "cheap-tcp",
            Workload::WideCold => "wide-cold",
        }
    }

    fn over_tcp(self) -> bool {
        self == Workload::CheapTcp
    }

    /// Jobs the closed loop keeps outstanding. In process, one shard
    /// lane's intake capacity, so no submit is refused; over TCP, deep
    /// enough that the pipeline (client, server reader, shards, server
    /// writer) stays full through a stalled hand-off; the server blocks
    /// the connection, not refuses, when its intake is full.
    fn outstanding(self) -> usize {
        if self.over_tcp() {
            256
        } else {
            64
        }
    }

    fn closed(self, stop: Stop) -> Plan {
        Plan::Closed {
            outstanding: self.outstanding(),
            stop,
        }
    }

    fn source(self, seed: u64) -> Source {
        match self {
            Workload::ServedMix => pool::narrow_pool(seed, &JobKind::ALL),
            Workload::CheapTcp => pool::narrow_pool(
                seed,
                &[JobKind::Promise, JobKind::Identify, JobKind::Quantum],
            ),
            Workload::WideCold => Source::Fresh { seed },
        }
    }

    /// Open-loop arrival rate in jobs/s, frozen at about half of the
    /// closed-loop throughput measured on a 2-CPU host when the benchmark
    /// was defined (and stated in `BENCHMARK.json`), so later changes are
    /// compared at the same offered load.
    fn open_rate(self) -> f64 {
        match self {
            Workload::ServedMix => 220.0,
            Workload::CheapTcp => 10_000.0,
            Workload::WideCold => 90.0,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    root: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .filter(|n| ["workload", "seed", "seconds", "trace", "server", "root"].contains(n))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("--{k} is required"));
    let number = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k}: expected a whole number"))
    };
    let workload = get("workload")?;
    let args = Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: number("seed")?,
        seconds: number("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
        },
        server: PathBuf::from(get("server")?),
        root: PathBuf::from(flags.get("root").map_or(".", String::as_str)),
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// The system under test: an in-process service, or a server process
/// with one client connection.
enum Sut {
    InProc(MatchService),
    Tcp {
        server: tcp::Server,
        conn: tcp::Conn,
    },
}

impl Sut {
    /// Starts the system and has it answer one warm-up pass; returns it
    /// with the seconds that took and the warm-up phase.
    fn setup(
        args: &Args,
        src: &Source,
        first: u64,
        traced: bool,
    ) -> Result<(Sut, f64, Phase), String> {
        let t0 = Instant::now();
        let (mut sut, paused) = if args.workload.over_tcp() {
            let server = tcp::Server::spawn(&args.server, traced)?;
            // The server polls its listener every 20 ms after a first,
            // immediate poll. A connect racing that first poll skipped
            // the wait in some set-ups and not others, which made the
            // median bimodal; waiting out the first poll (and not timing
            // the wait) meets the loop as any later client does.
            let pause = Instant::now();
            std::thread::sleep(Duration::from_millis(2));
            let paused = pause.elapsed();
            let conn = tcp::Conn::open(&server.addr)?;
            (Sut::Tcp { server, conn }, paused)
        } else {
            (Sut::InProc(inproc::start(traced)), Duration::ZERO)
        };
        // One job at a time: each report is then the only unacknowledged
        // data on the connection, so a delayed ACK never holds the last
        // small report frame back (the server leaves Nagle on), and the
        // pass costs the same however the shards happen to interleave.
        let pass = Plan::Closed {
            outstanding: 1,
            stop: Stop::Jobs(src.warmup_len()),
        };
        let warm = sut.run(src, first, pass)?;
        Ok((sut, (t0.elapsed() - paused).as_secs_f64(), warm))
    }

    fn run(&mut self, src: &Source, first: u64, plan: Plan) -> Result<Phase, String> {
        match self {
            Sut::InProc(svc) => Ok(inproc::run(svc, src, first, plan)),
            Sut::Tcp { conn, .. } => conn.run(src, first, plan),
        }
    }

    fn metrics_text(&self) -> Result<String, String> {
        match self {
            Sut::InProc(svc) => Ok(svc.metrics_text()),
            Sut::Tcp { server, .. } => server.scrape(),
        }
    }

    /// CPU seconds used so far by the processes that do the work: this
    /// one, plus the server over TCP.
    fn cpu_s(&self) -> f64 {
        let own = record::cpu_seconds(None).unwrap_or(0.0);
        match self {
            Sut::InProc(_) => own,
            Sut::Tcp { server, .. } => own + record::cpu_seconds(Some(server.pid())).unwrap_or(0.0),
        }
    }

    /// `VmHWM` of the serving process.
    fn rss_mib(&self) -> Option<f64> {
        match self {
            Sut::InProc(_) => record::vm_hwm_mib(None),
            Sut::Tcp { server, .. } => record::vm_hwm_mib(Some(server.pid())),
        }
    }

    /// Stops the system; over TCP the server must exit 0 and account for
    /// every job the client sent.
    fn finish(self) -> Result<(), String> {
        match self {
            Sut::InProc(svc) => {
                svc.shutdown();
                Ok(())
            }
            Sut::Tcp { server, conn } => {
                let sent = conn.sent();
                conn.close()?;
                server.stop(sent)
            }
        }
    }
}

/// Phase outcomes after the off-clock check.
struct Checked<'p> {
    phase: &'p Phase,
    ok: Vec<bool>,
}

/// Checks every completion of `phases`, adding them to `tally`; problems
/// are collected, the first few printed.
fn check<'p>(
    checker: &mut Checker,
    phases: &[&'p Phase],
    tally: &mut Tally,
    problems: &mut Vec<String>,
) -> Vec<Checked<'p>> {
    phases
        .iter()
        .map(|phase| {
            let mut t = Tally {
                attempted: phase.attempted(),
                refused: phase.refused.len() as u64,
                ..Tally::default()
            };
            let ok = phase
                .completions
                .iter()
                .map(|c| {
                    let outcome = checker.check(c.index, &c.report);
                    match &outcome {
                        Outcome::Correct => t.correct += 1,
                        Outcome::Failed(_) => t.failed += 1,
                        Outcome::Refused => t.refused += 1,
                        Outcome::Wrong(_) => t.wrong += 1,
                    }
                    if !matches!(outcome, Outcome::Correct) {
                        problems.push(format!("job {} ({}): {outcome:?}", c.index, c.report.kind));
                    }
                    outcome == Outcome::Correct
                })
                .collect();
            tally.add(t);
            Checked { phase, ok }
        })
        .collect()
}

/// Correct completions per second over the closed loop's offering window:
/// the median of `WINDOWS` equal windows, and the windows.
fn throughput(c: &Checked) -> (f64, Vec<f64>) {
    let p = c.phase;
    let window = p.offered_for / WINDOWS;
    let mut counts = vec![0u64; WINDOWS as usize];
    for (comp, &ok) in p.completions.iter().zip(&c.ok) {
        let at = comp.done.saturating_duration_since(p.start);
        if ok && at < p.offered_for {
            let k = (at.as_nanos() / window.as_nanos()) as usize;
            counts[k.min(WINDOWS as usize - 1)] += 1;
        }
    }
    let rates: Vec<f64> = counts
        .iter()
        .map(|&n| n as f64 / window.as_secs_f64())
        .collect();
    (median(&rates), rates)
}

/// Client latency from each job's due time, per kind and (under `"all"`)
/// overall; a refused job never answers.
fn latencies_us(src: &Source, p: &Phase) -> BTreeMap<&'static str, Vec<u64>> {
    let mut by_kind: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let samples = p
        .completions
        .iter()
        .map(|c| (c.report.kind, micros(c.due, c.done)))
        .chain(p.refused.iter().map(|&i| (src.get(i).job.kind(), u64::MAX)));
    for (kind, us) in samples {
        by_kind.entry(kind.as_str()).or_default().push(us);
        by_kind.entry("all").or_default().push(us);
    }
    by_kind
}

type Metric = (String, &'static str, f64);

fn seconds(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

struct Output {
    correct: bool,
    tally: Tally,
    metrics: Vec<Metric>,
}

/// Prints what went wrong and decides `correct`: no wrong answer in any
/// phase, every attempt accounted for, and no system problem (a server
/// that exits badly or loses track of jobs).
fn verdict(tally: &Tally, warm: &Tally, problems: &[String], system: &[String]) -> bool {
    for p in problems.iter().take(10) {
        println!("job problem: {p}");
    }
    if problems.len() > 10 {
        println!("job problem: … and {} more", problems.len() - 10);
    }
    for p in system {
        println!("system problem: {p}");
    }
    tally.wrong == 0 && warm.wrong == 0 && tally.balanced() && system.is_empty()
}

/// The untraced run: `SETUPS` set-ups, then a closed loop for half of the
/// run and an open loop at the frozen rate for the other half.
fn end_to_end(args: &Args, src: &Source) -> Result<Output, String> {
    let w = args.workload;
    let s = args.seconds as f64;
    let mut first = 0;
    let mut setup_s = Vec::new();
    let mut warm = Vec::new();
    let (mut problems, mut system) = (Vec::new(), Vec::new());
    let mut kept = None;
    for k in 0..SETUPS {
        let (sut, took, phase) = Sut::setup(args, src, first, false)?;
        first = phase.next;
        setup_s.push(took);
        warm.push(phase);
        if k + 1 < SETUPS {
            sut.finish().unwrap_or_else(|e| system.push(e));
        } else {
            kept = Some(sut);
        }
    }
    let mut sut = kept.expect("SETUPS >= 1");
    let cpu0 = record::cpu_times();
    let cpu_s0 = sut.cpu_s();
    let closed = sut.run(src, first, w.closed(Stop::After(seconds(0.5 * s))))?;
    let count = (w.open_rate() * 0.5 * s).round() as u64;
    let open = sut.run(
        src,
        closed.next,
        Plan::Open {
            rate: w.open_rate(),
            count,
        },
    )?;
    let run_cpu_s = sut.cpu_s() - cpu_s0;
    let steal = record::steal_share(cpu0, record::cpu_times());
    let rss = sut.rss_mib().unwrap_or(0.0);
    let text = sut.metrics_text()?;
    sut.finish().unwrap_or_else(|e| system.push(e));

    let mut checker = Checker::new(src);
    let mut warm_tally = Tally::default();
    check(
        &mut checker,
        &warm.iter().collect::<Vec<_>>(),
        &mut warm_tally,
        &mut problems,
    );
    let mut tally = Tally::default();
    let checked = check(&mut checker, &[&closed, &open], &mut tally, &mut problems);
    let (tput, windows) = throughput(&checked[0]);
    let cpu_us = run_cpu_s * 1e6 / tally.correct.max(1) as f64;
    let latency: BTreeMap<&str, Summary> = latencies_us(src, &open)
        .into_iter()
        .filter_map(|(kind, mut v)| Some((kind, Summary::of(&mut v, 990)?)))
        .collect();
    let setup = median(&setup_s);
    println!(
        "{}",
        record::record_line(&args.root, w.name(), args.seed, &text, steal)
    );
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "throughput_jps {tput:.1} jobs/s: closed loop, {} outstanding, median of {WINDOWS} \
         windows [{}]",
        w.outstanding(),
        fmt(&windows)
    );
    println!(
        "cpu_us_per_job {cpu_us:.2} us: CPU time of the {} over both loops, per correct \
         completion ({})",
        if w.over_tcp() {
            "client and server"
        } else {
            "benchmark process"
        },
        tally.correct
    );
    if let Some(all) = latency.get("all") {
        println!(
            "latency_p50_us {} / latency_p99_us {}: open loop at {} jobs/s, timed from due \
             times; {}",
            all.p50,
            all.tail,
            w.open_rate(),
            all.describe("us")
        );
    }
    for (kind, l) in latency.iter().filter(|(k, _)| **k != "all") {
        println!("latency {kind}: {}", l.describe("us"));
    }
    println!(
        "error_rate {}: ({} failed + {} refused + {} wrong) / {} attempted",
        tally.error_rate(),
        tally.failed,
        tally.refused,
        tally.wrong,
        tally.attempted
    );
    println!(
        "setup_s {setup:.4} s: median of {SETUPS} set-ups [{}]",
        fmt(&setup_s)
    );
    println!("rss_peak_mib {rss:.1} MiB: VmHWM of the serving process");
    Ok(Output {
        correct: verdict(&tally, &warm_tally, &problems, &system),
        tally,
        metrics: vec![
            ("cpu_us_per_job".into(), "us", cpu_us),
            ("setup_s".into(), "s", setup),
            ("rss_peak_mib".into(), "MiB", rss),
        ],
    })
}

/// The traced run: an untraced closed loop for the overhead base, then a
/// service with every job traced running a closed and an open loop, then
/// the per-layer replays.
fn per_layer(args: &Args, src: &Source) -> Result<Output, String> {
    let w = args.workload;
    let s = args.seconds as f64;
    let (mut problems, mut system) = (Vec::new(), Vec::new());
    let (mut base, _, warm_b) = Sut::setup(args, src, 0, false)?;
    let closed_b = base.run(src, warm_b.next, w.closed(Stop::After(seconds(0.25 * s))))?;
    base.finish().unwrap_or_else(|e| system.push(e));
    let (mut sut, _, warm_t) = Sut::setup(args, src, closed_b.next, true)?;
    let text0 = sut.metrics_text()?;
    let cpu0 = record::cpu_times();
    let closed = sut.run(src, warm_t.next, w.closed(Stop::After(seconds(0.25 * s))))?;
    let count = (w.open_rate() * 0.5 * s).round() as u64;
    let open = sut.run(
        src,
        closed.next,
        Plan::Open {
            rate: w.open_rate(),
            count,
        },
    )?;
    let steal = record::steal_share(cpu0, record::cpu_times());
    let text1 = sut.metrics_text()?;
    sut.finish().unwrap_or_else(|e| system.push(e));
    let replay = layers::replay(&src.replay_sample());

    let mut checker = Checker::new(src);
    let mut tally = Tally::default();
    let mut warm_tally = Tally::default();
    check(
        &mut checker,
        &[&warm_b, &warm_t],
        &mut warm_tally,
        &mut problems,
    );
    let checked = check(
        &mut checker,
        &[&closed_b, &closed, &open],
        &mut tally,
        &mut problems,
    );
    let base_tput = throughput(&checked[0]).0;
    let traced_tput = throughput(&checked[1]).0;

    println!(
        "{}",
        record::record_line(&args.root, w.name(), args.seed, &text1, steal)
    );
    let mut metrics = service_layers(w, &closed, &open, &text0, &text1);
    metrics.extend(replay.metrics());
    metrics.push((
        "observe.overhead_ratio".into(),
        "ratio",
        if base_tput > 0.0 {
            traced_tput / base_tput
        } else {
            0.0
        },
    ));
    for (name, unit, value) in &metrics {
        println!("{name} {value:.3} {unit}");
    }
    print_split(&open);
    print_layer_checks(w, &metrics);
    Ok(Output {
        correct: verdict(&tally, &warm_tally, &problems, &system),
        tally,
        metrics,
    })
}

/// Stage samples of an open-loop phase: due-time latency against the
/// report's queue wait and execute time.
fn stage_samples(open: &Phase) -> Vec<stats::StageSample> {
    open.completions
        .iter()
        .map(|c| stats::StageSample {
            kind: c.report.kind.as_str(),
            latency_us: micros(c.due, c.done),
            queue_wait_us: c.report.timing.queue_wait_us,
            exec_us: c.report.timing.exec_us,
        })
        .collect()
}

/// Service and wire metrics of the traced phases, from the reports'
/// timing, the client's own clocks and the service's metrics export.
fn service_layers(
    w: Workload,
    closed: &Phase,
    open: &Phase,
    text0: &str,
    text1: &str,
) -> Vec<Metric> {
    let all: Vec<&phase::Completion> = closed.completions.iter().chain(&open.completions).collect();
    let per_job = |f: &dyn Fn(&phase::Completion) -> f64| stats::mean(all.iter().map(|c| f(c)));
    let tcp = w.over_tcp();
    let only = |on: bool, v: f64| if on { v } else { 0.0 };
    let rest: Vec<f64> = stage_samples(open)
        .iter()
        .map(|s| s.latency_us as f64 - s.queue_wait_us as f64 - s.exec_us as f64)
        .collect();
    let mut waits: Vec<u64> = open
        .completions
        .iter()
        .map(|c| c.report.timing.queue_wait_us)
        .collect();
    let waits = Summary::of(&mut waits, 990);
    let lag = Summary::of(&mut open.lags_us.clone(), 990);
    let (t0, t1) = (record::scrape_totals(text0), record::scrape_totals(text1));
    let d =
        |name: &str| t1.get(name).copied().unwrap_or(0.0) - t0.get(name).copied().unwrap_or(0.0);
    let completed = d("revmatch_jobs_completed_total").max(1.0);
    let busy = d("revmatch_shard_busy_seconds_total");
    let idle = d("revmatch_shard_idle_seconds_total");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut m: Vec<Metric> = vec![
        (
            "gen.lag_p99_us".into(),
            "us",
            lag.map_or(0.0, |l| l.tail as f64),
        ),
        (
            "wire.encode_us".into(),
            "us",
            only(tcp, per_job(&|c| c.client_ns as f64 / 1e3)),
        ),
        (
            "wire.decode_us".into(),
            "us",
            only(tcp, per_job(&|c| c.decode_ns as f64 / 1e3)),
        ),
        (
            "wire.submit_bytes".into(),
            "bytes",
            only(tcp, per_job(&|c| c.submit_bytes as f64)),
        ),
        (
            "wire.report_bytes".into(),
            "bytes",
            only(tcp, per_job(&|c| c.report_bytes as f64)),
        ),
        (
            "wire.server_overhead_us".into(),
            "us",
            only(tcp, median(&rest)),
        ),
        (
            "service.submit_us".into(),
            "us",
            only(!tcp, per_job(&|c| c.client_ns as f64 / 1e3)),
        ),
        (
            "service.queue_wait_us.p50".into(),
            "us",
            waits.map_or(0.0, |q| q.p50 as f64),
        ),
        (
            "service.queue_wait_us.p99".into(),
            "us",
            waits.map_or(0.0, |q| q.tail as f64),
        ),
    ];
    for kind in JobKind::ALL {
        let exec = stats::mean(
            all.iter()
                .filter(|c| c.report.kind == kind)
                .map(|c| c.report.timing.exec_us as f64),
        );
        m.push((format!("service.exec_us.{kind}"), "us", exec));
    }
    m.extend([
        ("service.handoff_us".into(), "us", only(!tcp, median(&rest))),
        (
            "service.cache_hit_ratio".into(),
            "ratio",
            per_job(&|c| f64::from(u8::from(c.report.timing.cache_hit))),
        ),
        (
            "service.table_cache_hits".into(),
            "count",
            d("revmatch_table_cache_hits_total") / completed,
        ),
        (
            "service.solver_cache_hits".into(),
            "count",
            d("revmatch_solver_cache_hits_total") / completed,
        ),
        (
            "service.steals_per_job".into(),
            "count",
            d("revmatch_shard_steals_total") / completed,
        ),
        (
            "service.busy_ratio".into(),
            "ratio",
            ratio(busy, busy + idle),
        ),
        (
            "circuit.table_compile_share".into(),
            "ratio",
            ratio(d("revmatch_table_compile_seconds_sum"), busy),
        ),
    ]);
    m
}

/// Per-kind stage split of the traced open loop: queue wait + execute +
/// the rest (hand-off in process, server overhead over TCP) = latency.
fn print_split(open: &Phase) {
    for (kind, s) in stats::stage_split(&stage_samples(open)) {
        println!(
            "split {kind}: latency {:.1} us = queue_wait {:.1} + exec {:.1} + rest {:.1} (n={}, residual {:.3})",
            s.latency_us,
            s.queue_wait_us,
            s.exec_us,
            s.rest_us,
            s.jobs,
            s.latency_us - s.queue_wait_us - s.exec_us - s.rest_us
        );
    }
}

/// Confirms that the workload exercises the layers it was chosen for.
fn print_layer_checks(w: Workload, metrics: &[Metric]) {
    let get = |name: &str| metrics.iter().find(|m| m.0 == name).map_or(0.0, |m| m.2);
    let sat_zero = metrics
        .iter()
        .filter(|m| {
            m.0.starts_with("sat.")
                || m.0 == "service.exec_us.sat"
                || m.0 == "service.exec_us.enumerate"
        })
        .all(|m| m.2 == 0.0);
    let hit = get("service.cache_hit_ratio");
    let share = get("circuit.table_compile_share");
    let (claim, holds) = match w {
        Workload::ServedMix => ("cache_hit_ratio is high", hit >= 0.5),
        Workload::CheapTcp => ("sat.* and sat/enumerate execute times are zero", sat_zero),
        Workload::WideCold => ("cache_hit_ratio is about zero", hit <= 0.05),
    };
    println!(
        "layer-check {}: {claim}: {}",
        w.name(),
        if holds { "yes" } else { "NO" }
    );
    println!(
        "layer-check {}: table compile share of shard busy time {share:.3}",
        w.name()
    );
}

fn result_line(out: &Output) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.tally.attempted,
        out.tally.errors(),
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("revmatch-servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !args.server.is_file() {
        eprintln!(
            "revmatch-servebench: no server binary at {}",
            args.server.display()
        );
        return ExitCode::from(2);
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let src = args.workload.source(args.seed);
    let out = if args.trace {
        per_layer(&args, &src)
    } else {
        end_to_end(&args, &src)
    };
    match out {
        Ok(out) => {
            println!("{}", result_line(&out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("revmatch-servebench: {e}");
            ExitCode::FAILURE
        }
    }
}
