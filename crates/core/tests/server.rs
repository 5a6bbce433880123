//! Protocol-level integration tests for `revmatch-server`: spawn the
//! binary on an ephemeral port, drive every job kind over TCP from
//! concurrent connections with explicit seeds, and check the reports
//! are bit-identical to the in-process `submit_wait_seeded` path.
//! Because job outcomes depend only on `(job, seed)`, the wire hop must
//! be invisible in every result field (timing excepted — wall clock is
//! not part of the contract).

use std::io::{BufRead, BufReader, BufWriter};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use rand::SeedableRng;
use revmatch::{
    job_seed, random_instance, random_wide_instance, read_server_frame, write_client_frame,
    ClientFrame, EngineJob, EnumerateJob, Equivalence, IdentifyJob, JobReport, JobSpec, MatchError,
    MatchService, QuantumAlgorithm, QuantumPathJob, SatEquivalenceJob, ServerFrame, ServiceConfig,
    Side, SubmitOutcome, WitnessFamily,
};
use revmatch_circuit::CircuitError;

/// Kills the server on test panic so no orphan keeps the port.
struct ServerGuard(Child);

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `revmatch-server` on an ephemeral port and returns the guard
/// plus the address scraped from its "listening on ADDR" line.
fn spawn_server(extra_args: &[&str]) -> (ServerGuard, String) {
    spawn_server_logging_to(extra_args, Stdio::null())
}

/// [`spawn_server`] with the server's stderr sent to `stderr`.
fn spawn_server_logging_to(extra_args: &[&str], stderr: Stdio) -> (ServerGuard, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_revmatch-server"))
        .args(["--addr", "127.0.0.1:0", "--shards", "2"])
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(stderr)
        .spawn()
        .expect("spawn revmatch-server");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listening line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_string();
    (ServerGuard(child), addr)
}

/// One seeded job of every kind (all solvable planted instances).
fn seeded_jobs() -> Vec<(JobSpec, u64)> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EEDE);
    let ni = random_instance(Equivalence::new(Side::N, Side::I), 5, &mut rng);
    let ip = random_instance(Equivalence::new(Side::I, Side::P), 5, &mut rng);
    let pn = random_instance(Equivalence::new(Side::P, Side::N), 4, &mut rng);
    vec![
        (
            JobSpec::Promise(EngineJob::from_instance(&ip, true).with_sat_verification()),
            job_seed(0xA, 0),
        ),
        (
            JobSpec::Identify(IdentifyJob::new(pn.c1.clone(), pn.c2.clone())),
            job_seed(0xA, 1),
        ),
        (
            JobSpec::QuantumPath(QuantumPathJob {
                equivalence: ni.equivalence,
                c1: ni.c1.clone(),
                c2: ni.c2.clone(),
                algorithm: QuantumAlgorithm::Simon,
            }),
            job_seed(0xA, 2),
        ),
        (
            JobSpec::SatEquivalence(SatEquivalenceJob {
                c1: ip.c1.clone(),
                c2: ip.c2.clone(),
                witness: Some(ip.witness.clone()),
            }),
            job_seed(0xA, 3),
        ),
        (
            JobSpec::Enumerate(EnumerateJob::new(
                ni.c1.clone(),
                ni.c2.clone(),
                WitnessFamily::InputNegation,
            )),
            job_seed(0xA, 4),
        ),
    ]
}

/// Everything but timing must match exactly across the wire hop.
fn assert_reports_equal(wire: &JobReport, local: &JobReport, label: &str) {
    assert_eq!(wire.kind, local.kind, "{label}: kind");
    assert_eq!(wire.witness, local.witness, "{label}: witness");
    assert_eq!(wire.queries, local.queries, "{label}: queries");
    assert_eq!(
        wire.charged_queries, local.charged_queries,
        "{label}: charged queries"
    );
    assert_eq!(wire.rounds, local.rounds, "{label}: rounds");
    assert_eq!(wire.identified, local.identified, "{label}: identified");
    assert_eq!(
        wire.witness_count, local.witness_count,
        "{label}: witness count"
    );
    assert_eq!(wire.miter, local.miter, "{label}: miter verdict");
}

/// Submits `jobs` (tagged with client ids) over one connection and
/// returns the reports indexed by client id.
fn submit_over_wire(addr: &str, jobs: &[(JobSpec, u64)]) -> Vec<JobReport> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    // Every submit is pipelined in one write.
    let mut out = Vec::new();
    for (i, (job, seed)) in jobs.iter().enumerate() {
        write_client_frame(
            &mut out,
            &ClientFrame::Submit {
                client_id: i as u64,
                seed: Some(*seed),
                job: job.clone(),
            },
        )
        .expect("encode submit");
    }
    use std::io::Write as _;
    stream.write_all(&out).expect("write submits");
    stream.shutdown(Shutdown::Write).expect("half-close");

    let mut input = BufReader::new(stream);
    let mut reports: Vec<Option<JobReport>> = (0..jobs.len()).map(|_| None).collect();
    while let Some(frame) = read_server_frame(&mut input).expect("read frame") {
        match frame {
            ServerFrame::Report { client_id, report } => {
                let slot = &mut reports[client_id as usize];
                assert!(slot.is_none(), "duplicate report for {client_id}");
                *slot = Some(report);
            }
            ServerFrame::MetricsText(_) => panic!("unrequested metrics frame"),
        }
    }
    reports
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("no report for job {i}")))
        .collect()
}

/// All five kinds over several concurrent connections: every report is
/// bit-identical to the in-process seeded submit of the same job.
#[test]
fn wire_reports_match_in_process_bit_for_bit() {
    let jobs = seeded_jobs();
    // In-process baseline on the same topology. Explicit seeds make the
    // shard count and placement irrelevant to the outcome.
    let service = MatchService::start(ServiceConfig::default().with_shards(2));
    let local: Vec<JobReport> = jobs
        .iter()
        .map(|(job, seed)| service.submit_wait_seeded(job.clone(), *seed).wait())
        .collect();
    service.shutdown();

    let (_guard, addr) = spawn_server(&[]);
    let handles: Vec<_> = (0..3)
        .map(|_| {
            let addr = addr.clone();
            let jobs = jobs.clone();
            std::thread::spawn(move || submit_over_wire(&addr, &jobs))
        })
        .collect();
    for handle in handles {
        let wire = handle.join().expect("connection thread");
        for (i, (w, l)) in wire.iter().zip(&local).enumerate() {
            assert_reports_equal(w, l, &format!("job {i}"));
        }
    }
}

/// Runs the server with `args` (after an ephemeral `--addr`) and `env`,
/// expecting it to exit on its own within 10 s, and returns its status,
/// stdout and stderr.
fn run_to_exit(args: &[&str], env: &[(&str, &str)]) -> (ExitStatus, String, String) {
    let child = Command::new(env!("CARGO_BIN_EXE_revmatch-server"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .envs(env.iter().copied())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn revmatch-server");
    let mut guard = ServerGuard(child);
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = guard.0.try_wait().expect("poll revmatch-server") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "the server kept running with {args:?} {env:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    use std::io::Read as _;
    let (mut stdout, mut stderr) = (String::new(), String::new());
    let _ = guard
        .0
        .stdout
        .take()
        .expect("piped")
        .read_to_string(&mut stdout);
    let _ = guard
        .0
        .stderr
        .take()
        .expect("piped")
        .read_to_string(&mut stderr);
    (status, stdout, stderr)
}

/// `REVMATCH_TRACE` is the server's deployment switch for tracing: a
/// value it cannot parse is a usage error (exit 2, the variable named
/// on stderr) before the server binds, not a panic.
#[test]
fn bad_trace_env_is_a_usage_error() {
    let (status, stdout, stderr) =
        run_to_exit(&["--shards", "1"], &[("REVMATCH_TRACE", "sometimes")]);
    assert_eq!(status.code(), Some(2), "{stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.starts_with("error: REVMATCH_TRACE:"), "{stderr}");
    assert!(
        !stdout.contains("listening on"),
        "the server bound before rejecting its environment"
    );
}

/// The admission tuning flags mean nothing with admission off: each is
/// a usage error (exit 2) without `--admission`, before the server
/// binds.
#[test]
fn admission_tuning_flags_require_admission() {
    for flag in ["--overload-us", "--expensive-us", "--defer-capacity"] {
        let (status, stdout, stderr) = run_to_exit(&[flag, "1"], &[]);
        assert_eq!(status.code(), Some(2), "{flag}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains("require --admission"), "{flag}: {stderr}");
        assert!(!stdout.contains("listening on"), "{flag}: bound anyway");
    }
}

/// `--admission` over the wire. On one shard, with every job expensive,
/// a 1 µs overload threshold and no room to defer, pipelined w5
/// enumerate sweeps find queued work ahead of them from the third on,
/// and the server sheds them: a sweep runs for milliseconds, decoding
/// the next submit takes microseconds. Every submit still gets exactly
/// one report: either `Err(Overloaded)` or the in-process seeded
/// report, bit for bit. The scraped shed counter counts the overloaded
/// reports.
#[test]
fn admission_sheds_over_the_wire_with_one_report_per_submit() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xAD3);
    let jobs: Vec<(JobSpec, u64)> = (0..8)
        .map(|i| {
            let inst = random_instance(Equivalence::new(Side::N, Side::I), 5, &mut rng);
            (
                JobSpec::Enumerate(EnumerateJob::new(
                    inst.c1,
                    inst.c2,
                    WitnessFamily::InputNegation,
                )),
                job_seed(0xC, i),
            )
        })
        .collect();
    let (_guard, addr) = spawn_server(&[
        "--shards",
        "1",
        "--admission",
        "--overload-us",
        "1",
        "--expensive-us",
        "1",
        "--defer-capacity",
        "0",
    ]);
    let wire = submit_over_wire(&addr, &jobs);
    let service = MatchService::start(ServiceConfig::default().with_shards(1));
    let mut shed = 0;
    for (i, (report, (job, seed))) in wire.iter().zip(&jobs).enumerate() {
        if report.witness == Err(MatchError::Overloaded) {
            shed += 1;
        } else {
            let local = service.submit_wait_seeded(job.clone(), *seed).wait();
            assert_reports_equal(report, &local, &format!("job {i}"));
        }
    }
    service.shutdown();
    assert!(shed >= 1, "no submit was shed");
    let metrics = scrape(&addr);
    let line = format!("revmatch_admission_shed_total {shed}");
    assert!(metrics.lines().any(|l| l == line), "{line}: {metrics}");
}

/// The HTTP sniff on the same port: `GET /metrics` answers one
/// Prometheus text scrape with the serving counters in it.
#[test]
fn http_metrics_scrape_on_same_port() {
    let jobs = seeded_jobs();
    let (_guard, addr) = spawn_server(&[]);
    let _ = submit_over_wire(&addr, &jobs);

    let mut stream = TcpStream::connect(&addr).expect("connect");
    use std::io::{Read as _, Write as _};
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .expect("write request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("revmatch_jobs_completed_total"));
    assert!(
        response.contains(&format!("revmatch_jobs_completed_total {}", jobs.len())),
        "scrape reflects the completed wire jobs"
    );
}

/// Sends `GET /metrics` on a fresh connection and returns the reply. A
/// server that does not answer within 5 s fails the test instead of
/// hanging it.
fn scrape(addr: &str) -> String {
    use std::io::{Read as _, Write as _};
    let mut stream = TcpStream::connect(addr).expect("connect for scrape");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set read timeout");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("write scrape");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("scrape answered within 5 s");
    response
}

/// Sends SIGTERM and waits up to 5 s for the server to exit.
fn terminate(guard: &mut ServerGuard) -> std::process::ExitStatus {
    let status = Command::new("kill")
        .args(["-TERM", &guard.0.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(status.success());
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Some(exit) = guard.0.try_wait().expect("poll revmatch-server") {
            return exit;
        }
        assert!(
            Instant::now() < deadline,
            "the server was still running 5 s after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A client that connects and never sends a byte holds only its own
/// connection: later scrapes and wire jobs are still served, and
/// SIGTERM still drains to exit 0.
#[test]
fn silent_connection_blocks_neither_accept_nor_shutdown() {
    let (job, seed) = seeded_jobs().remove(1);
    let service = MatchService::start(ServiceConfig::default().with_shards(2));
    let local = service.submit_wait_seeded(job.clone(), seed).wait();
    service.shutdown();

    let (mut guard, addr) = spawn_server(&[]);
    let _silent = TcpStream::connect(&addr).expect("connect silent client");

    let response = scrape(&addr);
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");

    let wire = submit_over_wire(&addr, &[(job, seed)]);
    assert_reports_equal(&wire[0], &local, "job behind a silent connection");

    let exit = terminate(&mut guard);
    assert!(exit.success(), "graceful drain exits 0, got {exit:?}");
}

/// An HTTP request head that arrives in pieces, the first shorter than
/// `GET `, is still recognised as a scrape.
#[test]
fn trickled_http_head_is_still_a_scrape() {
    use std::io::{Read as _, Write as _};
    let (_guard, addr) = spawn_server(&[]);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).expect("set nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set read timeout");
    stream.write_all(b"GE").expect("write first piece");
    std::thread::sleep(Duration::from_millis(100));
    stream
        .write_all(b"T /metrics HTTP/1.0\r\n\r\n")
        .expect("write second piece");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response:?}");
}

/// A fresh server answers its first connection as soon as it arrives,
/// not on the next tick of a polling accept loop.
#[test]
fn first_connection_is_answered_without_an_accept_poll() {
    let fastest = (0..3)
        .map(|_| {
            let (_guard, addr) = spawn_server(&[]);
            std::thread::sleep(Duration::from_millis(2));
            let start = Instant::now();
            let response = scrape(&addr);
            let elapsed = start.elapsed();
            assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
            elapsed
        })
        .min()
        .expect("three servers");
    assert!(
        fastest < Duration::from_millis(10),
        "fastest first answer took {fastest:?}"
    );
}

/// SIGTERM with submits still in flight: the server completes every
/// accepted job, flushes the reports, closes cleanly, and exits 0.
#[test]
fn sigterm_drains_accepted_jobs_before_exit() {
    let jobs = seeded_jobs();
    let (mut guard, addr) = spawn_server(&[]);

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut out = BufWriter::new(stream.try_clone().expect("clone"));
    for (i, (job, seed)) in jobs.iter().enumerate() {
        write_client_frame(
            &mut out,
            &ClientFrame::Submit {
                client_id: i as u64,
                seed: Some(*seed),
                job: job.clone(),
            },
        )
        .expect("write submit");
    }
    use std::io::{Read as _, Write as _};
    out.flush().expect("flush");

    // Wait until the server has *accepted* every submit (scraped over
    // HTTP on the same port) before signaling: the drain contract
    // covers accepted jobs, while frames still in the socket when the
    // signal lands are legitimately discarded — without this wait the
    // test would race the reader thread.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let mut http = TcpStream::connect(&addr).expect("connect for scrape");
        http.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .expect("write scrape");
        let mut text = String::new();
        http.read_to_string(&mut text).expect("read scrape");
        let submitted = text
            .lines()
            .find_map(|l| l.strip_prefix("revmatch_jobs_submitted_total "))
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        if submitted >= jobs.len() {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server accepted only {submitted}/{} jobs",
            jobs.len()
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // SIGTERM while the connection is still open for writing: the
    // server must shut our read half down, finish the accepted jobs,
    // and stream all their reports before closing.
    let status = Command::new("kill")
        .args(["-TERM", &guard.0.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(status.success());

    let mut input = BufReader::new(stream);
    let mut received = 0;
    while let Some(frame) = read_server_frame(&mut input).expect("read frame") {
        match frame {
            ServerFrame::Report { .. } => received += 1,
            ServerFrame::MetricsText(_) => panic!("unrequested metrics frame"),
        }
    }
    assert_eq!(received, jobs.len(), "every accepted job reported");
    let exit = guard.0.wait().expect("server exit");
    assert!(exit.success(), "graceful drain exits 0, got {exit:?}");
}

/// A malformed submit ends only its own session. The good submits
/// pipelined ahead of it on the same connection are all answered, in
/// submit order, before EOF; the server logs the protocol error; another
/// connection is served as usual; and the drain counts only the good
/// jobs.
#[test]
fn malformed_submit_ends_only_its_own_session() {
    // Promise, identify and Simon jobs, each at two seeds.
    let kinds = &seeded_jobs()[..3];
    let jobs: Vec<(JobSpec, u64)> = (0..6)
        .map(|i| (kinds[i % 3].0.clone(), job_seed(0xC, i as u64)))
        .collect();
    let extra = (kinds[1].0.clone(), job_seed(0xC, 99));
    let service = MatchService::start(ServiceConfig::default().with_shards(2));
    let local: Vec<JobReport> = jobs
        .iter()
        .chain([&extra])
        .map(|(job, seed)| service.submit_wait_seeded(job.clone(), *seed).wait())
        .collect();
    service.shutdown();

    let submit = |i: usize| {
        let mut bytes = Vec::new();
        let frame = ClientFrame::Submit {
            client_id: i as u64,
            seed: Some(jobs[i].1),
            job: jobs[i].0.clone(),
        };
        write_client_frame(&mut bytes, &frame).expect("encode submit");
        bytes
    };
    let first = submit(0);
    let mut bytes: Vec<u8> = (1..jobs.len()).flat_map(submit).collect();
    // Then an identify submit whose first gate gets a positive control on
    // its own target line, outside its control mask. Its first gate sits
    // past the length prefix, opcode, client id, seed flag and seed, job
    // tag, and c1's width and gate count.
    let bad = ClientFrame::Submit {
        client_id: jobs.len() as u64,
        seed: Some(1),
        job: kinds[1].0.clone(),
    };
    let gate = bytes.len() + 4 + 1 + 8 + 1 + 8 + 1 + 1 + 4;
    write_client_frame(&mut bytes, &bad).expect("encode submit");
    let control_mask = u64::from_le_bytes(bytes[gate..gate + 8].try_into().expect("8 bytes"));
    let target = bytes[gate + 16];
    assert_eq!(control_mask >> target & 1, 0, "a good gate");
    let positive_mask = control_mask | 1 << target;
    bytes[gate + 8..gate + 16].copy_from_slice(&positive_mask.to_le_bytes());

    let (mut guard, addr) = spawn_server_logging_to(&[], Stdio::piped());
    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    use std::io::{Read as _, Write as _};
    let mut input = BufReader::new(&stream);
    // One round trip first: a lone report leaves while the session is
    // open, with nothing queued behind it.
    (&stream).write_all(&first).expect("send the first submit");
    let mut answered = Vec::new();
    match read_server_frame(&mut input).expect("read the first report") {
        Some(ServerFrame::Report {
            client_id: 0,
            report,
        }) => {
            assert_reports_equal(&report, &local[0], "job 0");
            answered.push(0);
        }
        other => panic!("expected job 0's report, got {other:?}"),
    }
    (&stream).write_all(&bytes).expect("send submits");
    while let Some(frame) = read_server_frame(&mut input).expect("read frame") {
        match frame {
            ServerFrame::Report { client_id, report } => {
                let i = client_id as usize;
                assert_reports_equal(&report, &local[i], &format!("job {i}"));
                answered.push(i);
            }
            ServerFrame::MetricsText(_) => panic!("unrequested metrics frame"),
        }
    }
    assert_eq!(answered, (0..jobs.len()).collect::<Vec<_>>());

    let wire = submit_over_wire(&addr, std::slice::from_ref(&extra));
    assert_reports_equal(&wire[0], &local[jobs.len()], "job on a second connection");

    let exit = terminate(&mut guard);
    assert!(exit.success(), "graceful drain exits 0, got {exit:?}");
    let mut log = String::new();
    guard
        .0
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut log)
        .expect("read server log");
    assert!(
        log.contains("protocol error: malformed frame: bad gate"),
        "{log}"
    );
    let good = jobs.len() + 1;
    assert!(
        log.contains(&format!(
            "drained ({good} submitted, {good} completed, 0 shed)"
        )),
        "{log}"
    );
}

/// The in-process `submit` outcome enum stays exhaustive in tests that
/// track it (compile-time reminder that `Shed` exists on this path).
#[test]
fn shed_outcome_is_reachable_only_with_admission() {
    let service = MatchService::start(ServiceConfig::default().with_shards(1));
    let (job, seed) = seeded_jobs().remove(0);
    match service.submit_seeded(job, seed) {
        SubmitOutcome::Enqueued(t) => drop(t.wait()),
        SubmitOutcome::QueueFull(_) => panic!("empty intake rejected a job"),
        SubmitOutcome::Shed(_) => panic!("admission off can never shed"),
    }
    service.drain();
    service.shutdown();
}

/// Identify jobs wider than the 24-line truth-table limit come back as
/// the width error with no query spent, not as a lost worker.
#[test]
fn wide_identify_jobs_report_the_width_error() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1D25);
    let jobs: Vec<(JobSpec, u64)> = [25usize, 30]
        .into_iter()
        .enumerate()
        .map(|(i, w)| {
            let inst = random_wide_instance(Equivalence::new(Side::I, Side::N), w, 4 * w, &mut rng);
            (
                JobSpec::Identify(IdentifyJob::new(inst.c1, inst.c2)),
                job_seed(0xB, i as u64),
            )
        })
        .collect();
    let (_guard, addr) = spawn_server(&[]);
    let reports = submit_over_wire(&addr, &jobs);
    for (report, w) in reports.iter().zip([25usize, 30]) {
        assert_eq!(
            report.witness,
            Err(MatchError::Circuit(CircuitError::WidthTooLarge {
                width: w,
                max: 24
            })),
            "w{w}"
        );
        assert_eq!(report.queries, 0, "w{w}");
    }
    let metrics = scrape(&addr);
    assert!(
        metrics.contains("\nrevmatch_worker_lost_total 0\n"),
        "no worker lost: {metrics}"
    );
}
