//! `revmatch-server`: the TCP front end over [`MatchService`].
//!
//! Speaks the length-prefixed binary protocol of [`revmatch::wire`]:
//! each connection gets a reader thread (decodes `Submit` frames and
//! feeds the service) and a writer thread (streams `Report` frames back
//! as tickets resolve, tagged with the client's correlation id, in
//! submit order per connection). A plain HTTP `GET /metrics` on the
//! same port — sniffed from the first bytes — answers one Prometheus
//! text scrape and closes.
//!
//! `SIGTERM`/`SIGINT` trigger a graceful drain: the listener stops
//! accepting, open connections see EOF on their read half (in-flight
//! jobs still complete and their reports flush out), the service drains
//! and the process exits 0. Frames a client had written but the server
//! had not yet read when the signal landed are discarded with the read
//! half — the drain contract covers *accepted* jobs only.
//!
//! Backpressure policy, per submit:
//! - admission control (when `--admission` is on) may **shed** an
//!   expensive job under overload: the client gets an immediate report
//!   whose witness is `Err(Overloaded)`;
//! - a full intake queue falls back to the blocking submit path, which
//!   stalls that one connection's reader — natural per-connection TCP
//!   backpressure — without affecting other connections.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

use revmatch::{
    read_client_frame, write_server_frame, AdmissionConfig, ClientFrame, JobKind, JobReport,
    JobTicket, MatchError, MatchService, ServerFrame, ServiceConfig, SubmitOutcome, TraceConfig,
};

const USAGE: &str = "\
revmatch-server: TCP front end for the revmatch matching service

USAGE:
    revmatch-server [OPTIONS]

OPTIONS:
    --addr HOST:PORT       listen address (default 127.0.0.1:7575; port 0
                           picks an ephemeral port, printed on stdout)
    --shards N             worker shards (default: available parallelism)
    --queue-capacity N     per-lane intake capacity (default 64)
    --seed N               base seed for derived per-job seeds (default 0)
    --admission            enable cost-aware admission control
    --overload-us N        admission: backlog overload threshold in µs
    --expensive-us N       admission: cost above which jobs shed/defer
    --defer-capacity N     admission: deferral buffer size
    -h, --help             print this help

ENVIRONMENT:
    REVMATCH_TRACE         span tracing: off or 0 (default), on, 1 or all
                           (every job), N or sample:N (every N-th job)
";

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

fn install_signal_handlers() {
    // Raw libc `signal(2)` via FFI: the handler only stores an atomic,
    // which is async-signal-safe.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_signal as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

struct Options {
    addr: String,
    shards: Option<usize>,
    queue_capacity: Option<usize>,
    seed: u64,
    admission: bool,
    overload_us: Option<u64>,
    expensive_us: Option<u64>,
    defer_capacity: Option<usize>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7575".to_string(),
            shards: None,
            queue_capacity: None,
            seed: 0,
            admission: false,
            overload_us: None,
            expensive_us: None,
            defer_capacity: None,
        }
    }
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n\n{USAGE}");
    std::process::exit(2);
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    let Some(raw) = value else {
        usage_error(&format!("{flag} requires a value"));
    };
    raw.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag}: cannot parse {raw:?}")))
}

fn parse_options() -> Options {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => opts.addr = parse_value("--addr", args.next()),
            "--shards" => opts.shards = Some(parse_value("--shards", args.next())),
            "--queue-capacity" => {
                opts.queue_capacity = Some(parse_value("--queue-capacity", args.next()));
            }
            "--seed" => opts.seed = parse_value("--seed", args.next()),
            "--admission" => opts.admission = true,
            "--overload-us" => opts.overload_us = Some(parse_value("--overload-us", args.next())),
            "--expensive-us" => {
                opts.expensive_us = Some(parse_value("--expensive-us", args.next()));
            }
            "--defer-capacity" => {
                opts.defer_capacity = Some(parse_value("--defer-capacity", args.next()));
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => usage_error(&format!("unknown flag {other:?}")),
        }
    }
    if !opts.admission
        && (opts.overload_us.is_some()
            || opts.expensive_us.is_some()
            || opts.defer_capacity.is_some())
    {
        usage_error("--overload-us/--expensive-us/--defer-capacity require --admission");
    }
    opts
}

fn build_service(opts: &Options) -> MatchService {
    let mut config = ServiceConfig::default().with_seed(opts.seed);
    if let Ok(value) = std::env::var("REVMATCH_TRACE") {
        let trace: TraceConfig = value
            .parse()
            .unwrap_or_else(|e| usage_error(&format!("REVMATCH_TRACE: {e}")));
        config = config.with_trace(trace);
    }
    if let Some(shards) = opts.shards {
        if shards == 0 {
            usage_error("--shards must be at least 1");
        }
        config = config.with_shards(shards);
    }
    if let Some(capacity) = opts.queue_capacity {
        if capacity == 0 {
            usage_error("--queue-capacity must be at least 1");
        }
        config = config.with_queue_capacity(capacity);
    }
    if opts.admission {
        let mut admission = AdmissionConfig::default();
        if let Some(v) = opts.overload_us {
            admission = admission.with_overload_us(v);
        }
        if let Some(v) = opts.expensive_us {
            admission = admission.with_expensive_us(v);
        }
        if let Some(v) = opts.defer_capacity {
            admission = admission.with_defer_capacity(v);
        }
        config = config.with_admission(admission);
    }
    MatchService::start(config)
}

/// The report a shed job resolves to: nothing ran, the witness slot
/// carries the admission verdict.
fn shed_report(kind: JobKind) -> JobReport {
    JobReport {
        kind,
        witness: Err(MatchError::Overloaded),
        queries: 0,
        charged_queries: 0,
        rounds: 0,
        identified: None,
        witness_count: None,
        miter: None,
        timing: Default::default(),
    }
}

/// What the per-connection writer thread sends next, in FIFO order.
enum Outgoing {
    /// A submitted job: block on the ticket, then write its report.
    Pending(u64, JobTicket),
    /// An immediately-resolved report (shed jobs).
    Ready(u64, Box<JobReport>),
    /// One metrics snapshot.
    Metrics(String),
}

fn handle_connection(stream: TcpStream, service: Arc<MatchService>) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".to_string());
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("revmatch-server: {peer}: clone failed: {e}");
            return;
        }
    };

    let (tx, rx) = mpsc::channel::<Outgoing>();
    let writer = thread::spawn(move || {
        let mut out = BufWriter::new(write_half);
        for item in rx {
            let frame = match item {
                Outgoing::Pending(client_id, ticket) => ServerFrame::Report {
                    client_id,
                    report: ticket.wait(),
                },
                Outgoing::Ready(client_id, report) => ServerFrame::Report {
                    client_id,
                    report: *report,
                },
                Outgoing::Metrics(text) => ServerFrame::MetricsText(text),
            };
            if write_server_frame(&mut out, &frame)
                .and_then(|()| out.flush())
                .is_err()
            {
                // The client went away; keep draining tickets so their
                // jobs still count as completed, but stop writing.
                break;
            }
        }
        // Resolve any tickets still queued (client gone or write error):
        // every accepted job must finish before drain() can return.
        let _ = out.flush();
    });

    let mut input = BufReader::new(stream);
    loop {
        match read_client_frame(&mut input) {
            Ok(Some(ClientFrame::Submit {
                client_id,
                seed,
                job,
            })) => {
                let outcome = match seed {
                    Some(s) => service.submit_seeded(job, s),
                    None => service.submit(job),
                };
                let item = match outcome {
                    SubmitOutcome::Enqueued(ticket) => Outgoing::Pending(client_id, ticket),
                    SubmitOutcome::Shed(job) => {
                        Outgoing::Ready(client_id, Box::new(shed_report(job.kind())))
                    }
                    SubmitOutcome::QueueFull(job) => {
                        // Blocking fallback: stalls only this connection.
                        let ticket = match seed {
                            Some(s) => service.submit_wait_seeded(job, s),
                            None => service.submit_wait(job),
                        };
                        Outgoing::Pending(client_id, ticket)
                    }
                };
                if tx.send(item).is_err() {
                    break;
                }
            }
            Ok(Some(ClientFrame::MetricsRequest)) => {
                if tx.send(Outgoing::Metrics(service.metrics_text())).is_err() {
                    break;
                }
            }
            Ok(None) => break,
            Err(e) => {
                eprintln!("revmatch-server: {peer}: protocol error: {e}");
                break;
            }
        }
    }
    drop(tx);
    let _ = writer.join();
    // Full close (covers every clone of the socket): the client's
    // reader sees EOF once the last report has flushed.
    let _ = input.into_inner().shutdown(Shutdown::Both);
}

/// Decides whether a fresh connection is an HTTP scrape (starts with
/// exactly `GET `) or a binary wire session. Requires the full 4-byte
/// match: a wire frame's little-endian length would need to be
/// 0x20544547 (~542 MB, far past `MAX_FRAME_LEN`) to collide, so there
/// is no ambiguity. Peeks in a short bounded loop in case the request
/// head trickles in byte by byte.
fn sniff_http(stream: &TcpStream) -> bool {
    let mut first = [0u8; 4];
    for _ in 0..50 {
        match stream.peek(&mut first) {
            Ok(0) => return false,
            Ok(n) => {
                if first[..n] != b"GET "[..n] {
                    return false;
                }
                if n == 4 {
                    return true;
                }
                // A strict prefix of "GET " so far; wait for more bytes.
                thread::sleep(Duration::from_millis(1));
            }
            Err(_) => return false,
        }
    }
    false
}

/// Answers one `GET /metrics` HTTP request and closes the connection.
fn handle_http_scrape(mut stream: TcpStream, service: &MatchService) {
    // Consume the request head (we only serve one route).
    let mut buf = [0u8; 4096];
    let mut head = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 64 * 1024 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let request_line = head.split(|&b| b == b'\r').next().unwrap_or(&[]);
    let (status, body) = if request_line.starts_with(b"GET /metrics") {
        ("200 OK", service.metrics_text())
    } else {
        ("404 Not Found", "only GET /metrics is served\n".to_string())
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.shutdown(Shutdown::Both);
}

fn main() -> ExitCode {
    let opts = parse_options();
    install_signal_handlers();

    let service = Arc::new(build_service(&opts));
    let listener = match TcpListener::bind(&opts.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("revmatch-server: cannot bind {}: {e}", opts.addr);
            return ExitCode::FAILURE;
        }
    };
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    let local = listener.local_addr().expect("listener address");
    println!("listening on {local}");
    std::io::stdout().flush().expect("flush stdout");

    // Read halves of open binary connections keyed by connection id,
    // shut down on SIGTERM so their readers see EOF and the connections
    // wind down gracefully. Entries are removed as connections close so
    // a long-lived server doesn't leak descriptors.
    let open_streams: Arc<Mutex<Vec<(u64, TcpStream)>>> = Arc::new(Mutex::new(Vec::new()));
    let active: Arc<AtomicUsize> = Arc::new(AtomicUsize::new(0));
    let mut next_conn_id: u64 = 0;

    while !SHUTDOWN.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if sniff_http(&stream) {
                    let service = Arc::clone(&service);
                    thread::spawn(move || handle_http_scrape(stream, &service));
                    continue;
                }
                let conn_id = next_conn_id;
                next_conn_id += 1;
                if let Ok(read_half) = stream.try_clone() {
                    open_streams
                        .lock()
                        .expect("open_streams lock")
                        .push((conn_id, read_half));
                }
                let service = Arc::clone(&service);
                let active = Arc::clone(&active);
                let open_streams = Arc::clone(&open_streams);
                active.fetch_add(1, Ordering::SeqCst);
                thread::spawn(move || {
                    handle_connection(stream, service);
                    open_streams
                        .lock()
                        .expect("open_streams lock")
                        .retain(|(id, _)| *id != conn_id);
                    active.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                eprintln!("revmatch-server: accept failed: {e}");
                thread::sleep(Duration::from_millis(100));
            }
        }
    }

    // Graceful drain: stop reading from every open connection (their
    // writers still flush pending reports), wait for connections to wind
    // down, then drain the service itself.
    eprintln!("revmatch-server: shutdown requested, draining");
    drop(listener);
    for (_, stream) in open_streams.lock().expect("open_streams lock").drain(..) {
        let _ = stream.shutdown(Shutdown::Read);
    }
    while active.load(Ordering::SeqCst) > 0 {
        thread::sleep(Duration::from_millis(10));
    }
    service.drain();
    eprintln!(
        "revmatch-server: drained ({} submitted, {} completed, {} shed)",
        service.metrics().jobs_submitted(),
        service.metrics().jobs_completed(),
        service.metrics().jobs_shed(),
    );
    ExitCode::SUCCESS
}
