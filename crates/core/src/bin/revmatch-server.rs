//! `revmatch-server`: the TCP front end over [`MatchService`].
//!
//! Speaks the length-prefixed binary protocol of [`revmatch::wire`]:
//! each connection gets a reader thread (decodes `Submit` frames and
//! feeds the service) and a writer thread (streams `Report` frames back
//! as tickets resolve, tagged with the client's correlation id, in
//! submit order per connection). A plain HTTP `GET /metrics` on the
//! same port answers one Prometheus text scrape and closes. The reader
//! thread itself reads a connection's first four bytes to tell the two
//! apart, so the accept loop never waits on a client.
//!
//! The accept loop sleeps in `poll(2)` on the listener and on a pipe
//! that the `SIGTERM`/`SIGINT` handler writes to, so a connection or a
//! signal wakes it at once. A signal triggers a graceful drain: the
//! listener stops accepting, open connections see EOF on their read
//! half (in-flight jobs still complete and their reports flush out),
//! the connection threads are joined, the service drains and the
//! process exits 0. Frames a client had written but the server had not
//! yet read when the signal landed are discarded with the read half —
//! the drain contract covers *accepted* jobs only.
//!
//! Backpressure policy, per submit:
//! - admission control (when `--admission` is on) may **shed** an
//!   expensive job under overload: the client gets an immediate report
//!   whose witness is `Err(Overloaded)`;
//! - a full intake queue falls back to the blocking submit path, which
//!   stalls that one connection's reader — natural per-connection TCP
//!   backpressure — without affecting other connections.

use std::ffi::{c_int, c_short, c_ulong};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use revmatch::{
    read_client_frame, write_server_frame, AdmissionConfig, ClientFrame, JobReport, JobTicket,
    MatchError, MatchService, ServerFrame, ServiceConfig, SubmitOutcome, TraceConfig,
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

// Raw libc calls via FFI (no `libc` crate is vendored).
extern "C" {
    fn signal(signum: c_int, handler: usize) -> usize;
    fn pipe(fds: *mut c_int) -> c_int;
    // `nfds_t` is `unsigned long` on Linux.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
}

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x1;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);
/// Write end of the pipe that wakes the accept loop on a signal. Set
/// before the handlers are installed and never closed.
static WAKE_WRITE: AtomicI32 = AtomicI32::new(-1);

extern "C" fn on_signal(_signum: c_int) {
    // Only the first signal writes, so the pipe never fills and the
    // write never blocks.
    if !SHUTDOWN.swap(true, Ordering::SeqCst) {
        // SAFETY: write(2) is async-signal-safe, WAKE_WRITE holds an
        // open descriptor (see install_signal_handlers), and the buffer
        // is one live byte.
        unsafe { write(WAKE_WRITE.load(Ordering::SeqCst), &1u8, 1) };
    }
}

/// Creates the wake pipe, then installs the `SIGTERM`/`SIGINT` handler
/// that writes to it. Returns the pipe's read end.
fn install_signal_handlers() -> io::Result<RawFd> {
    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;
    let mut fds = [0 as c_int; 2];
    // SAFETY: pipe(2) writes two descriptors into the two-element array.
    if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    WAKE_WRITE.store(fds[1], Ordering::SeqCst);
    let handler = on_signal as extern "C" fn(c_int) as usize;
    // SAFETY: the handler only touches atomics and calls write(2), all
    // async-signal-safe, and the pipe it writes to exists already.
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
    Ok(fds[0])
}

/// Blocks until the listener has a connection waiting or the wake pipe
/// is readable. A signal that interrupts the wait returns `Ok` too: the
/// caller checks `SHUTDOWN` and accepts again either way.
fn wait_for_connection(listener: RawFd, wake: RawFd) -> io::Result<()> {
    let mut fds = [listener, wake].map(|fd| PollFd {
        fd,
        events: POLLIN,
        revents: 0,
    });
    // SAFETY: `fds` is a live array of `fds.len()` pollfd structs.
    if unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, -1) } < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
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

/// What the per-connection writer thread sends next, in FIFO order.
enum Outgoing {
    /// A submitted job: block on the ticket, then write its report.
    Pending(u64, JobTicket),
    /// An immediately-resolved report (shed jobs).
    Ready(u64, Box<JobReport>),
    /// One metrics snapshot.
    Metrics(String),
}

/// Serves one accepted connection on its own thread. The first bytes
/// pick the protocol: exactly `GET ` is an HTTP scrape, anything else a
/// binary wire session. A wire frame would need a little-endian length
/// of 0x20544547 (~542 MB, far past `MAX_FRAME_LEN`) to start with
/// `GET `, so there is no ambiguity. Reads until four bytes or EOF: a
/// request head may trickle in byte by byte, and a session cut short
/// inside its first length prefix still reaches the frame reader, which
/// reports it.
fn serve_connection(stream: TcpStream, service: Arc<MatchService>) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".to_string());
    let mut prefix = Vec::with_capacity(4);
    match (&stream).take(4).read_to_end(&mut prefix) {
        // EOF before the first byte: nothing to serve.
        Ok(0) => {}
        Ok(_) if prefix == b"GET " => handle_http_scrape(&stream, prefix, &service),
        Ok(_) => handle_wire_session(&stream, &prefix, &service, &peer),
        Err(e) => eprintln!("revmatch-server: {peer}: read failed: {e}"),
    }
    // Full close, covering every clone of the socket (the accept loop
    // holds one until it reaps this thread): the client sees EOF once
    // the last reply has flushed.
    let _ = stream.shutdown(Shutdown::Both);
}

/// Runs a binary wire session whose first bytes, `prefix`, are already
/// read.
fn handle_wire_session(stream: &TcpStream, prefix: &[u8], service: &MatchService, peer: &str) {
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

    let mut input = BufReader::new(prefix.chain(stream));
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
                        // Nothing ran: the witness slot carries the verdict.
                        let report = JobReport::error(job.kind(), MatchError::Overloaded);
                        Outgoing::Ready(client_id, Box::new(report))
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
}

/// Answers one `GET /metrics` HTTP request, whose first bytes are
/// `head`.
fn handle_http_scrape(mut stream: &TcpStream, mut head: Vec<u8>, service: &MatchService) {
    // Consume the request head (we only serve one route).
    let mut buf = [0u8; 4096];
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
}

/// An accepted connection: the thread serving it, and a clone of its
/// socket whose read half the drain shuts down so the thread sees EOF.
struct Connection {
    read_half: TcpStream,
    thread: thread::JoinHandle<()>,
}

fn main() -> ExitCode {
    let opts = parse_options();
    let wake = match install_signal_handlers() {
        Ok(fd) => fd,
        Err(e) => {
            eprintln!("revmatch-server: cannot create the wake pipe: {e}");
            return ExitCode::FAILURE;
        }
    };

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

    // Every accepted connection is registered, whatever it turns out to
    // speak, so the drain can also free one whose client never sent
    // anything.
    let mut connections: Vec<Connection> = Vec::new();
    while !SHUTDOWN.load(Ordering::SeqCst) {
        let accepted = match listener.accept() {
            Ok((stream, _)) => {
                // Join the threads of closed connections, so a
                // long-lived server keeps no descriptor for them.
                for closed in connections.extract_if(.., |c| c.thread.is_finished()) {
                    let _ = closed.thread.join();
                }
                stream.try_clone().map(|read_half| {
                    let service = Arc::clone(&service);
                    let thread = thread::spawn(move || serve_connection(stream, service));
                    connections.push(Connection { read_half, thread });
                })
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                wait_for_connection(listener.as_raw_fd(), wake)
            }
            Err(e) => Err(e),
        };
        if let Err(e) = accepted {
            // A real failure (EMFILE with a full descriptor table, say)
            // would repeat at once: back off instead of spinning.
            eprintln!("revmatch-server: accept failed: {e}");
            thread::sleep(Duration::from_millis(100));
        }
    }

    // Graceful drain: stop reading from every open connection (their
    // writers still flush pending reports), join the connection threads,
    // then drain the service itself.
    eprintln!("revmatch-server: shutdown requested, draining");
    drop(listener);
    for conn in &connections {
        let _ = conn.read_half.shutdown(Shutdown::Read);
    }
    for conn in connections {
        let _ = conn.thread.join();
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
