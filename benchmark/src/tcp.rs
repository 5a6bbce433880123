//! The TCP driver: a spawned `revmatch-server` and one client connection.
//!
//! The connection uses two threads: the caller's thread encodes and
//! writes submits (on schedule, or whenever a closed-loop slot frees),
//! and a reader thread reads each report frame as it arrives, so every
//! completion is stamped on arrival. The server answers a connection in
//! submit order, so the reader pairs frames with sends in order.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread;
use std::time::Instant;

use revmatch::{read_server_frame, write_client_frame, ClientFrame, ServerFrame};

use crate::phase::{Completion, Phase, Plan};
use crate::pool::Source;
use crate::stats::{micros, Schedule};

/// A running `revmatch-server` child process.
pub struct Server {
    child: Option<Child>,
    /// Held open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

impl Server {
    /// Starts `revmatch-server --addr 127.0.0.1:0` with default flags and
    /// waits for its `listening on ADDR` line. `traced` sets
    /// `REVMATCH_TRACE=all`, the server's only tracing switch.
    pub fn spawn(path: &Path, traced: bool) -> Result<Server, String> {
        let mut cmd = Command::new(path);
        cmd.args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if traced {
            cmd.env("REVMATCH_TRACE", "all");
        } else {
            cmd.env_remove("REVMATCH_TRACE");
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", path.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child: Some(child),
            _stdout: stdout,
            addr: String::new(),
        };
        let mut line = String::new();
        server
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the server's first line: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected first server line {line:?}"))?
            .to_string();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("server is running").id()
    }

    /// Sends `SIGTERM`, waits for exit, and requires exit code 0 and a
    /// `drained (N submitted, N completed, 0 shed)` line with `N = jobs`.
    pub fn stop(mut self, jobs: u64) -> Result<(), String> {
        let mut child = self.child.take().expect("server is running");
        // SAFETY: `kill` only sends a signal; the pid is our own child,
        // which has not been reaped yet, so it cannot name another process.
        if unsafe { kill(child.id() as i32, SIGTERM) } != 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err("could not signal the server".into());
        }
        let status = child
            .wait()
            .map_err(|e| format!("waiting for the server: {e}"))?;
        let mut stderr = String::new();
        if let Some(mut e) = child.stderr.take() {
            let _ = e.read_to_string(&mut stderr);
        }
        if !status.success() {
            return Err(format!("server exited with {status}: {stderr}"));
        }
        let want = format!("drained ({jobs} submitted, {jobs} completed, 0 shed)");
        if !stderr.contains(&want) {
            return Err(format!("server drain line is not {want:?}: {stderr:?}"));
        }
        Ok(())
    }

    /// One Prometheus scrape over HTTP on the server's port.
    pub fn scrape(&self) -> Result<String, String> {
        let fail = |e: io::Error| format!("scraping /metrics: {e}");
        let mut s = TcpStream::connect(&self.addr).map_err(fail)?;
        s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .map_err(fail)?;
        let mut text = String::new();
        s.read_to_string(&mut text).map_err(fail)?;
        text.split_once("\r\n\r\n")
            .map(|(_, body)| body.to_string())
            .ok_or_else(|| "scrape without an HTTP body".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection.
pub struct Conn {
    stream: TcpStream,
    next_id: u64,
}

/// A submit the writer sent, for the reader to pair with its report.
struct Sent {
    client_id: u64,
    index: u64,
    due: Instant,
    encode_ns: u64,
    bytes: u64,
}

/// Reads one length-prefixed frame, prefix included.
fn read_raw(input: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut frame = vec![0u8; 4];
    input.read_exact(&mut frame)?;
    let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
    if len > revmatch::MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "oversized frame",
        ));
    }
    frame.resize(4 + len, 0);
    input.read_exact(&mut frame[4..])?;
    Ok(frame)
}

/// The reader thread: one report per send, in order. Each report frees a
/// closed-loop slot through `freed`; returning drops it, which also stops
/// a writer waiting for a slot.
fn read_reports(
    stream: TcpStream,
    sent: Receiver<Sent>,
    freed: Sender<()>,
) -> Result<Vec<Completion>, String> {
    let mut input = BufReader::new(stream);
    let mut out = Vec::new();
    for s in sent {
        let frame = read_raw(&mut input).map_err(|e| format!("reading a report: {e}"))?;
        let done = Instant::now();
        let t0 = Instant::now();
        let decoded = read_server_frame(&mut frame.as_slice());
        let decode_ns = t0.elapsed().as_nanos() as u64;
        match decoded {
            Ok(Some(ServerFrame::Report { client_id, report })) if client_id == s.client_id => {
                out.push(Completion {
                    index: s.index,
                    due: s.due,
                    done,
                    report,
                    client_ns: s.encode_ns,
                    decode_ns,
                    submit_bytes: s.bytes,
                    report_bytes: frame.len() as u64,
                });
            }
            other => return Err(format!("job {}: unexpected reply {other:?}", s.client_id)),
        }
        let _ = freed.send(());
    }
    Ok(out)
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        Ok(Conn { stream, next_id: 0 })
    }

    /// Jobs sent on this connection so far.
    pub fn sent(&self) -> u64 {
        self.next_id
    }

    /// Runs one phase from submission number `first` and drains it.
    pub fn run(&mut self, src: &Source, first: u64, plan: Plan) -> Result<Phase, String> {
        let start = Instant::now();
        let mut phase = Phase::new(start, first);
        let reader_stream = self
            .stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        let (sent_tx, sent_rx) = mpsc::channel();
        let (freed_tx, freed_rx) = mpsc::channel();
        let (written, read) = thread::scope(|s| {
            let reader = s.spawn(move || read_reports(reader_stream, sent_rx, freed_tx));
            let written = self.write_jobs(src, first, plan, &mut phase, sent_tx, freed_rx);
            (written, reader.join().expect("reader thread panicked"))
        });
        phase.completions = read?;
        let sent = written?;
        phase.next = first + sent;
        Ok(phase)
    }

    /// The writer side of [`Conn::run`]; returns how many jobs it sent.
    fn write_jobs(
        &mut self,
        src: &Source,
        first: u64,
        plan: Plan,
        phase: &mut Phase,
        sent_tx: Sender<Sent>,
        freed: Receiver<()>,
    ) -> Result<u64, String> {
        let start = phase.start;
        let sched = match plan {
            Plan::Open { rate, .. } => Schedule::new(start, rate),
            Plan::Closed { .. } => Schedule::new(start, 1.0),
        };
        let mut buf = Vec::new();
        let mut inflight = 0usize;
        let mut sent = 0u64;
        loop {
            let due = match plan {
                Plan::Closed { outstanding, stop } => {
                    inflight -= freed.try_iter().count();
                    if inflight == outstanding {
                        if freed.recv().is_err() {
                            break; // the reader stopped; it reports why
                        }
                        inflight -= 1;
                    }
                    if !stop.more(sent, start) {
                        phase.offered_for = start.elapsed();
                        break;
                    }
                    Instant::now()
                }
                Plan::Open { count, .. } => {
                    if sent == count {
                        phase.offered_for = sched.due(count).saturating_duration_since(start);
                        break;
                    }
                    let due = sched.due(sent);
                    let now = Instant::now();
                    if due > now {
                        thread::sleep(due - now);
                    }
                    phase.lags_us.push(micros(due, Instant::now()));
                    due
                }
            };
            let item = src.get(first + sent);
            let frame = ClientFrame::Submit {
                client_id: self.next_id,
                seed: Some(item.seed),
                job: item.job.clone(),
            };
            buf.clear();
            let t0 = Instant::now();
            write_client_frame(&mut buf, &frame).expect("encoding into a Vec cannot fail");
            let encode_ns = t0.elapsed().as_nanos() as u64;
            let record = Sent {
                client_id: self.next_id,
                index: first + sent,
                due,
                encode_ns,
                bytes: buf.len() as u64,
            };
            if sent_tx.send(record).is_err() {
                break;
            }
            self.stream
                .write_all(&buf)
                .map_err(|e| format!("sending job {}: {e}", self.next_id))?;
            self.next_id += 1;
            sent += 1;
            inflight += 1;
        }
        Ok(sent)
    }

    /// Half-closes, waits for the server to close its side, and drops the
    /// connection.
    pub fn close(self) -> Result<(), String> {
        self.stream
            .shutdown(Shutdown::Write)
            .map_err(|e| format!("half-close: {e}"))?;
        let mut rest = Vec::new();
        (&self.stream)
            .read_to_end(&mut rest)
            .map_err(|e| format!("waiting for the server to close: {e}"))?;
        if rest.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{} unexpected bytes after the last report",
                rest.len()
            ))
        }
    }
}
