//! What one load phase sends and what it sees come back, shared by the
//! in-process and TCP drivers.

use std::time::{Duration, Instant};

use revmatch::JobReport;

/// When a closed loop stops offering work.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    After(Duration),
    Jobs(u64),
}

impl Stop {
    /// Whether job number `sent` (counted from the phase's first) may still
    /// be offered.
    pub fn more(self, sent: u64, start: Instant) -> bool {
        match self {
            Stop::After(d) => start.elapsed() < d,
            Stop::Jobs(n) => sent < n,
        }
    }
}

/// A load shape.
#[derive(Debug, Clone, Copy)]
pub enum Plan {
    /// Keep `outstanding` jobs in flight; send the next on each completion.
    Closed { outstanding: usize, stop: Stop },
    /// Send `count` jobs at a fixed `rate` per second, on schedule.
    Open { rate: f64, count: u64 },
}

/// One completed job as the client saw it.
#[derive(Debug)]
pub struct Completion {
    /// The job's submission number in the workload's source.
    pub index: u64,
    /// Open loop: when the job was due; closed loop: when it was sent.
    pub due: Instant,
    /// When the client saw the report.
    pub done: Instant,
    pub report: JobReport,
    /// In process: the `submit` call; over TCP: encoding the frame.
    pub client_ns: u64,
    /// Over TCP: decoding the report frame.
    pub decode_ns: u64,
    pub submit_bytes: u64,
    pub report_bytes: u64,
}

/// Everything one phase produced.
#[derive(Debug)]
pub struct Phase {
    pub start: Instant,
    /// How long work was offered (completions after it are drain).
    pub offered_for: Duration,
    pub completions: Vec<Completion>,
    /// Jobs the service turned away at submit.
    pub refused: Vec<u64>,
    /// Open loop: µs each job went out after its due time.
    pub lags_us: Vec<u64>,
    /// The submission number after this phase's last job.
    pub next: u64,
}

impl Phase {
    pub fn new(start: Instant, first: u64) -> Phase {
        Phase {
            start,
            offered_for: Duration::ZERO,
            completions: Vec::new(),
            refused: Vec::new(),
            lags_us: Vec::new(),
            next: first,
        }
    }

    pub fn attempted(&self) -> u64 {
        (self.completions.len() + self.refused.len()) as u64
    }
}
