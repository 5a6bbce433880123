//! The in-process driver: one client thread against a `MatchService`.
//!
//! Completions are found by polling every outstanding ticket, so each is
//! stamped when its report is first seen ready rather than when a FIFO
//! waiter reaches it (a cheap job finishing behind an enumerate job on
//! the other shard is not charged the enumerate job's time).

use std::thread;
use std::time::{Duration, Instant};

use revmatch::{JobTicket, MatchService, ServiceConfig, SubmitOutcome, TraceConfig};

use crate::phase::{Completion, Phase, Plan, Stop};
use crate::pool::Source;
use crate::stats::{micros, Schedule};

/// Pause between polls of the outstanding tickets when none was ready.
const POLL: Duration = Duration::from_micros(10);

/// The service in its served defaults (one shard per CPU, admission and
/// rebalancer off), with span tracing of every job on or off.
pub fn start(traced: bool) -> MatchService {
    let trace = if traced {
        TraceConfig::all()
    } else {
        TraceConfig::off()
    };
    MatchService::start(ServiceConfig::default().with_trace(trace))
}

struct Pending {
    index: u64,
    due: Instant,
    client_ns: u64,
    ticket: JobTicket,
}

/// Submits job `index`; returns whether the service accepted it.
fn submit(
    svc: &MatchService,
    src: &Source,
    index: u64,
    due: Instant,
    inflight: &mut Vec<Pending>,
    phase: &mut Phase,
) -> bool {
    let item = src.get(index);
    let job = item.job.clone();
    let t0 = Instant::now();
    let outcome = svc.submit_seeded(job, item.seed);
    let client_ns = t0.elapsed().as_nanos() as u64;
    match outcome {
        SubmitOutcome::Enqueued(ticket) => {
            inflight.push(Pending {
                index,
                due,
                client_ns,
                ticket,
            });
            true
        }
        SubmitOutcome::QueueFull(_) | SubmitOutcome::Shed(_) => {
            phase.refused.push(index);
            false
        }
    }
}

/// Moves every ready ticket into the phase; returns how many there were.
fn collect(inflight: &mut Vec<Pending>, phase: &mut Phase) -> usize {
    let before = inflight.len();
    let mut k = 0;
    while k < inflight.len() {
        if !inflight[k].ticket.is_done() {
            k += 1;
            continue;
        }
        let done = Instant::now();
        let p = inflight.swap_remove(k);
        phase.completions.push(Completion {
            index: p.index,
            due: p.due,
            done,
            report: p.ticket.wait(),
            client_ns: p.client_ns,
            decode_ns: 0,
            submit_bytes: 0,
            report_bytes: 0,
        });
    }
    before - inflight.len()
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        thread::sleep(t - now);
    }
}

/// Runs one phase from submission number `first` and drains it.
pub fn run(svc: &MatchService, src: &Source, first: u64, plan: Plan) -> Phase {
    let start = Instant::now();
    let mut phase = Phase::new(start, first);
    let mut inflight = Vec::new();
    let mut sent = 0u64;
    match plan {
        Plan::Closed { outstanding, stop } => {
            loop {
                // A refused submit waits for the next poll instead of
                // being retried at once.
                while inflight.len() < outstanding && stop.more(sent, start) {
                    let index = first + sent;
                    sent += 1;
                    if !submit(svc, src, index, Instant::now(), &mut inflight, &mut phase) {
                        break;
                    }
                }
                if inflight.is_empty() && !stop.more(sent, start) {
                    break;
                }
                if collect(&mut inflight, &mut phase) == 0 {
                    thread::sleep(POLL);
                }
            }
            phase.offered_for = match stop {
                Stop::After(d) => d,
                Stop::Jobs(_) => start.elapsed(),
            };
        }
        Plan::Open { rate, count } => {
            let sched = Schedule::new(start, rate);
            loop {
                let end = sched.due_by(sent, Instant::now()).min(count);
                while sent < end {
                    let due = sched.due(sent);
                    phase.lags_us.push(micros(due, Instant::now()));
                    submit(svc, src, first + sent, due, &mut inflight, &mut phase);
                    sent += 1;
                }
                collect(&mut inflight, &mut phase);
                if sent == count && inflight.is_empty() {
                    break;
                }
                // Nothing outstanding: nothing to poll until the next send.
                let poll = Instant::now() + POLL;
                sleep_until(match (sent < count, inflight.is_empty()) {
                    (true, true) => sched.due(sent),
                    (true, false) => sched.due(sent).min(poll),
                    (false, _) => poll,
                });
            }
            phase.offered_for = sched.due(count).saturating_duration_since(start);
        }
    }
    phase.next = first + sent;
    phase
}
