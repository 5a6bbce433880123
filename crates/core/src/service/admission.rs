//! Cost-aware admission control for the intake queue.
//!
//! The intake lanes are FIFO, so without admission control one burst of
//! expensive jobs (a wide Simon round forced onto a dense backend, a
//! `2^n`-candidate enumeration sweep) parks every cheap promise job
//! behind seconds of queued work. [`Admission`] breaks that head-of-line
//! blocking with three pieces:
//!
//! * a **cost model**: an estimate of each job's execute-stage latency
//!   from `(kind, width)`, seeded from measured per-kind constants and
//!   continuously calibrated by an EWMA over the same execute samples
//!   that feed the `revmatch_exec_seconds{kind}` histograms;
//! * a **backlog gauge**: the summed cost estimate of every queued job,
//!   maintained under the lane locks so it tracks the intake exactly;
//! * an **overload policy**: while the backlog exceeds
//!   [`AdmissionConfig::overload_us`], expensive jobs (estimate ≥
//!   [`AdmissionConfig::expensive_us`]) are **deferred** into a side
//!   buffer (`revmatch_admission_requeued_total`) and re-injected by the
//!   workers once the backlog halves; when the buffer is full they are
//!   **shed** (`revmatch_admission_shed_total`,
//!   [`super::SubmitOutcome::Shed`]). Cheap jobs are never touched — the
//!   whole point is that they keep flowing.
//!
//! Deferral preserves the job's ticket and seed: a deferred job's report
//! is bit-identical to an immediately-admitted run, it just arrives
//! later. Shutdown executes still-deferred jobs inline so every ticket
//! resolves.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::service::job::JobKind;

use super::Request;

/// Number of job kinds — sizes the per-kind cost tables.
const KINDS: usize = JobKind::ALL.len();

/// Cost-model width slots: widths are clamped to `0..=MAX_SLOT` so every
/// `(kind, width)` pair maps to a fixed atomic cell.
const MAX_SLOT: usize = 64;

/// Tuning for the admission controller. The defaults are the ones the
/// recorded overload runs measured: ~100 ms of estimated queued work
/// across the whole service marks overload, whatever the shard count,
/// and 2 ms separates "cheap" (promise and friends at serving widths)
/// from "expensive" (dense quantum rounds, wide enumeration sweeps).
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Estimated backlog (µs of execute time, summed over the queued jobs
    /// of every shard) above which the service is overloaded. It is one
    /// service-wide threshold: it does not scale with the shard count.
    pub overload_us: u64,
    /// Estimated job cost (µs) at or above which a job counts as
    /// expensive and is deferred/shed under overload.
    pub expensive_us: u64,
    /// Capacity of the deferral buffer; an expensive job arriving under
    /// overload with the buffer full is shed.
    pub defer_capacity: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            overload_us: 100_000,
            expensive_us: 2_000,
            defer_capacity: 256,
        }
    }
}

impl AdmissionConfig {
    /// Overrides the service-wide overload threshold (µs of estimated
    /// backlog summed over every shard; clamped to ≥ 1).
    #[must_use]
    pub fn with_overload_us(mut self, overload_us: u64) -> Self {
        self.overload_us = overload_us.max(1);
        self
    }

    /// Overrides the expensive-job cost threshold (µs; clamped to ≥ 1).
    #[must_use]
    pub fn with_expensive_us(mut self, expensive_us: u64) -> Self {
        self.expensive_us = expensive_us.max(1);
        self
    }

    /// Overrides the deferral-buffer capacity (0 disables deferral: every
    /// expensive job under overload is shed outright).
    #[must_use]
    pub fn with_defer_capacity(mut self, capacity: usize) -> Self {
        self.defer_capacity = capacity;
        self
    }
}

/// Static cost seed for `(kind, width)` in µs of execute time, from the
/// measured per-kind figures in ROADMAP.md (promise ~60 µs at width 6;
/// Simon ≫ promise at equal width on the amplitude backends; enumeration
/// sweeps `2^n` candidates). The EWMA calibration replaces these within
/// a few completed jobs per cell — they only order the very first
/// admission decisions.
fn default_cost_us(kind: JobKind, width: usize) -> u64 {
    // (base µs at width 6, extra right-shifts per line above 6 in
    // eighths — 8 means "doubles every line", 4 "every two lines").
    let (base, eighths): (u64, u32) = match kind {
        JobKind::Promise => (60, 4),
        JobKind::Identify => (300, 4),
        JobKind::Quantum => (500, 8),
        JobKind::Sat => (250, 4),
        JobKind::Enumerate => (400, 8),
    };
    let extra = width.saturating_sub(6) as u32;
    base.saturating_mul(1u64 << (extra * eighths / 8).min(20))
}

/// The admission controller owned by one service — see the
/// [module docs](self).
#[derive(Debug)]
pub(crate) struct Admission {
    cfg: AdmissionConfig,
    /// EWMA cost estimate per `(kind, width)` cell, µs. Written with
    /// relaxed load/store — a lost update between concurrent workers
    /// re-converges on the next sample.
    est_us: Vec<AtomicU64>,
    /// Summed cost estimate of every job currently queued in the intake
    /// lanes (deferred jobs are excluded until re-injection).
    backlog_us: AtomicU64,
    /// Expensive jobs parked under overload, FIFO.
    deferred: Mutex<VecDeque<Request>>,
}

impl Admission {
    pub(crate) fn new(cfg: AdmissionConfig) -> Self {
        let est_us = (0..KINDS * (MAX_SLOT + 1))
            .map(|i| {
                let kind = JobKind::ALL[i / (MAX_SLOT + 1)];
                AtomicU64::new(default_cost_us(kind, i % (MAX_SLOT + 1)))
            })
            .collect();
        Self {
            cfg,
            est_us,
            backlog_us: AtomicU64::new(0),
            deferred: Mutex::new(VecDeque::new()),
        }
    }

    pub(crate) fn config(&self) -> &AdmissionConfig {
        &self.cfg
    }

    fn cell(&self, kind: JobKind, width: usize) -> &AtomicU64 {
        &self.est_us[kind.index() * (MAX_SLOT + 1) + width.min(MAX_SLOT)]
    }

    /// The current cost estimate for a `(kind, width)` job in µs.
    pub(crate) fn estimate_us(&self, kind: JobKind, width: usize) -> u64 {
        self.cell(kind, width).load(Ordering::Relaxed)
    }

    /// Calibrates the `(kind, width)` cell with one measured
    /// execute-stage sample (EWMA, 1/8 weight on the new sample — the
    /// same samples the `revmatch_exec_seconds{kind}` histogram records).
    pub(crate) fn observe(&self, kind: JobKind, width: usize, exec_us: u64) {
        let cell = self.cell(kind, width);
        let old = cell.load(Ordering::Relaxed);
        cell.store((old.saturating_mul(7) + exec_us) / 8, Ordering::Relaxed);
    }

    /// Adds an accepted job's estimated cost to the backlog gauge.
    /// Called from the queue's accept hook, under the lane lock, so it
    /// can never race the matching [`Self::note_dequeued`].
    pub(crate) fn note_enqueued(&self, cost_us: u64) {
        self.backlog_us.fetch_add(cost_us, Ordering::Relaxed);
    }

    /// Removes a dequeued job's estimated cost from the backlog gauge.
    pub(crate) fn note_dequeued(&self, cost_us: u64) {
        let _ = self
            .backlog_us
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(cost_us))
            });
    }

    /// The current estimated backlog in µs of execute time.
    pub(crate) fn backlog_us(&self) -> u64 {
        self.backlog_us.load(Ordering::Relaxed)
    }

    /// Whether the intake is overloaded (backlog above the threshold).
    pub(crate) fn overloaded(&self) -> bool {
        self.backlog_us() > self.cfg.overload_us
    }

    /// Whether the backlog has drained to the re-injection low-water
    /// mark (half the overload threshold) — hysteresis so deferred jobs
    /// don't thrash in and out. Inclusive, so a fully-drained backlog
    /// always re-injects even when the threshold rounds down to zero.
    pub(crate) fn below_low_water(&self) -> bool {
        self.backlog_us() <= self.cfg.overload_us / 2
    }

    /// Parks an expensive request in the deferral buffer; hands it back
    /// as `Some(req)` when the buffer is full (the caller sheds it).
    pub(crate) fn defer(&self, req: Request) -> Option<Request> {
        let mut deferred = self.deferred.lock().unwrap_or_else(PoisonError::into_inner);
        if deferred.len() >= self.cfg.defer_capacity {
            return Some(req);
        }
        deferred.push_back(req);
        None
    }

    /// Takes the oldest deferred request, if any.
    pub(crate) fn pop_deferred(&self) -> Option<Request> {
        self.deferred
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_front()
    }

    /// Returns a request to the front of the deferral buffer (a
    /// re-injection attempt that found every lane full).
    pub(crate) fn push_front_deferred(&self, req: Request) {
        self.deferred
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_front(req);
    }

    /// Jobs currently parked in the deferral buffer.
    pub(crate) fn deferred_len(&self) -> usize {
        self.deferred
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_order_kinds_by_cost() {
        // At equal width the quantum and enumeration paths must dominate
        // promise jobs — that ordering is what admission control exists
        // to exploit.
        for width in [6, 8, 10, 12] {
            let promise = default_cost_us(JobKind::Promise, width);
            assert!(default_cost_us(JobKind::Quantum, width) > promise);
            assert!(default_cost_us(JobKind::Enumerate, width) > promise);
        }
        // Growth: enumerate doubles per line.
        assert_eq!(
            default_cost_us(JobKind::Enumerate, 10),
            16 * default_cost_us(JobKind::Enumerate, 6)
        );
    }

    #[test]
    fn ewma_calibration_converges_to_observations() {
        let adm = Admission::new(AdmissionConfig::default());
        let seeded = adm.estimate_us(JobKind::Promise, 6);
        assert_eq!(seeded, default_cost_us(JobKind::Promise, 6));
        for _ in 0..64 {
            adm.observe(JobKind::Promise, 6, 1_000);
        }
        let calibrated = adm.estimate_us(JobKind::Promise, 6);
        assert!(
            (900..=1_100).contains(&calibrated),
            "EWMA should converge near 1000, got {calibrated}"
        );
        // Other cells are untouched.
        assert_eq!(
            adm.estimate_us(JobKind::Promise, 7),
            default_cost_us(JobKind::Promise, 7)
        );
    }

    #[test]
    fn backlog_tracks_enqueue_dequeue_and_saturates() {
        let adm = Admission::new(AdmissionConfig::default().with_overload_us(100));
        assert!(!adm.overloaded());
        adm.note_enqueued(80);
        assert!(!adm.overloaded(), "80 <= 100");
        adm.note_enqueued(50);
        assert!(adm.overloaded(), "130 > 100");
        assert!(!adm.below_low_water());
        adm.note_dequeued(90);
        assert!(adm.below_low_water(), "40 < 50");
        adm.note_dequeued(1_000);
        assert_eq!(adm.backlog_us(), 0, "saturating, never wraps");
    }
}
