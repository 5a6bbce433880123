//! Sample statistics: nearest-rank percentiles under the supported-tail
//! rule, the open-loop due-time schedule, the error tally, and the
//! per-kind stage split of client latency.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// A reported percentile must leave at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, in per-mille, highest first.
const LADDER: [u64; 5] = [999, 990, 950, 900, 500];

/// 1-based nearest rank of the `per_mille` percentile among `n` samples.
fn rank(n: usize, per_mille: u64) -> usize {
    let r = (per_mille as usize * n).div_ceil(1000);
    r.clamp(1, n)
}

/// Nearest-rank percentile of ascending, non-empty `sorted` samples.
pub fn percentile(sorted: &[u64], per_mille: u64) -> u64 {
    sorted[rank(sorted.len(), per_mille) - 1]
}

/// A timing summary: the median and the highest percentile (up to a cap)
/// that has at least [`MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: u64,
    pub tail_per_mille: u64,
    pub tail: u64,
}

impl Summary {
    /// Summarizes `samples` (sorted in place); `None` when empty. The tail
    /// is the highest ladder percentile at or below `cap_per_mille` that the
    /// sample supports, falling back to the median.
    pub fn of(samples: &mut [u64], cap_per_mille: u64) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        samples.sort_unstable();
        let n = samples.len();
        let tail_per_mille = LADDER
            .into_iter()
            .filter(|&q| q <= cap_per_mille)
            .find(|&q| n - rank(n, q) >= MIN_BEYOND)
            .unwrap_or(500);
        Some(Summary {
            count: n,
            p50: percentile(samples, 500),
            tail_per_mille,
            tail: percentile(samples, tail_per_mille),
        })
    }

    /// Samples strictly beyond the tail's rank.
    pub fn beyond(&self) -> usize {
        self.count - rank(self.count, self.tail_per_mille)
    }

    /// The tail's name, e.g. `p99` or `p99.9`.
    pub fn tail_label(&self) -> String {
        let q = self.tail_per_mille;
        if q.is_multiple_of(10) {
            format!("p{}", q / 10)
        } else {
            format!("p{}.{}", q / 10, q % 10)
        }
    }

    /// One printable line: median, tail, and the counts behind them.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {} {unit}, {} {} {unit} (n={}, {} beyond)",
            self.p50,
            self.tail_label(),
            self.tail,
            self.count,
            self.beyond()
        )
    }
}

/// Median of unsorted values (`0.0` when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean (`0.0` when empty).
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0u64), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Whole microseconds from `from` to `to` (0 if `to` is earlier).
pub fn micros(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_micros() as u64
}

/// A fixed-rate open-loop arrival schedule: job `i` is due at
/// `start + i / rate`, whatever the system under test is doing. Latency is
/// timed from the due time, so a stall (of the generator or the system)
/// shows in every job that should have been sent during it.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    interval_ns: u64,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_s: f64) -> Schedule {
        Schedule {
            start,
            interval_ns: (1e9 / rate_per_s).round().max(1.0) as u64,
        }
    }

    pub fn due(&self, i: u64) -> Instant {
        self.start + Duration::from_nanos(self.interval_ns * i)
    }

    /// The end (exclusive) of the run of jobs from `next` on that are due
    /// by `now`: after a stall the generator sends all of them at once.
    pub fn due_by(&self, next: u64, now: Instant) -> u64 {
        let elapsed = now.saturating_duration_since(self.start).as_nanos() as u64;
        next.max(elapsed / self.interval_ns + 1)
    }
}

/// How every attempted job ended. The four outcomes are exclusive, so
/// `attempted = correct + failed + refused + wrong`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub correct: u64,
    /// Completed with an error report.
    pub failed: u64,
    /// Never ran: `QueueFull`, `Shed`, or an `Overloaded` wire report.
    pub refused: u64,
    /// Completed with an answer the off-clock check rejected.
    pub wrong: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.correct += other.correct;
        self.failed += other.failed;
        self.refused += other.refused;
        self.wrong += other.wrong;
    }

    /// Every attempted job that did not end correct.
    pub fn errors(&self) -> u64 {
        self.failed + self.refused + self.wrong
    }

    /// `(failed + refused + wrong) / attempted`, refused jobs included in
    /// the base: a refusal is an attempt that missed.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.errors() as f64 / self.attempted as f64
    }

    pub fn balanced(&self) -> bool {
        self.attempted == self.correct + self.errors()
    }
}

/// One completed job's client latency and the service's own timing of it.
#[derive(Debug, Clone, Copy)]
pub struct StageSample {
    pub kind: &'static str,
    pub latency_us: u64,
    pub queue_wait_us: u64,
    pub exec_us: u64,
}

/// Mean per-job stages of one kind; `rest` is latency minus queue wait
/// minus execute (hand-off in process, server overhead over TCP), so the
/// three stages add up to the latency.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Split {
    pub jobs: u64,
    pub latency_us: f64,
    pub queue_wait_us: f64,
    pub exec_us: f64,
    pub rest_us: f64,
}

/// Per-kind stage split of client latency.
pub fn stage_split(samples: &[StageSample]) -> BTreeMap<&'static str, Split> {
    let mut sums: BTreeMap<&'static str, (u64, i128, i128, i128, i128)> = BTreeMap::new();
    for s in samples {
        let e = sums.entry(s.kind).or_default();
        let (lat, qw, ex) = (
            i128::from(s.latency_us),
            i128::from(s.queue_wait_us),
            i128::from(s.exec_us),
        );
        e.0 += 1;
        e.1 += lat;
        e.2 += qw;
        e.3 += ex;
        e.4 += lat - qw - ex;
    }
    sums.into_iter()
        .map(|(kind, (n, lat, qw, ex, rest))| {
            let per = |v: i128| v as f64 / n as f64;
            (
                kind,
                Split {
                    jobs: n,
                    latency_us: per(lat),
                    queue_wait_us: per(qw),
                    exec_us: per(ex),
                    rest_us: per(rest),
                },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_selection_keeps_ten_samples_beyond_the_tail() {
        // 1..=1000: p99 is 990 with exactly 10 samples beyond it.
        let mut s: Vec<u64> = (1..=1000).rev().collect();
        let sum = Summary::of(&mut s, 990).unwrap();
        assert_eq!((sum.p50, sum.tail_per_mille, sum.tail), (500, 990, 990));
        assert_eq!((sum.count, sum.beyond()), (1000, 10));
        assert_eq!(sum.tail_label(), "p99");
        assert_eq!(
            sum.describe("us"),
            "p50 500 us, p99 990 us (n=1000, 10 beyond)"
        );

        // One sample fewer cannot support p99: fall back to p95.
        let mut s: Vec<u64> = (1..=999).collect();
        let sum = Summary::of(&mut s, 990).unwrap();
        assert_eq!(
            (sum.tail_label(), sum.tail, sum.beyond()),
            ("p95".into(), 950, 49)
        );

        // The cap bounds the tail even when the sample supports more; the
        // uncapped tail goes to p99.9.
        let mut s: Vec<u64> = (1..=20_000).collect();
        assert_eq!(Summary::of(&mut s, 990).unwrap().tail, 19_800);
        let sum = Summary::of(&mut s, 999).unwrap();
        assert_eq!(
            (sum.tail_label(), sum.tail, sum.beyond()),
            ("p99.9".into(), 19_980, 20)
        );

        // Too few samples for any tail: report the median twice.
        let mut s = vec![7, 3, 5];
        let sum = Summary::of(&mut s, 990).unwrap();
        assert_eq!((sum.p50, sum.tail, sum.tail_per_mille), (5, 5, 500));
        assert!(Summary::of(&mut [], 990).is_none());
    }

    #[test]
    fn generator_stall_inflates_due_time_latency_and_shows_as_lag() {
        // 1000 jobs/s for one second; each job is answered 100 µs after it
        // is sent. The generator wakes every millisecond but stalls from
        // 100 ms to 120 ms.
        let t0 = Instant::now();
        let sched = Schedule::new(t0, 1000.0);
        let mut next = 0;
        let (mut latency, mut lag, mut from_send) = (Vec::new(), Vec::new(), Vec::new());
        for wake_ms in (0..1000).filter(|ms| !(101..120).contains(ms)) {
            let now = t0 + Duration::from_millis(wake_ms);
            let end = sched.due_by(next, now);
            for i in next..end {
                let done = now + Duration::from_micros(100);
                latency.push(micros(sched.due(i), done));
                lag.push(micros(sched.due(i), now));
                from_send.push(micros(now, done));
            }
            next = end;
        }
        assert_eq!(next, 1000);
        // Jobs 101..=119 were due during the stall and all went out at
        // 120 ms, each late by what it waited.
        assert_eq!(
            lag[100..121],
            {
                let mut v = vec![0];
                v.extend((1..=19).rev().map(|ms| ms * 1000));
                v.push(0);
                v
            }[..]
        );
        assert_eq!(latency[101], 19_100);
        // Timing from the send would hide the stall entirely.
        assert!(from_send.iter().all(|&us| us == 100));
        // Both tails see it: 19 late jobs put p99 (10 beyond) at the
        // tenth-worst lag.
        let lag_tail = Summary::of(&mut lag, 990).unwrap();
        assert_eq!((lag_tail.p50, lag_tail.tail), (0, 9000));
        let latency_tail = Summary::of(&mut latency, 990).unwrap();
        assert_eq!((latency_tail.p50, latency_tail.tail), (100, 9100));
    }

    #[test]
    fn error_rate_counts_refusals_in_its_base() {
        let mut t = Tally {
            attempted: 90,
            correct: 88,
            failed: 1,
            refused: 0,
            wrong: 1,
        };
        // A second phase in which ten arrivals were refused.
        t.add(Tally {
            attempted: 10,
            correct: 0,
            failed: 0,
            refused: 10,
            wrong: 0,
        });
        assert!(t.balanced());
        assert_eq!(t.errors(), 12);
        assert!((t.error_rate() - 0.12).abs() < 1e-12);
        assert_eq!(Tally::default().error_rate(), 0.0);
        t.correct -= 1;
        assert!(!t.balanced(), "a job with no outcome breaks the tally");
    }

    #[test]
    fn stage_split_adds_up_to_client_latency_per_kind() {
        let s = |kind, latency_us, queue_wait_us, exec_us| StageSample {
            kind,
            latency_us,
            queue_wait_us,
            exec_us,
        };
        let samples = [
            s("promise", 150, 20, 100),
            s("promise", 250, 120, 100),
            s("enumerate", 16_500, 300, 16_000),
            s("promise", 131, 0, 130),
        ];
        let split = stage_split(&samples);
        assert_eq!(split.len(), 2);
        for (kind, sp) in &split {
            let total = sp.queue_wait_us + sp.exec_us + sp.rest_us;
            assert!((total - sp.latency_us).abs() < 1e-9, "{kind}");
        }
        let p = split["promise"];
        assert_eq!(p.jobs, 3);
        assert!((p.rest_us - (30.0 + 30.0 + 1.0) / 3.0).abs() < 1e-9);
        assert_eq!(split["enumerate"].rest_us, 200.0);
    }

    #[test]
    fn median_and_mean_of_small_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean([1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(std::iter::empty()), 0.0);
    }
}
