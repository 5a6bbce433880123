//! Lock-free fixed-capacity span rings (overwrite-oldest).
//!
//! Each worker shard (plus the submit side) owns one [`SpanRing`]. A
//! ring is a power-of-two-free circular array of seqlock slots: writers
//! claim a ticket with one `fetch_add` and publish the span's packed
//! words under a per-slot sequence number; the drain takes a consistent
//! snapshot without ever blocking a writer. There are no mutexes and no
//! allocation on the record path — recording a span is one atomic RMW
//! plus six plain stores, cheap enough to leave sampling on in
//! production.
//!
//! Overwrite-oldest semantics: once the ring has wrapped, a new span
//! replaces the oldest one in place. The drain therefore returns the
//! **most recent** `capacity` spans per ring; [`SpanRing::dropped`]
//! reports how many were overwritten so callers can surface the loss
//! instead of silently under-reporting (`Tracer::dropped` sums it over
//! the rings).
//!
//! The seqlock protocol (per slot, `seq` initially 0 = never written):
//!
//! 1. writer: `seq ← 2·ticket + 1` (release) — slot is dirty;
//! 2. writer: store the span words (relaxed);
//! 3. writer: `seq ← 2·ticket + 2` (release) — slot is published.
//!
//! A reader accepts a slot only when it observes the same *even*
//! sequence before and after copying the words (with an acquire fence
//! between), so a torn read — a writer racing the drain, or two writers
//! a full wrap apart landing on one slot — is detected and skipped, and
//! a skipped slot is at most one span out of thousands, never a wrong
//! span.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Packed words per span — see `SpanRecord::{pack,unpack}` in the
/// parent module.
pub(crate) const SPAN_WORDS: usize = 4;

/// One seqlock slot: a sequence number guarding the packed span words.
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; SPAN_WORDS],
}

/// A lock-free, fixed-capacity, overwrite-oldest span buffer — see the
/// [module docs](self).
#[derive(Debug)]
pub(crate) struct SpanRing {
    /// Total spans ever pushed; `head % capacity` is the next slot.
    head: AtomicU64,
    /// Drain watermark: tickets below this were already handed out by
    /// [`drain`](Self::drain) and are not returned again.
    drained: AtomicU64,
    slots: Box<[Slot]>,
}

impl SpanRing {
    /// A ring holding the most recent `capacity` spans (clamped ≥ 1).
    pub(crate) fn new(capacity: usize) -> Self {
        let slots = (0..capacity.max(1))
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                words: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect();
        Self {
            head: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            slots,
        }
    }

    /// Records one packed span, overwriting the oldest when full.
    pub(crate) fn push(&self, words: [u64; SPAN_WORDS]) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        slot.seq.store(2 * ticket + 1, Ordering::Release);
        for (cell, word) in slot.words.iter().zip(words) {
            cell.store(word, Ordering::Relaxed);
        }
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// A consistent *non-consuming* snapshot of every published span in
    /// the ring, in no particular order. Slots caught mid-write are
    /// skipped, never returned torn. Production drains go through
    /// [`drain`](Self::drain); this stays as the watermark-free
    /// reference the tear tests exercise.
    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> Vec<[u64; SPAN_WORDS]> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue; // never written, or dirty right now
            }
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == before {
                out.push(words);
            }
        }
        out
    }

    /// Consuming snapshot: every published span not handed out by a
    /// previous `drain`, advancing the watermark to the push count
    /// observed at entry. Spans racing in *during* the drain stay
    /// buffered for the next one. Torn slots are skipped exactly as in
    /// [`snapshot`](Self::snapshot); the slot's sequence number encodes
    /// its ticket, which is what the watermark filters on.
    pub(crate) fn drain(&self) -> Vec<[u64; SPAN_WORDS]> {
        let cut = self.head.load(Ordering::Acquire);
        let start = self.drained.swap(cut, Ordering::AcqRel);
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue; // never written, or dirty right now
            }
            let ticket = before / 2 - 1;
            if ticket < start || ticket >= cut {
                continue; // already drained, or raced in after the cut
            }
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) == before {
                out.push(words);
            }
        }
        out
    }

    /// Total spans ever recorded into this ring.
    pub(crate) fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Spans overwritten before they could be drained.
    pub(crate) fn dropped(&self) -> u64 {
        self.recorded().saturating_sub(self.slots.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_in_capacity() {
        let ring = SpanRing::new(8);
        for i in 0..5u64 {
            ring.push([i, i + 100, i + 200, i + 300]);
        }
        let mut got = ring.snapshot();
        got.sort_unstable();
        assert_eq!(got.len(), 5);
        for (i, words) in got.iter().enumerate() {
            let i = i as u64;
            assert_eq!(*words, [i, i + 100, i + 200, i + 300]);
        }
        assert_eq!(ring.recorded(), 5);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let ring = SpanRing::new(4);
        for i in 0..10u64 {
            ring.push([i, 0, 0, 0]);
        }
        let mut ids: Vec<u64> = ring.snapshot().iter().map(|w| w[0]).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![6, 7, 8, 9], "only the most recent survive");
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 6);
    }

    #[test]
    fn drain_consumes_and_resumes_at_the_watermark() {
        let ring = SpanRing::new(8);
        for i in 0..5u64 {
            ring.push([i, 0, 0, 0]);
        }
        assert_eq!(ring.drain().len(), 5);
        assert!(ring.drain().is_empty(), "second drain starts empty");
        ring.push([9, 0, 0, 0]);
        let late: Vec<u64> = ring.drain().iter().map(|w| w[0]).collect();
        assert_eq!(late, vec![9], "only spans recorded since the last drain");
        // snapshot stays non-consuming for the tear tests.
        assert_eq!(ring.snapshot().len(), 6);
    }

    #[test]
    fn concurrent_writers_never_tear() {
        let ring = SpanRing::new(64);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        let v = t * 1_000_000 + i;
                        ring.push([v, v, v, v]);
                    }
                });
            }
            // Concurrent drains must only ever see self-consistent slots.
            for _ in 0..50 {
                for words in ring.snapshot() {
                    assert!(
                        words[0] == words[1] && words[1] == words[2] && words[2] == words[3],
                        "torn span escaped the seqlock: {words:?}"
                    );
                }
            }
        });
        assert_eq!(ring.recorded(), 4000);
        for words in ring.snapshot() {
            assert_eq!(words[0], words[3]);
        }
    }
}
