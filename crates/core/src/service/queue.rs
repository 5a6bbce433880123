//! The bounded, sharded MPMC intake queue behind [`super::MatchService`].
//!
//! Each worker shard owns one FIFO lane; producers route to a preferred
//! lane (cache affinity) and spill to the others only when it is full, so
//! total intake capacity is `shards × capacity`. Consumers drain their own
//! lane first and steal from the fullest other lane when idle, which keeps
//! affinity under load without ever idling a worker while jobs wait.
//!
//! Blocking is split across two condvars: `work` parks consumers when every
//! lane is empty (or the queue is paused), `space` parks blocking producers
//! when every lane is full. Producers notify `work` after a push while
//! holding the `work` mutex — and symmetrically for `space` — so wakeups
//! cannot be lost between a re-check and a wait.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

/// A bounded multi-producer/multi-consumer queue split into per-shard
/// FIFO lanes.
#[derive(Debug)]
pub(crate) struct ShardedQueue<T> {
    lanes: Vec<Mutex<VecDeque<T>>>,
    /// Capacity of each lane.
    capacity: usize,
    /// Consumers park here when every lane is empty or the queue is paused.
    work: Mutex<()>,
    work_cond: Condvar,
    /// Blocking producers park here when every lane is full.
    space: Mutex<()>,
    space_cond: Condvar,
    /// Cleared by `close`: consumers drain what is left, then exit.
    open: AtomicBool,
    /// While set, consumers park even if lanes hold work.
    paused: AtomicBool,
}

impl<T> ShardedQueue<T> {
    pub(crate) fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        Self {
            lanes: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            capacity: capacity.max(1),
            work: Mutex::new(()),
            work_cond: Condvar::new(),
            space: Mutex::new(()),
            space_cond: Condvar::new(),
            open: AtomicBool::new(true),
            paused: AtomicBool::new(false),
        }
    }

    pub(crate) fn shards(&self) -> usize {
        self.lanes.len()
    }

    #[cfg(test)]
    pub(crate) fn depth(&self, lane: usize) -> usize {
        self.lanes[lane].lock().expect("lane lock").len()
    }

    pub(crate) fn total_depth(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.lock().expect("lane lock").len())
            .sum()
    }

    /// Pushes into `preferred`, spilling to the other lanes in order when
    /// it is full. Returns the lane used, or the item back when every lane
    /// is full (or the queue is closed).
    ///
    /// `on_accept(item, lane, depth_after)` runs **while the lane lock is
    /// still held**: the item is enqueued but not yet poppable, so the
    /// hook can stamp accept metadata and bump monotonic counters with no
    /// window in which a consumer observes the job first.
    pub(crate) fn try_push(
        &self,
        preferred: usize,
        item: T,
        on_accept: impl FnOnce(&mut T, usize, usize),
    ) -> Result<usize, T> {
        if !self.open.load(Ordering::Acquire) {
            return Err(item);
        }
        let n = self.lanes.len();
        for offset in 0..n {
            let lane = (preferred + offset) % n;
            let mut q = self.lanes[lane].lock().expect("lane lock");
            if q.len() < self.capacity {
                q.push_back(item);
                let depth = q.len();
                on_accept(q.back_mut().expect("just pushed"), lane, depth);
                drop(q);
                // Hold `work` while notifying so a consumer between its
                // empty-check and its wait cannot miss this push.
                let _g = self.work.lock().expect("work lock");
                self.work_cond.notify_one();
                return Ok(lane);
            }
        }
        Err(item)
    }

    /// Blocking push: waits for space, never rejects while the queue is
    /// open. Returns the item back only if the queue is closed. The
    /// `on_accept` hook behaves as in [`Self::try_push`].
    pub(crate) fn push_wait(
        &self,
        preferred: usize,
        mut item: T,
        mut on_accept: impl FnMut(&mut T, usize, usize),
    ) -> Result<usize, T> {
        loop {
            match self.try_push(preferred, item, &mut on_accept) {
                Ok(lane) => return Ok(lane),
                Err(back) => {
                    if !self.open.load(Ordering::Acquire) {
                        return Err(back);
                    }
                    item = back;
                    let guard = self.space.lock().expect("space lock");
                    // Re-check under the lock: a consumer frees space and
                    // notifies while holding this mutex.
                    if self.all_full() && self.open.load(Ordering::Acquire) {
                        let _unused = self.space_cond.wait(guard).expect("space wait");
                    }
                }
            }
        }
    }

    /// Blocking pop for consumer `shard`: drains its own lane first, then
    /// steals from the fullest other lane. Returns `None` only once the
    /// queue is closed **and** every lane is empty.
    ///
    /// `on_pop(lane, depth_after)` runs under the lane lock, so depth
    /// gauges updated from it are serialized per lane and never stick at
    /// a stale value.
    pub(crate) fn pop(
        &self,
        shard: usize,
        mut on_pop: impl FnMut(usize, usize),
    ) -> Option<(T, usize)> {
        loop {
            if !self.paused.load(Ordering::Acquire) {
                if let Some(got) = self.try_pop(shard, &mut on_pop) {
                    // Free space: wake one parked producer (under the
                    // `space` mutex, mirroring the push-side handshake).
                    let _g = self.space.lock().expect("space lock");
                    self.space_cond.notify_one();
                    drop(_g);
                    return Some(got);
                }
            }
            let guard = self.work.lock().expect("work lock");
            let idle = self.paused.load(Ordering::Acquire) || self.is_empty();
            if !self.open.load(Ordering::Acquire) && self.is_empty() {
                return None;
            }
            if idle {
                let _unused = self.work_cond.wait(guard).expect("work wait");
            }
        }
    }

    fn try_pop(&self, shard: usize, on_pop: &mut impl FnMut(usize, usize)) -> Option<(T, usize)> {
        // The pause flag is re-checked under each lane lock (and `pause`
        // cycles every lane lock after setting it), so a pop that starts
        // after `pause` returns can never take an item.
        {
            let mut q = self.lanes[shard].lock().expect("lane lock");
            if self.paused.load(Ordering::Acquire) {
                return None;
            }
            if let Some(item) = q.pop_front() {
                on_pop(shard, q.len());
                return Some((item, shard));
            }
        }
        // Steal from the fullest other lane to even out spilled bursts.
        let victim = (0..self.lanes.len())
            .filter(|&l| l != shard)
            .max_by_key(|&l| self.lanes[l].lock().expect("lane lock").len())?;
        let mut q = self.lanes[victim].lock().expect("lane lock");
        if self.paused.load(Ordering::Acquire) {
            return None;
        }
        let item = q.pop_front()?;
        on_pop(victim, q.len());
        Some((item, victim))
    }

    fn is_empty(&self) -> bool {
        self.lanes
            .iter()
            .all(|l| l.lock().expect("lane lock").is_empty())
    }

    fn all_full(&self) -> bool {
        self.lanes
            .iter()
            .all(|l| l.lock().expect("lane lock").len() >= self.capacity)
    }

    /// Stops consumers from popping (they park after finishing the item in
    /// hand). Pushes are unaffected, so a paused queue fills up — used by
    /// the backpressure and tracing tests.
    ///
    /// By the time this returns, no consumer can take another item:
    /// consumers re-check the flag under the lane lock, and cycling every
    /// lane lock here means any pop that raced the store has finished and
    /// any later pop observes the flag.
    pub(crate) fn pause(&self) {
        self.paused.store(true, Ordering::Release);
        for lane in &self.lanes {
            drop(lane.lock().expect("lane lock"));
        }
    }

    /// Reverses [`Self::pause`] and wakes every parked consumer.
    pub(crate) fn resume(&self) {
        self.paused.store(false, Ordering::Release);
        let _g = self.work.lock().expect("work lock");
        self.work_cond.notify_all();
    }

    /// Closes the intake: subsequent pushes are rejected, consumers drain
    /// the remaining items and then observe `None`.
    pub(crate) fn close(&self) {
        self.open.store(false, Ordering::Release);
        self.resume();
        let _g = self.space.lock().expect("space lock");
        self.space_cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push<T>(q: &ShardedQueue<T>, preferred: usize, item: T) -> Result<usize, T> {
        q.try_push(preferred, item, |_, _, _| {})
    }

    fn pop<T>(q: &ShardedQueue<T>, shard: usize) -> Option<(T, usize)> {
        q.pop(shard, |_, _| {})
    }

    #[test]
    fn fifo_within_a_lane() {
        let q: ShardedQueue<u32> = ShardedQueue::new(1, 8);
        for v in 0..5 {
            push(&q, 0, v).unwrap();
        }
        for v in 0..5 {
            assert_eq!(pop(&q, 0), Some((v, 0)));
        }
    }

    #[test]
    fn spills_to_other_lanes_then_rejects() {
        let q: ShardedQueue<u32> = ShardedQueue::new(2, 2);
        for v in 0..4 {
            assert!(push(&q, 0, v).is_ok());
        }
        assert_eq!(q.depth(0), 2);
        assert_eq!(q.depth(1), 2);
        assert_eq!(push(&q, 0, 99), Err(99));
    }

    #[test]
    fn close_rejects_pushes_and_drains_pops() {
        let q: ShardedQueue<u32> = ShardedQueue::new(1, 4);
        push(&q, 0, 7).unwrap();
        q.close();
        assert_eq!(push(&q, 0, 8), Err(8));
        assert_eq!(pop(&q, 0), Some((7, 0)));
        assert_eq!(pop(&q, 0), None);
    }

    #[test]
    fn stealing_takes_from_the_fullest_lane() {
        let q: ShardedQueue<u32> = ShardedQueue::new(3, 4);
        push(&q, 1, 10).unwrap();
        push(&q, 2, 20).unwrap();
        push(&q, 2, 21).unwrap();
        // Lane 0 is empty; the steal must come from lane 2 (depth 2).
        assert_eq!(pop(&q, 0), Some((20, 2)));
    }

    #[test]
    fn hooks_fire_under_the_lane_lock_with_exact_depths() {
        let q: ShardedQueue<u32> = ShardedQueue::new(1, 4);
        let mut accepted = Vec::new();
        for v in [10, 11] {
            q.try_push(0, v, |item, lane, depth| {
                accepted.push((*item, lane, depth))
            })
            .unwrap();
        }
        assert_eq!(accepted, vec![(10, 0, 1), (11, 0, 2)]);
        let mut popped = Vec::new();
        while q.pop(0, |lane, depth| popped.push((lane, depth))).is_some() {
            if popped.len() == 2 {
                break;
            }
        }
        assert_eq!(popped, vec![(0, 1), (0, 0)]);
    }

    #[test]
    fn cross_thread_handoff() {
        let q: ShardedQueue<u32> = ShardedQueue::new(2, 2);
        std::thread::scope(|s| {
            s.spawn(|| {
                for v in 0..64 {
                    q.push_wait(0, v, |_, _, _| {}).unwrap();
                }
                q.close();
            });
            let mut got = 0;
            while pop(&q, 1).is_some() {
                got += 1;
            }
            assert_eq!(got, 64);
        });
    }
}
