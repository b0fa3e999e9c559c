//! A calendar queue — R. Brown's classic O(1) priority queue for
//! discrete-event simulation (CACM 1988).
//!
//! Events are hashed into `buckets` of `width` nanoseconds each, like
//! days on a wall calendar; one lap over all buckets is a *year*. Pop
//! scans from the current day forward, only considering events of the
//! current year, so with the width tuned to the average inter-event gap
//! each operation touches O(1) events. The queue resizes itself (doubling
//! or halving the day count and re-estimating the width from a sample)
//! when the population outgrows the calendar.
//!
//! Interface-compatible with [`crate::queue::EventQueue`] — including the strict
//! FIFO tie-break for simultaneous events that keeps simulations
//! deterministic — and verified equivalent to it by property tests.
//!
//! **Measured verdict** (`perfbench`'s hold-model probe, per-layer rows
//! `engine.heap_op_ns` 163 against `engine.calendar_op_ns` 569): on the
//! simulator's actual access pattern — a small pending set (tens to
//! hundreds of events) with tight time locality — the binary heap is
//! ~3.5× faster per operation. The calendar
//! queue's constant factors (per-pop day scans, resampling resizes) only
//! amortize on much larger pending sets than credit-gated VCT ever
//! produces. The simulator therefore defaults to [`crate::queue::EventQueue`],
//! but can be switched onto this implementation through
//! [`crate::DesQueue`] (`SimConfig::queue_backend` in `iba-sim`) — the
//! `backend_equivalence` test over whole simulations shows the results
//! are bit-identical.

use iba_core::SimTime;

/// One scheduled entry. As in [`crate::queue::EventQueue`], `ord` is the
/// tie-break rank among equal times: insertion sequence for plain
/// scheduling, canonical key for keyed scheduling (never both in one
/// queue).
struct Entry<E> {
    time: SimTime,
    ord: u64,
    event: E,
}

/// Result of [`CalendarQueue::find_earliest`]: where the earliest entry
/// sits and the day-cursor state that locates it.
struct Found {
    /// In-bucket index of the entry.
    index: usize,
    /// Day cursor positioned at the entry's bucket.
    cur_bucket: usize,
    /// Exclusive upper bound of that day, in ns.
    cur_day_end: u64,
    /// The entry's timestamp.
    time: SimTime,
    /// The entry's tie-break rank.
    ord: u64,
}

/// A calendar queue over events of type `E`.
pub struct CalendarQueue<E> {
    /// `buckets.len()` is always a power of two.
    buckets: Vec<Vec<Entry<E>>>,
    /// Bucket (day) width in nanoseconds.
    width: u64,
    /// Index of the day containing `now`.
    cur_bucket: usize,
    /// Upper bound (exclusive) of the current day, in ns.
    cur_day_end: u64,
    len: usize,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    /// Debug-only mixing guard: `Some(true)` once keyed scheduling has
    /// been used, `Some(false)` once plain scheduling has.
    #[cfg(debug_assertions)]
    keyed: Option<bool>,
}

impl<E> CalendarQueue<E> {
    /// An empty queue starting at time zero.
    pub(crate) fn new() -> Self {
        Self::with_layout(16, 1_000)
    }

    /// An empty queue sized for roughly `cap` pending events (the day
    /// count is chosen so the first resize is pushed past that
    /// population; the width still self-tunes on resize).
    pub(crate) fn with_capacity(cap: usize) -> Self {
        Self::with_layout(cap.next_power_of_two().max(16), 1_000)
    }

    fn with_layout(nbuckets: usize, width: u64) -> Self {
        debug_assert!(nbuckets.is_power_of_two());
        CalendarQueue {
            buckets: (0..nbuckets).map(|_| Vec::new()).collect(),
            width: width.max(1),
            cur_bucket: 0,
            cur_day_end: width.max(1),
            len: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            #[cfg(debug_assertions)]
            keyed: None,
        }
    }

    /// Current simulated time (timestamp of the last popped event).
    #[inline]
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events popped.
    #[inline]
    pub(crate) fn events_processed(&self) -> u64 {
        self.popped
    }

    #[inline]
    fn bucket_of(&self, t: SimTime) -> usize {
        ((t.as_ns() / self.width) as usize) & (self.buckets.len() - 1)
    }

    /// Schedule `event` at absolute time `at` (must not precede `now`);
    /// pops come out in `(time, insertion order)` order. Must not be
    /// mixed with [`CalendarQueue::schedule_keyed`] on the same queue
    /// (checked in debug builds).
    pub(crate) fn schedule(&mut self, at: SimTime, event: E) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.keyed != Some(true),
                "plain schedule on a keyed queue: the two orders cannot mix"
            );
            self.keyed = Some(false);
        }
        let ord = self.next_seq;
        self.next_seq += 1;
        self.push_entry(at, ord, event);
    }

    /// Schedule with an explicit ordering key — pops come out in
    /// `(time, key)` order, matching
    /// [`crate::queue::EventQueue::schedule_keyed`] and carrying the same
    /// contract: `(time, key)` pairs must be globally unique, and keyed
    /// and plain scheduling must not mix on one queue (checked in debug
    /// builds).
    pub(crate) fn schedule_keyed(&mut self, at: SimTime, key: u64, event: E) {
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.keyed != Some(false),
                "keyed schedule on a plain-FIFO queue: the two orders cannot mix"
            );
            self.keyed = Some(true);
        }
        self.push_entry(at, key, event);
    }

    fn push_entry(&mut self, at: SimTime, ord: u64, event: E) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        let b = self.bucket_of(at);
        self.buckets[b].push(Entry {
            time: at,
            ord,
            event,
        });
        self.len += 1;
        if self.len > 2 * self.buckets.len() {
            self.resize(self.buckets.len() * 2);
        }
    }

    /// Locate the earliest pending entry — the day scan of `pop`, run on
    /// cursor copies so peeking does not disturb the calendar.
    fn find_earliest(&self) -> Option<Found> {
        if self.len == 0 {
            return None;
        }
        let mut cur_bucket = self.cur_bucket;
        let mut cur_day_end = self.cur_day_end;
        loop {
            // Scan the current day for its earliest due entry.
            let bucket = &self.buckets[cur_bucket];
            let mut best: Option<(usize, SimTime, u64)> = None;
            for (i, e) in bucket.iter().enumerate() {
                if e.time.as_ns() < cur_day_end
                    && best.is_none_or(|(_, bt, bo)| (e.time, e.ord) < (bt, bo))
                {
                    best = Some((i, e.time, e.ord));
                }
            }
            if let Some((index, time, ord)) = best {
                return Some(Found {
                    index,
                    cur_bucket,
                    cur_day_end,
                    time,
                    ord,
                });
            }
            // Advance to the next day; after a whole empty year, jump
            // directly to the earliest pending event (Brown's long-gap
            // escape).
            cur_bucket = (cur_bucket + 1) & (self.buckets.len() - 1);
            cur_day_end += self.width;
            if cur_bucket == 0 {
                // Completed a lap: check for a sparse calendar.
                let min_time = self
                    .buckets
                    .iter()
                    .flatten()
                    .map(|e| e.time)
                    .min()
                    .expect("len > 0");
                if min_time.as_ns() >= cur_day_end + self.width * self.buckets.len() as u64 {
                    // Far in the future: re-anchor the calendar there.
                    cur_bucket = self.bucket_of(min_time);
                    cur_day_end = (min_time.as_ns() / self.width + 1) * self.width;
                }
            }
        }
    }

    /// Remove the entry `found` points at, committing its day cursor.
    fn pop_found(&mut self, found: Found) -> (SimTime, E) {
        self.cur_bucket = found.cur_bucket;
        self.cur_day_end = found.cur_day_end;
        let entry = self.buckets[found.cur_bucket].swap_remove(found.index);
        self.len -= 1;
        debug_assert!(entry.time >= self.now);
        self.now = entry.time;
        self.popped += 1;
        if self.len < self.buckets.len() / 2 && self.buckets.len() > 16 {
            self.resize(self.buckets.len() / 2);
        }
        (entry.time, entry.event)
    }

    /// Timestamp of the next event, if any.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.find_earliest().map(|f| f.time)
    }

    /// Pop the earliest event (FIFO among equal timestamps).
    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        let found = self.find_earliest()?;
        Some(self.pop_found(found))
    }

    /// Pop the earliest event, with its ordering rank, only if it is at
    /// or before `limit` and strictly ahead of `bound` in `(time, rank)`
    /// order — one day scan, as [`crate::queue::EventQueue::pop_ahead_of`].
    pub(crate) fn pop_ahead_of(
        &mut self,
        limit: SimTime,
        bound: (SimTime, u64),
    ) -> Option<(SimTime, u64, E)> {
        let found = self.find_earliest()?;
        if found.time > limit || (found.time, found.ord) >= bound {
            return None;
        }
        let ord = found.ord;
        let (time, event) = self.pop_found(found);
        Some((time, ord, event))
    }

    /// Move the clock to `t` without popping (see
    /// [`crate::queue::EventQueue::advance_to`]). The day cursor stays behind:
    /// it only ever needs to be at or before the earliest entry.
    pub(crate) fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now && self.peek_time().is_none_or(|head| head >= t));
        self.now = t;
    }

    /// Rebuild with `nbuckets` days, re-estimating the day width from the
    /// average gap of a sample of pending events.
    fn resize(&mut self, nbuckets: usize) {
        let mut entries: Vec<Entry<E>> = self.buckets.drain(..).flatten().collect();
        // Width estimate: average inter-event gap over a sorted sample.
        let mut times: Vec<u64> = entries.iter().take(64).map(|e| e.time.as_ns()).collect();
        times.sort_unstable();
        let width = if times.len() >= 2 {
            let span = times[times.len() - 1].saturating_sub(times[0]);
            (span / (times.len() as u64 - 1)).clamp(1, u64::MAX / (2 * nbuckets as u64 + 2))
        } else {
            self.width
        };
        let mut fresh = CalendarQueue::with_layout(nbuckets, width.max(1));
        fresh.now = self.now;
        fresh.next_seq = self.next_seq;
        fresh.popped = self.popped;
        #[cfg(debug_assertions)]
        {
            fresh.keyed = self.keyed;
        }
        // Re-anchor the day cursor at `now`.
        fresh.cur_bucket = fresh.bucket_of(self.now);
        fresh.cur_day_end = (self.now.as_ns() / fresh.width + 1) * fresh.width;
        for e in entries.drain(..) {
            let b = fresh.bucket_of(e.time);
            fresh.buckets[b].push(e);
            fresh.len += 1;
        }
        *self = fresh;
    }
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::EventQueue;
    use proptest::prelude::*;

    impl<E> CalendarQueue<E> {
        /// Number of pending events.
        pub(crate) fn len(&self) -> usize {
            self.len
        }

        /// Whether no events are pending.
        pub(crate) fn is_empty(&self) -> bool {
            self.len == 0
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_ns(5_000), "c");
        q.schedule(SimTime::from_ns(10), "a");
        q.schedule(SimTime::from_ns(1_200), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_for_equal_times() {
        let mut q = CalendarQueue::new();
        for i in 0..200 {
            q.schedule(SimTime::from_ns(42), i);
        }
        for i in 0..200 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn long_gaps_are_skipped() {
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_ns(1), "near");
        q.schedule(SimTime::from_ms(500), "far");
        assert_eq!(q.pop().unwrap().1, "near");
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.now(), SimTime::from_ms(500));
    }

    #[test]
    fn grows_and_shrinks_through_resize() {
        let mut q = CalendarQueue::new();
        for i in 0..10_000u64 {
            q.schedule(SimTime::from_ns(i * 7 % 5_000), ());
        }
        assert_eq!(q.len(), 10_000);
        let mut last = SimTime::ZERO;
        for _ in 0..10_000 {
            let (t, _) = q.pop().unwrap();
            assert!(t >= last);
            last = t;
        }
        assert!(q.is_empty());
        assert_eq!(q.events_processed(), 10_000);
    }

    #[test]
    fn pop_ahead_of_respects_limit_and_bound() {
        let unbounded = (SimTime::MAX, u64::MAX);
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_ns(10), "early");
        q.schedule(SimTime::from_ns(100_000), "late");
        let at = SimTime::from_ns;
        assert!(q.pop_ahead_of(at(50), (at(10), 0)).is_none());
        assert_eq!(q.pop_ahead_of(at(50), unbounded).unwrap().2, "early");
        assert!(q.pop_ahead_of(at(50), unbounded).is_none());
        assert_eq!(q.len(), 1);
        q.advance_to(at(60));
        assert_eq!(q.pop().unwrap(), (at(100_000), "late"));
    }

    #[test]
    fn interleaved_schedule_pop() {
        // The simulation access pattern: pop one, schedule a few nearby.
        let mut q = CalendarQueue::new();
        q.schedule(SimTime::from_ns(100), 0u64);
        let mut count = 1u64;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            popped += 1;
            if count < 2_000 {
                q.schedule(t.plus_ns(128), count);
                count += 1;
                if count.is_multiple_of(3) {
                    q.schedule(t.plus_ns(100), count);
                    count += 1;
                }
            }
        }
        assert_eq!(popped, count);
    }

    proptest! {
        /// Keyed scheduling agrees between the two backends for any
        /// interleaving of (time, key) pairs — the property the parallel
        /// engine's cross-backend determinism rests on. Keys follow the
        /// engine's contract: globally unique per (time, key), which the
        /// low insertion-index bits guarantee here while the high bits
        /// still exercise key-major ordering among equal times.
        #[test]
        fn prop_keyed_equivalent_to_event_queue(
            ops in proptest::collection::vec((0u64..50_000, 0u64..8, any::<bool>()), 1..300)
        ) {
            let mut cal = CalendarQueue::new();
            let mut heap = EventQueue::new();
            let mut idx = 0u32;
            for (t, k, do_pop) in ops {
                if do_pop {
                    prop_assert_eq!(cal.pop(), heap.pop());
                } else {
                    let at = SimTime::from_ns(heap.now().as_ns() + t);
                    let key = (k << 32) | idx as u64;
                    cal.schedule_keyed(at, key, idx);
                    heap.schedule_keyed(at, key, idx);
                    idx += 1;
                }
            }
            loop {
                let a = cal.pop();
                let b = heap.pop();
                prop_assert_eq!(a.is_some(), b.is_some());
                match (a, b) {
                    (Some(x), Some(y)) => prop_assert_eq!(x, y),
                    _ => break,
                }
            }
        }

        /// The calendar queue pops exactly the same sequence as the
        /// reference binary-heap queue, for any interleaving of schedules
        /// and pops.
        #[test]
        fn prop_equivalent_to_event_queue(
            ops in proptest::collection::vec((0u64..200_000, any::<bool>()), 1..300)
        ) {
            let mut cal = CalendarQueue::new();
            let mut heap = EventQueue::new();
            let mut idx = 0u32;
            for (t, do_pop) in ops {
                if do_pop {
                    let a = cal.pop();
                    let b = heap.pop();
                    prop_assert_eq!(a, b);
                } else {
                    // Keep times valid (>= now).
                    let at = SimTime::from_ns(heap.now().as_ns() + t);
                    cal.schedule(at, idx);
                    heap.schedule(at, idx);
                    idx += 1;
                }
            }
            // Drain both.
            loop {
                let a = cal.pop();
                let b = heap.pop();
                prop_assert_eq!(a.is_some(), b.is_some());
                match (a, b) {
                    (Some(x), Some(y)) => prop_assert_eq!(x, y),
                    _ => break,
                }
            }
        }
    }
}
