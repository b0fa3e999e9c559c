//! A pluggable discrete-event queue: one front door over the two
//! time-ordered queue implementations of this crate.
//!
//! The simulation loop in `iba-sim` is written against [`DesQueue`], a
//! two-variant enum rather than a trait object, so the hot
//! `pop_ahead_of`/`schedule` calls stay static dispatch over a small match —
//! no vtable, no generic parameter leaking into `Network`. Both backends
//! implement the identical `(time, insertion order)` contract, so a run
//! is bit-reproducible regardless of which one drives it; the
//! `backend_equivalence` integration test in `iba-sim` pins that down end
//! to end, and property tests in [`crate::calendar`] pin the queues
//! themselves.
//!
//! The heap backend files keyed schedules into per-class FIFO lanes in
//! front of its heap, and ranks the lanes' fronts in a tournament tree
//! whose root it compares with the heap's top (see [`crate::queue`]);
//! that changes what a schedule and a pop cost, never the order events
//! pop in, and the calendar backend has no counterpart.
//! [`DesQueue::schedule_paths`] counts the split.
//!
//! [`QueueBackend`] is the configuration-facing selector (carried by
//! `iba_sim::SimConfig`).

use crate::calendar::CalendarQueue;
use crate::queue::EventQueue;
use iba_core::SimTime;

/// Which priority-queue implementation drives the simulation loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueBackend {
    /// [`EventQueue`]: a binary heap under per-class FIFO lanes. The
    /// default — measured ~3× faster on the simulator's small,
    /// time-local pending sets even before the lanes.
    #[default]
    BinaryHeap,
    /// [`CalendarQueue`]: R. Brown's O(1) calendar queue. Amortizes on
    /// much larger pending sets; kept as a verified alternative and a
    /// cross-check that results do not depend on queue internals.
    Calendar,
}

/// A deterministic event queue with a run-time selectable backend.
// One per shard, built once and never moved: boxing the heap backend's
// inline lane heads would only put a pointer chase on every pop.
#[allow(clippy::large_enum_variant)]
pub enum DesQueue<E> {
    /// Binary-heap backend.
    Heap(EventQueue<E>),
    /// Calendar-queue backend.
    Calendar(CalendarQueue<E>),
}

impl<E> DesQueue<E> {
    /// An empty queue on `backend`, pre-sized for roughly `cap` pending
    /// events.
    pub fn with_capacity(backend: QueueBackend, cap: usize) -> Self {
        match backend {
            QueueBackend::BinaryHeap => DesQueue::Heap(EventQueue::with_capacity(cap)),
            QueueBackend::Calendar => DesQueue::Calendar(CalendarQueue::with_capacity(cap)),
        }
    }

    /// An empty queue on `backend` with default sizing.
    pub fn new(backend: QueueBackend) -> Self {
        match backend {
            QueueBackend::BinaryHeap => DesQueue::Heap(EventQueue::new()),
            QueueBackend::Calendar => DesQueue::Calendar(CalendarQueue::new()),
        }
    }

    /// Current simulated time (timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> SimTime {
        match self {
            DesQueue::Heap(q) => q.now(),
            DesQueue::Calendar(q) => q.now(),
        }
    }

    /// Total number of events popped.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        match self {
            DesQueue::Heap(q) => q.events_processed(),
            DesQueue::Calendar(q) => q.events_processed(),
        }
    }

    /// Schedules so far by path — `[lane, heap]`, see
    /// `EventQueue::schedule_paths`; both zero on the calendar backend,
    /// which has neither.
    #[inline]
    pub fn schedule_paths(&self) -> [u64; 2] {
        match self {
            DesQueue::Heap(q) => q.schedule_paths(),
            DesQueue::Calendar(_) => [0; 2],
        }
    }

    /// Schedule `event` at absolute time `at` (must not precede `now`).
    #[inline]
    pub fn schedule(&mut self, at: SimTime, event: E) {
        match self {
            DesQueue::Heap(q) => q.schedule(at, event),
            DesQueue::Calendar(q) => q.schedule(at, event),
        }
    }

    /// Schedule `event` at `at` with an explicit ordering key; pops come
    /// out in `(time, key, insertion order)` order on both backends.
    #[inline]
    pub fn schedule_keyed(&mut self, at: SimTime, key: u64, event: E) {
        match self {
            DesQueue::Heap(q) => q.schedule_keyed(at, key, event),
            DesQueue::Calendar(q) => q.schedule_keyed(at, key, event),
        }
    }

    /// Timestamp of the next event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        match self {
            DesQueue::Heap(q) => q.peek_time(),
            DesQueue::Calendar(q) => q.peek_time(),
        }
    }

    /// Pop the earliest event (FIFO among equal timestamps).
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        match self {
            DesQueue::Heap(q) => q.pop(),
            DesQueue::Calendar(q) => q.pop(),
        }
    }

    /// Pop the earliest event, with its ordering rank, only if it is at
    /// or before `limit` and strictly ahead of `bound` in `(time, rank)`
    /// order.
    #[inline]
    pub fn pop_ahead_of(
        &mut self,
        limit: SimTime,
        bound: (SimTime, u64),
    ) -> Option<(SimTime, u64, E)> {
        match self {
            DesQueue::Heap(q) => q.pop_ahead_of(limit, bound),
            DesQueue::Calendar(q) => q.pop_ahead_of(limit, bound),
        }
    }

    /// Move the clock to `t` (between the clock and the earliest pending
    /// event) without popping: the caller executed a wake-up of its own.
    #[inline]
    pub fn advance_to(&mut self, t: SimTime) {
        match self {
            DesQueue::Heap(q) => q.advance_to(t),
            DesQueue::Calendar(q) => q.advance_to(t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_key;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    impl<E> DesQueue<E> {
        /// Number of pending events.
        fn len(&self) -> usize {
            match self {
                DesQueue::Heap(q) => q.len(),
                DesQueue::Calendar(q) => q.len(),
            }
        }

        /// Whether no events are pending.
        fn is_empty(&self) -> bool {
            match self {
                DesQueue::Heap(q) => q.is_empty(),
                DesQueue::Calendar(q) => q.is_empty(),
            }
        }
    }

    fn exercise(backend: QueueBackend) -> Vec<(u64, u32)> {
        let mut q = DesQueue::with_capacity(backend, 8);
        // Interleave schedules and pops, with timestamp ties.
        let mut out = Vec::new();
        let times = [30u64, 10, 10, 50, 10, 20, 30];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ns(t), i as u32);
        }
        assert_eq!(q.len(), times.len());
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(10)));
        while let Some((t, _, e)) = q.pop_ahead_of(SimTime::from_ns(25), (SimTime::MAX, u64::MAX)) {
            out.push((t.as_ns(), e));
        }
        q.schedule(q.now().plus_ns(5), 99);
        while let Some((t, e)) = q.pop() {
            out.push((t.as_ns(), e));
        }
        assert!(q.is_empty());
        assert_eq!(q.events_processed(), out.len() as u64);
        out
    }

    #[test]
    fn backends_agree_and_keep_fifo_ties() {
        let heap = exercise(QueueBackend::BinaryHeap);
        let cal = exercise(QueueBackend::Calendar);
        assert_eq!(
            heap,
            vec![
                (10, 1),
                (10, 2),
                (10, 4),
                (20, 5),
                (25, 99),
                (30, 0),
                (30, 6),
                (50, 3)
            ]
        );
        assert_eq!(heap, cal);
    }

    #[test]
    fn default_backend_is_the_heap() {
        assert_eq!(QueueBackend::default(), QueueBackend::BinaryHeap);
        assert!(matches!(
            DesQueue::<u32>::new(QueueBackend::default()),
            DesQueue::Heap(_)
        ));
    }

    proptest! {
        /// Every way into and out of a keyed queue against a sorted
        /// reference, on both backends. `pop_ahead_of` is peek-then-pop:
        /// it returns exactly what peeking the earliest `(time, rank)`,
        /// testing it against the limit and the bound, and popping would;
        /// when the outside wake-up wins, `advance_to` moves the clock
        /// there and later schedules stay legal.
        ///
        /// An op `(kind, a, b, class)` is a keyed schedule in `class`
        /// (every lane of the heap backend) at `now + a`, or on a coarse
        /// grid so that equal-time runs form — its key's entity is `b`,
        /// so a run fills out of key order and a time behind a lane's
        /// tail (what mailbox `ingest` does) is as likely as one past it
        /// — or a `pop_ahead_of` with limit `now + a` against an outside
        /// wake-up at `(now + b, class)`, or a plain `pop`.
        #[test]
        fn prop_keyed_queue_matches_a_sorted_reference(
            ops in proptest::collection::vec(
                (0u8..7, 0u64..400, 0u64..400, 0u64..16), 1..400)
        ) {
            for backend in [QueueBackend::BinaryHeap, QueueBackend::Calendar] {
                let mut q: DesQueue<u32> = DesQueue::new(backend);
                let mut reference: BTreeSet<(SimTime, u64, u32)> = BTreeSet::new();
                let mut idx = 0u32;
                let mut popped = 0u64;
                for &(kind, a, b, class) in &ops {
                    match kind {
                        0..=3 => {
                            let at = match kind {
                                0 | 1 => q.now().plus_ns(a / 100 * 100),
                                _ => q.now().plus_ns(a),
                            };
                            let key = event_key(class as u8, b, idx as u64);
                            q.schedule_keyed(at, key, idx);
                            reference.insert((at, key, idx));
                            idx += 1;
                        }
                        4 | 5 => {
                            let limit = q.now().plus_ns(a);
                            let bound = (q.now().plus_ns(b), event_key(class as u8, 0, 0));
                            let head = reference.first().copied();
                            prop_assert_eq!(q.peek_time(), head.map(|h| h.0));
                            let expected =
                                head.filter(|&(t, k, _)| t <= limit && (t, k) < bound);
                            prop_assert_eq!(q.pop_ahead_of(limit, bound), expected);
                            match expected {
                                Some(h) => {
                                    reference.remove(&h);
                                    popped += 1;
                                    prop_assert_eq!(q.now(), h.0);
                                }
                                None if bound.0 <= limit => {
                                    q.advance_to(bound.0);
                                    prop_assert_eq!(q.now(), bound.0);
                                }
                                None => {}
                            }
                        }
                        _ => {
                            let head = reference.pop_first();
                            prop_assert_eq!(q.pop(), head.map(|(t, _, e)| (t, e)));
                            popped += u64::from(head.is_some());
                            prop_assert_eq!(q.now(), head.map_or(q.now(), |h| h.0));
                        }
                    }
                    prop_assert_eq!(q.len(), reference.len());
                    prop_assert_eq!(q.is_empty(), reference.is_empty());
                    prop_assert_eq!(q.events_processed(), popped);
                    prop_assert_eq!(q.peek_time(), reference.first().map(|h| h.0));
                }
                // Every schedule took exactly one path, and the rest
                // drains in order.
                let paths: u64 = q.schedule_paths().iter().sum();
                prop_assert_eq!(paths, if backend == QueueBackend::BinaryHeap { idx as u64 } else { 0 });
                while let Some(h) = reference.pop_first() {
                    prop_assert_eq!(q.pop(), Some((h.0, h.2)));
                }
                prop_assert!(q.pop().is_none());
            }
        }
    }
}
