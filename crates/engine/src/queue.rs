//! Deterministic time-ordered event queue.
//!
//! Entries are ordered by `(SimTime, rank)`, where the rank is the
//! insertion sequence under plain `EventQueue::schedule` — FIFO among
//! events of one instant, which makes simulation runs bit-reproducible
//! for a given seed, a property the paper's min/max/avg-over-topologies
//! methodology depends on and the test suite exploits heavily — and a
//! caller-supplied canonical key under `EventQueue::schedule_keyed`.
//!
//! The *key* flavor exists for the sharded simulator: shards ingest
//! cross-shard messages in nondeterministic mailbox order, so FIFO
//! sequence alone would leak thread timing into the event order.
//! `iba-sim` assigns every event a globally unique `(time, key)`, so
//! insertion order never decides.
//!
//! Within any one queue the two flavors must not be mixed: an entry
//! carries a single `ord` rank that is the FIFO sequence for plain
//! scheduling and the canonical key for keyed scheduling — one `u64`
//! per entry instead of two. The simulator upholds the contract
//! structurally (every schedule of a shard's queue is keyed), and debug
//! builds assert it.
//!
//! ## Class lanes
//!
//! A simulation's delays are few and mostly constant per event class
//! (a cable, a routing pipeline, one serialization time per packet
//! size), so the schedules of one class arrive almost sorted. A keyed
//! schedule therefore goes to a FIFO *lane* picked by the class field of
//! its key (the top `KEY_CLASS_BITS` bits): appended when it sorts
//! after the lane's tail, and pushed on a [`BinaryHeap`] otherwise. *Any*
//! entry may take the heap, so nothing depends on a delay being
//! constant — mixed packet sizes, generator inter-arrivals, cross-shard
//! ingest, faults and the entities of one instant scheduling out of key
//! order only change how many entries do. Every lane and
//! the heap are sorted, so the earliest entry is the least of their
//! fronts. The lanes' fronts sit, packed as `time << 64 | key`, at the
//! leaves of a tournament tree whose root is the least of them: finding
//! the earliest entry compares the root with the heap's top and nothing
//! else, and a lane whose front changes replays its four matches up the
//! tree. Plain scheduling carries no class and uses the heap alone.

use crate::shard::KEY_CLASS_BITS;
use iba_core::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// One scheduled entry (internal). `ord` is the tie-break rank among
/// equal times: insertion sequence for plain scheduling, canonical key
/// for keyed scheduling (never both in one queue).
struct Entry<E> {
    time: SimTime,
    ord: u64,
    event: E,
}

impl<E> Entry<E> {
    /// `(time, ord)` [`pack`]ed.
    #[inline]
    fn rank(&self) -> u128 {
        pack(self.time, self.ord)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest event, and
        // among equal times the lowest rank — pure FIFO under plain
        // scheduling, canonical-key order under keyed scheduling.
        other.rank().cmp(&self.rank())
    }
}

/// One lane per value of a key's class field.
const LANES: usize = 1 << KEY_CLASS_BITS;
/// The "lane" index of the heap in [`EventQueue::head`].
const HEAP: usize = LANES;
/// The tournament leaf of an empty lane: it loses every match. No entry
/// packs to it short of one at `SimTime::MAX` with an all-ones key.
const NO_FRONT: u128 = u128::MAX;

/// `(time, rank)` as one integer that orders like the pair.
#[inline]
fn pack(time: SimTime, ord: u64) -> u128 {
    u128::from(time.as_ns()) << 64 | u128::from(ord)
}

/// A deterministic discrete-event queue.
///
/// Events of type `E` are scheduled at absolute [`SimTime`]s and popped in
/// `(time, insertion order)` order. Scheduling in the past is a logic bug
/// and panics in debug builds.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// The class lanes, each sorted by `(time, ord)`.
    lanes: [VecDeque<Entry<E>>; LANES],
    /// Tournament tree over the lanes' fronts: leaf `LANES + c` is lane
    /// `c`'s front [`pack`]ed ([`NO_FRONT`] while the lane is empty), every
    /// inner node `i` the least of nodes `2i` and `2i + 1`, so node 1 is
    /// the least front of all. Node 0 is unused.
    tree: [u128; 2 * LANES],
    len: usize,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    /// Schedules by where they went: a lane, the heap.
    paths: [u64; 2],
    /// Debug-only mixing guard: `Some(true)` once keyed scheduling has
    /// been used, `Some(false)` once plain scheduling has.
    #[cfg(debug_assertions)]
    keyed: Option<bool>,
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub(crate) fn new() -> Self {
        EventQueue::with_capacity(0)
    }

    /// An empty queue with `cap` entries reserved in the heap, which
    /// touches only what it uses. A lane is a ring and walks its whole
    /// capacity, so lanes are left to grow to twice their peak length:
    /// reserving a bound would spread a few live entries over many pages.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            lanes: std::array::from_fn(|_| VecDeque::new()),
            tree: [NO_FRONT; 2 * LANES],
            len: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            paths: [0; 2],
            #[cfg(debug_assertions)]
            keyed: None,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    #[inline]
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events popped so far.
    #[inline]
    pub(crate) fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedules so far by the path they took: `[appended to a lane,
    /// pushed on the heap]`. The two sum to every schedule made.
    #[inline]
    pub(crate) fn schedule_paths(&self) -> [u64; 2] {
        self.paths
    }

    /// Schedule `event` at absolute time `at`; pops come out in
    /// `(time, insertion order)` order. Must not be mixed with
    /// [`EventQueue::schedule_keyed`] on the same queue (checked in
    /// debug builds).
    ///
    /// `at` must not precede the current time (checked in debug builds).
    pub(crate) fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at:?} < now {:?}",
            self.now
        );
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
        self.push_heap(Entry {
            time: at,
            ord,
            event,
        });
    }

    #[inline]
    fn push_heap(&mut self, entry: Entry<E>) {
        self.len += 1;
        self.paths[1] += 1;
        self.heap.push(entry);
    }

    /// Schedule `event` at `at` with an explicit ordering key: events pop
    /// in `(time, key)` order. The caller must assign globally unique
    /// `(time, key)` pairs — there is no insertion-order tie-break — and
    /// must not mix this with [`EventQueue::schedule`] on the same queue
    /// (checked in debug builds). The simulator's canonical event keys
    /// satisfy both, so mailbox ingest timing never decides.
    pub(crate) fn schedule_keyed(&mut self, at: SimTime, key: u64, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at:?} < now {:?}",
            self.now
        );
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.keyed != Some(false),
                "keyed schedule on a plain-FIFO queue: the two orders cannot mix"
            );
            self.keyed = Some(true);
        }
        let entry = Entry {
            time: at,
            ord: key,
            event,
        };
        let c = (key >> (u64::BITS - KEY_CLASS_BITS)) as usize;
        let lane = &mut self.lanes[c];
        if lane.back().is_some_and(|tail| tail.rank() > pack(at, key)) {
            // Behind the lane's tail: the heap's.
            return self.push_heap(entry);
        }
        let was_empty = lane.is_empty();
        lane.push_back(entry);
        if was_empty {
            self.set_front(c, pack(at, key));
        }
        self.len += 1;
        self.paths[0] += 1;
    }

    /// Lane `c`'s front is now `front`: replay its matches up the tree.
    #[inline]
    fn set_front(&mut self, c: usize, front: u128) {
        debug_assert!(front != NO_FRONT || self.lanes[c].is_empty());
        let mut node = LANES + c;
        let mut least = front;
        self.tree[node] = least;
        while node > 1 {
            least = least.min(self.tree[node ^ 1]);
            node >>= 1;
            self.tree[node] = least;
        }
    }

    /// The earliest entry [`pack`]ed, and where it sits: a lane index —
    /// the class field of a lane entry's key — or [`HEAP`].
    #[inline]
    fn head(&self) -> Option<(u128, usize)> {
        let lanes = self.tree[1];
        match self.heap.peek() {
            Some(top) if top.rank() < lanes => Some((top.rank(), HEAP)),
            _ if lanes != NO_FRONT => Some((
                lanes,
                (lanes as u64 >> (u64::BITS - KEY_CLASS_BITS)) as usize,
            )),
            _ => None,
        }
    }

    /// Remove the front of `src` (as [`Self::head`] named it), advancing
    /// the clock to its timestamp.
    #[inline]
    fn take(&mut self, src: usize) -> Entry<E> {
        let entry = if src == HEAP {
            self.heap.pop()
        } else {
            let lane = &mut self.lanes[src];
            let entry = lane.pop_front();
            let next = lane.front().map_or(NO_FRONT, Entry::rank);
            self.set_front(src, next);
            entry
        }
        .expect("head() named a non-empty source");
        debug_assert!(entry.time >= self.now, "time went backwards");
        self.now = entry.time;
        self.len -= 1;
        self.popped += 1;
        entry
    }

    /// Timestamp of the next event, if any.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.head().map(|(rank, _)| SimTime((rank >> 64) as u64))
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, E)> {
        let (_, src) = self.head()?;
        let entry = self.take(src);
        Some((entry.time, entry.event))
    }

    /// Pop the earliest event, with its ordering rank, only if it is at
    /// or before `limit` *and* strictly ahead of `bound` in `(time,
    /// rank)` order; otherwise leave the queue untouched. This is how the
    /// simulator stops at a window's end without draining the queue, and
    /// how it merges the wake-ups it keeps outside the queue, ranked
    /// among the events, into the pop order.
    pub(crate) fn pop_ahead_of(
        &mut self,
        limit: SimTime,
        bound: (SimTime, u64),
    ) -> Option<(SimTime, u64, E)> {
        let (rank, src) = self.head()?;
        if rank > pack(limit, u64::MAX) || rank >= pack(bound.0, bound.1) {
            return None;
        }
        let entry = self.take(src);
        Some((entry.time, entry.ord, entry.event))
    }

    /// Move the clock to `t` without popping: the caller executed one of
    /// its own wake-ups there. `t` must lie between the clock and the
    /// earliest pending event (checked in debug builds).
    pub(crate) fn advance_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now && self.peek_time().is_none_or(|head| head >= t));
        self.now = t;
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl<E> EventQueue<E> {
        /// Number of events waiting.
        pub(crate) fn len(&self) -> usize {
            self.len
        }

        /// Whether no events are waiting.
        pub(crate) fn is_empty(&self) -> bool {
            self.len == 0
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), "c");
        q.schedule(SimTime::from_ns(10), "a");
        q.schedule(SimTime::from_ns(20), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_ns(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(7));
        q.schedule(q.now().plus_ns(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(10)));
    }

    #[test]
    fn pop_ahead_of_respects_limit_and_bound() {
        let unbounded = (SimTime::MAX, u64::MAX);
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), "early");
        q.schedule(SimTime::from_ns(100), "late");
        let at = SimTime::from_ns;
        assert!(q.pop_ahead_of(at(50), (at(10), 0)).is_none()); // the bound is first
        assert_eq!(q.pop_ahead_of(at(50), unbounded).unwrap().2, "early");
        assert!(q.pop_ahead_of(at(50), unbounded).is_none());
        assert_eq!(q.len(), 1); // the late event is still there
        q.advance_to(at(60));
        assert_eq!(q.now(), at(60));
        assert_eq!(q.pop_ahead_of(at(100), unbounded).unwrap().2, "late");
    }

    #[test]
    fn counts_processed_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(1), ());
        q.schedule(SimTime::from_ns(2), ());
        q.pop();
        q.pop();
        assert_eq!(q.events_processed(), 2);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    #[cfg(debug_assertions)]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        q.pop();
        q.schedule(SimTime::from_ns(5), ());
    }

    #[test]
    fn keyed_events_order_by_key_before_insertion() {
        let mut q = EventQueue::new();
        q.schedule_keyed(SimTime::from_ns(5), 9, "third");
        q.schedule_keyed(SimTime::from_ns(5), 2, "second");
        q.schedule_keyed(SimTime::from_ns(5), 1, "first");
        q.schedule_keyed(SimTime::from_ns(1), 99, "zeroth");
        assert_eq!(q.pop().unwrap().1, "zeroth");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn keyed_schedules_take_a_lane_tail_or_the_heap() {
        use crate::event_key;
        let at = SimTime::from_ns;
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        let mut sched = |q: &mut EventQueue<u64>, t: u64, class: u8, entity: u64| {
            let key = event_key(class, entity, 0);
            q.schedule_keyed(at(t), key, key);
            expected.push((at(t), key));
        };
        sched(&mut q, 10, 3, 5); // an empty lane takes anything
        sched(&mut q, 10, 3, 7); // past the tail
        sched(&mut q, 20, 3, 4); // past the tail in time
        assert_eq!(q.schedule_paths(), [3, 0]);
        sched(&mut q, 20, 3, 2); // behind the tail at its time is the heap's, …
        sched(&mut q, 10, 3, 6); // … and so is an earlier time, …
        assert_eq!(q.schedule_paths(), [3, 2]);
        sched(&mut q, 10, 4, 6); // … but another class has its own lane
        sched(&mut q, 5, 9, 1);
        assert_eq!(q.schedule_paths(), [5, 2]);

        assert_eq!(q.len(), expected.len());
        assert_eq!(q.peek_time(), Some(at(5)));
        expected.sort();
        for (t, key) in expected {
            assert_eq!(q.pop(), Some((t, key)));
        }
        assert!(q.is_empty() && q.pop().is_none());
    }

    proptest! {
        /// Whatever the insertion order, pops come out sorted by
        /// (time, insertion index).
        #[test]
        fn prop_pop_order_is_stable_sort(times in proptest::collection::vec(0u64..1000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_ns(t), i);
            }
            let mut expected: Vec<(u64, usize)> =
                times.iter().copied().zip(0..times.len()).collect();
            expected.sort();
            let mut got = Vec::new();
            while let Some((t, i)) = q.pop() {
                got.push((t.as_ns(), i));
            }
            prop_assert_eq!(got, expected);
        }
    }
}
