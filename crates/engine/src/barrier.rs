//! A reusable spin barrier for the sharded engine.
//!
//! The simulation loop synchronizes its worker threads twice
//! per lookahead window (once after event execution, once after mailbox
//! exchange). Windows are short — often a handful of microseconds of
//! simulated time, tens of events — so the synchronization cost is on
//! the critical path. [`std::sync::Barrier`] parks threads in the
//! kernel; this barrier spins (with a yield fallback so oversubscribed
//! runs still make progress), which keeps the per-window cost in the
//! tens-of-nanoseconds range when every worker is on its own core.

use std::sync::atomic::{AtomicUsize, Ordering};

/// How many spin iterations to burn before yielding to the scheduler.
/// Tuned loosely: long enough to cover a well-matched barrier arrival
/// spread, short enough that an oversubscribed machine degrades to
/// cooperative yielding almost immediately.
const SPINS_BEFORE_YIELD: u32 = 4_096;

/// A reusable barrier that spins instead of parking.
///
/// `wait` blocks until `n` threads have called it, then releases them
/// all; the barrier immediately becomes usable for the next round
/// (generation counting, so a fast thread re-entering `wait` cannot
/// steal a slot from the previous round).
pub struct SpinBarrier {
    n: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    /// A barrier for `n` threads (`n` ≥ 1).
    pub fn new(n: usize) -> SpinBarrier {
        assert!(n >= 1, "barrier needs at least one participant");
        SpinBarrier {
            n,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Block until all `n` threads have arrived. Returns `true` on
    /// exactly one of the callers per round (the last arriver), which
    /// callers can use to elect a leader for per-round serial work.
    pub fn wait(&self) -> bool {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Last arriver: reset the count, then open the gate.
            self.arrived.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
            return true;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            spins += 1;
            if spins > SPINS_BEFORE_YIELD {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn single_thread_is_always_leader() {
        let b = SpinBarrier::new(1);
        assert!(b.wait());
        assert!(b.wait());
    }

    #[test]
    fn all_threads_pass_and_exactly_one_leads_per_round() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 50;
        let barrier = SpinBarrier::new(THREADS);
        let leaders = AtomicU64::new(0);
        let passes = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        if barrier.wait() {
                            leaders.fetch_add(1, Ordering::Relaxed);
                        }
                        passes.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), ROUNDS as u64);
        assert_eq!(passes.load(Ordering::Relaxed), (THREADS * ROUNDS) as u64);
    }

    #[test]
    fn barrier_separates_rounds() {
        // A value written before the barrier by each thread is visible
        // to every thread after it (acquire/release pairing).
        const THREADS: usize = 3;
        let barrier = SpinBarrier::new(THREADS);
        let cells: Vec<AtomicU64> = (0..THREADS).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let cells = &cells;
                let barrier = &barrier;
                s.spawn(move || {
                    cells[t].store(t as u64 + 1, Ordering::Release);
                    barrier.wait();
                    let sum: u64 = cells.iter().map(|c| c.load(Ordering::Acquire)).sum();
                    assert_eq!(sum, (1..=THREADS as u64).sum::<u64>());
                });
            }
        });
    }
}
