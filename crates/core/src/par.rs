//! The ordered parallel map the paper sweeps and the routing builds run
//! on.
//!
//! A sweep is a list of independent simulations whose costs differ by
//! ~50× between an idle and a deeply saturated load point, so the
//! workers share one cursor over the items instead of a static split.
//! The calling thread is worker 0 — one item or one core spawns nothing
//! — and results come back in item order, so a caller cannot observe
//! the thread schedule. Waking a second core costs a call ≈ 0.2 ms
//! (DESIGN.md §5): a caller sizes its items to outweigh that.
//!
//! One level only: a thread that is already a pool worker (here, or an
//! attempt thread of `iba-campaign`'s runner, marked by [`enter_pool`])
//! runs a nested call inline, so a campaign cell that sweeps a curve —
//! or a sweep point that builds a routing — stays on its one thread.

use std::cell::Cell;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Restores the thread's "inside a pool" flag when dropped.
pub struct PoolGuard(bool);

/// Mark the current thread as a pool worker until the guard drops:
/// every [`par_map`] and [`par_chunks_mut`] called on it runs inline.
pub fn enter_pool() -> PoolGuard {
    PoolGuard(IN_POOL.replace(true))
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        IN_POOL.set(self.0);
    }
}

/// Worker threads a pool starts by default: the host's cores, at most
/// 8. Both [`par_map`] and `iba-campaign`'s `RunnerOpts::default` read
/// it.
pub fn default_workers() -> usize {
    // Asked once: the answer reads the affinity mask and cgroup files
    // (≈ 10 µs), more than a whole 8-switch routing build takes.
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(2)
    })
}

/// `items.iter().map(f).collect()`, on every core.
///
/// Results are in item order whatever order the items finished in, so
/// collecting a `Vec<Result<_, _>>` yields the lowest-index error just
/// as the sequential collect would. A panic in `f` is re-raised in the
/// caller once every worker has stopped. Called from a pool worker the
/// map runs inline on that thread.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    par_map_on(default_workers(), items, f)
}

/// [`par_map`] on at most `workers` threads. No result may depend on
/// the count: it is public for the tests that hold callers to that.
pub fn par_map_on<T: Sync, R: Send>(
    workers: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    // Relaxed: the cursor only hands out indices; the results reach the
    // caller through `join`.
    let cursor = AtomicUsize::new(0);
    let take = || {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        items.get(i).map(|item| (i, item))
    };
    run(workers.min(items.len()), take, f)
}

/// [`par_map`] over the `chunk_len`-sized chunks of `items`, each
/// handed to `f` mutably: what a build that fills a store in place
/// shares out.
pub fn par_chunks_mut<T: Send, R: Send>(
    items: &mut [T],
    chunk_len: usize,
    f: impl Fn(&mut [T]) -> R + Sync,
) -> Vec<R> {
    par_chunks_mut_on(default_workers(), items, chunk_len, f)
}

fn par_chunks_mut_on<T: Send, R: Send>(
    workers: usize,
    items: &mut [T],
    chunk_len: usize,
    f: impl Fn(&mut [T]) -> R + Sync,
) -> Vec<R> {
    let chunks = items.len().div_ceil(chunk_len);
    // The lock is held to step the iterator, never while `f` runs.
    let cursor = Mutex::new(items.chunks_mut(chunk_len).enumerate());
    let take = || cursor.lock().expect("stepping cannot panic").next();
    run(workers.min(chunks), take, f)
}

/// `f` over everything `take` hands out — `(index, item)`, ascending,
/// `None` from the end on — on `workers` threads, results by index.
fn run<I, R: Send>(
    workers: usize,
    take: impl Fn() -> Option<(usize, I)> + Sync,
    f: impl Fn(I) -> R + Sync,
) -> Vec<R> {
    if workers <= 1 || IN_POOL.get() {
        return std::iter::from_fn(take).map(|(_, item)| f(item)).collect();
    }
    let work = || {
        let _in_pool = enter_pool();
        let mut done = Vec::new();
        while let Some((i, item)) = take() {
            done.push((i, f(item)));
        }
        done
    };
    let mut done = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        // Should this panic, the scope still joins every worker first.
        let mut done = work();
        for handle in spawned {
            done.extend(
                handle
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload)),
            );
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;
    use std::thread::{self, ThreadId};

    /// A few hundred to a few thousand multiply-adds, by item.
    fn uneven(i: &u64) -> u64 {
        (0..(i % 13) * 300).fold(*i, |h, k| h.wrapping_mul(0x0100_0000_01b3) ^ k)
    }

    #[test]
    fn equals_the_sequential_map_at_every_worker_count() {
        for workers in [1usize, 2, 4] {
            for len in [0, 1, workers - 1, 1_000] {
                let items: Vec<u64> = (0..len as u64).collect();
                let sequential: Vec<u64> = items.iter().map(uneven).collect();
                assert_eq!(
                    par_map_on(workers, &items, uneven),
                    sequential,
                    "{workers} workers, {len} items"
                );
            }
        }
    }

    #[test]
    fn lowest_index_error_wins_whatever_finishes_first() {
        // Item 0 fails last: it waits for item 4, which the other
        // worker reaches only after item 3 has failed and returned.
        let gate = Barrier::new(2);
        let items: Vec<u32> = (0..6).collect();
        let collected: Result<Vec<u32>, String> = par_map_on(2, &items, |&i| match i {
            0 => {
                gate.wait();
                Err("item 0".to_string())
            }
            3 => Err("item 3".to_string()),
            4 => {
                gate.wait();
                Ok(i)
            }
            _ => Ok(i),
        })
        .into_iter()
        .collect();
        assert_eq!(collected, Err("item 0".to_string()));
    }

    #[test]
    fn a_panicking_item_panics_the_caller_after_every_worker_stopped() {
        struct Running<'a>(&'a AtomicUsize);
        impl Drop for Running<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let running = AtomicUsize::new(0);
        let items: Vec<u64> = (0..1_000).collect();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            par_map_on(4, &items, |i| {
                running.fetch_add(1, Ordering::SeqCst);
                let _running = Running(&running);
                assert!(*i != 7, "item seven");
                uneven(i)
            })
        }))
        .expect_err("the panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"item seven"));
        assert_eq!(
            running.load(Ordering::SeqCst),
            0,
            "a worker outlived the call"
        );
        assert!(
            !IN_POOL.get(),
            "the caller must not stay marked as a worker"
        );
    }

    /// Whether an 8-item, 4-worker map called here stays on this thread.
    fn runs_inline() -> bool {
        let me = thread::current().id();
        let ids: Vec<ThreadId> = par_map_on(4, &[0u8; 8], |_| thread::current().id());
        ids.iter().all(|&id| id == me)
    }

    #[test]
    fn a_nested_call_runs_inline() {
        // Both outer items are in flight at once, one per thread.
        let both = Barrier::new(2);
        let outer = par_map_on(2, &[0u8; 2], |_| {
            both.wait();
            (thread::current().id(), runs_inline())
        });
        assert_ne!(outer[0].0, outer[1].0, "the outer map must have spawned");
        assert!(outer.iter().all(|&(_, inline)| inline));
    }

    #[test]
    fn chunks_are_filled_in_place_at_every_worker_count() {
        for workers in [1usize, 2, 4] {
            for (len, chunk_len) in [(0, 3), (5, 8), (8, 8), (1_000, 7)] {
                let mut items: Vec<u64> = (0..len as u64).collect();
                let seen = par_chunks_mut_on(workers, &mut items, chunk_len, |chunk| {
                    chunk.iter_mut().for_each(|i| *i = uneven(i));
                    chunk.len()
                });
                let sequential: Vec<u64> = (0..len as u64).map(|i| uneven(&i)).collect();
                assert_eq!(items, sequential, "{workers} workers, {len} items");
                let lens: Vec<usize> = sequential.chunks(chunk_len).map(<[u64]>::len).collect();
                assert_eq!(seen, lens, "results come back in chunk order");
            }
        }
    }

    #[test]
    fn a_nested_chunk_call_runs_inline() {
        let both = Barrier::new(2);
        let inline = par_map_on(2, &[0u8; 2], |_| {
            both.wait();
            let me = thread::current().id();
            par_chunks_mut_on(4, &mut [0u8; 8], 1, |_| thread::current().id())
                .iter()
                .all(|&id| id == me)
        });
        assert_eq!(inline, [true, true]);
    }
}
