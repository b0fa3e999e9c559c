//! Engine profiling: where a run's wall time went.
//!
//! [`EngineProfile`] / [`WorkerProfile`] break the window loop down per
//! worker (running windows, waiting at the two barriers, ingesting
//! mailboxes), record how wide the conservative windows are and how
//! many events each carries, and count what the handlers did by class.
//! Collected only when the builder armed `.metrics()`, and read back
//! through `Network::engine_profile`.
//!
//! The profile sits beside the [`crate::RunResult`], never inside it:
//! the result is the same on every shard count and queue backend,
//! while host time (barrier waits, run times) and the engine's
//! execution shape (window widths, events per window, mailbox traffic)
//! legitimately change with the shard count. The handler and
//! arbitration counts are exact and repeat run to run.

use crate::shard::CLASS_ARBITRATE;
use iba_core::Json;
use iba_stats::LogHistogram;

/// Wall-clock breakdown of one worker (one chunk of shards) across the
/// whole run. All fields are host-time nanoseconds or plain tallies.
#[derive(Clone, Debug, Default)]
pub struct WorkerProfile {
    /// Worker index (chunk index in shard order).
    pub(crate) worker: usize,
    /// Shards this worker drives.
    pub shards: usize,
    /// Nanoseconds spent executing windows (`run_window` + outbox
    /// flush).
    pub(crate) run_ns: u64,
    /// Nanoseconds spent waiting at barrier A (outboxes flushed).
    pub(crate) barrier_a_wait_ns: u64,
    /// Nanoseconds spent waiting at barrier B (ingests published).
    pub(crate) barrier_b_wait_ns: u64,
    /// Nanoseconds spent ingesting cross-shard mailboxes.
    pub(crate) ingest_ns: u64,
    /// Cross-shard messages this worker's shards ingested.
    pub mailbox_msgs: u64,
}

impl WorkerProfile {
    /// Total barrier-wait nanoseconds (both phases).
    pub(crate) fn barrier_wait_ns(&self) -> u64 {
        self.barrier_a_wait_ns + self.barrier_b_wait_ns
    }

    fn absorb(&mut self, other: &WorkerProfile) {
        self.shards = self.shards.max(other.shards);
        self.run_ns += other.run_ns;
        self.barrier_a_wait_ns += other.barrier_a_wait_ns;
        self.barrier_b_wait_ns += other.barrier_b_wait_ns;
        self.ingest_ns += other.ingest_ns;
        self.mailbox_msgs += other.mailbox_msgs;
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("worker", Json::from(self.worker)),
            ("shards", Json::from(self.shards)),
            ("run_ns", Json::from(self.run_ns)),
            ("barrier_a_wait_ns", Json::from(self.barrier_a_wait_ns)),
            ("barrier_b_wait_ns", Json::from(self.barrier_b_wait_ns)),
            ("ingest_ns", Json::from(self.ingest_ns)),
            ("mailbox_msgs", Json::from(self.mailbox_msgs)),
        ])
    }
}

/// Wall-clock and execution-shape profile of an engine run, collected
/// when the builder armed `.metrics()`.
///
/// A single shard runs one window per engine invocation on one worker
/// with (next to) zero barrier time. Successive runs on the same
/// network accumulate.
#[derive(Clone, Debug, Default)]
pub struct EngineProfile {
    /// Shard count of the run.
    pub shards: usize,
    /// Workers driving the shards (1 = the calling thread alone).
    pub workers: usize,
    /// Conservative windows executed.
    pub windows: u64,
    /// Wall-clock nanoseconds of the whole engine loop.
    pub wall_ns: u64,
    /// Distribution of conservative-window widths (simulated ns per
    /// window — a *shape* observable: it changes with the shard count).
    pub window_width_ns: LogHistogram,
    /// Distribution of fabric-wide events retired per window.
    pub(crate) events_per_window: LogHistogram,
    /// Total cross-shard mailbox messages exchanged.
    pub mailbox_msgs: u64,
    /// Per-worker wall-clock breakdown.
    pub worker_profiles: Vec<WorkerProfile>,
    /// Handlers executed per event class, by class rank; arbitration
    /// passes are the `arbitrate` row. Summed over shards, so the
    /// replicated fault and probe handlers count once per shard.
    pub handlers: Vec<(&'static str, u64)>,
    /// Packets the arbitration passes granted an output.
    pub grants: u64,
    /// Input ports the passes' sweeps visited: the occupied ones whose
    /// state changed since their last failed look.
    pub inputs_visited: u64,
    /// Visited inputs whose buffers were looked into for a candidate
    /// (the rest were streaming); `looks - grants` found nothing.
    pub looks: u64,
    /// Passes that had no input to visit: a cursor step and nothing else.
    pub empty_passes: u64,
    /// Queue schedules appended to a class lane …
    pub lane_pushes: u64,
    /// … or pushed on the heap; together, the schedules made (both zero
    /// on the calendar backend). Mailbox ingest schedules in arrival
    /// order, so with several shards the split, not the sum, may vary.
    pub heap_pushes: u64,
}

impl EngineProfile {
    /// Fraction of total worker wall-time spent waiting at barriers —
    /// the headline "where does parallel time go" number. 0.0 when
    /// nothing was profiled.
    pub fn barrier_wait_share(&self) -> f64 {
        let waited: u64 = self
            .worker_profiles
            .iter()
            .map(|w| w.barrier_wait_ns())
            .sum();
        let denom = self.wall_ns.saturating_mul(self.workers.max(1) as u64);
        if denom == 0 {
            0.0
        } else {
            waited as f64 / denom as f64
        }
    }

    /// Arbitration passes executed (the `arbitrate` handler row).
    pub fn passes(&self) -> u64 {
        let row = self.handlers.get(CLASS_ARBITRATE as usize);
        row.map_or(0, |h| h.1)
    }

    /// Fold another profile fragment (e.g. a later `advance` call) into
    /// this one (the handler counts are set from the shards' cumulative
    /// counters instead).
    pub(crate) fn absorb(&mut self, other: &EngineProfile) {
        self.shards = self.shards.max(other.shards);
        self.workers = self.workers.max(other.workers);
        self.windows += other.windows;
        self.wall_ns += other.wall_ns;
        self.window_width_ns.merge(&other.window_width_ns);
        self.events_per_window.merge(&other.events_per_window);
        self.mailbox_msgs += other.mailbox_msgs;
        for w in &other.worker_profiles {
            if let Some(mine) = self
                .worker_profiles
                .iter_mut()
                .find(|m| m.worker == w.worker)
            {
                mine.absorb(w);
            } else {
                self.worker_profiles.push(w.clone());
            }
        }
        self.worker_profiles.sort_by_key(|w| w.worker);
    }

    /// The shard-scaling JSON row `iba metrics` embeds
    /// in `results/metrics.json`: the headline shares plus compact
    /// distribution summaries.
    pub fn to_json(&self) -> Json {
        let hist_summary = |h: &LogHistogram| {
            if h.is_empty() {
                Json::obj([("count", Json::from(0u64))])
            } else {
                Json::obj([
                    ("count", Json::from(h.count())),
                    ("min", Json::from(h.min())),
                    ("p50", Json::from(h.quantile(0.5))),
                    ("p90", Json::from(h.quantile(0.9))),
                    ("p99", Json::from(h.quantile(0.99))),
                    ("max", Json::from(h.max())),
                ])
            }
        };
        Json::obj([
            ("shards", Json::from(self.shards)),
            ("workers", Json::from(self.workers)),
            ("windows", Json::from(self.windows)),
            ("wall_ns", Json::from(self.wall_ns)),
            ("barrier_wait_share", Json::from(self.barrier_wait_share())),
            ("mailbox_msgs", Json::from(self.mailbox_msgs)),
            ("window_width_ns", hist_summary(&self.window_width_ns)),
            ("events_per_window", hist_summary(&self.events_per_window)),
            ("handlers", Json::obj(self.handlers.iter().copied())),
            ("grants", Json::from(self.grants)),
            ("inputs_visited", Json::from(self.inputs_visited)),
            ("looks", Json::from(self.looks)),
            ("empty_passes", Json::from(self.empty_passes)),
            ("lane_pushes", Json::from(self.lane_pushes)),
            ("heap_pushes", Json::from(self.heap_pushes)),
            (
                "worker_profiles",
                Json::arr(self.worker_profiles.iter().map(|w| w.to_json())),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_wait_share_is_waits_over_worker_wall_time() {
        let mut p = EngineProfile {
            shards: 4,
            workers: 2,
            windows: 10,
            wall_ns: 1_000,
            mailbox_msgs: 55,
            ..EngineProfile::default()
        };
        p.window_width_ns.record(200);
        p.events_per_window.record(64);
        p.worker_profiles.push(WorkerProfile {
            worker: 0,
            shards: 2,
            run_ns: 600,
            barrier_a_wait_ns: 100,
            barrier_b_wait_ns: 50,
            ingest_ns: 40,
            mailbox_msgs: 30,
        });
        // barrier share: (100+50) / (1000 * 2 workers)
        assert!((p.barrier_wait_share() - 0.075).abs() < 1e-12);
    }

    #[test]
    fn engine_profile_absorb_accumulates() {
        let mut a = EngineProfile {
            shards: 2,
            workers: 1,
            windows: 3,
            wall_ns: 100,
            ..EngineProfile::default()
        };
        let mut b = EngineProfile {
            shards: 2,
            workers: 1,
            windows: 2,
            wall_ns: 50,
            ..EngineProfile::default()
        };
        b.worker_profiles.push(WorkerProfile {
            worker: 0,
            shards: 2,
            run_ns: 40,
            ..WorkerProfile::default()
        });
        a.absorb(&b);
        assert_eq!(a.windows, 5);
        assert_eq!(a.wall_ns, 150);
        assert_eq!(a.worker_profiles.len(), 1);
        assert_eq!(a.worker_profiles[0].run_ns, 40);
    }
}
