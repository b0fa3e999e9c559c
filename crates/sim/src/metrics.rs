//! The simulator's side of the metrics plane.
//!
//! Two pieces live here:
//!
//! * [`EngineProfile`] / [`WorkerProfile`] — wall-clock profiling of
//!   the window loop: where each worker's time goes (running
//!   windows, waiting at the two barriers, ingesting mailboxes), how
//!   wide the conservative windows are, and how many events each
//!   window carries. Collected only when the builder armed
//!   `.metrics()`, and exported exclusively under the
//!   `profiling_` namespace — wall-clock numbers are *not* part of the
//!   deterministic outcome and are excluded from
//!   [`MetricsRegistry::digest`] by construction.
//! * `Network::metrics_registry` (in the coordinator) — the post-run
//!   fill of a [`MetricsRegistry`] from the deterministic run result,
//!   the per-class latency histograms, and the last telemetry
//!   occupancy snapshot; [`fill_run_metrics`] is the shared helper.
//!
//! ## The determinism boundary, concretely
//!
//! Everything recorded from simulated time (delivery counts, drop
//! causes, latency histograms, VL occupancy) is bit-identical across
//! queue backends and shard counts. Everything recorded from host time (barrier waits, run
//! times) and from the engine's *execution shape* (window widths,
//! events per window, mailbox traffic — which legitimately change with
//! the shard count) goes under [`iba_stats::PROFILING_PREFIX`].

use crate::shard::CLASS_ARBITRATE;
use crate::stats::{latency_class_label, RunResult, StatsCollector};
use iba_core::Json;
use iba_stats::{LogHistogram, MetricsRegistry};

/// Wall-clock breakdown of one worker (one chunk of shards) across the whole run. All fields are host-time nanoseconds
/// or plain tallies; none participates in determinism digests.
#[derive(Clone, Debug, Default)]
pub struct WorkerProfile {
    /// Worker index (chunk index in shard order).
    pub worker: usize,
    /// Shards this worker drives.
    pub shards: usize,
    /// Nanoseconds spent executing windows (`run_window` + outbox
    /// flush).
    pub run_ns: u64,
    /// Nanoseconds spent waiting at barrier A (outboxes flushed).
    pub barrier_a_wait_ns: u64,
    /// Nanoseconds spent waiting at barrier B (ingests published).
    pub barrier_b_wait_ns: u64,
    /// Nanoseconds spent ingesting cross-shard mailboxes.
    pub ingest_ns: u64,
    /// Cross-shard messages this worker's shards ingested.
    pub mailbox_msgs: u64,
}

impl WorkerProfile {
    /// Total barrier-wait nanoseconds (both phases).
    pub fn barrier_wait_ns(&self) -> u64 {
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
    pub events_per_window: LogHistogram,
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

    /// Record the whole profile into `reg`, every series under the
    /// `profiling_` namespace (excluded from determinism digests).
    pub fn record_metrics(&self, reg: &mut MetricsRegistry) {
        reg.add("profiling_engine_shards", &[], self.shards as u64);
        reg.add("profiling_engine_workers", &[], self.workers as u64);
        reg.add("profiling_engine_windows_total", &[], self.windows);
        reg.add("profiling_engine_wall_ns_total", &[], self.wall_ns);
        reg.add(
            "profiling_engine_mailbox_msgs_total",
            &[],
            self.mailbox_msgs,
        );
        reg.merge_histogram(
            "profiling_engine_window_width_ns",
            &[],
            &self.window_width_ns,
        );
        reg.merge_histogram(
            "profiling_engine_events_per_window",
            &[],
            &self.events_per_window,
        );
        reg.set_gauge(
            "profiling_engine_barrier_wait_share",
            &[],
            self.barrier_wait_share(),
        );
        for &(class, n) in &self.handlers {
            reg.add("profiling_engine_handlers_total", &[("class", class)], n);
        }
        reg.add("profiling_engine_grants_total", &[], self.grants);
        for (name, n) in [
            ("profiling_engine_inputs_visited_total", self.inputs_visited),
            ("profiling_engine_looks_total", self.looks),
            ("profiling_engine_empty_passes_total", self.empty_passes),
            ("profiling_engine_lane_pushes_total", self.lane_pushes),
            ("profiling_engine_heap_pushes_total", self.heap_pushes),
        ] {
            reg.add(name, &[], n);
        }
        for w in &self.worker_profiles {
            let wl = w.worker.to_string();
            let labels: [(&str, &str); 1] = [("worker", wl.as_str())];
            reg.add("profiling_engine_worker_run_ns_total", &labels, w.run_ns);
            reg.add(
                "profiling_engine_worker_barrier_a_wait_ns_total",
                &labels,
                w.barrier_a_wait_ns,
            );
            reg.add(
                "profiling_engine_worker_barrier_b_wait_ns_total",
                &labels,
                w.barrier_b_wait_ns,
            );
            reg.add(
                "profiling_engine_worker_ingest_ns_total",
                &labels,
                w.ingest_ns,
            );
            reg.add(
                "profiling_engine_worker_mailbox_msgs_total",
                &labels,
                w.mailbox_msgs,
            );
        }
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

/// Fill `reg` with the deterministic (sim-time-domain) metrics of a
/// finished run: outcome counters from `result` and the latency
/// histograms (overall + per workload class) from the merged collector.
/// Everything recorded here must be bit-identical across queue backends
/// and shard counts — that is what the metrics determinism suite pins.
pub(crate) fn fill_run_metrics(
    reg: &mut MetricsRegistry,
    result: &RunResult,
    stats: &StatsCollector,
) {
    reg.add("iba_sim_generated_total", &[], result.generated);
    reg.add("iba_sim_injected_total", &[], result.injected);
    reg.add("iba_sim_delivered_total", &[], result.delivered);
    reg.add("iba_sim_source_drops_total", &[], result.source_drops);
    for (cause, n) in [
        ("link_down", result.drops_link_down),
        ("switch_down", result.drops_switch_down),
        ("corrupted", result.drops_corrupted),
    ] {
        reg.add("iba_sim_transit_drops_total", &[("cause", cause)], n);
    }
    reg.add(
        "iba_sim_forwards_total",
        &[("kind", "adaptive")],
        result.adaptive_forwards,
    );
    reg.add(
        "iba_sim_forwards_total",
        &[("kind", "escape")],
        result.escape_forwards,
    );
    reg.add(
        "iba_sim_order_violations_total",
        &[],
        result.order_violations,
    );
    reg.add("iba_sim_faults_total", &[], result.faults_injected);
    reg.add("iba_sim_resweeps_total", &[], result.resweeps);
    reg.add("iba_sim_events_total", &[], result.events);
    reg.set_gauge("iba_sim_delivered_ratio", &[], result.delivered_ratio);

    reg.merge_histogram("iba_sim_latency_ns", &[], stats.latency_histogram());
    for (idx, h) in stats.class_histograms().iter().enumerate() {
        if h.is_empty() {
            continue; // don't mint empty series for unused classes
        }
        let (mode, group) = latency_class_label(idx);
        reg.merge_histogram(
            "iba_sim_class_latency_ns",
            &[("mode", mode), ("group", group)],
            h,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_core::SimTime;
    use std::time::Duration;

    #[test]
    fn engine_profile_records_only_profiling_metrics() {
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
        let mut reg = MetricsRegistry::new();
        p.record_metrics(&mut reg);
        assert!(!reg.is_empty());
        // Every series the profile mints is profiling-namespace, so an
        // empty registry and one holding a full profile digest equal.
        assert_eq!(reg.digest(), MetricsRegistry::new().digest());
        assert!(reg.iter().all(|(name, _, _)| iba_stats::is_profiling(name)));
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

    #[test]
    fn run_metrics_fill_is_deterministic_data_only() {
        let mut stats = StatsCollector::new(SimTime::from_ns(0), SimTime::from_ns(10_000), 4, 16);
        stats.on_generated(SimTime::from_ns(100));
        let result = stats.finish(4, 42, Duration::from_millis(1));
        let mut a = MetricsRegistry::new();
        fill_run_metrics(&mut a, &result, &stats);
        let mut b = MetricsRegistry::new();
        fill_run_metrics(&mut b, &result, &stats);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.counter("iba_sim_generated_total", &[]), Some(1));
        assert_eq!(a.counter("iba_sim_events_total", &[]), Some(42));
        // Nothing the fill records is profiling-namespace.
        assert!(a.iter().all(|(name, _, _)| !iba_stats::is_profiling(name)));
    }
}
