//! Engine profiling is observation only: a profiled run — telemetry
//! armed too — returns the same `RunResult`, percentiles included, on
//! both event-queue backends and on every shard and thread count, and
//! its profile accounts exactly for what the handlers did.

use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{Network, QueueBackend, RunResult, SimConfig, TelemetryOpts};
use iba_stats::LogHistogram;
use iba_topology::IrregularConfig;
use iba_workloads::WorkloadSpec;
use proptest::prelude::*;

/// One instrumented run: telemetry and engine profiling armed.
fn run_profiled(backend: QueueBackend, shards: usize, threads: usize) -> RunResult {
    let topo = IrregularConfig::paper(16, 11).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let mut cfg = SimConfig::test(23);
    cfg.queue_backend = backend;
    let mut net = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.05).with_adaptive_fraction(0.6))
        .config(cfg)
        .telemetry(TelemetryOpts::every_ns(2_000))
        .metrics()
        .shards(shards)
        .threads(threads)
        .build()
        .unwrap();
    let result = net.run();
    assert!(net.engine_profile().is_some(), "profiling armed");
    result
}

#[test]
fn profiled_runs_identical_across_queue_backends() {
    for (shards, threads) in [(1usize, 1usize), (2, 2), (4, 2)] {
        let rh = run_profiled(QueueBackend::BinaryHeap, shards, threads);
        let rc = run_profiled(QueueBackend::Calendar, shards, threads);
        assert_eq!(rh, rc, "shards={shards}");
        assert!(rh.p50_latency_ns.is_some(), "run must deliver packets");
        assert!(rh.p999_latency_ns.is_some());
    }
}

#[test]
fn profiled_runs_identical_across_shard_and_thread_counts() {
    // The window structure (and so the profile) differs between 1, 2
    // and 4 shards; the result, percentiles included, does not.
    let r1 = run_profiled(QueueBackend::BinaryHeap, 1, 1);
    let r2 = run_profiled(QueueBackend::BinaryHeap, 2, 2);
    let r4 = run_profiled(QueueBackend::BinaryHeap, 4, 4);
    assert_eq!(r1, r2);
    assert_eq!(r2, r4);
    for q in [
        r1.p50_latency_ns,
        r1.p90_latency_ns,
        r1.p99_latency_ns,
        r1.p999_latency_ns,
    ] {
        assert!(q.is_some(), "{r1:?}");
    }
    // Thread count never matters either.
    assert_eq!(r4, run_profiled(QueueBackend::BinaryHeap, 4, 1));
}

#[test]
fn engine_profile_present_and_sane() {
    // Parallel, threaded: windows were executed and barrier waits
    // measured.
    let topo = IrregularConfig::paper(16, 3).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let mut net = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.05))
        .config(SimConfig::test(5))
        .metrics()
        .shards(4)
        .threads(4)
        .build()
        .unwrap();
    let r = net.run();
    let p = net.engine_profile().expect("profiling armed");
    assert_eq!(p.shards, 4);
    // What the handlers did, by class: with no fault or probe armed
    // nothing is replicated, so the rows add up to the run's event
    // count; every forward is one grant of one arbitration pass, and a
    // pass looks at least at the input it grants.
    assert_eq!(p.handlers.iter().map(|h| h.1).sum::<u64>(), r.events);
    assert_eq!(p.handlers.len(), 10);
    assert_eq!(p.grants, r.adaptive_forwards + r.escape_forwards);
    assert!(p.passes() >= p.grants / 2 && p.inputs_visited >= p.grants);
    let row = |class: &str| p.handlers.iter().find(|h| h.0 == class).unwrap().1;
    assert_eq!(row("generate"), r.generated);
    assert_eq!(row("arbitrate"), p.passes());
    // A grant sends its header to a switch or its tail to a host; only
    // what was still on a wire at the horizon is missing on the right.
    let landed = row("header_arrive") + row("deliver");
    assert!(landed <= p.grants + r.injected && landed + 1_000 > p.grants + r.injected);
    assert!(p.windows > 0);
    assert!(p.wall_ns > 0);
    assert!(!p.window_width_ns.is_empty());
    assert_eq!(p.worker_profiles.len(), p.workers);
    let share = p.barrier_wait_share();
    assert!((0.0..=1.0).contains(&share), "share={share}");
    // Without .metrics() no profile is collected.
    let mut bare = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.05))
        .config(SimConfig::test(5))
        .shards(4)
        .build()
        .unwrap();
    let _ = bare.run();
    assert!(bare.engine_profile().is_none());
}

#[test]
fn mechanism_counts_are_exact_and_shard_invariant() {
    // No telemetry here: an observed pass keeps every look.
    let topo = IrregularConfig::paper(16, 3).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let profile = |shards: usize| {
        let cfg = SimConfig::test(5);
        let mut net = Network::builder(&topo, &fa)
            .workload(WorkloadSpec::uniform32(0.12).with_adaptive_fraction(0.5))
            .config(cfg)
            .metrics()
            .shards(shards)
            .threads(shards)
            .build()
            .unwrap();
        let (r, drained) = net.run_until_drained(cfg.horizon(), cfg.horizon().plus_ns(10_000_000));
        assert!(drained, "{r:?}");
        (r, net.engine_profile().expect("profiling armed").clone())
    };
    let (r, p) = profile(1);
    // Every schedule took a lane or the heap, and a drained queue has
    // popped them all: the handlers that are not passes.
    let schedules = p.lane_pushes + p.heap_pushes;
    assert_eq!(schedules, r.events - p.passes());
    assert!(4 * p.heap_pushes < schedules, "{p:?}");
    // A grant takes a look, a look a visit, an empty pass a pass; and
    // the waiter sets keep the failed looks near one per grant.
    assert!(p.grants <= p.looks && p.looks <= p.inputs_visited);
    assert!(
        p.looks < 3 * p.grants,
        "{} looks for {} grants",
        p.looks,
        p.grants
    );
    assert!(p.empty_passes > 0 && p.empty_passes < p.passes());
    for shards in [2, 4] {
        let (rn, pn) = profile(shards);
        assert_eq!(rn, r);
        // What a pass does belongs to its switch, so the counts of the
        // sweeps are those of one shard. The split over lanes and heap is
        // not: mailbox ingest schedules a window's cross-shard events in
        // arrival order, behind their lanes' tails. The sum stays.
        assert_eq!(
            (
                pn.passes(),
                pn.grants,
                pn.inputs_visited,
                pn.looks,
                pn.empty_passes
            ),
            (
                p.passes(),
                p.grants,
                p.inputs_visited,
                p.looks,
                p.empty_passes
            ),
            "shards={shards}"
        );
        assert_eq!(pn.lane_pushes + pn.heap_pushes, schedules);
    }
}

#[test]
fn metered_run_changes_nothing_about_the_simulation() {
    // .metrics() must be purely observational: same RunResult with and
    // without it, on both engines.
    let topo = IrregularConfig::paper(16, 7).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    for shards in [1usize, 2] {
        let run = |metered: bool| {
            let mut b = Network::builder(&topo, &fa)
                .workload(WorkloadSpec::uniform32(0.08))
                .config(SimConfig::test(9))
                .shards(shards);
            if metered {
                b = b.metrics();
            }
            b.build().unwrap().run()
        };
        assert_eq!(run(false), run(true), "shards={shards}");
    }
}

// Mirrors StatsCollector::merge's shard order: merging shard-local
// histograms in any grouping/order yields identical quantiles — the
// property that makes the parallel percentiles well-defined.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn prop_histogram_merge_mirrors_shard_merge_order(
        shard_samples in proptest::collection::vec(
            proptest::collection::vec(0u64..10_000_000, 0..40),
            1..6,
        ),
    ) {
        let hists: Vec<LogHistogram> = shard_samples
            .iter()
            .map(|samples| {
                let mut h = LogHistogram::new();
                for &s in samples {
                    h.record(s);
                }
                h
            })
            .collect();
        // Forward order (what merged_result does: shard 0, 1, 2, ...).
        let mut forward = LogHistogram::new();
        for h in &hists {
            forward.merge(h);
        }
        // Reverse order.
        let mut reverse = LogHistogram::new();
        for h in hists.iter().rev() {
            reverse.merge(h);
        }
        // Pairwise tree ((0+1) + (2+3) + ...).
        let mut tree = hists.clone();
        while tree.len() > 1 {
            let mut next = Vec::new();
            for pair in tree.chunks(2) {
                let mut m = pair[0].clone();
                if let Some(b) = pair.get(1) {
                    m.merge(b);
                }
                next.push(m);
            }
            tree = next;
        }
        prop_assert_eq!(&forward, &reverse);
        prop_assert_eq!(&forward, &tree[0]);
        for q in [0.5, 0.9, 0.99, 0.999] {
            prop_assert_eq!(forward.quantile(q), reverse.quantile(q));
        }
    }
}
