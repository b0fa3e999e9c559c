//! Event-queue backend equivalence: the binary-heap and calendar
//! backends must be indistinguishable from inside the simulation.
//!
//! Both backends promise the same contract — events pop in `(time, seq)`
//! order, so same-time events keep schedule-order FIFO — and everything
//! downstream (arbitration, flow control, statistics) is deterministic
//! given that stream. Hence two runs of the same scenario that differ
//! *only* in `SimConfig::queue_backend` must produce bit-identical
//! [`RunResult`]s (wall-clock fields excluded by its `PartialEq`) and,
//! stronger, identical per-packet forwarding decisions.

mod common;

use iba_core::{HostId, ServiceLevel, SimTime};
use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{Network, QueueBackend, RunResult, SimConfig};
use iba_topology::IrregularConfig;
use iba_workloads::{ScriptedPacket, TrafficScript, WorkloadSpec};
use proptest::prelude::*;

fn run_with_backend(
    topo_seed: u64,
    sim_seed: u64,
    load: f64,
    fraction: f64,
    backend: QueueBackend,
) -> RunResult {
    let topo = IrregularConfig::paper(8, topo_seed).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let spec = WorkloadSpec::uniform32(load).with_adaptive_fraction(fraction);
    let mut cfg = SimConfig::test(sim_seed);
    cfg.queue_backend = backend;
    let mut net = Network::builder(&topo, &fa)
        .workload(spec)
        .config(cfg)
        .build()
        .unwrap();
    net.run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// For arbitrary small scenarios, swapping the event-queue backend
    /// changes nothing observable about the simulation.
    #[test]
    fn prop_backends_produce_identical_results(
        topo_seed in 0u64..500,
        sim_seed in any::<u64>(),
        load_idx in 0usize..3,
        frac_idx in 0usize..3,
    ) {
        let load = [0.01f64, 0.08, 0.25][load_idx];
        let fraction = [0.0f64, 0.5, 1.0][frac_idx];
        let heap = run_with_backend(topo_seed, sim_seed, load, fraction, QueueBackend::BinaryHeap);
        let cal = run_with_backend(topo_seed, sim_seed, load, fraction, QueueBackend::Calendar);
        prop_assert_eq!(&heap, &cal);
        // PartialEq skips the host-machine timing fields; the simulated
        // event count must still agree exactly.
        prop_assert_eq!(heap.events, cal.events);
    }
}

/// The decision digest of a captured run (`common::decision_digest`).
fn forwarding_digest(net: &Network<'_>) -> u64 {
    common::decision_digest(&net.flight_dump().expect("the capture is armed")).0
}

fn trace_digest(backend: QueueBackend) -> (u64, u64) {
    let topo = IrregularConfig::paper(16, 9).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let spec = WorkloadSpec::uniform32(0.05).with_adaptive_fraction(0.7);
    let mut cfg = SimConfig::test(11);
    cfg.queue_backend = backend;
    let mut net = Network::builder(&topo, &fa)
        .workload(spec)
        .config(cfg)
        .recorder(common::CAPTURE)
        .build()
        .unwrap();
    let result = net.run();
    (forwarding_digest(&net), result.events)
}

#[test]
fn backends_produce_identical_forwarding_traces() {
    let heap = trace_digest(QueueBackend::BinaryHeap);
    let cal = trace_digest(QueueBackend::Calendar);
    assert_eq!(heap, cal, "per-decision trace diverged between backends");
}

/// A scripted trace mixing 32- and 256-byte packets: no event class of
/// the heap backend's lanes has a constant delay here (a `TxDone`, a
/// `Deliver` or a `TryInject` lands one of two serialization times
/// ahead), so schedules fall behind their lane's tail and take the
/// heap — and the run must not notice.
#[test]
fn mixed_packet_sizes_simulate_the_same_on_both_backends() {
    let topo = IrregularConfig::paper(8, 21).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let hosts = topo.num_hosts() as u64;
    let script = TrafficScript::new(
        (0..3_000u64)
            .map(|i| ScriptedPacket {
                at: SimTime::from_ns(500 + i * 37),
                src: HostId((i * 5 % hosts) as u16),
                dst: HostId(((i * 5 + 1 + i % (hosts - 1)) % hosts) as u16),
                size_bytes: if i % 3 == 0 { 256 } else { 32 },
                adaptive: i % 4 != 0,
                sl: ServiceLevel(0),
                path_set: Default::default(),
            })
            .collect(),
    )
    .unwrap();
    let run = |backend| {
        let mut cfg = SimConfig::test(13);
        cfg.queue_backend = backend;
        let mut net = Network::builder(&topo, &fa)
            .script(&script)
            .config(cfg)
            .recorder(common::CAPTURE)
            .metrics()
            .build()
            .unwrap();
        let (result, drained) = net.run_until_drained(SimTime::from_ms(1), SimTime::from_ms(50));
        assert!(drained, "{result:?}");
        let p = net.engine_profile().expect("metrics armed");
        (
            result,
            forwarding_digest(&net),
            [p.lane_pushes, p.heap_pushes],
        )
    };
    let (heap, heap_digest, paths) = run(QueueBackend::BinaryHeap);
    let (cal, cal_digest, _) = run(QueueBackend::Calendar);
    assert_eq!(heap, cal);
    assert_eq!(heap.events, cal.events);
    assert_eq!(heap_digest, cal_digest);
    assert_eq!(heap.delivered, 3_000);
    // The scenario does what it is here for: both paths were taken.
    assert!(paths[0] > 1_000 && paths[1] > 1_000, "{paths:?}");
}
