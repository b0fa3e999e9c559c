//! The extended fault model, end to end: switch death/revival, packet
//! corruption, link flapping, escape-route certification and the
//! conservation/credit invariants the chaos campaign asserts.

use iba_core::{IbaError, PortIndex, SimTime, SwitchId};
use iba_routing::{EscapeEngine, FaRouting, RoutingConfig, UpDownRouting};
use iba_sim::{Network, QueueBackend, RecoveryPolicy, RunResult, SimConfig};
use iba_topology::{IrregularConfig, Topology};
use iba_workloads::{FaultEvent, FaultSchedule, WorkloadSpec};

#[test]
fn switch_death_and_revival_drains_cleanly() {
    for seed in [3u64, 9] {
        let topo = IrregularConfig::paper(16, seed).generate().unwrap();
        let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
        let victim = topo.switch_ids().nth(3).unwrap();
        let schedule = FaultSchedule::new(vec![
            FaultEvent::switch_down(SimTime::from_us(20), victim),
            FaultEvent::switch_up(SimTime::from_us(30), victim),
        ])
        .unwrap();
        let cfg = SimConfig::test(seed);
        let horizon = cfg.horizon();
        let mut net = Network::builder(&topo, &fa)
            .workload(WorkloadSpec::uniform32(0.02))
            .config(cfg)
            .faults(&schedule, RecoveryPolicy::SmResweep, 2_000)
            .build()
            .unwrap();
        let (result, drained) = net.run_until_drained(horizon, horizon.plus_ns(400_000));

        assert_eq!(result.faults_injected, 1, "seed {seed}");
        // Packets on the wire toward the dead switch are lost under the
        // dedicated cause, not misfiled as link drops.
        assert!(
            result.drops_switch_down > 0,
            "seed {seed}: no switch-down drops recorded"
        );
        assert_eq!(result.drops_link_down, 0, "seed {seed}");
        assert_eq!(
            result.drops_in_transit,
            result.drops_link_down + result.drops_switch_down + result.drops_corrupted,
            "seed {seed}: per-cause drop decomposition must cover the total"
        );
        // The re-sweep during the death window must fail (the victim's
        // hosts are unreachable — a partition, not a reroutable fault);
        // the one after revival reinstates the primaries and certifies.
        assert!(result.resweeps_failed >= 1, "seed {seed}");
        assert!(result.escape_certifications >= 1, "seed {seed}");
        assert_eq!(result.escape_cert_failures, 0, "seed {seed}");
        // Full conservation after recovery: drained, nothing resident,
        // every credit counter restored (including host counters that
        // spent credits on packets that died at the masked ports).
        assert!(drained, "seed {seed}: network failed to drain");
        assert_eq!(net.residual_packets(), 0, "seed {seed}");
        assert!(net.is_quiescent(), "seed {seed}");
        let audit = net.credit_audit();
        assert!(audit.is_empty(), "seed {seed}: credit leak: {audit:?}");
        assert_eq!(result.duplicate_deliveries, 0, "seed {seed}");
    }
}

#[test]
fn corruption_drops_are_counted_and_leak_no_credits() {
    let topo = IrregularConfig::paper(16, 5).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    let cfg = SimConfig::test(5);
    let horizon = cfg.horizon();
    let mut net = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.02))
        .config(cfg)
        .corruption(0.02)
        .build()
        .unwrap();
    let (result, drained) = net.run_until_drained(horizon, horizon.plus_ns(200_000));

    assert!(result.drops_corrupted > 0, "2% CRC loss must drop packets");
    assert_eq!(result.drops_in_transit, result.drops_corrupted);
    // The receiver advertises the corrupted packet's space back, so the
    // fabric still drains to full quiescence — corruption loses packets,
    // never credits.
    assert!(drained, "network failed to drain under corruption");
    assert!(net.is_quiescent());
    assert!(net.credit_audit().is_empty());
    assert_eq!(net.residual_packets(), 0);
    assert_eq!(result.duplicate_deliveries, 0);
    assert_eq!(
        result.generated - result.source_drops,
        result.delivered + result.drops_in_transit,
        "conservation: injected = delivered + dropped at drain"
    );
}

#[test]
fn corruption_disarmed_is_bit_identical_to_baseline() {
    // The armed-but-zero hook must not perturb anything: a run with
    // corruption(0.0) consumes no draws and matches a run without the
    // builder option entirely.
    let run = |armed: bool| -> RunResult {
        let topo = IrregularConfig::paper(8, 2).generate().unwrap();
        let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
        let b = Network::builder(&topo, &fa)
            .workload(WorkloadSpec::uniform32(0.05))
            .config(SimConfig::test(2));
        let b = if armed { b.corruption(0.0) } else { b };
        b.build().unwrap().run()
    };
    assert_eq!(run(true), run(false));
}

#[test]
fn switch_fault_runs_are_bit_identical_across_backends() {
    let run = |backend: QueueBackend| -> RunResult {
        let topo = IrregularConfig::paper(16, 7).generate().unwrap();
        let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
        let victim = topo.switch_ids().nth(5).unwrap();
        let schedule = FaultSchedule::new(vec![
            FaultEvent::switch_down(SimTime::from_us(18), victim),
            FaultEvent::switch_up(SimTime::from_us(27), victim),
        ])
        .unwrap();
        let mut cfg = SimConfig::test(13);
        cfg.queue_backend = backend;
        let mut net = Network::builder(&topo, &fa)
            .workload(WorkloadSpec::uniform32(0.08))
            .config(cfg)
            .faults(&schedule, RecoveryPolicy::SmResweep, 2_000)
            .corruption(0.01)
            .build()
            .unwrap();
        net.run()
    };
    let heap = run(QueueBackend::BinaryHeap);
    let cal = run(QueueBackend::Calendar);
    assert_eq!(heap, cal, "switch faults diverged between queue backends");
}

#[test]
fn flapping_link_heals_after_bounded_oscillation() {
    let topo = IrregularConfig::paper(16, 5).generate().unwrap();
    let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
    // Any link works: every flap window closes, so the fabric ends whole
    // even if a down interval transiently disconnects it.
    let (a, (_, b, _)) = {
        let a = topo.switch_ids().next().unwrap();
        (a, topo.switch_neighbors(a).next().unwrap())
    };
    let schedule = FaultSchedule::flapping(SimTime::from_us(15), a, b, 2_000, 3_000, 3).unwrap();
    let cfg = SimConfig::test(5);
    let horizon = cfg.horizon();
    let mut net = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.02))
        .config(cfg)
        .faults(&schedule, RecoveryPolicy::SmResweep, 2_000)
        .build()
        .unwrap();
    let (result, drained) = net.run_until_drained(horizon, horizon.plus_ns(400_000));

    assert_eq!(result.faults_injected, 3, "three down flanks");
    assert_eq!(net.active_faults(), 0);
    assert!(
        drained,
        "network failed to drain after the flapping stopped"
    );
    assert!(net.is_quiescent());
    assert_eq!(result.duplicate_deliveries, 0);
}

#[test]
fn apm_migration_certifies_the_alternate_escape_once() {
    let topo = IrregularConfig::paper(16, 5).generate().unwrap();
    let fa = FaRouting::build_with_apm(&topo, RoutingConfig::two_options()).unwrap();
    let a = topo.switch_ids().next().unwrap();
    let (_, b, _) = topo.switch_neighbors(a).next().unwrap();
    let schedule = FaultSchedule::single(SimTime::from_us(20), a, b).unwrap();
    let cfg = SimConfig::test(5);
    let mut net = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.02))
        .config(cfg)
        .faults(&schedule, RecoveryPolicy::ApmMigrate, 0)
        .build()
        .unwrap();
    let result = net.run();
    assert!(result.faults_injected >= 1);
    // Exactly one certification: the first migrated generation walks the
    // alternate escape chains, later ones reuse the verdict.
    assert_eq!(result.escape_certifications, 1);
    assert_eq!(result.escape_cert_failures, 0);
}

/// Up\*/down\* except for one forwarding loop: towards one switch,
/// the two ends of a link send to each other.
#[derive(Clone, Debug)]
struct LoopEngine {
    inner: UpDownRouting,
    ends: [(SwitchId, PortIndex); 2],
    towards: SwitchId,
}

impl EscapeEngine for LoopEngine {
    const NAME: &'static str = "loop";

    fn build(topo: &Topology) -> Result<Self, IbaError> {
        Self::build_with_root(topo, SwitchId(0))
    }

    fn build_with_root(topo: &Topology, root: SwitchId) -> Result<Self, IbaError> {
        let a = SwitchId(0);
        let (pa, b, pb) = topo.switch_neighbors(a).next().expect("a link at switch 0");
        Ok(LoopEngine {
            inner: UpDownRouting::build_with_root(topo, root)?,
            ends: [(a, pa), (b, pb)],
            towards: (topo.switch_ids().find(|&t| t != a && t != b)).expect("a third switch"),
        })
    }

    fn root(&self) -> SwitchId {
        self.inner.root()
    }

    fn next_hop(&self, s: SwitchId, t: SwitchId) -> Option<PortIndex> {
        let looping = self
            .ends
            .iter()
            .find(|&&(end, _)| end == s && t == self.towards);
        looping.map_or_else(|| self.inner.next_hop(s, t), |&(_, port)| Some(port))
    }
}

#[test]
fn cyclic_escape_tables_fail_certification() {
    // The primaries loop and nobody certified them at bring-up; the
    // re-sweep after a link-down rebuilds the loop, must refuse its
    // tables and count the failed certification, and traffic goes on
    // on the tables that were live.
    let topo = IrregularConfig::paper(8, 1).generate().unwrap();
    let fa =
        FaRouting::<LoopEngine>::build_with_engine(&topo, RoutingConfig::two_options()).unwrap();
    // A link whose loss keeps the fabric connected: the re-sweep gets
    // as far as certifying its tables.
    let (a, b) = (topo.switch_ids())
        .flat_map(|a| topo.switch_neighbors(a).map(move |(_, b, _)| (a, b)))
        .find(|&(a, b)| a < b && topo.without_links(|s, _, peer| (s, peer) == (a, b)).is_ok())
        .expect("a removable link");
    let schedule = FaultSchedule::single(SimTime::from_us(20), a, b).unwrap();
    let mut net = Network::builder(&topo, &fa)
        .workload(WorkloadSpec::uniform32(0.005))
        .config(SimConfig::test(1))
        .faults(&schedule, RecoveryPolicy::SmResweep, 2_000)
        .build()
        .unwrap();
    let result = net.run();
    assert_eq!(result.faults_injected, 1);
    assert_eq!((result.resweeps, result.resweeps_failed), (0, 1));
    assert_eq!(result.escape_certifications, 1);
    assert_eq!(result.escape_cert_failures, 1);
    assert!(!net.recovery_installed(), "refused tables were installed");
    assert!(result.delivered > 0);
}
