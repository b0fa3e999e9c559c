//! The subnet-manager façade: the full bring-up pipeline.

use crate::discovery::{DiscoveredFabric, Discoverer};
use crate::managed::ManagedFabric;
use crate::program::{ProgramReport, Programmer};
use crate::retry::{send_once, ReliableSender, RetryPolicy};
use iba_core::{FlightEvent, IbaError, SwitchId};
use iba_routing::{EscapeEngine, FaRouting, RoutingConfig, UpDownRouting};
use iba_topology::Topology;
use std::marker::PhantomData;

/// The result of a complete subnet initialization.
pub struct BringUp<E: EscapeEngine = UpDownRouting> {
    /// What discovery found.
    pub discovered: DiscoveredFabric,
    /// The fabric graph as the SM sees it (discovery-ordered ids,
    /// physical port numbers).
    pub topology: Topology,
    /// The routes computed and uploaded.
    pub routing: FaRouting<E>,
    /// Programming statistics.
    pub report: ProgramReport,
}

/// The subnet manager, parameterized by the escape engine its FA tables
/// are built over (default: the paper's up\*/down\*).
pub struct SubnetManager<E: EscapeEngine = UpDownRouting> {
    routing_config: RoutingConfig,
    _engine: PhantomData<E>,
}

impl SubnetManager {
    /// A subnet manager that will deploy FA-over-up\*/down\* routing
    /// with the given configuration.
    pub fn new(routing_config: RoutingConfig) -> SubnetManager {
        SubnetManager::with_engine(routing_config)
    }
}

impl<E: EscapeEngine> SubnetManager<E> {
    /// A subnet manager deploying FA over the escape engine `E`, e.g.
    /// `SubnetManager::<OutflankRouting>::with_engine(cfg)` on a torus.
    pub(crate) fn with_engine(routing_config: RoutingConfig) -> SubnetManager<E> {
        SubnetManager {
            routing_config,
            _engine: PhantomData,
        }
    }

    /// Run the whole pipeline against a fabric: discover every node via
    /// directed-route SMPs, rebuild the graph, assign LID ranges per the
    /// LMC scheme, compute FA routes (deterministic escape + minimal
    /// adaptive options), upload every forwarding table in 64-entry
    /// blocks, and verify by read-back.
    pub fn initialize(&self, fabric: &mut ManagedFabric) -> Result<BringUp<E>, IbaError> {
        self.initialize_with(fabric, &mut Programmer::new())
    }

    /// [`Self::initialize`] through a caller-owned [`Programmer`]. The
    /// programmer's dirty-block shadow survives the call, so a later
    /// [`Self::resweep_after_link_failure`] through the *same*
    /// programmer uploads only the LFT blocks that changed. Every SMP is
    /// sent exactly once: a node that does not answer is a hard error.
    pub fn initialize_with(
        &self,
        fabric: &mut ManagedFabric,
        programmer: &mut Programmer,
    ) -> Result<BringUp<E>, IbaError> {
        let up = self.bring_up(fabric, programmer, send_once())?;
        strict(up.bringup, up.report, IbaError::InvalidTopology)
    }

    /// The incremental re-sweep: given the previous bring-up and a
    /// failed inter-switch link `(a, b)` (discovery-ordered ids), skip
    /// rediscovery — drop the link from the recorded fabric, re-sweep the
    /// routing on it ([`FaRouting::resweep`]: root pinned, escape layer
    /// certified), and upload the diff through `programmer`'s
    /// dirty-block shadow. The resulting tables are byte-identical to a
    /// from-scratch sweep of the degraded fabric; only the changed
    /// blocks travel as SMPs, each sent exactly once — a switch that
    /// does not answer is a hard error.
    pub fn resweep_after_link_failure(
        &self,
        fabric: &mut ManagedFabric,
        previous: &BringUp<E>,
        a: SwitchId,
        b: SwitchId,
        programmer: &mut Programmer,
    ) -> Result<Resweep<E>, IbaError> {
        let r = self.resweep_after_link_failure_robust(
            fabric,
            previous,
            a,
            b,
            programmer,
            send_once(),
        )?;
        strict(r.resweep, r.report, IbaError::InvalidConfig)
    }

    /// [`Self::resweep_after_link_failure`] with loss-tolerant
    /// programming: every SMP rides a retransmit loop, and the sweep
    /// verdict (including diff statistics) comes back as a
    /// [`SweepReport`].
    pub(crate) fn resweep_after_link_failure_robust(
        &self,
        fabric: &mut ManagedFabric,
        previous: &BringUp<E>,
        a: SwitchId,
        b: SwitchId,
        programmer: &mut Programmer,
        policy: RetryPolicy,
    ) -> Result<RobustResweep<E>, IbaError> {
        let (discovered, topology, routing) = self.resweep_tables(previous, a, b)?;
        let mut sender = ReliableSender::new(policy)?;
        let prog = programmer.program_robust(fabric, &discovered, &routing, &mut sender)?;
        let partial = prog.partial;
        let converged = !partial && prog.skipped.is_empty();
        let report = prog.report.clone();
        let stats = sender.stats;
        let resweep = converged.then(|| Resweep {
            bringup: BringUp {
                discovered,
                topology,
                routing,
                report: prog.report,
            },
        });
        Ok(RobustResweep {
            resweep,
            report: SweepReport {
                converged,
                partial,
                retransmits: stats.retransmits,
                unreachable: prog.skipped,
                blocks_total: report.blocks_total,
                blocks_uploaded: report.blocks_written,
                events: sender.into_events(),
            },
        })
    }

    /// The SMP-free half of a re-sweep: the recorded fabric without the
    /// dead link ([`Topology::without_links`], routes by BFS), handed to
    /// [`FaRouting::resweep`] — pinned, certified, refused on failure.
    fn resweep_tables(
        &self,
        previous: &BringUp<E>,
        a: SwitchId,
        b: SwitchId,
    ) -> Result<(DiscoveredFabric, Topology, FaRouting<E>), IbaError> {
        let discovered = previous.discovered.without_link(a, b)?;
        let topology = discovered.to_topology()?;
        let routing = previous.routing.resweep(&topology)?;
        Ok((discovered, topology, routing))
    }

    /// The loss-tolerant pipeline: every SMP rides a bounded retransmit
    /// loop, unreachable destinations become
    /// partition-report entries, and a spent retry budget yields a
    /// *partial* verdict instead of an error. Control-plane loss never
    /// hard-errors; only protocol violations (an agent answering with
    /// the wrong thing) and internal failures do.
    pub fn initialize_robust(
        &self,
        fabric: &mut ManagedFabric,
        policy: RetryPolicy,
    ) -> Result<RobustBringUp<E>, IbaError> {
        self.bring_up(fabric, &mut Programmer::new(), policy)
    }

    /// The bring-up pipeline — discover, rebuild the graph, route,
    /// upload through `programmer` — with every SMP under `policy`.
    fn bring_up(
        &self,
        fabric: &mut ManagedFabric,
        programmer: &mut Programmer,
        policy: RetryPolicy,
    ) -> Result<RobustBringUp<E>, IbaError> {
        let mut sender = ReliableSender::new(policy)?;
        let mut disc = Discoverer::new().discover_robust(fabric, &mut sender)?;
        let found = disc.fabric()?;
        let mut unreachable = disc.unreachable;
        let mut partial = disc.partial;
        let mut bringup = None;
        let mut blocks_total = 0u64;
        let mut blocks_uploaded = 0u64;
        if let Some(discovered) = found {
            let topology = discovered.to_topology()?;
            let routing = FaRouting::<E>::build_with_engine(&topology, self.routing_config)?;
            let prog = programmer.program_robust(fabric, &discovered, &routing, &mut sender)?;
            blocks_total = prog.report.blocks_total;
            blocks_uploaded = prog.report.blocks_written;
            unreachable.extend(prog.skipped);
            partial |= prog.partial;
            if !partial {
                bringup = Some(BringUp {
                    discovered,
                    topology,
                    routing,
                    report: prog.report,
                });
            }
        }
        let converged = !partial && bringup.is_some();
        let stats = sender.stats;
        Ok(RobustBringUp {
            bringup,
            report: SweepReport {
                converged,
                partial,
                retransmits: stats.retransmits,
                unreachable,
                blocks_total,
                blocks_uploaded,
                events: sender.into_events(),
            },
        })
    }
}

/// The plain entry points' reading of a send-once sweep: the first
/// destination that did not answer is the hard error `lost` wraps.
fn strict<T>(
    achieved: Option<T>,
    report: SweepReport,
    lost: fn(String) -> IbaError,
) -> Result<T, IbaError> {
    match report.unreachable.into_iter().next() {
        Some(entry) => Err(lost(entry)),
        None => Ok(achieved.expect("a send-once sweep that lost nothing converged")),
    }
}

/// How a loss-tolerant sweep went.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// The sweep finished and programmed every switch it could reach.
    /// Partitioned destinations may still be listed in `unreachable` —
    /// convergence is over the reachable component.
    pub converged: bool,
    /// The retry budget ran out before the sweep finished.
    pub partial: bool,
    /// SMPs retransmitted across the whole sweep.
    pub retransmits: u64,
    /// Partition report: destinations that exhausted every retry.
    pub unreachable: Vec<String>,
    /// Non-empty LFT blocks the computed tables contain.
    pub blocks_total: u64,
    /// LFT blocks actually uploaded (≤ `blocks_total`; strictly fewer
    /// when the programmer's dirty-block shadow filtered clean blocks).
    pub blocks_uploaded: u64,
    /// Capped retransmit log, as flight-recorder events.
    pub events: Vec<FlightEvent>,
}

/// The result of an incremental re-sweep.
pub struct Resweep<E: EscapeEngine = UpDownRouting> {
    /// The refreshed bring-up state: degraded fabric view, new
    /// topology, new routing tables, and the diff-programming report.
    pub bringup: BringUp<E>,
}

/// The result of a loss-tolerant incremental re-sweep.
pub(crate) struct RobustResweep<E: EscapeEngine = UpDownRouting> {
    /// `Some` when every switch was diff-programmed; `None` under a
    /// spent budget or unreachable switches.
    pub(crate) resweep: Option<Resweep<E>>,
    /// Retry counters, diff statistics and verdict.
    pub(crate) report: SweepReport,
}

/// The result of a loss-tolerant initialization: the bring-up when one
/// was achieved, and the sweep verdict either way.
pub struct RobustBringUp<E: EscapeEngine = UpDownRouting> {
    /// `Some` when the reachable component was fully programmed;
    /// `None` under a spent budget or an unreachable SM switch.
    pub bringup: Option<BringUp<E>>,
    /// Retry counters, partition report and verdict.
    pub report: SweepReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_core::Lid;
    use iba_topology::IrregularConfig;

    /// First inter-switch link of `topo` whose removal keeps the switch
    /// graph connected.
    fn removable_link(topo: &Topology) -> (SwitchId, SwitchId) {
        let n = topo.num_switches();
        for a in topo.switch_ids() {
            for (_, b, _) in topo.switch_neighbors(a) {
                if a.0 >= b.0 {
                    continue;
                }
                let mut seen = vec![false; n];
                let mut stack = vec![SwitchId(0)];
                seen[0] = true;
                while let Some(s) = stack.pop() {
                    for (_, peer, _) in topo.switch_neighbors(s) {
                        let dead = (s == a && peer == b) || (s == b && peer == a);
                        if !dead && !seen[peer.index()] {
                            seen[peer.index()] = true;
                            stack.push(peer);
                        }
                    }
                }
                if seen.iter().all(|&v| v) {
                    return (a, b);
                }
            }
        }
        panic!("no removable link");
    }

    /// Physical switch carrying `guid`.
    fn physical_of(topo: &Topology, fabric: &ManagedFabric, guid: u64) -> SwitchId {
        topo.switch_ids()
            .find(|&s| fabric.agent(s).guid == guid)
            .unwrap()
    }

    fn assert_same_agent_tables(topo: &Topology, a: &ManagedFabric, b: &ManagedFabric) {
        for s in topo.switch_ids() {
            let (x, y) = (&a.agent(s).lft, &b.agent(s).lft);
            assert_eq!(x.len(), y.len());
            for lid in 0..x.len() {
                assert_eq!(
                    x.get(Lid(lid as u16)),
                    y.get(Lid(lid as u16)),
                    "switch {s:?}, lid {lid}"
                );
            }
        }
    }

    #[test]
    fn incremental_resweep_diff_programs_to_the_full_result() {
        let physical = IrregularConfig::paper(16, 8).generate().unwrap();
        let mut fabric = ManagedFabric::new(&physical, 2).unwrap();
        let sm = SubnetManager::new(RoutingConfig::two_options());
        let mut programmer = Programmer::new();
        let up = sm.initialize_with(&mut fabric, &mut programmer).unwrap();
        assert!(up.report.verified);

        // Fail a link whose removal keeps the fabric connected.
        let (a, b) = removable_link(&up.topology);
        let pa = physical_of(&physical, &fabric, up.discovered.switches[a.index()].guid);
        let pb = physical_of(&physical, &fabric, up.discovered.switches[b.index()].guid);
        fabric.fail_link(pa, pb).unwrap();

        let r = sm
            .resweep_after_link_failure(&mut fabric, &up, a, b, &mut programmer)
            .unwrap();
        assert!(r.bringup.report.verified);
        // The diff did its job: strictly fewer uploads than blocks.
        assert!(r.bringup.report.blocks_written < r.bringup.report.blocks_total);

        // Diff programming converges to exactly what a full upload
        // produces: program the same routing from scratch onto an
        // identically degraded twin fabric and compare agent tables.
        let mut twin = ManagedFabric::new(&physical, 2).unwrap();
        twin.fail_link(pa, pb).unwrap();
        let full = Programmer::new()
            .program(&mut twin, &r.bringup.discovered, &r.bringup.routing)
            .unwrap();
        assert!(full.verified);
        assert!(r.bringup.report.blocks_written < full.blocks_written);
        assert_same_agent_tables(&physical, &fabric, &twin);
    }

    #[test]
    fn lossy_resweep_converges_to_the_full_tables() {
        // 20% of SMPs vanish mid-re-sweep; the dirty-block diff must
        // still converge on the same agent tables as a lossless full
        // upload, retrying only what was actually lost.
        let physical = IrregularConfig::paper(8, 3).generate().unwrap();
        let mut fabric = ManagedFabric::new(&physical, 2).unwrap();
        let sm = SubnetManager::new(RoutingConfig::two_options());
        let mut programmer = Programmer::new();
        let up = sm.initialize_with(&mut fabric, &mut programmer).unwrap();

        let (a, b) = removable_link(&up.topology);
        let pa = physical_of(&physical, &fabric, up.discovered.switches[a.index()].guid);
        let pb = physical_of(&physical, &fabric, up.discovered.switches[b.index()].guid);
        fabric.fail_link(pa, pb).unwrap();
        fabric.set_smp_faults(0.20, 17).unwrap();

        let policy = RetryPolicy {
            max_attempts: 12,
            ..RetryPolicy::default()
        };
        let r = sm
            .resweep_after_link_failure_robust(&mut fabric, &up, a, b, &mut programmer, policy)
            .unwrap();
        assert!(
            r.report.converged,
            "re-sweep failed: {:?}",
            r.report.unreachable
        );
        assert!(r.report.retransmits > 0, "loss must have been absorbed");
        assert!(r.report.blocks_uploaded < r.report.blocks_total);
        let r = r.resweep.unwrap();

        let mut twin = ManagedFabric::new(&physical, 2).unwrap();
        twin.fail_link(pa, pb).unwrap();
        let full = Programmer::new()
            .program(&mut twin, &r.bringup.discovered, &r.bringup.routing)
            .unwrap();
        assert!(full.verified);
        assert_same_agent_tables(&physical, &fabric, &twin);
    }

    #[test]
    fn full_bringup_discovers_routes_and_programs() {
        let physical = IrregularConfig::paper(16, 6).generate().unwrap();
        let mut fabric = ManagedFabric::new(&physical, 2).unwrap();
        let sm = SubnetManager::new(RoutingConfig::two_options());
        let up = sm.initialize(&mut fabric).unwrap();

        assert_eq!(up.topology.num_switches(), 16);
        assert_eq!(up.topology.num_hosts(), 64);
        assert!(up.report.verified);
        assert_eq!(up.report.switches, 16);
        // The reconstructed fabric supports the same routing guarantees.
        for s in up.topology.switch_ids() {
            for h in up.topology.host_ids() {
                let r = up
                    .routing
                    .route(s, up.routing.dlid(h, true).unwrap())
                    .unwrap();
                if up.topology.host_switch(h) != s {
                    assert!(!r.adaptive.is_empty());
                }
                let _ = r.escape;
            }
        }
        // The whole exchange is accounted for.
        assert_eq!(
            fabric.smps_sent,
            up.discovered.smps_used + up.report.smps_used
        );
    }

    #[test]
    fn plain_bringup_is_the_robust_pipeline_sent_once() {
        // One BFS, one route stage, one upload loop: on a lossless
        // fabric the plain entry point and its loss-tolerant twin must
        // leave the same bytes in every agent for the same SMPs.
        let sm = SubnetManager::new(RoutingConfig::two_options());
        for seed in 1..=3 {
            for switches in [16, 64] {
                let physical = IrregularConfig::paper(switches, seed).generate().unwrap();
                let mut plain = ManagedFabric::new(&physical, 2).unwrap();
                let up = sm.initialize(&mut plain).unwrap();
                let mut robust = ManagedFabric::new(&physical, 2).unwrap();
                let twin = sm
                    .initialize_robust(&mut robust, RetryPolicy::default())
                    .unwrap();
                assert!(twin.report.converged);
                assert_eq!(twin.report.retransmits, 0);
                assert_eq!(up.report, twin.bringup.unwrap().report);
                assert_eq!(
                    plain.smps_sent, robust.smps_sent,
                    "{switches} sw, seed {seed}"
                );
                assert_same_agent_tables(&physical, &plain, &robust);
            }
        }
    }

    #[test]
    fn send_once_sweeps_fail_hard_on_a_silent_link() {
        // The peer behind a silently dead link never answers. A sweep
        // that sends every SMP once must say so with an error — never
        // hand back the part of the fabric it could still see.
        let physical = IrregularConfig::paper(8, 4).generate().unwrap();
        let (a, b) = removable_link(&physical);
        let mut fabric = ManagedFabric::new(&physical, 2).unwrap();
        fabric.fail_link_silent(a, b).unwrap();
        let err = Discoverer::new().discover(&mut fabric).unwrap_err();
        assert!(err.to_string().contains("never answered"), "{err}");
        let sm = SubnetManager::new(RoutingConfig::two_options());
        assert!(sm.initialize(&mut fabric).is_err());
        // The same fabric with the link visibly down sweeps fine.
        fabric.restore_link_silent(a, b).unwrap();
        fabric.fail_link(a, b).unwrap();
        assert_eq!(
            sm.initialize(&mut fabric).unwrap().topology.num_switches(),
            8
        );
    }

    #[test]
    fn plain_resweep_equals_its_robust_twin() {
        let physical = IrregularConfig::paper(16, 8).generate().unwrap();
        let sm = SubnetManager::new(RoutingConfig::two_options());
        let degrade = |fabric: &mut ManagedFabric, programmer: &mut Programmer| {
            let up = sm.initialize_with(fabric, programmer).unwrap();
            let (a, b) = removable_link(&up.topology);
            let pa = physical_of(&physical, fabric, up.discovered.switches[a.index()].guid);
            let pb = physical_of(&physical, fabric, up.discovered.switches[b.index()].guid);
            fabric.fail_link(pa, pb).unwrap();
            (up, a, b)
        };
        let (mut plain, mut plain_prog) =
            (ManagedFabric::new(&physical, 2).unwrap(), Programmer::new());
        let (up, a, b) = degrade(&mut plain, &mut plain_prog);
        let r = sm
            .resweep_after_link_failure(&mut plain, &up, a, b, &mut plain_prog)
            .unwrap();

        let (mut robust, mut robust_prog) =
            (ManagedFabric::new(&physical, 2).unwrap(), Programmer::new());
        let (up, a, b) = degrade(&mut robust, &mut robust_prog);
        let twin = sm
            .resweep_after_link_failure_robust(
                &mut robust,
                &up,
                a,
                b,
                &mut robust_prog,
                RetryPolicy::default(),
            )
            .unwrap();
        assert!(twin.report.converged);
        let twin = twin.resweep.unwrap();
        assert_eq!(r.bringup.report, twin.bringup.report);
        assert_eq!(plain.smps_sent, robust.smps_sent);
        assert_same_agent_tables(&physical, &plain, &robust);
    }

    #[test]
    fn robust_bringup_converges_under_heavy_smp_loss() {
        // 20% of all SMPs vanish; with 12 attempts per SMP the sweep
        // must still converge on the whole fabric with a bounded number
        // of retransmits and a verified read-back.
        let physical = IrregularConfig::paper(8, 3).generate().unwrap();
        let mut fabric = ManagedFabric::new(&physical, 2).unwrap();
        fabric.set_smp_faults(0.20, 11).unwrap();
        let sm = SubnetManager::new(RoutingConfig::two_options());
        let policy = RetryPolicy {
            max_attempts: 12,
            ..RetryPolicy::default()
        };
        let up = sm.initialize_robust(&mut fabric, policy).unwrap();
        assert!(up.report.converged, "sweep failed: {:?}", up.report);
        assert!(!up.report.partial);
        assert!(
            up.report.unreachable.is_empty(),
            "{:?}",
            up.report.unreachable
        );
        let bringup = up.bringup.expect("bring-up achieved");
        assert_eq!(bringup.topology.num_switches(), 8);
        assert_eq!(bringup.topology.num_hosts(), 32);
        assert!(bringup.report.verified);
        // Loss happened and was absorbed by bounded retries: roughly a
        // fifth of sends time out, so retransmits sit well below the
        // total SMP count.
        assert!(up.report.retransmits > 0);
        assert!(up.report.retransmits < fabric.smps_sent / 2);
        assert!(!up.report.events.is_empty());
    }

    #[test]
    fn robust_bringup_under_loss_is_deterministic() {
        let physical = IrregularConfig::paper(8, 5).generate().unwrap();
        let run = || {
            let mut fabric = ManagedFabric::new(&physical, 2).unwrap();
            fabric.set_smp_faults(0.15, 23).unwrap();
            SubnetManager::new(RoutingConfig::two_options())
                .initialize_robust(&mut fabric, RetryPolicy::default())
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.report.retransmits, b.report.retransmits);
        assert_eq!(a.bringup.unwrap().report, b.bringup.unwrap().report);
    }

    #[test]
    fn silent_partition_is_reported_not_retried_forever() {
        // Silently fail every link of one switch: its neighbors still
        // report the ports trained, so discovery probes them, exhausts
        // its retries, files partition entries — and brings up the rest
        // of the fabric.
        let physical = IrregularConfig::paper(8, 4).generate().unwrap();
        let mut fabric = ManagedFabric::new(&physical, 2).unwrap();
        let sm_sw = fabric.sm_switch();
        // A victim whose removal keeps the remaining switch graph
        // connected (checked by BFS over the other switches).
        let victim = physical
            .switch_ids()
            .filter(|&s| s != sm_sw)
            .find(|&victim| {
                let n = physical.num_switches();
                let mut seen = vec![false; n];
                let start = physical.switch_ids().find(|&s| s != victim).unwrap();
                let mut stack = vec![start];
                seen[start.index()] = true;
                while let Some(s) = stack.pop() {
                    for (_, peer, _) in physical.switch_neighbors(s) {
                        if peer != victim && !seen[peer.index()] {
                            seen[peer.index()] = true;
                            stack.push(peer);
                        }
                    }
                }
                physical
                    .switch_ids()
                    .all(|s| s == victim || seen[s.index()])
            })
            .expect("some victim keeps the fabric connected");
        let neighbors: Vec<_> = physical
            .switch_neighbors(victim)
            .map(|(_, peer, _)| peer)
            .collect();
        for peer in &neighbors {
            fabric.fail_link_silent(victim, *peer).unwrap();
        }
        let sm = SubnetManager::new(RoutingConfig::two_options());
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let up = sm.initialize_robust(&mut fabric, policy).unwrap();
        assert!(up.report.converged, "{:?}", up.report);
        assert!(
            !up.report.unreachable.is_empty(),
            "partition must be reported"
        );
        let bringup = up.bringup.expect("rest of the fabric brought up");
        assert_eq!(bringup.topology.num_switches(), 7);
        // The victim's hosts are behind the partition.
        assert_eq!(bringup.topology.num_hosts(), 28);
        assert!(bringup.report.verified);
        // Bounded: every silent link was probed at most max_attempts
        // times from the reachable side.
        assert!(up.report.retransmits >= 2 * neighbors.len() as u64);
    }

    #[test]
    fn spent_budget_reports_partial_convergence() {
        let physical = IrregularConfig::paper(8, 6).generate().unwrap();
        let mut fabric = ManagedFabric::new(&physical, 2).unwrap();
        fabric.set_smp_faults(0.5, 9).unwrap();
        let sm = SubnetManager::new(RoutingConfig::two_options());
        let policy = RetryPolicy {
            max_attempts: 8,
            sweep_budget: 10,
        };
        let up = sm.initialize_robust(&mut fabric, policy).unwrap();
        assert!(
            up.report.partial,
            "a 10-retransmit budget cannot cover 50% loss"
        );
        assert!(!up.report.converged);
        assert!(up.bringup.is_none());
    }

    #[test]
    fn unreachable_sm_switch_yields_no_bringup_not_a_panic() {
        let physical = IrregularConfig::paper(8, 2).generate().unwrap();
        let mut fabric = ManagedFabric::new(&physical, 2).unwrap();
        fabric.set_smp_faults(1.0, 1).unwrap();
        let sm = SubnetManager::new(RoutingConfig::two_options());
        let policy = RetryPolicy {
            max_attempts: 3,
            sweep_budget: 1_000,
        };
        let up = sm.initialize_robust(&mut fabric, policy).unwrap();
        assert!(up.bringup.is_none());
        assert!(!up.report.converged);
        assert!(!up.report.unreachable.is_empty());
    }

    #[test]
    fn bringup_is_deterministic() {
        let physical = IrregularConfig::paper(8, 9).generate().unwrap();
        let run = || {
            let mut fabric = ManagedFabric::new(&physical, 2).unwrap();
            SubnetManager::new(RoutingConfig::two_options())
                .initialize(&mut fabric)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.report, b.report);
        for s in a.topology.switch_ids() {
            assert_eq!(
                a.routing.table(s).linear_view(),
                b.routing.table(s).linear_view()
            );
        }
    }

    #[test]
    fn sweep_report_carries_the_protocol_counters() {
        let physical = IrregularConfig::paper(8, 4).generate().unwrap();
        let mut fabric = ManagedFabric::new(&physical, 2).unwrap();
        let sm = SubnetManager::new(RoutingConfig::two_options());
        let up = sm
            .initialize_robust(&mut fabric, RetryPolicy::default())
            .unwrap();
        let (sweep, bringup) = (&up.report, up.bringup.as_ref().unwrap());
        assert!(sweep.converged && !sweep.partial);
        // A first sweep uploads every non-empty block it computed.
        assert!(sweep.blocks_total > 0);
        assert_eq!(sweep.blocks_total, bringup.report.blocks_total);
        assert_eq!(sweep.blocks_uploaded, sweep.blocks_total);
        // The programming pass reached all eight switches and read back
        // what it wrote.
        assert_eq!(bringup.report.switches, 8);
        assert!(bringup.report.verified);
    }

    /// Up\*/down\* except for one forwarding loop: towards one switch,
    /// the two ends of a link send to each other.
    #[derive(Clone, Debug)]
    struct LoopEngine {
        inner: UpDownRouting,
        ends: [(SwitchId, iba_core::PortIndex); 2],
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

        fn next_hop(&self, s: SwitchId, t: SwitchId) -> Option<iba_core::PortIndex> {
            let looping = self
                .ends
                .iter()
                .find(|&&(end, _)| end == s && t == self.towards);
            looping.map_or_else(|| self.inner.next_hop(s, t), |&(_, port)| Some(port))
        }
    }

    #[test]
    fn resweep_refuses_an_escape_layer_with_a_cycle_before_the_first_smp() {
        // Bring-up does not certify, so the looping tables go up; the
        // re-sweep must refuse theirs without touching the fabric.
        let physical = IrregularConfig::paper(8, 3).generate().unwrap();
        let mut fabric = ManagedFabric::new(&physical, 2).unwrap();
        let sm = SubnetManager::<LoopEngine>::with_engine(RoutingConfig::two_options());
        let mut programmer = Programmer::new();
        let up = sm.initialize_with(&mut fabric, &mut programmer).unwrap();
        let (a, b) = removable_link(&up.topology);
        let pa = physical_of(&physical, &fabric, up.discovered.switches[a.index()].guid);
        let pb = physical_of(&physical, &fabric, up.discovered.switches[b.index()].guid);
        fabric.fail_link(pa, pb).unwrap();
        let before = fabric.smps_sent;
        let refused = sm.resweep_after_link_failure(&mut fabric, &up, a, b, &mut programmer);
        let err = refused.err().expect("a looping escape layer certified");
        assert!(err.to_string().contains("does not terminate"), "{err}");
        assert_eq!(fabric.smps_sent, before, "SMPs sent for refused tables");
    }
}
