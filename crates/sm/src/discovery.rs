//! Directed-route subnet discovery.
//!
//! Before LIDs exist, the subnet manager explores the fabric with
//! directed-route SMPs: starting at its own switch it reads `NodeInfo`,
//! probes every port with `PortInfo`, and extends the route through
//! every trained link, de-duplicating switches by GUID — a breadth-first
//! sweep that reconstructs the whole graph using nothing but the
//! management interface.

use crate::mad::{DirectedRoute, NodeKind, PortState, Smp, SmpAttribute, SmpMethod, SmpResponse};
use crate::managed::ManagedFabric;
use crate::retry::{send_once, ReliableSender, SendOutcome};
use iba_core::{IbaError, PortIndex, ServiceLevel, SwitchId};
use iba_topology::{Topology, TopologyBuilder};
use std::collections::HashMap;
use std::collections::VecDeque;

/// What discovery found behind one switch port: the sweep's working
/// state, until [`PortGraph::into_fabric`] rebuilds it as a [`Topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PortTarget {
    /// Link down / unwired.
    Down,
    /// A host with the given GUID.
    Host(u64),
    /// A switch with the given GUID.
    Switch(u64),
}

/// One discovered switch.
#[derive(Clone, Debug)]
pub struct DiscoveredSwitch {
    /// The switch's GUID.
    pub guid: u64,
    /// A shortest directed route from the SM to it.
    pub(crate) route: DirectedRoute,
}

/// The reconstructed fabric.
#[derive(Clone, Debug)]
pub struct DiscoveredFabric {
    /// Switches in discovery (BFS) order, which is their id in the graph.
    pub switches: Vec<DiscoveredSwitch>,
    /// The graph: discovery order as switch and host ids, the *physical*
    /// port numbers preserved — so routing computed on it programs
    /// correctly onto the real switches.
    topology: Topology,
    /// SMPs used by the sweep.
    pub smps_used: u64,
}

impl DiscoveredFabric {
    /// Number of switches found.
    pub fn switch_count(&self) -> usize {
        self.switches.len()
    }

    /// Number of hosts found.
    pub fn host_count(&self) -> usize {
        self.topology.num_hosts()
    }

    /// Number of inter-switch links found.
    pub fn link_count(&self) -> usize {
        self.topology.num_switch_links()
    }

    /// A copy of the fabric graph discovery rebuilt: isomorphic to the
    /// physical fabric, with discovery order as switch/host ids and the
    /// physical port numbers.
    pub fn to_topology(&self) -> Result<Topology, IbaError> {
        Ok(self.topology.clone())
    }

    /// Physical ports on every switch.
    pub(crate) fn ports_per_switch(&self) -> u8 {
        self.topology.ports_per_switch()
    }

    /// The fabric without the inter-switch link between `a` and `b`,
    /// without sending a single SMP: the graph is
    /// [`Topology::without_links`], so switch and host ids and port
    /// numbers stay put, and every directed route is recomputed by
    /// [`bfs_routes`] — the recorded ones may have crossed the dead
    /// link. Errors if there is no such link or its loss disconnects
    /// the fabric.
    pub(crate) fn without_link(
        &self,
        a: SwitchId,
        b: SwitchId,
    ) -> Result<DiscoveredFabric, IbaError> {
        if self.topology.port_towards(a, b).is_none() {
            return Err(IbaError::InvalidTopology(format!(
                "no link between {a:?} and {b:?}"
            )));
        }
        let topology = (self.topology)
            .without_links(|s, _, peer| (s, peer) == (a, b) || (s, peer) == (b, a))?;
        let switches = (self.switches.iter().zip(bfs_routes(&topology)))
            .map(|(sw, route)| DiscoveredSwitch {
                guid: sw.guid,
                route,
            })
            .collect();
        Ok(DiscoveredFabric {
            switches,
            topology,
            smps_used: self.smps_used,
        })
    }
}

/// Every switch's directed route from the SM's switch (0): a BFS over
/// `topology`'s links, ports ascending — the order discovery probes
/// them in. A validated topology is connected, so every switch has one.
fn bfs_routes(topology: &Topology) -> Vec<DirectedRoute> {
    let mut routes: Vec<Option<DirectedRoute>> = vec![None; topology.num_switches()];
    routes[0] = Some(DirectedRoute::local());
    let mut queue = VecDeque::from([SwitchId(0)]);
    while let Some(cur) = queue.pop_front() {
        for (port, peer, _) in topology.switch_neighbors(cur) {
            if routes[peer.index()].is_none() {
                routes[peer.index()] = routes[cur.index()].as_ref().map(|r| r.then(port));
                queue.push_back(peer);
            }
        }
    }
    (routes.into_iter())
        .map(|r| r.expect("a validated topology is connected"))
        .collect()
}

/// The sweep's working graph, per-port and by GUID.
#[derive(Clone, Debug, Default)]
struct PortGraph {
    /// Switches in discovery (BFS) order.
    switches: Vec<DiscoveredSwitch>,
    /// Per switch, the findings per port.
    ports: Vec<Vec<PortTarget>>,
    /// Host GUIDs in discovery order (their index becomes the HostId).
    hosts: Vec<u64>,
}

impl PortGraph {
    /// The discovered fabric: this graph rebuilt as a [`Topology`] with
    /// discovery order as switch/host ids and the physical port numbers.
    fn into_fabric(self, smps_used: u64) -> Result<DiscoveredFabric, IbaError> {
        Ok(DiscoveredFabric {
            topology: self.to_topology()?,
            switches: self.switches,
            smps_used,
        })
    }

    fn to_topology(&self) -> Result<Topology, IbaError> {
        let ports = (self.ports.first())
            .map(Vec::len)
            .ok_or_else(|| IbaError::InvalidTopology("nothing discovered".into()))?;
        let index_of: HashMap<u64, usize> = self
            .switches
            .iter()
            .enumerate()
            .map(|(i, s)| (s.guid, i))
            .collect();
        let host_index: HashMap<u64, usize> = self
            .hosts
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, i))
            .collect();
        let mut builder = TopologyBuilder::new(self.switches.len(), ports);
        // Wire inter-switch links (each seen from both ends; connect once).
        for (i, (sw, targets)) in self.switches.iter().zip(&self.ports).enumerate() {
            for (p, target) in targets.iter().enumerate() {
                if let PortTarget::Switch(peer_guid) = target {
                    let j = *index_of.get(peer_guid).ok_or_else(|| {
                        IbaError::InvalidTopology("link to unknown switch".into())
                    })?;
                    if i < j {
                        // Find the peer's matching port.
                        let back = (self.ports[j].iter())
                            .position(|t| *t == PortTarget::Switch(sw.guid))
                            .ok_or_else(|| {
                                IbaError::InvalidTopology("asymmetric discovery".into())
                            })?;
                        builder.connect_ports(
                            SwitchId(i as u16),
                            PortIndex(p as u8),
                            SwitchId(j as u16),
                            PortIndex(back as u8),
                        )?;
                    }
                }
            }
        }
        // Attach hosts in global discovery order so HostIds match the
        // LID-assignment order.
        let mut placements: Vec<(usize, usize, usize)> = Vec::new(); // (host idx, switch, port)
        for (i, targets) in self.ports.iter().enumerate() {
            for (p, target) in targets.iter().enumerate() {
                if let PortTarget::Host(g) = target {
                    placements.push((host_index[g], i, p));
                }
            }
        }
        placements.sort();
        for (_, sw, port) in placements {
            builder.attach_host_at(SwitchId(sw as u16), PortIndex(port as u8))?;
        }
        builder.build()
    }
}

/// The discovery engine.
pub struct Discoverer {
    tid: u64,
}

impl Discoverer {
    /// Fresh engine.
    pub fn new() -> Discoverer {
        Discoverer { tid: 0 }
    }

    fn smp(&mut self, method: SmpMethod, attribute: SmpAttribute, route: DirectedRoute) -> Smp {
        self.tid += 1;
        Smp {
            method,
            attribute,
            route,
            tid: self.tid,
            sl: ServiceLevel(0),
        }
    }

    /// Run the breadth-first sweep over `fabric`, sending every SMP
    /// exactly once: a node that does not answer is a hard error here,
    /// never a partial [`DiscoveredFabric`].
    pub fn discover(&mut self, fabric: &mut ManagedFabric) -> Result<DiscoveredFabric, IbaError> {
        let mut once = ReliableSender::new(send_once())?;
        let found = self.discover_robust(fabric, &mut once)?;
        match found.unreachable.into_iter().next() {
            Some(lost) => Err(IbaError::InvalidTopology(lost)),
            None => found.graph.into_fabric(found.smps_used),
        }
    }

    /// The loss-tolerant sweep: the breadth-first search, with every
    /// exchange riding `sender`'s retransmit loop. Three degradations
    /// replace the plain sweep's hard errors:
    ///
    /// * an unreachable switch (every retry timed out) is recorded in
    ///   [`RobustDiscovery::unreachable`] and skipped — the sweep keeps
    ///   going and reconstructs the reachable component;
    /// * an unreachable port probe demotes that port to
    ///   [`PortTarget::Down`] in the discovered view;
    /// * a spent sweep budget stops the BFS where it stands and flags
    ///   the result [`RobustDiscovery::partial`].
    ///
    /// Protocol violations — an agent that *answers* with the wrong
    /// thing — still hard-error: those are bugs, not faults.
    pub(crate) fn discover_robust(
        &mut self,
        fabric: &mut ManagedFabric,
        sender: &mut ReliableSender,
    ) -> Result<RobustDiscovery, IbaError> {
        let before = fabric.smps_sent;
        let mut out = PortGraph::default();
        let mut unreachable: Vec<String> = Vec::new();
        let mut partial = false;
        let mut seen: HashMap<u64, usize> = HashMap::new();
        let mut queue: VecDeque<DirectedRoute> = VecDeque::from([DirectedRoute::local()]);
        'sweep: while let Some(route) = queue.pop_front() {
            let smp = self.smp(SmpMethod::Get, SmpAttribute::NodeInfo, route.clone());
            let (ports, guid) = match sender.send(fabric, &smp) {
                SendOutcome::Delivered(SmpResponse::NodeInfo {
                    kind: NodeKind::Switch { ports },
                    guid,
                }) => (ports, guid),
                SendOutcome::Delivered(resp) => {
                    return Err(IbaError::InvalidTopology(format!(
                        "discovery route did not end at a switch: {resp:?}"
                    )));
                }
                SendOutcome::Unreachable => {
                    unreachable.push(format!(
                        "switch at route {:?} never answered NodeInfo",
                        route.hops
                    ));
                    continue;
                }
                SendOutcome::BudgetExhausted => {
                    partial = true;
                    break 'sweep;
                }
            };
            if seen.contains_key(&guid) {
                continue; // reached an already-visited switch by another path
            }
            seen.insert(guid, out.switches.len());
            let mut port_targets = vec![PortTarget::Down; ports as usize];
            for p in 0..ports {
                let port = PortIndex(p);
                let smp = self.smp(
                    SmpMethod::Get,
                    SmpAttribute::PortInfo { port },
                    route.clone(),
                );
                let state = match sender.send(fabric, &smp) {
                    SendOutcome::Delivered(SmpResponse::PortInfo { state }) => state,
                    SendOutcome::Delivered(resp) => {
                        return Err(IbaError::InvalidTopology(format!(
                            "PortInfo failed: {resp:?}"
                        )));
                    }
                    SendOutcome::Unreachable => {
                        unreachable.push(format!(
                            "PortInfo for port {p} at route {:?} never answered",
                            route.hops
                        ));
                        continue;
                    }
                    SendOutcome::BudgetExhausted => {
                        partial = true;
                        break 'sweep;
                    }
                };
                if state == PortState::Down {
                    continue;
                }
                // Identify the peer through its own NodeInfo.
                let peer_route = route.then(port);
                let smp = self.smp(SmpMethod::Get, SmpAttribute::NodeInfo, peer_route.clone());
                match sender.send(fabric, &smp) {
                    SendOutcome::Delivered(SmpResponse::NodeInfo {
                        kind: NodeKind::Host,
                        guid: hg,
                    }) => {
                        port_targets[p as usize] = PortTarget::Host(hg);
                        out.hosts.push(hg);
                    }
                    SendOutcome::Delivered(SmpResponse::NodeInfo {
                        kind: NodeKind::Switch { .. },
                        guid: sg,
                    }) => {
                        port_targets[p as usize] = PortTarget::Switch(sg);
                        if !seen.contains_key(&sg) {
                            queue.push_back(peer_route);
                        }
                    }
                    SendOutcome::Delivered(other) => {
                        return Err(IbaError::InvalidTopology(format!(
                            "peer NodeInfo failed: {other:?}"
                        )));
                    }
                    SendOutcome::Unreachable => {
                        // A trained port whose peer never answers: the
                        // link is partitioned as far as VL15 can tell.
                        // Leave the port Down in the discovered view so
                        // routing never crosses it.
                        unreachable.push(format!(
                            "peer behind port {p} at route {:?} never answered",
                            route.hops
                        ));
                    }
                    SendOutcome::BudgetExhausted => {
                        partial = true;
                        break 'sweep;
                    }
                }
            }
            out.switches.push(DiscoveredSwitch { guid, route });
            out.ports.push(port_targets);
        }
        // Demote half-seen links: an entry that points at a switch the
        // sweep never (fully) visited, or whose far side did not record
        // the link back, must read `Down` — routing may not cross a
        // link only one end vouches for.
        let mut demote: Vec<(usize, usize)> = Vec::new();
        for (i, (sw, targets)) in out.switches.iter().zip(&out.ports).enumerate() {
            for (p, target) in targets.iter().enumerate() {
                if let PortTarget::Switch(g) = target {
                    let symmetric = seen
                        .get(g)
                        .filter(|&&j| j < out.switches.len())
                        .is_some_and(|&j| out.ports[j].contains(&PortTarget::Switch(sw.guid)));
                    if !symmetric {
                        demote.push((i, p));
                    }
                }
            }
        }
        for (i, p) in demote {
            out.ports[i][p] = PortTarget::Down;
        }
        Ok(RobustDiscovery {
            graph: out,
            smps_used: fabric.smps_sent - before,
            unreachable,
            partial,
        })
    }
}

/// What a loss-tolerant sweep produced.
#[derive(Clone, Debug)]
pub(crate) struct RobustDiscovery {
    /// The reachable component, in BFS order.
    graph: PortGraph,
    /// SMPs used by the sweep.
    smps_used: u64,
    /// Partition report: destinations that exhausted every retry.
    pub unreachable: Vec<String>,
    /// `true` when the sweep budget ran out before the BFS finished.
    pub partial: bool,
}

impl RobustDiscovery {
    /// The discovered fabric of a sweep that ran to its end and found a
    /// switch; `None` otherwise.
    pub(crate) fn fabric(&mut self) -> Result<Option<DiscoveredFabric>, IbaError> {
        if self.partial || self.graph.switches.is_empty() {
            return Ok(None);
        }
        std::mem::take(&mut self.graph)
            .into_fabric(self.smps_used)
            .map(Some)
    }
}

impl Default for Discoverer {
    fn default() -> Self {
        Discoverer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_topology::{regular, IrregularConfig, TopologyMetrics};

    fn discover(topo: &Topology) -> DiscoveredFabric {
        let mut fabric = ManagedFabric::new(topo, 2).unwrap();
        Discoverer::new().discover(&mut fabric).unwrap()
    }

    /// The sweep's own port graph of `topo`, before it becomes a
    /// [`Topology`].
    fn sweep(topo: &Topology) -> PortGraph {
        let mut fabric = ManagedFabric::new(topo, 2).unwrap();
        let mut once = ReliableSender::new(send_once()).unwrap();
        let found = Discoverer::new()
            .discover_robust(&mut fabric, &mut once)
            .unwrap();
        assert!(found.unreachable.is_empty() && !found.partial);
        found.graph
    }

    /// The re-sweep's former graph edit on the per-port GUID graph: the
    /// oracle [`DiscoveredFabric::without_link`] is held to.
    impl PortGraph {
        /// Mark the inter-switch link behind `(a, pa)`/`(b, pb)` as down on
        /// both ends, in place, keeping every port position.
        fn degrade_link(
            &mut self,
            a: SwitchId,
            pa: PortIndex,
            b: SwitchId,
            pb: PortIndex,
        ) -> Result<(), IbaError> {
            let check = |fab: &PortGraph, s: SwitchId, p: PortIndex, peer: SwitchId| {
                let peer_guid = fab
                    .switches
                    .get(peer.index())
                    .ok_or_else(|| IbaError::InvalidTopology(format!("no switch {peer:?}")))?
                    .guid;
                let ports = fab
                    .ports
                    .get(s.index())
                    .ok_or_else(|| IbaError::InvalidTopology(format!("no switch {s:?}")))?;
                match ports.get(p.index()) {
                    Some(PortTarget::Switch(g)) if *g == peer_guid => Ok(()),
                    other => Err(IbaError::InvalidTopology(format!(
                        "port {p:?} of {s:?} is {other:?}, not a link to {peer:?}"
                    ))),
                }
            };
            check(self, a, pa, b)?;
            check(self, b, pb, a)?;
            self.ports[a.index()][pa.index()] = PortTarget::Down;
            self.ports[b.index()][pb.index()] = PortTarget::Down;
            Ok(())
        }

        /// Recompute every switch's directed route by BFS over the port
        /// graph. Errors if some switch is no longer reachable.
        fn recompute_routes(&mut self) -> Result<(), IbaError> {
            let index_of: HashMap<u64, usize> = self
                .switches
                .iter()
                .enumerate()
                .map(|(i, s)| (s.guid, i))
                .collect();
            let mut routes: Vec<Option<DirectedRoute>> = vec![None; self.switches.len()];
            if routes.is_empty() {
                return Ok(());
            }
            routes[0] = Some(DirectedRoute::local());
            let mut queue = VecDeque::from([0usize]);
            while let Some(cur) = queue.pop_front() {
                let cur_route = routes[cur].clone().expect("queued switches have routes");
                for (p, target) in self.ports[cur].iter().enumerate() {
                    if let PortTarget::Switch(g) = target {
                        let j = *index_of.get(g).ok_or_else(|| {
                            IbaError::InvalidTopology("link to unknown switch".into())
                        })?;
                        if routes[j].is_none() {
                            routes[j] = Some(cur_route.then(PortIndex(p as u8)));
                            queue.push_back(j);
                        }
                    }
                }
            }
            for (i, route) in routes.into_iter().enumerate() {
                self.switches[i].route = route.ok_or_else(|| {
                    IbaError::InvalidTopology(format!(
                        "switch {i} unreachable over directed routes after degrade"
                    ))
                })?;
            }
            Ok(())
        }
    }

    /// The two graphs wire every port to the same node and port, and
    /// hang every host off the same switch port.
    fn assert_same_graph(x: &Topology, y: &Topology, what: &str) {
        assert_eq!(x.num_switches(), y.num_switches(), "{what}");
        assert_eq!(x.num_hosts(), y.num_hosts(), "{what}");
        assert_eq!(x.ports_per_switch(), y.ports_per_switch(), "{what}");
        for s in x.switch_ids() {
            for p in (0..x.ports_per_switch()).map(PortIndex) {
                assert_eq!(x.endpoint(s, p), y.endpoint(s, p), "{what}: {s} port {p}");
            }
        }
        for h in x.host_ids() {
            assert_eq!(x.host_attachment(h), y.host_attachment(h), "{what}: {h}");
        }
    }

    /// Every link of the paper's fabrics at 8 to 128 switches, seeds
    /// 100–103, dropped one at a time: `without_link` gives the graph and
    /// the routes of degrading the port graph, and refuses exactly the
    /// links whose loss disconnects it. On the intact fabric, the BFS
    /// gives the routes discovery recorded.
    #[test]
    fn without_link_equals_degrading_the_port_graph() {
        let mut removable = 0;
        for n in [8usize, 16, 32, 64, 128] {
            for seed in 100..104 {
                let topo = IrregularConfig::paper(n, seed).generate().unwrap();
                let graph = sweep(&topo);
                let found = graph.clone().into_fabric(0).unwrap();
                let recorded: Vec<_> = found.switches.iter().map(|s| &s.route).collect();
                let bfs = bfs_routes(&found.topology);
                assert_eq!(recorded, bfs.iter().collect::<Vec<_>>(), "{n}/{seed}");
                for a in found.topology.switch_ids() {
                    for (pa, b, pb) in found.topology.switch_neighbors(a) {
                        if b < a {
                            continue;
                        }
                        let what = format!("{n} switches, seed {seed}, link {a}–{b}");
                        let mut old = graph.clone();
                        old.degrade_link(a, pa, b, pb).unwrap();
                        let new = found.without_link(a, b);
                        let Ok(()) = old.recompute_routes() else {
                            assert!(new.is_err(), "{what}: only the port graph is cut");
                            continue;
                        };
                        let new = new.unwrap();
                        assert_same_graph(&old.to_topology().unwrap(), &new.topology, &what);
                        let old_routes: Vec<_> = old.switches.iter().map(|s| &s.route).collect();
                        let new_routes: Vec<_> = new.switches.iter().map(|s| &s.route).collect();
                        assert_eq!(old_routes, new_routes, "{what}");
                        removable += 1;
                    }
                }
            }
        }
        assert_eq!(removable, 1_984);
    }

    #[test]
    fn without_link_refuses_a_pair_that_is_not_linked() {
        let found = discover(&regular::chain(4, 1).unwrap());
        let err = found.without_link(SwitchId(0), SwitchId(2)).unwrap_err();
        assert!(err.to_string().contains("no link between"), "{err}");
    }

    #[test]
    fn sweep_finds_the_whole_ring() {
        let topo = regular::ring(6, 2).unwrap();
        let d = discover(&topo);
        assert_eq!(d.switch_count(), 6);
        assert_eq!(d.host_count(), 12);
        assert_eq!(d.link_count(), 6);
        assert!(d.smps_used > 0);
    }

    #[test]
    fn sweep_finds_irregular_fabrics_of_every_size() {
        for &n in &[8usize, 16, 32] {
            let topo = IrregularConfig::paper(n, 5).generate().unwrap();
            let d = discover(&topo);
            assert_eq!(d.switch_count(), n, "{n} switches");
            assert_eq!(d.host_count(), 4 * n);
            assert_eq!(d.link_count(), topo.num_switch_links());
        }
    }

    #[test]
    fn routes_are_shortest_in_bfs_order() {
        let topo = regular::chain(5, 1).unwrap();
        let d = discover(&topo);
        // BFS: route lengths are non-decreasing in discovery order, and
        // the farthest switch of a 5-chain is 4 hops from an end.
        let lens: Vec<usize> = d.switches.iter().map(|s| s.route.len()).collect();
        assert!(lens.windows(2).all(|w| w[0] <= w[1]), "{lens:?}");
        assert_eq!(*lens.last().unwrap(), 4);
    }

    #[test]
    fn reconstructed_topology_is_isomorphic() {
        for seed in [1u64, 2, 3] {
            let topo = IrregularConfig::paper(16, seed).generate().unwrap();
            let rebuilt = discover(&topo).to_topology().unwrap();
            rebuilt.validate().unwrap();
            let a = TopologyMetrics::compute(&topo);
            let b = TopologyMetrics::compute(&rebuilt);
            assert_eq!(a, b, "metric mismatch: {a:?} vs {b:?}");
            // Degree multiset must match exactly.
            let degrees = |t: &Topology| {
                let mut d: Vec<usize> = t.switch_ids().map(|s| t.switch_degree(s)).collect();
                d.sort();
                d
            };
            assert_eq!(degrees(&topo), degrees(&rebuilt));
        }
    }

    #[test]
    fn reconstruction_preserves_physical_port_numbers() {
        let topo = IrregularConfig::paper(8, 9).generate().unwrap();
        let d = sweep(&topo);
        let rebuilt = d.to_topology().unwrap();
        // For each discovered switch, the set of (port → kind) must agree
        // with the physical one (ports are the common key between the
        // managed fabric and the reconstruction).
        for (i, targets) in d.ports.iter().enumerate() {
            for (p, t) in targets.iter().enumerate() {
                let rebuilt_ep = rebuilt.endpoint(SwitchId(i as u16), PortIndex(p as u8));
                match t {
                    PortTarget::Down => assert!(rebuilt_ep.is_none()),
                    PortTarget::Host(_) => {
                        assert!(rebuilt_ep.unwrap().node.is_host())
                    }
                    PortTarget::Switch(_) => {
                        assert!(rebuilt_ep.unwrap().node.is_switch())
                    }
                }
            }
        }
    }
}
