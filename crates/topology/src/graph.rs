//! The wired subnet graph.
//!
//! A [`Topology`] is a set of switches, each with a fixed number of
//! physical ports, plus a set of hosts (channel-adapter ports). Every
//! switch port is wired to at most one remote endpoint — another switch's
//! port or a host — and all wiring is symmetric. Hosts have exactly one
//! port, wired to a switch.
//!
//! Construction goes through [`TopologyBuilder`], which enforces the
//! structural invariants the rest of the workspace relies on:
//!
//! * symmetric point-to-point wiring,
//! * at most one link between any pair of switches ("neighboring switches
//!   will be interconnected by just one link", §5.1),
//! * no self-links,
//! * a connected switch graph (checked at [`TopologyBuilder::build`]).

use iba_core::{HostId, IbaError, NodeRef, PortIndex, SwitchId};
use std::collections::VecDeque;

/// The remote end of a switch port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Endpoint {
    /// The node the port is wired to.
    pub node: NodeRef,
    /// The port on the remote node (always 0 for hosts, which have a
    /// single port).
    pub port: PortIndex,
}

#[derive(Clone, Debug)]
struct SwitchNode {
    ports: Vec<Option<Endpoint>>,
}

#[derive(Clone, Copy, Debug)]
struct HostNode {
    switch: SwitchId,
    switch_port: PortIndex,
}

/// Switches and hosts are counted in their 16-bit id types (by
/// [`Topology::switch_ids`], [`Topology::host_ids`] and the LID map),
/// so a fabric holds at most this many of each.
const MAX_NODES: usize = u16::MAX as usize;

/// Port numbers are 8-bit ([`PortIndex`]), so a switch has at most this
/// many ports.
const MAX_SWITCH_PORTS: usize = u8::MAX as usize;

/// An immutable, validated subnet topology.
#[derive(Clone, Debug)]
pub struct Topology {
    ports_per_switch: u8,
    switches: Vec<SwitchNode>,
    hosts: Vec<HostNode>,
    /// `(local port, neighbor switch, neighbor's port)` of every
    /// inter-switch link end, by switch and port: what a traversal
    /// walks, instead of port arrays with host and free ports in them.
    /// Switch `s` owns `links[link_start[s]..link_start[s + 1]]`.
    links: Vec<(PortIndex, SwitchId, PortIndex)>,
    link_start: Vec<u32>,
}

impl Topology {
    /// Number of switches.
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.switches.len()
    }

    /// Number of hosts.
    #[inline]
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Physical ports on every switch.
    #[inline]
    pub fn ports_per_switch(&self) -> u8 {
        self.ports_per_switch
    }

    /// Iterator over all switch ids.
    pub fn switch_ids(&self) -> impl Iterator<Item = SwitchId> {
        (0..self.switches.len() as u16).map(SwitchId)
    }

    /// Iterator over all host ids.
    pub fn host_ids(&self) -> impl Iterator<Item = HostId> {
        (0..self.hosts.len() as u16).map(HostId)
    }

    /// What `port` of `switch` is wired to, if anything.
    #[inline]
    pub fn endpoint(&self, switch: SwitchId, port: PortIndex) -> Option<Endpoint> {
        self.switches[switch.index()].ports[port.index()]
    }

    /// All `(local port, neighbor switch, neighbor's port)` triples of
    /// `switch`'s inter-switch links, in port order.
    pub fn switch_neighbors(
        &self,
        switch: SwitchId,
    ) -> impl Iterator<Item = (PortIndex, SwitchId, PortIndex)> + '_ {
        let s = switch.index();
        (self.links[self.link_start[s] as usize..self.link_start[s + 1] as usize].iter()).copied()
    }

    /// All `(local port, host)` pairs of hosts attached to `switch`, in
    /// port order.
    pub fn attached_hosts(
        &self,
        switch: SwitchId,
    ) -> impl Iterator<Item = (PortIndex, HostId)> + '_ {
        self.switches[switch.index()]
            .ports
            .iter()
            .enumerate()
            .filter_map(|(i, ep)| {
                let ep = ep.as_ref()?;
                let host = ep.node.as_host()?;
                Some((PortIndex(i as u8), host))
            })
    }

    /// The switch and switch-port a host hangs off.
    #[inline]
    pub fn host_attachment(&self, host: HostId) -> (SwitchId, PortIndex) {
        let h = &self.hosts[host.index()];
        (h.switch, h.switch_port)
    }

    /// The switch a host hangs off.
    #[inline]
    pub fn host_switch(&self, host: HostId) -> SwitchId {
        self.hosts[host.index()].switch
    }

    /// The port on `from` that leads directly to switch `to`, if the two
    /// are neighbors. At most one exists (single-link constraint).
    pub fn port_towards(&self, from: SwitchId, to: SwitchId) -> Option<PortIndex> {
        self.switch_neighbors(from)
            .find(|&(_, peer, _)| peer == to)
            .map(|(p, _, _)| p)
    }

    /// Inter-switch degree of `switch`.
    pub fn switch_degree(&self, switch: SwitchId) -> usize {
        self.switch_neighbors(switch).count()
    }

    /// Number of (undirected) inter-switch links.
    pub fn num_switch_links(&self) -> usize {
        self.links.len() / 2
    }

    /// All-pairs shortest-path distances over the *switch* graph (hops
    /// between switches; hosts are not counted). `u32::MAX` marks
    /// unreachable pairs, which a validated topology never has.
    pub fn switch_distances(&self) -> Vec<Vec<u32>> {
        self.switch_ids().map(|s| self.distances_from(s)).collect()
    }

    /// BFS distances from one switch.
    pub fn distances_from(&self, src: SwitchId) -> Vec<u32> {
        let n = self.num_switches();
        let mut dist = vec![u32::MAX; n];
        dist[src.index()] = 0;
        let mut queue = VecDeque::from([src]);
        while let Some(cur) = queue.pop_front() {
            let d = dist[cur.index()];
            for (_, peer, _) in self.switch_neighbors(cur) {
                if dist[peer.index()] == u32::MAX {
                    dist[peer.index()] = d + 1;
                    queue.push_back(peer);
                }
            }
        }
        dist
    }

    /// Whether the switch graph is connected (every validated topology
    /// is; exposed for tests and tools).
    pub fn is_connected(&self) -> bool {
        if self.switches.is_empty() {
            return true;
        }
        self.distances_from(SwitchId(0))
            .iter()
            .all(|&d| d != u32::MAX)
    }

    /// This fabric without the switch-to-switch links `dead` names:
    /// `dead(s, port, peer)` is asked once per link, of its end on the
    /// lower switch id. Switch ids, port numbers and host attachments
    /// stay as they are, so the LID space does too. An error when what
    /// is left is disconnected.
    pub fn without_links(
        &self,
        dead: impl Fn(SwitchId, PortIndex, SwitchId) -> bool,
    ) -> Result<Topology, IbaError> {
        let mut b = TopologyBuilder::new(self.num_switches(), self.ports_per_switch.into());
        for s in self.switch_ids() {
            for (p, peer, pp) in self.switch_neighbors(s) {
                if peer.0 > s.0 && !dead(s, p, peer) {
                    b.connect_ports(s, p, peer, pp)?;
                }
            }
        }
        for h in self.host_ids() {
            let (sw, port) = self.host_attachment(h);
            b.attach_host_at(sw, port)?;
        }
        b.build()
    }

    /// Re-check every structural invariant. [`TopologyBuilder::build`]
    /// already runs this; exposed so the generator tests can re-verify
    /// what they were handed.
    pub fn validate(&self) -> Result<(), IbaError> {
        let n_sw = self.num_switches();
        let n_h = self.num_hosts();
        if n_sw == 0 {
            return Err(IbaError::InvalidTopology("no switches".into()));
        }
        let mut host_seen = vec![false; n_h];
        for s in self.switch_ids() {
            let node = &self.switches[s.index()];
            if node.ports.len() != self.ports_per_switch as usize {
                return Err(IbaError::InvalidTopology(format!(
                    "{s} has {} ports, expected {}",
                    node.ports.len(),
                    self.ports_per_switch
                )));
            }
            let mut neighbors_seen = Vec::new();
            for (i, ep) in node.ports.iter().enumerate() {
                let Some(ep) = ep else { continue };
                match ep.node {
                    NodeRef::Switch(peer) => {
                        if peer == s {
                            return Err(IbaError::InvalidTopology(format!("{s} links to itself")));
                        }
                        if peer.index() >= n_sw {
                            return Err(IbaError::InvalidTopology(format!(
                                "{s} links to out-of-range {peer}"
                            )));
                        }
                        if neighbors_seen.contains(&peer) {
                            return Err(IbaError::InvalidTopology(format!(
                                "{s} and {peer} connected by more than one link"
                            )));
                        }
                        neighbors_seen.push(peer);
                        // Symmetry: the remote port must point back here.
                        let back = self.switches[peer.index()]
                            .ports
                            .get(ep.port.index())
                            .and_then(|p| *p);
                        let expected = Endpoint {
                            node: NodeRef::Switch(s),
                            port: PortIndex(i as u8),
                        };
                        if back != Some(expected) {
                            return Err(IbaError::InvalidTopology(format!(
                                "asymmetric wiring between {s}:{} and {peer}:{}",
                                i, ep.port
                            )));
                        }
                    }
                    NodeRef::Host(h) => {
                        if h.index() >= n_h {
                            return Err(IbaError::InvalidTopology(format!(
                                "{s} links to out-of-range {h}"
                            )));
                        }
                        if host_seen[h.index()] {
                            return Err(IbaError::InvalidTopology(format!(
                                "{h} attached more than once"
                            )));
                        }
                        host_seen[h.index()] = true;
                        let rec = &self.hosts[h.index()];
                        if rec.switch != s || rec.switch_port.index() != i {
                            return Err(IbaError::InvalidTopology(format!(
                                "{h} attachment record disagrees with wiring"
                            )));
                        }
                    }
                }
            }
        }
        if let Some(h) = host_seen.iter().position(|&seen| !seen) {
            return Err(IbaError::InvalidTopology(format!("h{h} not attached")));
        }
        if !self.is_connected() {
            return Err(IbaError::InvalidTopology(
                "switch graph disconnected".into(),
            ));
        }
        Ok(())
    }
}

/// Incremental builder for [`Topology`].
pub struct TopologyBuilder {
    /// The port count asked for; [`Self::build`] refuses one past
    /// [`MAX_SWITCH_PORTS`], of which only the numbered ports exist.
    ports_per_switch: usize,
    /// The switch count asked for; [`Self::build`] refuses one past
    /// [`MAX_NODES`], of which only the addressable switches exist.
    num_switches: usize,
    switches: Vec<SwitchNode>,
    hosts: Vec<HostNode>,
}

impl TopologyBuilder {
    /// A builder for `num_switches` switches of `ports_per_switch` ports
    /// each, and no hosts yet. More switches than a [`SwitchId`] counts,
    /// or more ports than a [`PortIndex`] numbers, make [`Self::build`]
    /// fail instead of wrapping onto switch 0 or port 0.
    pub fn new(num_switches: usize, ports_per_switch: usize) -> TopologyBuilder {
        TopologyBuilder {
            ports_per_switch,
            num_switches,
            switches: (0..num_switches.min(MAX_NODES + 1))
                .map(|_| SwitchNode {
                    ports: vec![None; ports_per_switch.min(MAX_SWITCH_PORTS + 1)],
                })
                .collect(),
            hosts: Vec::new(),
        }
    }

    fn first_free_port(&self, s: SwitchId) -> Option<PortIndex> {
        self.switches[s.index()]
            .ports
            .iter()
            .position(|p| p.is_none())
            .map(|i| PortIndex(i as u8))
    }

    /// Whether switches `a` and `b` are already linked.
    pub(crate) fn linked(&self, a: SwitchId, b: SwitchId) -> bool {
        self.switches[a.index()]
            .ports
            .iter()
            .flatten()
            .any(|ep| ep.node == NodeRef::Switch(b))
    }

    /// Wire a link between `a` and `b` on their lowest free ports.
    pub fn connect(&mut self, a: SwitchId, b: SwitchId) -> Result<(), IbaError> {
        let pa = self
            .first_free_port(a)
            .ok_or_else(|| IbaError::InvalidTopology(format!("{a} has no free port")))?;
        let pb = self
            .first_free_port(b)
            .ok_or_else(|| IbaError::InvalidTopology(format!("{b} has no free port")))?;
        self.connect_ports(a, pa, b, pb)
    }

    /// Wire a link between specific ports (used when reconstructing a
    /// fabric whose physical port numbers are already known, e.g. from
    /// subnet discovery).
    pub fn connect_ports(
        &mut self,
        a: SwitchId,
        pa: PortIndex,
        b: SwitchId,
        pb: PortIndex,
    ) -> Result<(), IbaError> {
        if a == b {
            return Err(IbaError::InvalidTopology(format!(
                "{a} cannot link to itself"
            )));
        }
        if self.linked(a, b) {
            return Err(IbaError::InvalidTopology(format!(
                "{a} and {b} already linked (single-link constraint)"
            )));
        }
        for (s, p) in [(a, pa), (b, pb)] {
            if p.index() >= self.ports_per_switch {
                return Err(IbaError::InvalidTopology(format!("{s} has no port {p}")));
            }
            if self.switches[s.index()].ports[p.index()].is_some() {
                return Err(IbaError::InvalidTopology(format!("{s}:{p} already wired")));
            }
        }
        self.switches[a.index()].ports[pa.index()] = Some(Endpoint {
            node: NodeRef::Switch(b),
            port: pb,
        });
        self.switches[b.index()].ports[pb.index()] = Some(Endpoint {
            node: NodeRef::Switch(a),
            port: pa,
        });
        Ok(())
    }

    /// Attach a new host to `switch` on its lowest free port, returning
    /// the new host's id.
    pub fn attach_host(&mut self, switch: SwitchId) -> Result<HostId, IbaError> {
        let port = self
            .first_free_port(switch)
            .ok_or_else(|| IbaError::InvalidTopology(format!("{switch} has no free port")))?;
        self.attach_host_at(switch, port)
    }

    /// Attach a new host on a specific port (fabric reconstruction).
    pub fn attach_host_at(
        &mut self,
        switch: SwitchId,
        port: PortIndex,
    ) -> Result<HostId, IbaError> {
        if port.index() >= self.ports_per_switch {
            return Err(IbaError::InvalidTopology(format!(
                "{switch} has no port {port}"
            )));
        }
        if self.switches[switch.index()].ports[port.index()].is_some() {
            return Err(IbaError::InvalidTopology(format!(
                "{switch}:{port} already wired"
            )));
        }
        if self.hosts.len() >= MAX_NODES {
            return Err(IbaError::InvalidTopology(format!(
                "a fabric holds at most {MAX_NODES} hosts (16-bit host ids and LIDs)"
            )));
        }
        let host = HostId(self.hosts.len() as u16);
        self.switches[switch.index()].ports[port.index()] = Some(Endpoint {
            node: NodeRef::Host(host),
            port: PortIndex(0),
        });
        self.hosts.push(HostNode {
            switch,
            switch_port: port,
        });
        Ok(host)
    }

    /// Attach `count` hosts to every switch (the paper attaches 4).
    pub(crate) fn attach_hosts_everywhere(&mut self, count: usize) -> Result<(), IbaError> {
        for s in 0..self.switches.len() {
            for _ in 0..count {
                self.attach_host(SwitchId(s as u16))?;
            }
        }
        Ok(())
    }

    /// Finish construction, validating every invariant.
    pub fn build(self) -> Result<Topology, IbaError> {
        if self.num_switches > MAX_NODES {
            return Err(IbaError::InvalidTopology(format!(
                "{} switches asked for, a fabric holds at most {MAX_NODES} (16-bit switch ids)",
                self.num_switches
            )));
        }
        if self.ports_per_switch > MAX_SWITCH_PORTS {
            return Err(IbaError::InvalidTopology(format!(
                "too many ports per switch: {} asked for, a switch has at most \
                 {MAX_SWITCH_PORTS} (8-bit port numbers)",
                self.ports_per_switch
            )));
        }
        let ports = self.ports_per_switch;
        let mut links = Vec::with_capacity(self.switches.len() * ports);
        let mut link_start = Vec::with_capacity(self.switches.len() + 1);
        for node in &self.switches {
            link_start.push(links.len() as u32);
            links.extend(node.ports.iter().enumerate().filter_map(|(i, ep)| {
                let ep = ep.as_ref()?;
                Some((PortIndex(i as u8), ep.node.as_switch()?, ep.port))
            }));
        }
        link_start.push(links.len() as u32);
        let topo = Topology {
            ports_per_switch: self.ports_per_switch as u8,
            switches: self.switches,
            hosts: self.hosts,
            links,
            link_start,
        };
        topo.validate()?;
        Ok(topo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_switch_topo() -> Topology {
        let mut b = TopologyBuilder::new(2, 4);
        b.connect(SwitchId(0), SwitchId(1)).unwrap();
        b.attach_hosts_everywhere(2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_and_validates() {
        let t = two_switch_topo();
        assert_eq!(t.num_switches(), 2);
        assert_eq!(t.num_hosts(), 4);
        assert_eq!(t.num_switch_links(), 1);
        assert!(t.is_connected());
        t.validate().unwrap();
    }

    #[test]
    fn wiring_is_symmetric() {
        let t = two_switch_topo();
        let (p0, peer, p1) = t.switch_neighbors(SwitchId(0)).next().unwrap();
        assert_eq!(peer, SwitchId(1));
        let ep_back = t.endpoint(SwitchId(1), p1).unwrap();
        assert_eq!(ep_back.node, NodeRef::Switch(SwitchId(0)));
        assert_eq!(ep_back.port, p0);
    }

    #[test]
    fn port_towards_finds_the_link() {
        let t = two_switch_topo();
        assert!(t.port_towards(SwitchId(0), SwitchId(1)).is_some());
        assert!(t.port_towards(SwitchId(1), SwitchId(0)).is_some());
    }

    #[test]
    fn host_attachment_roundtrip() {
        let t = two_switch_topo();
        for h in t.host_ids() {
            let (s, p) = t.host_attachment(h);
            let ep = t.endpoint(s, p).unwrap();
            assert_eq!(ep.node, NodeRef::Host(h));
        }
        // Hosts 0,1 on switch 0; hosts 2,3 on switch 1.
        assert_eq!(t.host_switch(HostId(0)), SwitchId(0));
        assert_eq!(t.host_switch(HostId(3)), SwitchId(1));
    }

    #[test]
    fn attached_hosts_lists_all() {
        let t = two_switch_topo();
        let hosts: Vec<_> = t.attached_hosts(SwitchId(0)).map(|(_, h)| h).collect();
        assert_eq!(hosts, vec![HostId(0), HostId(1)]);
    }

    #[test]
    fn without_links_keeps_ids_ports_and_hosts() {
        // A four-switch ring, two hosts per switch.
        let mut b = TopologyBuilder::new(4, 4);
        for s in 0..4 {
            b.connect(SwitchId(s), SwitchId((s + 1) % 4)).unwrap();
        }
        b.attach_hosts_everywhere(2).unwrap();
        let ring = b.build().unwrap();
        let (a, b) = (SwitchId(0), SwitchId(3));
        let open = ring
            .without_links(|s, _, peer| (s, peer) == (a, b))
            .unwrap();
        assert_eq!(open.num_switch_links(), 3);
        let gone = [
            (a, ring.port_towards(a, b).unwrap()),
            (b, ring.port_towards(b, a).unwrap()),
        ];
        for s in ring.switch_ids() {
            for p in (0..4).map(PortIndex) {
                let want = if gone.contains(&(s, p)) {
                    None
                } else {
                    ring.endpoint(s, p)
                };
                assert_eq!(open.endpoint(s, p), want, "{s} port {p}");
            }
        }
        for h in ring.host_ids() {
            assert_eq!(open.host_attachment(h), ring.host_attachment(h));
        }
        // Every link of the open ring is a bridge.
        let split = open.without_links(|s, _, _| s == SwitchId(1));
        assert!(
            matches!(split, Err(IbaError::InvalidTopology(_))),
            "{split:?}"
        );
    }

    #[test]
    fn rejects_self_link() {
        let mut b = TopologyBuilder::new(2, 4);
        assert!(b.connect(SwitchId(0), SwitchId(0)).is_err());
    }

    #[test]
    fn rejects_duplicate_link() {
        let mut b = TopologyBuilder::new(2, 4);
        b.connect(SwitchId(0), SwitchId(1)).unwrap();
        assert!(b.connect(SwitchId(0), SwitchId(1)).is_err());
        assert!(b.connect(SwitchId(1), SwitchId(0)).is_err());
    }

    #[test]
    fn rejects_port_exhaustion() {
        let mut b = TopologyBuilder::new(2, 1);
        b.connect(SwitchId(0), SwitchId(1)).unwrap();
        assert!(b.attach_host(SwitchId(0)).is_err());
    }

    #[test]
    fn the_first_host_past_its_id_type_is_refused() {
        // 1 024 switches × 64 hosts: the 65 536th host would make the
        // host count (and `host_ids()`) wrap to 0, the 65 537th would
        // be issued id 0 again.
        let mut b = TopologyBuilder::new(1024, 80);
        for s in 0..1024u16 {
            for k in 0..64u16 {
                let attached = b.attach_host(SwitchId(s));
                if (s, k) == (1023, 63) {
                    assert!(
                        matches!(&attached, Err(IbaError::InvalidTopology(m)) if m.contains("65535 hosts")),
                        "{attached:?}"
                    );
                } else {
                    assert_eq!(attached, Ok(HostId(s * 64 + k)));
                }
            }
        }
        assert_eq!(b.hosts.len(), 65_535);
    }

    #[test]
    fn more_switches_than_an_id_counts_are_refused() {
        for asked in [65_536usize, 65_537, usize::MAX] {
            let built = TopologyBuilder::new(asked, 1).build();
            assert!(
                matches!(&built, Err(IbaError::InvalidTopology(m)) if m.contains("16-bit switch ids")),
                "{asked} switches: {:?}",
                built.map(|t| t.num_switches())
            );
        }
    }

    #[test]
    fn neighbors_are_the_switch_ports_in_port_order() {
        // Hosts first, so the links sit above them in the port arrays.
        let mut b = TopologyBuilder::new(3, 4);
        b.attach_hosts_everywhere(1).unwrap();
        b.connect(SwitchId(0), SwitchId(2)).unwrap();
        b.connect(SwitchId(1), SwitchId(2)).unwrap();
        let t = b.build().unwrap();
        let of = |s: u16| t.switch_neighbors(SwitchId(s)).collect::<Vec<_>>();
        assert_eq!(of(0), [(PortIndex(1), SwitchId(2), PortIndex(1))]);
        assert_eq!(of(1), [(PortIndex(1), SwitchId(2), PortIndex(2))]);
        assert_eq!(
            of(2),
            [
                (PortIndex(1), SwitchId(0), PortIndex(1)),
                (PortIndex(2), SwitchId(1), PortIndex(1))
            ]
        );
        assert_eq!(t.switch_degree(SwitchId(2)), 2);
        assert_eq!(t.num_switch_links(), 2);
    }

    #[test]
    fn rejects_disconnected() {
        let mut b = TopologyBuilder::new(3, 4);
        b.connect(SwitchId(0), SwitchId(1)).unwrap();
        // switch 2 left unconnected
        assert!(matches!(b.build(), Err(IbaError::InvalidTopology(_))));
    }

    #[test]
    fn distances_on_a_path() {
        let mut b = TopologyBuilder::new(3, 4);
        b.connect(SwitchId(0), SwitchId(1)).unwrap();
        b.connect(SwitchId(1), SwitchId(2)).unwrap();
        let t = b.build().unwrap();
        let d = t.switch_distances();
        assert_eq!(d[0][2], 2);
        assert_eq!(d[0][1], 1);
        assert_eq!(d[2][2], 0);
        assert_eq!(t.distances_from(SwitchId(2))[0], 2);
    }

    #[test]
    fn clone_preserves_validity() {
        let t = two_switch_topo();
        let t2 = t.clone();
        t2.validate().unwrap();
        assert_eq!(t2.num_switch_links(), t.num_switch_links());
    }
}
