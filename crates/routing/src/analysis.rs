//! Static routing analysis — the machinery behind Table 2 and the
//! path-length arguments of §5.2.1.
//!
//! Table 2 of the paper reports, for each topology class, the average
//! percentage of `(switch, destination port)` pairs that have 1, 2, 3 or
//! 4 routing options, where the count is capped at MR ("Maximum number of
//! Routing options at each switch for each destination"). The options
//! counted are the *distinct output ports a forwarding-table group can
//! store*: the minimal (adaptive) next hops plus the up\*/down\* escape
//! hop when it is not itself minimal. Counting the escape entry is what
//! reproduces the paper's numbers — e.g. its 64-switch/4-link/MR=4 row
//! (41.32/41.20/14.09/3.39 %) against our ensemble's
//! 40.3/42.0/13.8/3.9 % — and explains why the multi-option share *grows*
//! with network size: up\*/down\* becomes increasingly non-minimal, so
//! the escape hop more often adds a distinct option.
//!
//! Local destinations (the 4 hosts attached to the switch itself) always
//! have exactly one option (the host port) and are excluded by default,
//! since no routing decision exists for them; `include_local` restores
//! them.

use crate::columns::NO_HOP;
use crate::engine::EscapeEngine;
use crate::minimal::MinimalRouting;
use iba_core::{HostId, IbaError, NodeRef, PortIndex, SwitchId};
use iba_topology::Topology;

/// Verify that a per-destination next-hop function — e.g. the escape
/// entries programmed into switch LFTs, read back over SMPs — gives
/// every switch a terminating route to every host *and* that the
/// induced channel-dependency graph is acyclic: the deadlock-freedom
/// condition for the escape layer (§3). The SM recovery path uses this
/// to certify re-swept tables before trusting them.
///
/// `next_hop(s, h)` must return the output port switch `s` uses towards
/// host `h`'s deterministic (escape) address, or `None` when
/// unprogrammed; it is asked once per `(switch, host)`. Per host, every
/// switch's chain is walked until it delivers or reaches a switch an
/// earlier chain already verified — rejecting missing entries, unwired
/// ports, mis-delivery and forwarding loops (a chain that re-enters
/// itself) — and each hop records the one dependency it creates: the
/// link taken into a switch waits on the link that switch forwards the
/// host on. A cycle in that dependency graph is a potential credit-wait
/// cycle.
pub fn check_escape_routes(
    topo: &Topology,
    next_hop: impl Fn(SwitchId, HostId) -> Option<PortIndex>,
) -> Result<(), IbaError> {
    let n = topo.num_switches();
    let rows: Vec<u8> = (topo.host_ids())
        .flat_map(|h| topo.switch_ids().map(move |s| (s, h)))
        .map(|(s, h)| next_hop(s, h).map_or(NO_HOP, |p| p.0))
        .collect();
    let row = |h: HostId| &rows[h.index() * n..][..n];
    let twins: Vec<bool> = (previous_on_switch(topo).into_iter().enumerate())
        .map(|(h, previous)| {
            previous.is_some_and(|p| {
                let (a, b, t) = (row(HostId(h as u16)), row(p), topo.host_switch(p).index());
                a[..t] == b[..t] && a[t + 1..] == b[t + 1..]
            })
        })
        .collect();
    let walked = hosts_to_walk(topo, &twins, |h, s| row(h)[s.index()]);
    let walked_rows: Vec<u8> = walked.iter().flat_map(|&h| row(h)).copied().collect();
    walk_escape_rows(topo, &walked, &walked_rows)
}

/// Each host's predecessor on its switch: the host of next-lower id
/// attached to the same switch, if any.
pub(crate) fn previous_on_switch(topo: &Topology) -> Vec<Option<HostId>> {
    let mut last = vec![None; topo.num_switches()];
    (topo.host_ids())
        .map(|h| last[topo.host_switch(h).index()].replace(h))
        .collect()
}

/// The hosts whose escape chains must be walked, in id order. `twins[h]`
/// says whether host `h`'s row of escape ports equals that of its
/// predecessor on its switch ([`previous_on_switch`]) at every switch
/// but that one, and `entry(h, s)` is switch `s`'s escape port towards
/// `h` ([`NO_HOP`] when unprogrammed).
///
/// A twin whose own switch's entry delivers to it is not walked. Its row
/// then equals, away from their switch, that of the last host walked
/// there — equality is transitive, and every host between them is such
/// a twin — so its chains are that host's up to their shared switch:
/// they terminate and add no dependency but the last one. The link into
/// that switch waits on the host's port, and a link into a host port
/// depends on nothing — a sink, which no cycle passes.
pub(crate) fn hosts_to_walk(
    topo: &Topology,
    twins: &[bool],
    entry: impl Fn(HostId, SwitchId) -> u8,
) -> Vec<HostId> {
    (topo.host_ids())
        .filter(|&h| {
            let (t, port) = topo.host_attachment(h);
            !twins[h.index()] || entry(h, t) != port.0
        })
        .collect()
}

/// The walk behind [`check_escape_routes`] over the hosts `walked`, in
/// order: `rows[k * n + s]` is switch `s`'s escape port towards
/// `walked[k]` ([`NO_HOP`] when unprogrammed), `n` the switch count.
pub(crate) fn walk_escape_rows(
    topo: &Topology,
    walked: &[HostId],
    rows: &[u8],
) -> Result<(), IbaError> {
    let n = topo.num_switches();
    let ports = topo.ports_per_switch() as usize;
    let nlinks = n * ports;
    // Channel dependencies of directed link `(switch, port)`: a bitmask
    // over the ports of the switch at its far end.
    let words = ports.div_ceil(64);
    let mut deps = vec![0u64; nlinks * words];
    // Per switch, the walk that first visited it (walks are numbered
    // from 1 in visiting order, so anything at or above the current
    // host's first walk was visited for this host) and the port it
    // forwards the current host on.
    let mut visited_by = vec![0usize; n];
    let mut out_port = vec![0usize; n];
    let mut walk = 0usize;
    // What each port of each switch is wired to, in one flat array.
    let wiring: Vec<Option<NodeRef>> = (topo.switch_ids())
        .flat_map(|s| (0..ports).map(move |p| topo.endpoint(s, PortIndex(p as u8))))
        .map(|ep| ep.map(|ep| ep.node))
        .collect();
    for (&h, row) in walked.iter().zip(rows.chunks(n.max(1))) {
        let host_first_walk = walk + 1;
        for s in topo.switch_ids() {
            walk += 1;
            let mut cur = s;
            let mut came_by: Option<usize> = None;
            loop {
                let seen = visited_by[cur.index()];
                if seen == walk {
                    return Err(IbaError::RoutingFailed(format!(
                        "escape route {s}→{h} does not terminate"
                    )));
                }
                // A switch an earlier walk went through is verified from
                // there on: record the hop into it and stop.
                let mut next = None;
                if seen < host_first_walk {
                    visited_by[cur.index()] = walk;
                    let p = match row[cur.index()] {
                        NO_HOP => {
                            return Err(IbaError::RoutingFailed(format!(
                                "no escape entry at {cur} towards {h}"
                            )))
                        }
                        p => p as usize,
                    };
                    let node = (p < ports)
                        .then(|| wiring[cur.index() * ports + p])
                        .flatten();
                    let node = node.ok_or_else(|| {
                        IbaError::RoutingFailed(format!(
                            "escape entry at {cur} towards {h} uses unwired {}",
                            PortIndex(p as u8)
                        ))
                    })?;
                    match node {
                        NodeRef::Host(dest) if dest == h => {}
                        NodeRef::Host(other) => {
                            return Err(IbaError::RoutingFailed(format!(
                                "escape route for {h} delivers to {other}"
                            )))
                        }
                        NodeRef::Switch(peer) => next = Some(peer),
                    }
                    out_port[cur.index()] = p;
                }
                let q = out_port[cur.index()];
                if let Some(link) = came_by {
                    deps[link * words + q / 64] |= 1 << (q % 64);
                }
                let Some(peer) = next else { break };
                came_by = Some(cur.index() * ports + q);
                cur = peer;
            }
        }
    }
    dependencies_acyclic(topo, &deps)
}

/// Kahn peel of the dependency graph `deps` (a bitmask per directed
/// link over the ports of the switch at its far end): acyclic iff every
/// node drains.
fn dependencies_acyclic(topo: &Topology, deps: &[u64]) -> Result<(), IbaError> {
    let ports = topo.ports_per_switch() as usize;
    let nlinks = topo.num_switches() * ports;
    let words = ports.div_ceil(64);
    // Only links into a switch carry dependencies, so `far_end` is set
    // wherever `deps` is non-zero.
    let far_end: Vec<usize> = (0..nlinks)
        .map(|l| {
            topo.endpoint(SwitchId((l / ports) as u16), PortIndex((l % ports) as u8))
                .and_then(|ep| ep.node.as_switch())
                .map_or(0, |sw| sw.index() * ports)
        })
        .collect();
    let successors = |v: usize| {
        let (mask, base) = (&deps[v * words..(v + 1) * words], far_end[v]);
        (0..ports)
            .filter(move |q| mask[q / 64] >> (q % 64) & 1 == 1)
            .map(move |q| base + q)
    };
    let mut indeg = vec![0usize; nlinks];
    for v in 0..nlinks {
        for w in successors(v) {
            indeg[w] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..nlinks).filter(|&v| indeg[v] == 0).collect();
    let mut drained = 0usize;
    while let Some(v) = ready.pop() {
        drained += 1;
        for w in successors(v) {
            indeg[w] -= 1;
            if indeg[w] == 0 {
                ready.push(w);
            }
        }
    }
    if drained != nlinks {
        return Err(IbaError::RoutingFailed(
            "escape channel-dependency graph has a cycle".into(),
        ));
    }
    Ok(())
}

/// The host-major checker [`check_escape_routes`] and
/// [`crate::FaTables::certify_escape`] replaced, kept as their test
/// oracle: `rows[h * n + s]` is switch `s`'s escape port towards host
/// `h`, and a host is compared with the last host walked on its switch.
#[cfg(test)]
pub(crate) fn check_escape_rows(
    topo: &Topology,
    rows: &[Option<PortIndex>],
) -> Result<(), IbaError> {
    let n = topo.num_switches();
    let next_hop = |s: SwitchId, h: HostId| rows[h.index() * n + s.index()];
    let row = |h: HostId| &rows[h.index() * n..(h.index() + 1) * n];
    let mut walked: Vec<Option<HostId>> = vec![None; n];
    let ports = topo.ports_per_switch() as usize;
    let nlinks = n * ports;
    let words = ports.div_ceil(64);
    let mut deps = vec![0u64; nlinks * words];
    let mut visited_by = vec![0usize; n];
    let mut out_port = vec![0usize; n];
    let mut walk = 0usize;
    for h in topo.host_ids() {
        let (t, port) = topo.host_attachment(h);
        let sibling = walked[t.index()].is_some_and(|w| {
            let (a, b, t) = (row(h), row(w), t.index());
            a[..t] == b[..t] && a[t + 1..] == b[t + 1..]
        });
        if sibling && next_hop(t, h) == Some(port) {
            continue;
        }
        walked[t.index()] = Some(h);
        let host_first_walk = walk + 1;
        for s in topo.switch_ids() {
            walk += 1;
            let mut cur = s;
            let mut came_by: Option<usize> = None;
            loop {
                let seen = visited_by[cur.index()];
                if seen == walk {
                    return Err(IbaError::RoutingFailed(format!(
                        "escape route {s}→{h} does not terminate"
                    )));
                }
                let mut next = None;
                if seen < host_first_walk {
                    visited_by[cur.index()] = walk;
                    let p = next_hop(cur, h).ok_or_else(|| {
                        IbaError::RoutingFailed(format!("no escape entry at {cur} towards {h}"))
                    })?;
                    let ep = topo.endpoint(cur, p).ok_or_else(|| {
                        IbaError::RoutingFailed(format!(
                            "escape entry at {cur} towards {h} uses unwired {p}"
                        ))
                    })?;
                    match ep.node {
                        NodeRef::Host(dest) if dest == h => {}
                        NodeRef::Host(other) => {
                            return Err(IbaError::RoutingFailed(format!(
                                "escape route for {h} delivers to {other}"
                            )))
                        }
                        NodeRef::Switch(peer) => next = Some(peer),
                    }
                    out_port[cur.index()] = p.index();
                }
                let q = out_port[cur.index()];
                if let Some(link) = came_by {
                    deps[link * words + q / 64] |= 1 << (q % 64);
                }
                let Some(peer) = next else { break };
                came_by = Some(cur.index() * ports + q);
                cur = peer;
            }
        }
    }
    dependencies_acyclic(topo, &deps)
}

/// The hop-by-hop walker [`check_escape_routes`] replaced, kept as its
/// test oracle: every `(switch, host)` chain is re-walked from its start
/// and every consecutive link pair of every chain goes into a set.
#[cfg(test)]
fn check_escape_routes_reference(
    topo: &Topology,
    next_hop: impl Fn(SwitchId, HostId) -> Option<PortIndex>,
) -> Result<(), IbaError> {
    use std::collections::BTreeSet;
    let ports = topo.ports_per_switch() as usize;
    let nlinks = topo.num_switches() * ports;
    let mut deps: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); nlinks];
    for h in topo.host_ids() {
        for s in topo.switch_ids() {
            let mut cur = s;
            let mut prev: Option<usize> = None;
            let mut hops = 0usize;
            loop {
                let p = next_hop(cur, h).ok_or_else(|| {
                    IbaError::RoutingFailed(format!("no escape entry at {cur} towards {h}"))
                })?;
                let link = cur.index() * ports + p.index();
                if let Some(prev) = prev {
                    deps[prev].insert(link);
                }
                let ep = topo.endpoint(cur, p).ok_or_else(|| {
                    IbaError::RoutingFailed(format!(
                        "escape entry at {cur} towards {h} uses unwired {p}"
                    ))
                })?;
                match ep.node {
                    NodeRef::Host(dest) if dest == h => break,
                    NodeRef::Host(other) => {
                        return Err(IbaError::RoutingFailed(format!(
                            "escape route for {h} delivers to {other}"
                        )))
                    }
                    NodeRef::Switch(n) => {
                        hops += 1;
                        if hops > topo.num_switches() {
                            return Err(IbaError::RoutingFailed(format!(
                                "escape route {s}→{h} does not terminate"
                            )));
                        }
                        prev = Some(link);
                        cur = n;
                    }
                }
            }
        }
    }
    let mut indeg = vec![0usize; nlinks];
    for adj in &deps {
        for &w in adj {
            indeg[w] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..nlinks).filter(|&v| indeg[v] == 0).collect();
    let mut drained = 0usize;
    while let Some(v) = ready.pop() {
        drained += 1;
        for &w in &deps[v] {
            indeg[w] -= 1;
            if indeg[w] == 0 {
                ready.push(w);
            }
        }
    }
    if drained != nlinks {
        return Err(IbaError::RoutingFailed(
            "escape channel-dependency graph has a cycle".into(),
        ));
    }
    Ok(())
}

/// Distribution of routing-option counts over `(switch, destination)`
/// pairs — one row of Table 2.
#[derive(Clone, Debug, PartialEq)]
pub struct OptionDistribution {
    /// The cap MR.
    pub max_routing_options: usize,
    /// `percent[k-1]` = percentage of pairs with exactly `k` options
    /// (after capping at MR). Sums to 100 (up to rounding).
    pub percent: Vec<f64>,
    /// Number of pairs counted.
    pub pairs: usize,
}

impl OptionDistribution {
    /// Compute the distribution for one topology. Generic over the
    /// escape engine — the distribution of FA-over-OutFlank differs from
    /// FA-over-up\*/down\* exactly when their escape hops differ.
    pub fn compute<E: EscapeEngine>(
        topo: &Topology,
        minimal: &MinimalRouting,
        escape: &E,
        max_routing_options: usize,
        include_local: bool,
    ) -> Result<OptionDistribution, IbaError> {
        if max_routing_options == 0 {
            return Err(IbaError::InvalidConfig("MR must be at least 1".into()));
        }
        let mut counts = vec![0usize; max_routing_options];
        let mut pairs = 0usize;
        for s in topo.switch_ids() {
            for h in topo.host_ids() {
                let t = topo.host_switch(h);
                let options = if t == s {
                    if !include_local {
                        continue;
                    }
                    1
                } else {
                    // Distinct storable options: minimal next hops plus
                    // the escape hop when it is not minimal.
                    let mins = minimal.options(s, t);
                    let esc = escape
                        .next_hop(s, t)
                        .ok_or_else(|| IbaError::RoutingFailed(format!("no escape hop {s}→{t}")))?;
                    mins.len() + usize::from(!mins.contains(esc))
                };
                let capped = options.clamp(1, max_routing_options);
                counts[capped - 1] += 1;
                pairs += 1;
            }
        }
        let percent = counts
            .iter()
            .map(|&c| {
                if pairs == 0 {
                    0.0
                } else {
                    100.0 * c as f64 / pairs as f64
                }
            })
            .collect();
        Ok(OptionDistribution {
            max_routing_options,
            percent,
            pairs,
        })
    }

    /// Element-wise average of several distributions (the "average over
    /// ten topologies" of Table 2). All inputs must share the same MR.
    pub fn average(dists: &[OptionDistribution]) -> Result<OptionDistribution, IbaError> {
        let Some(first) = dists.first() else {
            return Err(IbaError::InvalidConfig(
                "no distributions to average".into(),
            ));
        };
        let mr = first.max_routing_options;
        if dists.iter().any(|d| d.max_routing_options != mr) {
            return Err(IbaError::InvalidConfig(
                "mismatched MR across distributions".into(),
            ));
        }
        let n = dists.len() as f64;
        let percent = (0..mr)
            .map(|k| dists.iter().map(|d| d.percent[k]).sum::<f64>() / n)
            .collect();
        Ok(OptionDistribution {
            max_routing_options: mr,
            percent,
            pairs: dists.iter().map(|d| d.pairs).sum(),
        })
    }

    /// Percentage of pairs with strictly more than one option — the
    /// headline quantity of §5.2.2 ("as network connectivity increases,
    /// the percentage of destinations with more than one routing option
    /// is increased").
    pub fn percent_multi_option(&self) -> f64 {
        self.percent.iter().skip(1).sum()
    }
}

/// Path-length comparison between minimal routing and the deterministic
/// escape layer — the §5.2.1 explanation of why adaptivity helps more in
/// large networks.
#[derive(Clone, Debug, PartialEq)]
pub struct PathLengthStats {
    /// Mean shortest-path length over remote switch pairs.
    pub avg_minimal: f64,
    /// Mean deterministic escape-route length over the same pairs. The
    /// field keeps its historical name (up\*/down\* was the only escape
    /// layer when the JSON schema was fixed); for other engines it holds
    /// *their* deterministic route length.
    pub avg_updown: f64,
    /// Fraction of pairs whose escape route is strictly longer than
    /// minimal.
    pub nonminimal_fraction: f64,
}

impl PathLengthStats {
    /// Compute over all ordered remote switch pairs, following the
    /// escape engine's deterministic rule.
    pub fn compute<E: EscapeEngine>(
        topo: &Topology,
        minimal: &MinimalRouting,
        escape: &E,
    ) -> Result<PathLengthStats, IbaError> {
        let mut sum_min = 0u64;
        let mut sum_ud = 0u64;
        let mut nonmin = 0u64;
        let mut pairs = 0u64;
        for s in topo.switch_ids() {
            for t in topo.switch_ids() {
                if s == t {
                    continue;
                }
                let dmin = minimal.distance(s, t) as u64;
                let dud = (escape.path(topo, s, t)?.len() - 1) as u64;
                sum_min += dmin;
                sum_ud += dud;
                nonmin += u64::from(dud > dmin);
                pairs += 1;
            }
        }
        if pairs == 0 {
            return Err(IbaError::InvalidConfig(
                "topology has a single switch".into(),
            ));
        }
        Ok(PathLengthStats {
            avg_minimal: sum_min as f64 / pairs as f64,
            avg_updown: sum_ud as f64 / pairs as f64,
            nonminimal_fraction: nonmin as f64 / pairs as f64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fullmesh::FullMeshRouting;
    use crate::outflank::OutflankRouting;
    use crate::updown::UpDownRouting;
    use iba_topology::{regular, IrregularConfig, TopologySpec};
    use proptest::prelude::*;

    /// A materialized escape table: `hop[s][h]`.
    type Hops = Vec<Vec<Option<PortIndex>>>;

    fn engine_hops<E: EscapeEngine>(topo: &Topology) -> Hops {
        let engine = E::build(topo).unwrap();
        topo.switch_ids()
            .map(|s| {
                topo.host_ids()
                    .map(|h| {
                        let (hsw, hp) = topo.host_attachment(h);
                        if hsw == s {
                            Some(hp)
                        } else {
                            engine.next_hop(s, hsw)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Which of the checker's verdicts a result is.
    fn verdict(r: &Result<(), IbaError>) -> &'static str {
        let Err(e) = r else { return "ok" };
        let msg = e.to_string();
        [
            "no escape entry",
            "unwired",
            "delivers to",
            "does not terminate",
            "cycle",
        ]
        .into_iter()
        .find(|class| msg.contains(class))
        .unwrap_or_else(|| panic!("unclassified verdict: {msg}"))
    }

    /// Brute force on the channel-dependency graph: walk every chain hop
    /// by hop collecting its consecutive link pairs, then search every
    /// link's successors depth-first for a path back to it. `None` when
    /// a chain is broken (the graph is only defined over whole chains).
    fn cdg_cycle_by_dfs(topo: &Topology, hops: &Hops) -> Option<bool> {
        let ports = topo.ports_per_switch() as usize;
        let mut edges = std::collections::BTreeSet::new();
        for h in topo.host_ids() {
            for s in topo.switch_ids() {
                let (mut cur, mut prev) = (s, None);
                for _ in 0..=topo.num_switches() {
                    let p = hops[cur.index()][h.index()]?;
                    let link = cur.index() * ports + p.index();
                    edges.extend(prev.map(|from| (from, link)));
                    match topo.endpoint(cur, p)?.node {
                        NodeRef::Host(dest) if dest == h => break,
                        NodeRef::Host(_) => return None,
                        NodeRef::Switch(next) => (cur, prev) = (next, Some(link)),
                    }
                }
                if topo.endpoint(cur, hops[cur.index()][h.index()]?)?.node != NodeRef::Host(h) {
                    return None; // still inside the fabric after n hops
                }
            }
        }
        let reaches = |from: usize, target: usize| {
            let (mut stack, mut seen) = (vec![from], std::collections::BTreeSet::new());
            while let Some(v) = stack.pop() {
                for &(_, w) in edges.range((v, 0)..(v + 1, 0)) {
                    if w == target {
                        return true;
                    }
                    if seen.insert(w) {
                        stack.push(w);
                    }
                }
            }
            false
        };
        Some(edges.iter().any(|&(v, _)| reaches(v, v)))
    }

    /// Damage `hops` the ways a broken table can be broken.
    fn mutate(topo: &Topology, hops: &mut Hops, (kind, a, b, c): (u8, usize, usize, usize)) {
        let mut s = SwitchId((a % topo.num_switches()) as u16);
        let mut h = b % topo.num_hosts();
        // Kinds 12–14 damage only a host that is not the first of its
        // switch — one the checker may skip as the twin of a sibling — by
        // a loop, by a detour, or at its own switch by a sibling's port.
        let kind = match kind {
            12..=14 => {
                let later: Vec<HostId> = (topo.host_ids())
                    .filter(|&g| {
                        let t = topo.host_switch(g);
                        (topo.host_ids().take(g.index())).any(|f| topo.host_switch(f) == t)
                    })
                    .collect();
                let Some(&g) = later.get(b % later.len().max(1)) else {
                    return;
                };
                h = g.index();
                if kind == 14 {
                    s = topo.host_switch(g);
                }
                [4, 5, 2][kind as usize - 12]
            }
            kind => kind,
        };
        let pick = |ports: Vec<PortIndex>| (!ports.is_empty()).then(|| ports[c % ports.len()]);
        let all_ports = || (0..topo.ports_per_switch()).map(PortIndex);
        let entry = match kind {
            // Unprogrammed.
            0 => None,
            // An unwired port.
            1 => pick(
                all_ports()
                    .filter(|&p| topo.endpoint(s, p).is_none())
                    .collect(),
            ),
            // Another host's port.
            2 => pick(
                topo.attached_hosts(s)
                    .filter_map(|(p, other)| (other.index() != h).then_some(p))
                    .collect(),
            ),
            // Two destinations' entries swapped at one switch.
            3 => {
                let other = c % topo.num_hosts();
                hops[s.index()].swap(h, other);
                return;
            }
            // Some neighbour: mostly closes a forwarding loop.
            4 => pick(topo.switch_neighbors(s).map(|(p, _, _)| p).collect()),
            // A neighbour whose own chain to the host avoids this switch:
            // a detour that still delivers, by a turn the engine may
            // forbid — what closes a dependency cycle without looping
            // (rare per draw, hence the likeliest kind).
            _ => pick(
                topo.switch_neighbors(s)
                    .filter(|&(_, peer, _)| {
                        let mut cur = peer;
                        (0..topo.num_switches()).all(|_| {
                            let next = hops[cur.index()][h]
                                .and_then(|p| topo.endpoint(cur, p))
                                .and_then(|ep| ep.node.as_switch());
                            cur = next.unwrap_or(cur);
                            cur != s
                        })
                    })
                    .map(|(p, _, _)| p)
                    .collect(),
            ),
        };
        // A mutation the shape has no port for leaves the table alone.
        if kind == 0 || entry.is_some() {
            hops[s.index()][h] = entry;
        }
    }

    /// The verdicts of the checker, of the reference walker and of the
    /// brute-force search on one mutated escape table of engine `E`.
    fn verdicts<E: EscapeEngine>(
        spec: TopologySpec,
        seed: u64,
        mutations: &[(u8, usize, usize, usize)],
    ) -> [&'static str; 3] {
        let topo = spec.generate(seed).unwrap();
        let mut hops = engine_hops::<E>(&topo);
        for &m in mutations {
            mutate(&topo, &mut hops, m);
        }
        let next_hop = |s: SwitchId, h: HostId| hops[s.index()][h.index()];
        [
            verdict(&check_escape_routes(&topo, next_hop)),
            verdict(&check_escape_routes_reference(&topo, next_hop)),
            match cdg_cycle_by_dfs(&topo, &hops) {
                Some(false) => "ok",
                Some(true) => "cycle",
                None => "broken chain",
            },
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The one-visit checker, the hop-by-hop walker it replaced and a
        /// brute-force cycle search agree on every verdict, over small
        /// shapes of all three engines with one to four hosts a switch
        /// and up to six table mutations (3 × 3 is the smallest torus
        /// OutFlank accepts).
        #[test]
        fn prop_checker_matches_reference_walker_and_brute_force(
            shape in 0usize..9,
            seed in 0u64..50,
            mutations in proptest::collection::vec((0u8..15, 0usize..64, 0usize..64, 0usize..64), 0..7),
        ) {
            let hosts_per_switch = 1 + seed as usize % 4;
            let updown = [
                TopologySpec::Irregular { switches: 8, inter_switch_links: 3, hosts_per_switch },
                TopologySpec::Ring { switches: 5 + seed as usize % 4, hosts_per_switch },
                TopologySpec::Chain { switches: 4, hosts_per_switch },
                TopologySpec::Mesh2D { rows: 2, cols: 4, hosts_per_switch },
                TopologySpec::Hypercube { dim: 3, hosts_per_switch },
                TopologySpec::FullMesh { switches: 5, hosts_per_switch },
            ];
            let [new, reference, by_dfs] = match shape {
                6 => verdicts::<OutflankRouting>(
                    TopologySpec::Torus2D { rows: 3, cols: 3, hosts_per_switch }, seed, &mutations),
                7 => verdicts::<FullMeshRouting>(
                    TopologySpec::FullMesh { switches: 6, hosts_per_switch }, seed, &mutations),
                8 => verdicts::<FullMeshRouting>(
                    TopologySpec::FullMesh { switches: 8, hosts_per_switch }, seed, &mutations),
                _ => verdicts::<UpDownRouting>(updown[shape], seed, &mutations),
            };
            prop_assert_eq!(new, reference);
            let whole_chains = matches!(new, "ok" | "cycle");
            prop_assert_eq!(by_dfs, if whole_chains { new } else { "broken chain" });
        }
    }

    #[test]
    fn distribution_sums_to_100() {
        let topo = IrregularConfig::paper(16, 7).generate().unwrap();
        let minimal = MinimalRouting::build(&topo).unwrap();
        let updown = UpDownRouting::build(&topo).unwrap();
        for mr in 1..=4 {
            let d = OptionDistribution::compute(&topo, &minimal, &updown, mr, false).unwrap();
            let total: f64 = d.percent.iter().sum();
            assert!((total - 100.0).abs() < 1e-9, "MR={mr}: total={total}");
            assert_eq!(d.percent.len(), mr);
        }
    }

    #[test]
    fn mr_one_collapses_everything() {
        let topo = IrregularConfig::paper(8, 1).generate().unwrap();
        let minimal = MinimalRouting::build(&topo).unwrap();
        let updown = UpDownRouting::build(&topo).unwrap();
        let d = OptionDistribution::compute(&topo, &minimal, &updown, 1, false).unwrap();
        assert_eq!(d.percent, vec![100.0]);
        assert_eq!(d.percent_multi_option(), 0.0);
    }

    #[test]
    fn capping_preserves_mass() {
        // Column "2" under MR=2 equals columns "2"+"3"+"4" under MR=4.
        let topo = IrregularConfig::paper(32, 3).generate().unwrap();
        let minimal = MinimalRouting::build(&topo).unwrap();
        let updown = UpDownRouting::build(&topo).unwrap();
        let d2 = OptionDistribution::compute(&topo, &minimal, &updown, 2, false).unwrap();
        let d4 = OptionDistribution::compute(&topo, &minimal, &updown, 4, false).unwrap();
        assert!((d2.percent[0] - d4.percent[0]).abs() < 1e-9);
        assert!((d2.percent[1] - d4.percent[1..].iter().sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn include_local_adds_single_option_pairs() {
        let topo = IrregularConfig::paper(8, 2).generate().unwrap();
        let minimal = MinimalRouting::build(&topo).unwrap();
        let updown = UpDownRouting::build(&topo).unwrap();
        let without = OptionDistribution::compute(&topo, &minimal, &updown, 4, false).unwrap();
        let with = OptionDistribution::compute(&topo, &minimal, &updown, 4, true).unwrap();
        assert_eq!(with.pairs, without.pairs + topo.num_hosts());
        assert!(with.percent[0] > without.percent[0]);
    }

    #[test]
    fn higher_connectivity_increases_multi_option_share() {
        // The structural driver of Table 2's right half: 6 links vs 4.
        let mut low = Vec::new();
        let mut high = Vec::new();
        for seed in 0..5 {
            let t4 = IrregularConfig::paper(32, seed).generate().unwrap();
            let t6 = IrregularConfig::paper_connected(32, seed)
                .generate()
                .unwrap();
            let m4 = MinimalRouting::build(&t4).unwrap();
            let m6 = MinimalRouting::build(&t6).unwrap();
            let u4 = UpDownRouting::build(&t4).unwrap();
            let u6 = UpDownRouting::build(&t6).unwrap();
            low.push(OptionDistribution::compute(&t4, &m4, &u4, 4, false).unwrap());
            high.push(OptionDistribution::compute(&t6, &m6, &u6, 4, false).unwrap());
        }
        let low = OptionDistribution::average(&low).unwrap();
        let high = OptionDistribution::average(&high).unwrap();
        assert!(
            high.percent_multi_option() > low.percent_multi_option(),
            "6-link networks must offer more multi-option destinations ({:.1}% vs {:.1}%)",
            high.percent_multi_option(),
            low.percent_multi_option()
        );
    }

    #[test]
    fn average_requires_consistent_mr() {
        let topo = IrregularConfig::paper(8, 1).generate().unwrap();
        let minimal = MinimalRouting::build(&topo).unwrap();
        let updown = UpDownRouting::build(&topo).unwrap();
        let a = OptionDistribution::compute(&topo, &minimal, &updown, 2, false).unwrap();
        let b = OptionDistribution::compute(&topo, &minimal, &updown, 4, false).unwrap();
        assert!(OptionDistribution::average(&[a.clone(), b]).is_err());
        assert!(OptionDistribution::average(&[]).is_err());
        let avg = OptionDistribution::average(&[a.clone(), a.clone()]).unwrap();
        assert_eq!(avg.percent, a.percent);
    }

    #[test]
    fn path_length_stats_on_ring() {
        let topo = regular::ring(8, 1).unwrap();
        let minimal = MinimalRouting::build(&topo).unwrap();
        let updown = UpDownRouting::build(&topo).unwrap();
        let st = PathLengthStats::compute(&topo, &minimal, &updown).unwrap();
        // up*/down* cannot beat minimal.
        assert!(st.avg_updown >= st.avg_minimal);
        assert!((0.0..=1.0).contains(&st.nonminimal_fraction));
    }

    #[test]
    fn updown_scales_worse_on_larger_networks() {
        // §5.2.1: "as network size increases, up*/down* tends to use
        // longer non-minimal paths". Compare the inflation factor.
        let inflation = |n: usize| {
            let mut f = 0.0;
            let runs = 3;
            for seed in 0..runs {
                let topo = IrregularConfig::paper(n, seed).generate().unwrap();
                let minimal = MinimalRouting::build(&topo).unwrap();
                let updown = UpDownRouting::build(&topo).unwrap();
                let st = PathLengthStats::compute(&topo, &minimal, &updown).unwrap();
                f += st.avg_updown / st.avg_minimal;
            }
            f / runs as f64
        };
        let small = inflation(8);
        let large = inflation(64);
        assert!(
            large > small,
            "expected more path inflation at 64 switches ({large:.3}) than at 8 ({small:.3})"
        );
    }

    #[test]
    fn updown_escape_routes_pass_the_deadlock_check() {
        for seed in 0..3 {
            let topo = IrregularConfig::paper(16, seed).generate().unwrap();
            let updown = UpDownRouting::build(&topo).unwrap();
            check_escape_routes(&topo, |s, h| {
                let (hsw, hp) = topo.host_attachment(h);
                if hsw == s {
                    Some(hp)
                } else {
                    updown.next_hop(s, hsw)
                }
            })
            .unwrap();
        }
    }

    #[test]
    fn clockwise_ring_routing_fails_the_deadlock_check() {
        // Every chain terminates, yet the four directed clockwise links
        // wait on each other — the classic ring credit cycle.
        let topo = regular::ring(4, 1).unwrap();
        let n = topo.num_switches();
        let err = check_escape_routes(&topo, |s, h| {
            let (hsw, hp) = topo.host_attachment(h);
            if hsw == s {
                Some(hp)
            } else {
                let next = iba_core::SwitchId((s.0 + 1) % n as u16);
                topo.port_towards(s, next)
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn missing_and_misdelivering_entries_are_rejected() {
        let topo = regular::ring(4, 1).unwrap();
        let err = check_escape_routes(&topo, |_, _| None).unwrap_err();
        assert!(err.to_string().contains("no escape entry"), "{err}");
        // Routing every destination to switch 0's local host mis-delivers.
        let updown = UpDownRouting::build(&topo).unwrap();
        let err = check_escape_routes(&topo, |s, _| {
            let (hsw, hp) = topo.host_attachment(iba_core::HostId(0));
            if hsw == s {
                Some(hp)
            } else {
                updown.next_hop(s, hsw)
            }
        })
        .unwrap_err();
        assert!(err.to_string().contains("delivers to"), "{err}");
    }
}
