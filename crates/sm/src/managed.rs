//! The managed fabric: switch-resident management agents.
//!
//! [`ManagedFabric`] wraps a [`Topology`] and gives every switch the
//! state a subnet manager can see and change — GUID, management LID,
//! linear forwarding table, SLtoVL table — reachable *only* through
//! directed-route SMPs (`ManagedFabric::send`). The discovery and
//! programming layers never touch the topology object directly; they
//! must learn and configure everything through this interface, exactly
//! like a real SM.

use crate::mad::{DirectedRoute, NodeKind, PortState, Smp, SmpAttribute, SmpMethod, SmpResponse};
use iba_core::{Lid, NodeRef, SwitchId};
use iba_engine::rng::StreamKind;
use iba_engine::StreamRng;
use iba_routing::{InterleavedForwardingTable, SlToVlTable};
use iba_topology::Topology;

/// Entries per linear-forwarding-table block (spec value).
pub(crate) const LFT_BLOCK: usize = 64;

/// Capacity of an agent's LFT: the unicast LID space, `0..=0xBFFF`.
/// An SMP addressing an entry past it is rejected.
pub(crate) const LFT_LEN: usize = 48 * 1024;

/// One switch's management agent state.
#[derive(Clone, Debug)]
pub struct ManagedSwitch {
    /// Stable globally unique id.
    pub guid: u64,
    /// Management LID assigned by the SM (0 until assigned).
    pub lid: Lid,
    /// The linear forwarding table (interleaved internally when the
    /// switch is an enhanced one; the SM cannot tell the difference —
    /// that is the point of §4.1). It holds entries up to the end of
    /// the highest block the SM has written an entry into; every entry
    /// past that, up to `LFT_LEN`, reads unprogrammed.
    pub lft: InterleavedForwardingTable,
    /// The SLtoVL mapping table (§4.4).
    pub sl2vl: SlToVlTable,
    /// SMPs this agent has processed (diagnostics).
    pub smps_processed: u64,
}

/// A topology whose switches are reachable through SMPs.
///
/// A clone is a second fabric in the same state: same agents, same
/// failed links, and — when SMP loss is armed — the same position in
/// the loss stream, so it goes on losing the SMPs the original would.
#[derive(Clone)]
pub struct ManagedFabric<'a> {
    topo: &'a Topology,
    /// The switch the SM is attached to (via its first host).
    sm_switch: SwitchId,
    switches: Vec<ManagedSwitch>,
    /// Per-switch, per-port failed-link overlay: `true` masks a wired
    /// port as dead. Both the SMP transport (directed routes cannot
    /// cross a dead link) and `PortInfo` (reports `Down`, so a re-sweep
    /// discovers the degraded fabric) consult it.
    down: Vec<Vec<bool>>,
    /// Per-switch, per-port *silent* failure overlay: the link reports
    /// trained (`PortInfo` says `Up`) but eats every SMP that tries to
    /// cross it — a misbehaving link the SM can only detect by timeout.
    silent: Vec<Vec<bool>>,
    /// Probability that any one SMP exchange is lost (request or reply;
    /// the SM cannot tell which). `0.0` disables the draw entirely.
    smp_loss: f64,
    /// RNG for the loss draws; `None` until armed.
    smp_rng: Option<StreamRng>,
    /// Total SMPs transported.
    pub smps_sent: u64,
}

/// GUIDs are derived from switch ids with a fixed mix so they look
/// opaque to discovery (which must not assume density or order).
fn guid_of(s: SwitchId) -> u64 {
    (s.0 as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
        ^ 0xABCD_EF01_2345_6789
}

/// GUID of a host port.
fn host_guid(h: iba_core::HostId) -> u64 {
    (h.0 as u64)
        .wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        .rotate_left(29)
        ^ 0x1357_9BDF_2468_ACE0
}

impl<'a> ManagedFabric<'a> {
    /// Wrap `topo` with fresh (unprogrammed) agents. The SM console is
    /// attached to the switch of host 0; `lft_fanout` is the interleave
    /// factor of the enhanced switches (2^LMC).
    pub fn new(topo: &'a Topology, lft_fanout: u16) -> Result<Self, iba_core::IbaError> {
        let switches = topo
            .switch_ids()
            .map(|s| {
                Ok(ManagedSwitch {
                    guid: guid_of(s),
                    lid: Lid(0),
                    lft: InterleavedForwardingTable::new(0, lft_fanout)?,
                    // Power-on default: everything on VL0 until programmed.
                    sl2vl: SlToVlTable::identity(topo.ports_per_switch(), 1)?,
                    smps_processed: 0,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let down: Vec<Vec<bool>> = topo
            .switch_ids()
            .map(|_| vec![false; topo.ports_per_switch() as usize])
            .collect();
        Ok(ManagedFabric {
            topo,
            sm_switch: topo.host_switch(iba_core::HostId(0)),
            switches,
            silent: down.clone(),
            down,
            smp_loss: 0.0,
            smp_rng: None,
            smps_sent: 0,
        })
    }

    /// Arm random VL15 loss: every subsequent `send` is dropped
    /// with probability `loss` (reported as `SmpResponse::Timeout`).
    /// The draw stream is derived from `seed`, so a sweep over a lossy
    /// fabric is reproducible. `loss = 0.0` disarms the hook and
    /// consumes no draws.
    pub fn set_smp_faults(&mut self, loss: f64, seed: u64) -> Result<(), iba_core::IbaError> {
        if !(0.0..=1.0).contains(&loss) {
            return Err(iba_core::IbaError::InvalidConfig(format!(
                "SMP loss probability {loss} outside [0, 1]"
            )));
        }
        self.smp_loss = loss;
        self.smp_rng = (loss > 0.0)
            .then(|| StreamRng::from_seed(seed).derive(StreamKind::Custom(0x5713_7F00)));
        Ok(())
    }

    /// Fail the physical link between switches `a` and `b`: SMPs can no
    /// longer cross it and both ends report `PortState::Down` — exactly
    /// what the SM observes after a cable pull. Agent state (LFTs,
    /// SLtoVL) is untouched; only a re-sweep reprograms it. Errors when
    /// the topology has no such link.
    pub fn fail_link(&mut self, a: SwitchId, b: SwitchId) -> Result<(), iba_core::IbaError> {
        let (pa, pb) = self.link_ports(a, b)?;
        self.down[a.index()][pa.index()] = true;
        self.down[b.index()][pb.index()] = true;
        Ok(())
    }

    /// Undo [`Self::fail_link`] for the link between `a` and `b`.
    pub fn restore_link(&mut self, a: SwitchId, b: SwitchId) -> Result<(), iba_core::IbaError> {
        let (pa, pb) = self.link_ports(a, b)?;
        self.down[a.index()][pa.index()] = false;
        self.down[b.index()][pb.index()] = false;
        Ok(())
    }

    fn link_ports(
        &self,
        a: SwitchId,
        b: SwitchId,
    ) -> Result<(iba_core::PortIndex, iba_core::PortIndex), iba_core::IbaError> {
        let n = self.topo.num_switches();
        if a.index() >= n || b.index() >= n {
            return Err(iba_core::IbaError::InvalidConfig(format!(
                "switch out of range (topology has {n} switches)"
            )));
        }
        match (self.topo.port_towards(a, b), self.topo.port_towards(b, a)) {
            (Some(pa), Some(pb)) => Ok((pa, pb)),
            _ => Err(iba_core::IbaError::InvalidConfig(format!(
                "no link {a}–{b} in the topology"
            ))),
        }
    }

    /// Read access to an agent (for verification in tests/reports).
    pub fn agent(&self, s: SwitchId) -> &ManagedSwitch {
        &self.switches[s.index()]
    }

    /// Walk a directed route from the SM switch. `Ok` holds the final
    /// node; the error distinguishes a route that fell off the fabric
    /// (answered `BadRoute`) from one that crossed a silently-failed
    /// link (answered by nothing at all — a `Timeout`). Those two are
    /// the only errors, so the size of an `LftBlock` costs nothing here.
    #[allow(clippy::result_large_err)]
    fn walk(&self, route: &DirectedRoute) -> Result<NodeRef, SmpResponse> {
        let mut cur = NodeRef::Switch(self.sm_switch);
        for &port in &route.hops {
            let NodeRef::Switch(sw) = cur else {
                return Err(SmpResponse::BadRoute); // tried to hop out of a host
            };
            if port.index() >= self.topo.ports_per_switch() as usize {
                return Err(SmpResponse::BadRoute);
            }
            if self.down[sw.index()][port.index()] {
                return Err(SmpResponse::BadRoute); // failed link: nothing crosses
            }
            if self.silent[sw.index()][port.index()] {
                return Err(SmpResponse::Timeout); // trained link that eats SMPs
            }
            let Some(ep) = self.topo.endpoint(sw, port) else {
                return Err(SmpResponse::BadRoute); // down port
            };
            cur = ep.node;
        }
        Ok(cur)
    }

    /// Transport and process one SMP, returning the response.
    pub(crate) fn send(&mut self, smp: &Smp) -> SmpResponse {
        self.smps_sent += 1;
        if self.smp_loss > 0.0 {
            if let Some(rng) = self.smp_rng.as_mut() {
                if rng.chance(self.smp_loss) {
                    return SmpResponse::Timeout; // lost on VL15, silently
                }
            }
        }
        let target = match self.walk(&smp.route) {
            Ok(node) => node,
            Err(resp) => return resp,
        };
        match target {
            NodeRef::Host(h) => match (&smp.method, &smp.attribute) {
                (SmpMethod::Get, SmpAttribute::NodeInfo) => SmpResponse::NodeInfo {
                    kind: NodeKind::Host,
                    guid: host_guid(h),
                },
                _ => SmpResponse::Unsupported,
            },
            NodeRef::Switch(sw) => {
                let ports = self.topo.ports_per_switch();
                let agent = &mut self.switches[sw.index()];
                agent.smps_processed += 1;
                match (&smp.method, &smp.attribute) {
                    (SmpMethod::Get, SmpAttribute::NodeInfo) => SmpResponse::NodeInfo {
                        kind: NodeKind::Switch { ports },
                        guid: agent.guid,
                    },
                    (SmpMethod::Get, SmpAttribute::PortInfo { port }) => {
                        if port.index() >= ports as usize {
                            SmpResponse::Unsupported
                        } else if self.down[sw.index()][port.index()] {
                            SmpResponse::PortInfo {
                                state: PortState::Down,
                            }
                        } else if self.topo.endpoint(sw, *port).is_some() {
                            SmpResponse::PortInfo {
                                state: PortState::Up,
                            }
                        } else {
                            SmpResponse::PortInfo {
                                state: PortState::Down,
                            }
                        }
                    }
                    (SmpMethod::Set, SmpAttribute::SwitchInfo { lid }) => {
                        agent.lid = *lid;
                        SmpResponse::Ok
                    }
                    (SmpMethod::Set, SmpAttribute::LinearForwardingTable { block, entries }) => {
                        // The whole block is validated before the table
                        // is touched: a rejected SMP — an oversized
                        // block, a port past the switch, an entry past
                        // `LFT_LEN` — leaves the agent unchanged, or the
                        // SM, seeing the rejection, would never know
                        // which half was written. A block holding an
                        // entry then grows the table to its end.
                        let end = (*block as usize + 1) * LFT_BLOCK;
                        let written = entries.iter().any(Option::is_some);
                        let bad_port = entries.iter().flatten().any(|p| p.0 >= ports);
                        if entries.len() > LFT_BLOCK || bad_port || (written && end > LFT_LEN) {
                            return SmpResponse::Unsupported;
                        }
                        if written {
                            agent.lft.grow_to(end);
                        }
                        match agent.lft.write_block(end - LFT_BLOCK, entries) {
                            Ok(()) => SmpResponse::Ok,
                            Err(_) => SmpResponse::Unsupported,
                        }
                    }
                    (SmpMethod::Get, SmpAttribute::LinearForwardingTable { block, .. }) => {
                        let mut entries = [None; LFT_BLOCK];
                        agent
                            .lft
                            .read_block(*block as usize * LFT_BLOCK, &mut entries);
                        SmpResponse::LftBlock { entries }
                    }
                    (SmpMethod::Set, SmpAttribute::SlToVlMappingTable { input, output, vls }) => {
                        match agent.sl2vl.set_row(*input, *output, vls) {
                            Ok(()) => SmpResponse::Ok,
                            Err(_) => SmpResponse::Unsupported,
                        }
                    }
                    _ => SmpResponse::Unsupported,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_core::{PortIndex, ServiceLevel};
    use iba_topology::regular;
    use proptest::prelude::*;

    impl ManagedFabric<'_> {
        /// Fail the link between `a` and `b` *silently*: both ends still
        /// report [`PortState::Up`], but no SMP crosses. This is the nasty
        /// failure mode — the SM sees a trained link whose peer never
        /// answers, and can only conclude partition after its retries are
        /// exhausted.
        pub(crate) fn fail_link_silent(
            &mut self,
            a: SwitchId,
            b: SwitchId,
        ) -> Result<(), iba_core::IbaError> {
            let (pa, pb) = self.link_ports(a, b)?;
            self.silent[a.index()][pa.index()] = true;
            self.silent[b.index()][pb.index()] = true;
            Ok(())
        }

        /// Undo [`Self::fail_link_silent`] for the link between `a` and `b`.
        pub(crate) fn restore_link_silent(
            &mut self,
            a: SwitchId,
            b: SwitchId,
        ) -> Result<(), iba_core::IbaError> {
            let (pa, pb) = self.link_ports(a, b)?;
            self.silent[a.index()][pa.index()] = false;
            self.silent[b.index()][pb.index()] = false;
            Ok(())
        }

        /// The switch the SM is attached to.
        pub(crate) fn sm_switch(&self) -> SwitchId {
            self.sm_switch
        }
    }

    fn smp(method: SmpMethod, attribute: SmpAttribute, route: DirectedRoute) -> Smp {
        Smp {
            method,
            attribute,
            route,
            tid: 0,
            sl: ServiceLevel(0),
        }
    }

    #[test]
    fn nodeinfo_of_local_switch() {
        let topo = regular::ring(4, 1).unwrap();
        let mut fab = ManagedFabric::new(&topo, 2).unwrap();
        let resp = fab.send(&smp(
            SmpMethod::Get,
            SmpAttribute::NodeInfo,
            DirectedRoute::local(),
        ));
        let SmpResponse::NodeInfo { kind, guid } = resp else {
            panic!("unexpected response {resp:?}");
        };
        assert_eq!(kind, NodeKind::Switch { ports: 3 });
        assert_eq!(guid, fab.agent(fab.sm_switch()).guid);
    }

    #[test]
    fn directed_route_reaches_neighbors_and_hosts() {
        let topo = regular::ring(4, 1).unwrap();
        let sm_sw = topo.host_switch(iba_core::HostId(0));
        let (port, peer, _) = topo.switch_neighbors(sm_sw).next().unwrap();
        let mut fab = ManagedFabric::new(&topo, 2).unwrap();
        let resp = fab.send(&smp(
            SmpMethod::Get,
            SmpAttribute::NodeInfo,
            DirectedRoute::local().then(port),
        ));
        let SmpResponse::NodeInfo { kind, guid } = resp else {
            panic!();
        };
        assert_eq!(kind, NodeKind::Switch { ports: 3 });
        assert_eq!(guid, fab.agent(peer).guid);
        // Host port.
        let (hport, _) = topo.attached_hosts(sm_sw).next().unwrap();
        let resp = fab.send(&smp(
            SmpMethod::Get,
            SmpAttribute::NodeInfo,
            DirectedRoute::local().then(hport),
        ));
        assert!(matches!(
            resp,
            SmpResponse::NodeInfo {
                kind: NodeKind::Host,
                ..
            }
        ));
    }

    #[test]
    fn bad_routes_are_rejected() {
        let topo = regular::ring(4, 1).unwrap();
        let mut fab = ManagedFabric::new(&topo, 2).unwrap();
        // Port number beyond the switch.
        let resp = fab.send(&smp(
            SmpMethod::Get,
            SmpAttribute::NodeInfo,
            DirectedRoute::local().then(PortIndex(99)),
        ));
        assert_eq!(resp, SmpResponse::BadRoute);
        // Routing through a host.
        let (hport, _) = topo.attached_hosts(fab.sm_switch()).next().unwrap();
        let resp = fab.send(&smp(
            SmpMethod::Get,
            SmpAttribute::NodeInfo,
            DirectedRoute::local().then(hport).then(PortIndex(0)),
        ));
        assert_eq!(resp, SmpResponse::BadRoute);
    }

    #[test]
    fn lft_blocks_write_and_read_back() {
        let topo = regular::ring(4, 1).unwrap();
        let mut fab = ManagedFabric::new(&topo, 2).unwrap();
        let mut entries = vec![None; LFT_BLOCK];
        entries[5] = Some(PortIndex(2));
        entries[6] = Some(PortIndex(1));
        let resp = fab.send(&smp(
            SmpMethod::Set,
            SmpAttribute::LinearForwardingTable { block: 1, entries },
            DirectedRoute::local(),
        ));
        assert_eq!(resp, SmpResponse::Ok);
        let resp = fab.send(&smp(
            SmpMethod::Get,
            SmpAttribute::LinearForwardingTable {
                block: 1,
                entries: vec![],
            },
            DirectedRoute::local(),
        ));
        let SmpResponse::LftBlock { entries } = resp else {
            panic!();
        };
        assert_eq!(entries[5], Some(PortIndex(2)));
        assert_eq!(entries[6], Some(PortIndex(1)));
        assert_eq!(entries[7], None);
        // The write landed at linear addresses 69/70 of the agent table.
        assert_eq!(
            fab.agent(fab.sm_switch()).lft.get(Lid(69)),
            Some(PortIndex(2))
        );
    }

    #[test]
    fn rejected_lft_block_leaves_agent_untouched() {
        // Regression: a block with a bad entry in the *middle* used to be
        // applied entry by entry, leaving the leading half written when
        // the agent bailed. The apply must be atomic.
        let topo = regular::ring(4, 1).unwrap();
        let mut fab = ManagedFabric::new(&topo, 2).unwrap();
        let mut entries = vec![None; LFT_BLOCK];
        entries[0] = Some(PortIndex(1));
        entries[1] = Some(PortIndex(2));
        entries[2] = Some(PortIndex(99)); // out of range for a 3-port switch
        entries[3] = Some(PortIndex(0));
        let resp = fab.send(&smp(
            SmpMethod::Set,
            SmpAttribute::LinearForwardingTable { block: 0, entries },
            DirectedRoute::local(),
        ));
        assert_eq!(resp, SmpResponse::Unsupported);
        // Nothing before (or after) the bad entry landed.
        let agent = fab.agent(fab.sm_switch());
        for lid in 0..LFT_BLOCK as u16 {
            assert_eq!(agent.lft.get(Lid(lid)), None, "lid {lid} half-written");
        }
        // An out-of-table block number is rejected outright. Before the
        // address validation, `(base + i) as u16` could wrap a huge
        // block number back into the table and silently clobber LID 0.
        let wrapping_block = (65536 / LFT_BLOCK) as u32; // base 65536 → wraps to 0
        assert!(wrapping_block as usize * LFT_BLOCK >= LFT_LEN);
        let mut entries = vec![None; LFT_BLOCK];
        entries[0] = Some(PortIndex(1));
        let resp = fab.send(&smp(
            SmpMethod::Set,
            SmpAttribute::LinearForwardingTable {
                block: wrapping_block,
                entries,
            },
            DirectedRoute::local(),
        ));
        assert_eq!(resp, SmpResponse::Unsupported);
        assert_eq!(
            fab.agent(fab.sm_switch()).lft.get(Lid(0)),
            None,
            "wrapped block write clobbered LID 0"
        );
    }

    #[test]
    fn oversized_lft_block_is_rejected_and_leaves_agent_untouched() {
        // A block carries 64 entries; a 65th fails the whole SMP rather
        // than being dropped after the first 64 are written.
        let topo = regular::ring(4, 1).unwrap();
        let mut fab = ManagedFabric::new(&topo, 2).unwrap();
        let entries = vec![Some(PortIndex(1)); LFT_BLOCK + 1];
        let resp = fab.send(&smp(
            SmpMethod::Set,
            SmpAttribute::LinearForwardingTable { block: 0, entries },
            DirectedRoute::local(),
        ));
        assert_eq!(resp, SmpResponse::Unsupported);
        let agent = fab.agent(fab.sm_switch());
        for lid in 0..=LFT_BLOCK as u16 {
            assert_eq!(agent.lft.get(Lid(lid)), None, "lid {lid} written");
        }
    }

    proptest! {
        /// To the SM an agent's LFT is still a table of `LFT_LEN`
        /// entries, however little of it the agent holds: random block
        /// `Set`s and `Get`s — near LID 0, around the top of the table
        /// and past it, with bad ports, oversized and all-`None` blocks —
        /// answer as a plain `LFT_LEN`-entry shadow does, a rejected
        /// `Set` changes nothing, and the agent holds entries exactly to
        /// the end of the highest block with one in it.
        #[test]
        fn prop_agent_lft_answers_like_a_full_table(
            ops in proptest::collection::vec(
                (any::<bool>(), 0u8..3, 0u32..1024, 0u8..8,
                 proptest::collection::vec(0u8..6, 0..=LFT_BLOCK), 0usize..LFT_BLOCK),
                1..40),
        ) {
            let topo = regular::ring(4, 1).unwrap(); // 3-port switches
            let mut fab = ManagedFabric::new(&topo, 2).unwrap();
            let sm_sw = fab.sm_switch();
            let mut shadow: Vec<Option<PortIndex>> = vec![None; LFT_LEN];
            let mut top = 0; // one past the highest address holding an entry
            let top_block = (LFT_LEN / LFT_BLOCK) as u32;
            for (get, near, raw_block, kind, raw, pos) in ops {
                let block = match near {
                    0 => raw_block % 4,
                    1 => top_block - 2 + raw_block % 6, // two in, four past
                    _ => raw_block % (top_block + 4),
                };
                let base = block as usize * LFT_BLOCK;
                if get {
                    let resp = fab.send(&smp(
                        SmpMethod::Get,
                        SmpAttribute::LinearForwardingTable { block, entries: vec![] },
                        DirectedRoute::local(),
                    ));
                    let SmpResponse::LftBlock { entries } = resp else {
                        return Err(proptest::TestCaseError::Fail(format!("{resp:?}")));
                    };
                    for (k, got) in entries.iter().enumerate() {
                        let want = shadow.get(base + k).copied().flatten();
                        prop_assert!(*got == want, "block {block} entry {k}: {got:?}");
                    }
                    continue;
                }
                let mut entries: Vec<Option<PortIndex>> =
                    raw.iter().map(|&v| (v < 3).then_some(PortIndex(v))).collect();
                match kind {
                    0 => entries.iter_mut().for_each(|e| *e = None),
                    1 if pos < entries.len() => entries[pos] = Some(PortIndex(3)),
                    2 => entries.resize(LFT_BLOCK + 1, Some(PortIndex(0))),
                    _ => {}
                }
                let accept = entries.len() <= LFT_BLOCK
                    && entries.iter().flatten().all(|p| p.0 < 3)
                    && (entries.iter().enumerate()).all(|(k, e)| e.is_none() || base + k < LFT_LEN);
                let before = fab.agent(sm_sw).lft.clone();
                let resp = fab.send(&smp(
                    SmpMethod::Set,
                    SmpAttribute::LinearForwardingTable { block, entries: entries.clone() },
                    DirectedRoute::local(),
                ));
                let want = if accept { SmpResponse::Ok } else { SmpResponse::Unsupported };
                prop_assert_eq!(resp, want);
                if accept {
                    for (k, e) in entries.iter().enumerate() {
                        if e.is_some() {
                            shadow[base + k] = *e;
                            top = top.max(base + k + 1);
                        }
                    }
                } else {
                    prop_assert_eq!(&fab.agent(sm_sw).lft, &before);
                }
                prop_assert_eq!(
                    fab.agent(sm_sw).lft.len(),
                    top.div_ceil(LFT_BLOCK) * LFT_BLOCK
                );
            }
            let lft = &fab.agent(sm_sw).lft;
            prop_assert_eq!(lft.linear_view(), shadow[..lft.len()].to_vec());
            prop_assert!(shadow[lft.len()..].iter().all(Option::is_none));
        }
    }

    #[test]
    fn port_info_reports_link_state() {
        // Ring switches have 3 ports: 2 links + 1 host — all up; a chain
        // end has a down port.
        let topo = regular::chain(2, 1).unwrap();
        let mut fab = ManagedFabric::new(&topo, 2).unwrap();
        let mut states = Vec::new();
        for p in 0..3 {
            let resp = fab.send(&smp(
                SmpMethod::Get,
                SmpAttribute::PortInfo { port: PortIndex(p) },
                DirectedRoute::local(),
            ));
            let SmpResponse::PortInfo { state } = resp else {
                panic!();
            };
            states.push(state);
        }
        assert!(
            states.contains(&PortState::Down),
            "chain end must have a down port"
        );
        assert!(states.contains(&PortState::Up));
    }

    #[test]
    fn sl2vl_rows_program_through_smps() {
        use iba_core::VirtualLane;
        let topo = regular::ring(4, 1).unwrap();
        let mut fab = ManagedFabric::new(&topo, 2).unwrap();
        let vls: Vec<VirtualLane> = (0..16).map(|sl| VirtualLane(sl % 2)).collect();
        let resp = fab.send(&smp(
            SmpMethod::Set,
            SmpAttribute::SlToVlMappingTable {
                input: PortIndex(0),
                output: PortIndex(1),
                vls: vls.clone(),
            },
            DirectedRoute::local(),
        ));
        assert_eq!(resp, SmpResponse::Ok);
        let agent = fab.agent(fab.sm_switch());
        assert_eq!(
            agent
                .sl2vl
                .vl_for(PortIndex(0), PortIndex(1), iba_core::ServiceLevel(3)),
            VirtualLane(1)
        );
        // Unprogrammed rows keep the power-on default (VL0).
        assert_eq!(
            agent
                .sl2vl
                .vl_for(PortIndex(1), PortIndex(0), iba_core::ServiceLevel(3)),
            VirtualLane(0)
        );
        // Short rows are rejected.
        let resp = fab.send(&smp(
            SmpMethod::Set,
            SmpAttribute::SlToVlMappingTable {
                input: PortIndex(0),
                output: PortIndex(1),
                vls: vec![VirtualLane(0); 3],
            },
            DirectedRoute::local(),
        ));
        assert_eq!(resp, SmpResponse::Unsupported);
    }

    #[test]
    fn failed_links_block_smps_and_report_down() {
        let topo = regular::ring(4, 1).unwrap();
        let sm_sw = topo.host_switch(iba_core::HostId(0));
        let (port, peer, _) = topo.switch_neighbors(sm_sw).next().unwrap();
        let mut fab = ManagedFabric::new(&topo, 2).unwrap();
        fab.fail_link(sm_sw, peer).unwrap();
        // The directed route over the dead link falls off the fabric...
        let resp = fab.send(&smp(
            SmpMethod::Get,
            SmpAttribute::NodeInfo,
            DirectedRoute::local().then(port),
        ));
        assert_eq!(resp, SmpResponse::BadRoute);
        // ...and PortInfo on the local end reports Down.
        let resp = fab.send(&smp(
            SmpMethod::Get,
            SmpAttribute::PortInfo { port },
            DirectedRoute::local(),
        ));
        assert_eq!(
            resp,
            SmpResponse::PortInfo {
                state: PortState::Down
            }
        );
        // Restoring the link brings both back.
        fab.restore_link(sm_sw, peer).unwrap();
        assert!(matches!(
            fab.send(&smp(
                SmpMethod::Get,
                SmpAttribute::NodeInfo,
                DirectedRoute::local().then(port),
            )),
            SmpResponse::NodeInfo { .. }
        ));
        // Unknown links are rejected.
        assert!(fab.fail_link(sm_sw, sm_sw).is_err());
        assert!(fab.fail_link(SwitchId(99), peer).is_err());
    }

    #[test]
    fn guids_are_distinct() {
        let topo = regular::ring(8, 1).unwrap();
        let fab = ManagedFabric::new(&topo, 2).unwrap();
        let mut guids: Vec<u64> = topo.switch_ids().map(|s| fab.agent(s).guid).collect();
        guids.sort();
        guids.dedup();
        assert_eq!(guids.len(), 8);
    }
}
