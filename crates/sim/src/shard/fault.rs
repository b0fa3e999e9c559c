//! Faults and recovery: port masks, credit resync, switch death, the
//! re-sweep and re-routing of what is buffered.

use super::*;

impl Shard<'_> {
    /// Arm a link-fault schedule and the recovery policy answering it.
    ///
    /// Fails when a schedule entry names a link the topology does not
    /// have, or when `ApmMigrate` is requested without APM tables.
    pub(crate) fn arm_faults(
        &mut self,
        schedule: &FaultSchedule,
        policy: RecoveryPolicy,
        resweep_latency_ns: u64,
    ) -> Result<(), IbaError> {
        if self.primed {
            return Err(IbaError::InvalidConfig(
                "fault schedule must be armed before the simulation starts".into(),
            ));
        }
        if policy == RecoveryPolicy::ApmMigrate && !self.routing.has_apm() {
            return Err(IbaError::InvalidConfig(
                "ApmMigrate recovery requires APM tables (FaRouting::build_with_apm)".into(),
            ));
        }
        self.faults.clear();
        for (i, e) in schedule.events().iter().enumerate() {
            let n = self.topo.num_switches();
            if e.a.index() >= n || e.b.index() >= n {
                return Err(IbaError::InvalidConfig(format!(
                    "fault entry {i}: switch out of range (topology has {n} switches)"
                )));
            }
            let (pa, pb) = match e.kind {
                // A switch fault names no link; the affected ports are
                // enumerated from the topology when the fault fires.
                FaultKind::SwitchDown | FaultKind::SwitchUp => (PortIndex(0), PortIndex(0)),
                FaultKind::LinkDown | FaultKind::LinkUp => {
                    let (Some(pa), Some(pb)) = (
                        self.topo.port_towards(e.a, e.b),
                        self.topo.port_towards(e.b, e.a),
                    ) else {
                        return Err(IbaError::InvalidConfig(format!(
                            "fault entry {i}: no link {}–{} in the topology",
                            e.a, e.b
                        )));
                    };
                    (pa, pb)
                }
            };
            self.faults.push(ResolvedFault {
                at: e.at,
                kind: e.kind,
                a: e.a,
                pa,
                b: e.b,
                pb,
            });
        }
        self.recovery = policy;
        self.resweep_latency_ns = resweep_latency_ns;
        Ok(())
    }

    /// Raise the fault-mask depth of one port. Returns `true` when the
    /// port transitioned from live to masked. Masks are global state:
    /// every shard applies every fault's masks, so hot-path `link_up`
    /// reads never cross the partition.
    fn mask_port(&mut self, s: SwitchId, p: PortIndex, by_switch: bool) -> bool {
        let st = &mut self.switches[s.index()];
        st.down_depth[p.index()] += 1;
        if by_switch {
            st.switch_down_depth[p.index()] += 1;
        }
        let transitioned = st.down_depth[p.index()] == 1;
        if transitioned {
            st.live_ports &= !(1 << p.index());
        }
        transitioned
    }

    /// Lower the fault-mask depth of one port. Returns `true` when the
    /// port transitioned from masked back to live (overlapping faults
    /// keep it masked until the last one clears).
    fn unmask_port(&mut self, s: SwitchId, p: PortIndex, by_switch: bool) -> bool {
        let st = &mut self.switches[s.index()];
        let was = st.down_depth[p.index()];
        st.down_depth[p.index()] = was.saturating_sub(1);
        if by_switch {
            st.switch_down_depth[p.index()] = st.switch_down_depth[p.index()].saturating_sub(1);
        }
        let live = was == 1;
        if live {
            st.live_ports |= 1 << p.index();
        }
        live
    }

    /// Re-synchronize the `s → peer` sender-side credit counters after
    /// link retraining (flow-control reset); space held by residencies
    /// still draining comes back through their normal CreditReturns.
    ///
    /// `s` and `peer` may live in different shards, so this is a
    /// two-phase protocol: the receiver's owner snapshots free space and
    /// sends it with the link propagation delay; the sender's owner
    /// zeroes the counters and discards credit returns until the
    /// snapshot lands (their space is already counted in it). Class
    /// order Fault < CreditResync < CreditReturn makes the handoff
    /// exact at every timestamp.
    fn resync_link_credits(
        &mut self,
        now: SimTime,
        s: SwitchId,
        p: PortIndex,
        peer: SwitchId,
        pp: PortIndex,
    ) {
        if self.owns_switch(peer) {
            let free: Box<InlineVec<Credits, 16>> = Box::new(
                self.switches[peer.index()].inputs[pp.index()]
                    .vls
                    .iter()
                    .map(|b| b.free())
                    .collect(),
            );
            let at = now.plus_ns(self.config.phys.propagation_ns);
            let ent = self.ent_switch(peer);
            self.sched(
                at,
                CLASS_CREDIT_RESYNC,
                ent,
                Event::CreditResync {
                    sw: s,
                    port: p,
                    free,
                },
            );
        }
        if self.owns_switch(s) {
            if let Some(cs) = self.switches[s.index()].outputs[p.index()].credits.as_mut() {
                for c in cs.iter_mut() {
                    *c = Credits::ZERO;
                }
            }
            let ports = self.topo.ports_per_switch() as usize;
            self.resync_pending[s.index() * ports + p.index()] = true;
        }
    }

    /// The receiver's credit snapshot lands at the sender: install it, lift the stale-return discard, and give
    /// the revived output a chance to arbitrate. Applying a snapshot to
    /// a port that died again while it was on the wire is harmless —
    /// arbitration re-checks `link_up`, and the next link-up restarts
    /// the protocol.
    pub(super) fn on_credit_resync(
        &mut self,
        sw: SwitchId,
        port: PortIndex,
        free: &InlineVec<Credits, 16>,
    ) {
        let ports = self.topo.ports_per_switch() as usize;
        self.resync_pending[sw.index() * ports + port.index()] = false;
        if let Some(cs) = self.switches[sw.index()].outputs[port.index()]
            .credits
            .as_mut()
        {
            for (c, f) in cs.iter_mut().zip(free.iter()) {
                *c = *f;
            }
        }
        self.switches[sw.index()].unblock_waiters(port.index());
        self.wake(sw);
    }

    /// Apply one fault-schedule entry. Downing a link masks both port
    /// directions; downing a switch atomically masks every wired port of
    /// the switch in both directions (in-flight packets toward it are
    /// lost, its own buffered packets are stranded until it returns — a
    /// power-cycled switch that kept its buffer RAM, chosen so pending
    /// buffer residencies stay valid). The matching up event restores the
    /// ports and re-synchronizes sender-side credit counters from the
    /// receiver buffers. Redundant events (downing a dead link, upping a
    /// live one) are ignored. Every shard executes every fault (masks
    /// are global); the stats count is taken by the shard owning the
    /// first-named switch.
    pub(super) fn on_fault(&mut self, now: SimTime, idx: usize) {
        let f = self.faults[idx];
        for st in &mut self.switches {
            st.unblock_all();
        }
        match f.kind {
            FaultKind::LinkDown => {
                if !self.switches[f.a.index()].link_up(f.pa.index()) {
                    return;
                }
                self.mask_port(f.a, f.pa, false);
                self.mask_port(f.b, f.pb, false);
                self.active_faults += 1;
                if self.owns_switch(f.a) {
                    self.stats.on_fault(now);
                }
                for (s, port) in [(f.a, f.pa), (f.b, f.pb)] {
                    emit(&mut self.observers, now, s, || FlightEvent::LinkDown {
                        port,
                    });
                }
            }
            FaultKind::LinkUp => {
                if self.switches[f.a.index()].link_up(f.pa.index()) {
                    return;
                }
                self.unmask_port(f.a, f.pa, false);
                self.unmask_port(f.b, f.pb, false);
                self.active_faults -= 1;
                for (s, port) in [(f.a, f.pa), (f.b, f.pb)] {
                    emit(&mut self.observers, now, s, || FlightEvent::LinkUp { port });
                }
                for (s, p, peer, pp) in [(f.a, f.pa, f.b, f.pb), (f.b, f.pb, f.a, f.pa)] {
                    self.resync_link_credits(now, s, p, peer, pp);
                }
            }
            FaultKind::SwitchDown => self.apply_switch_fault(now, f.a, true),
            FaultKind::SwitchUp => self.apply_switch_fault(now, f.a, false),
        }
        if self.recovery == RecoveryPolicy::SmResweep {
            // A re-sweep replaces the tables mid-run, a fabric state
            // mutation like the fault that triggered it: replicated on
            // the coordinator entity, ranked first at its instant.
            let (at, ent) = (now.plus_ns(self.resweep_latency_ns), self.ent_coord());
            self.sched(at, CLASS_FAULT, ent, Event::ResweepDone);
        }
    }

    /// Down or up a whole switch: every inter-switch link is masked or
    /// unmasked in both directions, every host-facing port on the switch
    /// side. At switch-up, each link whose two sides both came back live
    /// gets its sender credits re-synchronized; attached hosts get their
    /// credit counters rebuilt from the receiver's free space — credits
    /// they spent on packets that died at the masked port never return,
    /// and without the resync they would be leaked forever. (Hosts are
    /// co-located with their switch, so the host rebuild is instant.)
    fn apply_switch_fault(&mut self, now: SimTime, s: SwitchId, down: bool) {
        if self.dead_switches[s.index()] == down {
            return; // redundant (already in the requested state)
        }
        self.dead_switches[s.index()] = down;
        if down {
            self.active_faults += 1;
            if self.owns_switch(s) {
                self.stats.on_fault(now);
            }
        } else {
            self.active_faults -= 1;
        }
        emit(&mut self.observers, now, s, || match down {
            true => FlightEvent::SwitchDown { sw: s },
            false => FlightEvent::SwitchUp { sw: s },
        });
        let neighbors: InlineVec<(PortIndex, SwitchId, PortIndex), MAX_PORTS> =
            self.topo.switch_neighbors(s).collect();
        for &(p, peer, pp) in neighbors.iter() {
            if down {
                self.mask_port(s, p, true);
                if self.mask_port(peer, pp, true) {
                    emit(&mut self.observers, now, peer, || FlightEvent::LinkDown {
                        port: pp,
                    });
                }
            } else {
                let live_s = self.unmask_port(s, p, true);
                let live_peer = self.unmask_port(peer, pp, true);
                if live_peer {
                    emit(&mut self.observers, now, peer, || FlightEvent::LinkUp {
                        port: pp,
                    });
                }
                if live_s && live_peer {
                    self.resync_link_credits(now, s, p, peer, pp);
                    self.resync_link_credits(now, peer, pp, s, p);
                }
            }
        }
        let attached: InlineVec<(PortIndex, HostId), MAX_PORTS> =
            self.topo.attached_hosts(s).collect();
        for &(p, h) in attached.iter() {
            if down {
                self.mask_port(s, p, true);
            } else if self.unmask_port(s, p, true) && self.owns_switch(s) {
                let free: InlineVec<Credits, 16> = self.switches[s.index()].inputs[p.index()]
                    .vls
                    .iter()
                    .map(|b| b.free())
                    .collect();
                for (c, f) in self.hosts[h.index()].credits.iter_mut().zip(free.iter()) {
                    *c = *f;
                }
                self.try_inject(now, h);
            }
        }
        if !down && self.owns_switch(s) {
            self.wake(s);
        }
    }

    /// The SM re-sweep completes. With every fault cleared the primary
    /// tables are reinstated (and certified, as an observation).
    /// Otherwise the one re-sweep ([`TableSource::resweep_tables`]) runs
    /// on the degraded topology the live port masks describe: its tables
    /// are installed and buffered packets re-routed against them — or,
    /// when the fabric is disconnected or the tables do not certify, the
    /// sweep is refused, the live tables stay and nothing moves. Every
    /// shard derives the same tables at the same instant; shard 0 counts
    /// the sweep and its verdict, every shard marks the install for its
    /// own `drops_after_recovery`.
    pub(super) fn on_resweep_done(&mut self, now: SimTime) {
        let counts = self.id == 0;
        let certified = if self.active_faults == 0 {
            self.routing = Cow::Borrowed(self.source.tables());
            counts && self.routing.certify_escape(self.topo, false).is_ok()
        } else {
            // The fabric the live port masks describe, in *physical* id
            // order so the LID space is unchanged and DLIDs of in-flight
            // packets stay valid (the SMP-level SM pipeline discovers in
            // BFS order and correlates by GUID; the in-sim re-sweep
            // models its outcome, not its numbering). Errors when the
            // faults disconnected the fabric.
            let degraded =
                (self.topo).without_links(|s, p, _| !self.switches[s.index()].link_up(p.index()));
            match degraded.map(|d| self.source.resweep_tables(&d)) {
                Ok(Ok(tables)) => self.routing = Cow::Owned(tables),
                refused => {
                    if counts {
                        self.stats.on_resweep(false);
                        if refused.is_ok() {
                            self.stats.on_escape_certification(false);
                        }
                    }
                    return;
                }
            }
            true
        };
        if counts {
            self.stats.on_resweep(true);
            self.stats.on_escape_certification(certified);
        }
        self.stats.on_recovery_installed(now);
        self.reroute_buffered();
        for s in 0..self.switches.len() {
            let sw = SwitchId(s as u16);
            if self.owns_switch(sw) {
                self.wake(sw);
            }
        }
    }

    /// Point every not-in-flight buffered packet — still inside its
    /// routing delay or past it — at the freshly installed tables
    /// (packets routed before the sweep may hold options through a dead
    /// link and would stall forever, and their route ids do not resolve
    /// on the new tables). A sweep installs tables only for a connected
    /// fabric over the unchanged LID space, so every buffered DLID
    /// resolves, as it must for the next header to arrive.
    fn reroute_buffered(&mut self) {
        let routing = &self.routing;
        for (si, st) in self.switches.iter_mut().enumerate() {
            let sw = SwitchId(si as u16);
            st.unblock_all();
            for input in st.inputs.iter_mut() {
                for buf in input.vls.iter_mut() {
                    buf.reroute_with(|p| {
                        routing
                            .route_id(sw, p.dlid)
                            .expect("forwarding tables are fully programmed")
                    });
                }
            }
        }
    }
}
