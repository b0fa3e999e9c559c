//! The switch datapath: a header arrives, arbitration forwards it
//! (`arbitrate` → `pick_for_input` → `pick_option` → `start_forward`),
//! its tail leaves, the credits come back.

use super::*;

impl Shard<'_> {
    /// Account one in-transit loss at `sw`.
    fn drop_in_transit(&mut self, now: SimTime, sw: SwitchId, id: PacketId, cause: DropCause) {
        self.stats.on_transit_drop(now, cause);
        emit(&mut self.observers, now, sw, || FlightEvent::Dropped {
            packet: id,
            cause,
        });
    }

    pub(super) fn on_header_arrive(
        &mut self,
        now: SimTime,
        sw: SwitchId,
        port: PortIndex,
        vl: VirtualLane,
        packet: Packet,
    ) {
        if !self.switches[sw.index()].link_up(port.index()) {
            // The link (or the whole receiving switch) died while the
            // packet was on the wire: with no receiver it is lost —
            // virtual cut-through has no retransmission below the
            // transport layer. The sender's stale credit counter is
            // re-synchronized at link-up.
            let cause = if self.switches[sw.index()].switch_down_depth[port.index()] > 0 {
                DropCause::SwitchDown
            } else {
                DropCause::LinkDown
            };
            self.drop_in_transit(now, sw, packet.id, cause);
            return;
        }
        let corrupted = self.corrupt_prob > 0.0
            && self.switch_corrupt_rngs[sw.index()].chance(self.corrupt_prob);
        if corrupted {
            // CRC failure at the receiver. The link is healthy, so the
            // space the packet would have occupied must still be
            // advertised back to the sender — dropping without the
            // return would leak credits from the upstream counter.
            self.drop_in_transit(now, sw, packet.id, DropCause::Corrupted);
            let upstream = self.topo.endpoint(sw, port).expect("input port is wired");
            let ent = self.ent_switch(sw);
            self.sched(
                now.plus_ns(self.config.phys.propagation_ns),
                CLASS_CREDIT_RETURN,
                ent,
                Event::CreditReturn {
                    target: upstream.node,
                    port: upstream.port,
                    vl,
                    credits: packet.credits(),
                },
            );
            return;
        }
        let id = packet.id;
        let ready_at = now.plus_ns(self.config.phys.routing_delay_ns);
        if let Some(o) = self.observers.as_deref_mut() {
            // Said before the push: whether the buffer was empty is the
            // one thing about an arrival its event has no field for.
            let into_empty =
                self.switches[sw.index()].inputs[port.index()].vls[vl.index()].is_empty();
            let ev = FlightEvent::Arrived {
                packet: id,
                port,
                vl,
            };
            o.event(now, sw, ev, into_empty);
        }
        // The forwarding-table pipeline is a constant delay, so its
        // result is resolved here and becomes visible to arbitration at
        // `ready_at` (`BufferedPacket::is_ready`); a table swap inside
        // the delay re-resolves it (`reroute_buffered`).
        let route = self
            .routing
            .route_id(sw, packet.dlid)
            .expect("forwarding tables are fully programmed");
        let st = &mut self.switches[sw.index()];
        let input = &mut st.inputs[port.index()];
        input.vls[vl.index()].push(packet, route, ready_at);
        input.resident += 1;
        st.occupied_inputs |= 1 << port.index();
        self.wake_ready(ready_at, sw, port);
    }

    pub(super) fn on_tx_done(
        &mut self,
        now: SimTime,
        sw: SwitchId,
        port: PortIndex,
        vl: VirtualLane,
        handle: SlotHandle,
        out: PortIndex,
    ) {
        let st = &mut self.switches[sw.index()];
        let input = &mut st.inputs[port.index()];
        let removed = input.vls[vl.index()]
            .remove_at(handle)
            .expect("tx-done packet still buffered");
        input.resident -= 1;
        debug_assert_eq!(
            input.resident as usize,
            input.vls.iter().map(|b| b.len()).sum::<usize>()
        );
        if input.resident == 0 {
            st.occupied_inputs &= !(1 << port.index());
        }
        // The read path and the output are free, and the buffer changed.
        st.unblock_input(port.index());
        st.unblock_waiters(out.index());
        emit(&mut self.observers, now, sw, || FlightEvent::TailLeft {
            packet: removed.packet.id,
            port,
            vl,
        });
        // Return the freed credits to whoever feeds this input port.
        let upstream = self.topo.endpoint(sw, port).expect("input port is wired");
        let ent = self.ent_switch(sw);
        self.sched(
            now.plus_ns(self.config.phys.propagation_ns),
            CLASS_CREDIT_RETURN,
            ent,
            Event::CreditReturn {
                target: upstream.node,
                port: upstream.port,
                vl,
                credits: removed.packet.credits(),
            },
        );
        self.wake(sw);
    }

    pub(super) fn on_credit_return(
        &mut self,
        now: SimTime,
        target: NodeRef,
        port: PortIndex,
        vl: VirtualLane,
        credits: Credits,
    ) {
        match target {
            NodeRef::Switch(s) => {
                if !self.switches[s.index()].link_up(port.index()) {
                    return; // the return was on the wire of a dead link
                }
                // A credit-resync snapshot is on the wire: this return's
                // space is already counted in it, so applying both would
                // double-count.
                let ports = self.topo.ports_per_switch() as usize;
                if self.resync_pending[s.index() * ports + port.index()] {
                    return;
                }
                let st = &mut self.switches[s.index()];
                let cap = self.config.vl_buffer_credits;
                if let Some(cs) = st.outputs[port.index()].credits.as_mut() {
                    // Clamp at capacity: after a link-up credit reset, a
                    // return already in flight before the fault could
                    // otherwise overshoot. A no-op in fault-free runs.
                    cs[vl.index()] = (cs[vl.index()] + credits).min(cap);
                }
                st.unblock_waiters(port.index());
                emit(&mut self.observers, now, s, || {
                    FlightEvent::CreditReturned {
                        port,
                        vl,
                        credits: credits.count(),
                    }
                });
                self.wake(s);
            }
            NodeRef::Host(h) => {
                // Clamp at capacity for the same reason as the switch
                // path: a switch-up resync rebuilds the host counter from
                // free space, and a return already on the wire would
                // otherwise overshoot. A no-op in fault-free runs.
                let cap = self.config.vl_buffer_credits;
                let c = &mut self.hosts[h.index()].credits[vl.index()];
                *c = (*c + credits).min(cap);
                self.try_inject(now, h);
            }
        }
    }

    /// One arbitration pass: one sweep, in round-robin order, of the
    /// occupied inputs something may have changed for, granting feasible
    /// (input, output) matches. A pass only consumes outputs, credits
    /// and read paths, so what a sweep could not grant a second sweep
    /// cannot either; of the one that used to follow a granting sweep
    /// only its cursor step is left.
    pub(super) fn arbitrate(&mut self, now: SimTime, sw: SwitchId) {
        if cfg!(debug_assertions) {
            self.assert_blocked_inputs_cannot_be_granted(now, sw);
        }
        let st = &self.switches[sw.index()];
        // Grants remove nothing, so the occupied set holds for the pass.
        let sweep = st.occupied_inputs & !st.blocked;
        self.empty_passes += u64::from(sweep == 0);
        let mut progress = false;
        for mut inputs in round_robin_split(sweep, st.rr_cursor) {
            while inputs != 0 {
                let ip = inputs.trailing_zeros() as usize;
                inputs &= inputs - 1;
                self.inputs_visited += 1;
                if self.switches[sw.index()].inputs[ip].read_busy_until > now {
                    self.switches[sw.index()].blocked |= 1 << ip;
                    continue;
                }
                self.looks += 1;
                match self.pick_for_input(now, sw, ip) {
                    Ok(d) => {
                        self.start_forward(now, sw, d);
                        progress = true;
                        self.grants += 1;
                    }
                    Err(mut examined) => {
                        let st = &mut self.switches[sw.index()];
                        st.blocked |= 1 << ip;
                        while examined != 0 {
                            st.waiters[examined.trailing_zeros() as usize] |= 1 << ip;
                            examined &= examined - 1;
                        }
                    }
                }
            }
        }
        let nports = self.topo.ports_per_switch() as usize;
        let st = &mut self.switches[sw.index()];
        st.rr_cursor = wrap(st.rr_cursor + 1 + usize::from(progress), nports);
    }

    /// Find one forwardable candidate in input port `ip`'s buffers, or
    /// report the outputs the failed look examined (one bit each). The
    /// look says what it decided — the grant, or each candidate nothing
    /// could take, which is where a stall is seen: the caller parks the
    /// input on exactly those outputs.
    pub(super) fn pick_for_input(
        &mut self,
        now: SimTime,
        sw: SwitchId,
        ip: usize,
    ) -> Result<Decision, u128> {
        let nvls = self.config.data_vls as usize;
        let start = self.switches[sw.index()].inputs[ip].vl_cursor;
        let verdicts = wants_verdicts(&self.observers);
        let adaptive_switch = self.routing.switch_adaptive(sw);
        let mut examined = 0;
        for k in 0..nvls {
            let vl = wrap(start + k, nvls);
            let cands = {
                let buf = &self.switches[sw.index()].inputs[ip].vls[vl];
                if buf.has_in_flight() {
                    continue;
                }
                let mut cands = buf.candidates(now, self.config.escape_order);
                if !adaptive_switch {
                    // A plain deterministic IBA switch (§4.2 mixed
                    // fabrics) has a single FIFO read point: no escape
                    // head, no pointer redirection.
                    cands.retain(|&(idx, _)| idx == 0);
                }
                cands
            };
            for &(idx, read_point) in &cands {
                let mut options = OptionOutcomes::default();
                let picked = self.pick_option(
                    now,
                    sw,
                    ip,
                    vl,
                    idx,
                    read_point,
                    verdicts.then_some(&mut options),
                );
                let buf = &self.switches[sw.index()].inputs[ip].vls[vl];
                let (in_port, lane) = (PortIndex(ip as u8), VirtualLane(vl as u8));
                match picked {
                    Ok(d) => {
                        emit(&mut self.observers, now, sw, || {
                            FlightEvent::RouteDecision {
                                packet: d.packet_id,
                                in_port,
                                vl: lane,
                                out_port: d.out_port,
                                via_escape: d.via_escape,
                                from_escape_head: read_point == ReadPoint::EscapeHead,
                                // How long the packet sat routed in the buffer
                                // before the crossbar granted it.
                                waited_ns: now.since(buf.get(idx).ready_at),
                                options,
                            }
                        });
                        // Advance the VL cursor past the served lane.
                        self.switches[sw.index()].inputs[ip].vl_cursor = wrap(vl + 1, nvls);
                        return Ok(d);
                    }
                    Err(outputs) => examined |= outputs,
                }
                if !options.is_empty() {
                    // Every candidate option was rejected.
                    emit(&mut self.observers, now, sw, || FlightEvent::Blocked {
                        packet: buf.get(idx).packet.id,
                        in_port,
                        vl: lane,
                        options,
                    });
                }
            }
        }
        Err(examined)
    }

    /// §4.3/§4.4 output selection for one candidate packet: adaptive
    /// options first (minimal paths — the livelock-avoidance preference),
    /// gated by adaptive-queue credits; the escape option as fallback,
    /// gated by total credits.
    ///
    /// When somebody wants them, `verdicts` collects one
    /// [`OptionOutcome`] per candidate — including, when an adaptive
    /// option wins, the *observed* fate the escape option would have had
    /// — so a recorded decision carries its full alternative set and
    /// telemetry reads its stall causes off the same list. Noting a
    /// verdict never touches the RNG or any control flow, so observed
    /// runs stay bit-identical to bare ones.
    ///
    /// A candidate nothing can take comes back as the set of outputs the
    /// look examined: until one of them changes, looking again is futile.
    #[allow(clippy::too_many_arguments)]
    fn pick_option(
        &mut self,
        now: SimTime,
        sw: SwitchId,
        ip: usize,
        vl: usize,
        idx: usize,
        read_point: ReadPoint,
        mut verdicts: Option<&mut OptionOutcomes>,
    ) -> Result<Decision, u128> {
        let collecting = verdicts.is_some();
        let mut note = |port: PortIndex, escape: bool, verdict: OptionVerdict| {
            if let Some(o) = verdicts.as_deref_mut() {
                o.push(OptionOutcome {
                    port,
                    escape,
                    verdict,
                });
            }
        };
        let cap = self.config.vl_buffer_credits;
        let st = &self.switches[sw.index()];
        let bp = st.inputs[ip].vls[vl].get(idx);
        let need = bp.packet.credits();
        let sl = bp.packet.sl;
        // A route id resolves on the tables that issued it (checked in
        // every build); every residency a look can reach was re-resolved
        // at the last swap.
        let route = self.routing.route_by_id(bp.route);
        let mut examined = 1u128 << route.escape.index();

        let adaptive_allowed =
            read_point == ReadPoint::AdaptiveHead || self.config.adaptive_from_escape_head;

        // Collect feasible adaptive options with their free adaptive-queue
        // credits (host ports are infinite sinks). At most one option per
        // switch port, so the list lives on the stack — arbitration runs
        // once per event and must not allocate.
        let mut feasible: InlineVec<(PortIndex, VirtualLane, u32), MAX_PORTS> = InlineVec::new();
        for &op in &route.adaptive {
            if !adaptive_allowed {
                note(op, false, OptionVerdict::AdaptiveRestricted);
                continue;
            }
            examined |= 1 << op.index();
            if !st.link_up(op.index()) {
                // Dead port: graceful degradation (§4.3).
                note(op, false, OptionVerdict::DeadPort);
                continue;
            }
            let out = &st.outputs[op.index()];
            if out.busy_until > now {
                note(op, false, OptionVerdict::LinkBusy);
                continue;
            }
            let out_vl = st.sl2vl.vl_for(PortIndex(ip as u8), op, sl);
            let avail = match out.credits.as_ref() {
                None => u32::MAX,
                Some(cs) => {
                    let share = cs[out_vl.index()].adaptive_share(cap);
                    if share < need {
                        note(op, false, OptionVerdict::NoAdaptiveCredit);
                        continue;
                    }
                    share.count()
                }
            };
            feasible.push((op, out_vl, avail));
        }

        let adaptive_pick: Option<(PortIndex, VirtualLane, u32)> = match self.config.selection {
            SelectionPolicy::CreditWeighted => {
                // Most free adaptive-queue space wins; random tie-break
                // among equals keeps the load balanced.
                feasible.iter().map(|f| f.2).max().map(|best| {
                    let ties: InlineVec<_, MAX_PORTS> =
                        feasible.iter().filter(|f| f.2 == best).copied().collect();
                    ties[self.switch_arb_rngs[sw.index()].below(ties.len())]
                })
            }
            SelectionPolicy::RandomAdaptive => (!feasible.is_empty())
                .then(|| feasible[self.switch_arb_rngs[sw.index()].below(feasible.len())]),
            SelectionPolicy::FirstFeasible => feasible.iter().min_by_key(|f| f.0).copied(),
        };
        if collecting {
            for f in feasible.iter() {
                let won = adaptive_pick.is_some_and(|p| p.0 == f.0);
                let verdict = match won {
                    true => OptionVerdict::Selected,
                    false => OptionVerdict::LostArbitration,
                };
                note(f.0, false, verdict);
            }
        }

        // Escape fallback: usable whenever the *total* credit count fits
        // the packet — it lands in the adaptive or escape region of the
        // downstream buffer depending on occupancy (§4.4). A severed
        // escape path leaves the packet waiting for recovery (an SM
        // re-sweep re-routes it; under other policies it stays until the
        // link returns).
        let op = route.escape;
        let escape = || {
            if !st.link_up(op.index()) {
                return Err(OptionVerdict::DeadPort);
            }
            let out = &st.outputs[op.index()];
            if out.busy_until > now {
                return Err(OptionVerdict::LinkBusy);
            }
            let out_vl = st.sl2vl.vl_for(PortIndex(ip as u8), op, sl);
            match out.credits.as_ref() {
                Some(cs) if cs[out_vl.index()] < need => Err(OptionVerdict::NoEscapeCredit),
                _ => Ok(out_vl),
            }
        };
        let (out_port, out_vl) = match adaptive_pick {
            Some((port, out_vl, _)) => {
                if collecting {
                    // The escape option was never consulted; the fate it
                    // *would* have had completes the candidate set. It
                    // is observed, not suffered: nobody tallies it as a
                    // stall.
                    let fate = escape().err();
                    note(op, true, fate.unwrap_or(OptionVerdict::LostArbitration));
                }
                (port, out_vl)
            }
            None => match escape() {
                Ok(out_vl) => {
                    note(op, true, OptionVerdict::Selected);
                    (op, out_vl)
                }
                Err(verdict) => {
                    note(op, true, verdict);
                    return Err(examined);
                }
            },
        };
        Ok(Decision {
            input: ip,
            vl,
            idx,
            handle: st.inputs[ip].vls[vl].handle_at(idx),
            packet_id: bp.packet.id,
            out_port,
            out_vl,
            via_escape: adaptive_pick.is_none(),
        })
    }

    /// Commit a forwarding decision: reserve the resources, update the
    /// packet, and schedule the downstream events.
    fn start_forward(&mut self, now: SimTime, sw: SwitchId, d: Decision) {
        let st = &mut self.switches[sw.index()];
        let buf = &mut st.inputs[d.input].vls[d.vl];

        // Copy the packet for the downstream hop, updating its counters
        // (the buffered original keeps its residency until TxDone).
        let (packet, ser) = {
            let bp = buf.get(d.idx);
            debug_assert_eq!(bp.packet.id, d.packet_id);
            let mut p = bp.packet;
            p.hops += 1;
            p.escape_uses += u32::from(d.via_escape);
            let ser = self.config.phys.serialization_ns(p.size_bytes);
            (p, ser)
        };
        buf.mark_in_flight(d.idx);
        st.inputs[d.input].read_busy_until = now.plus_ns(ser);
        st.blocked |= 1 << d.input; // until the `TxDone` frees the read path
        let out = &mut st.outputs[d.out_port.index()];
        out.busy_until = now.plus_ns(ser);
        out.busy_ns_total += ser;
        if let Some(cs) = out.credits.as_mut() {
            cs[d.out_vl.index()] -= packet.credits();
        }

        if d.via_escape {
            self.stats.on_escape_forward();
        } else {
            self.stats.on_adaptive_forward();
        }

        let prop = self.config.phys.propagation_ns;
        let ep = self
            .topo
            .endpoint(sw, d.out_port)
            .expect("output port is wired");
        let ent = self.ent_switch(sw);
        match ep.node {
            NodeRef::Switch(n) => {
                self.sched(
                    now.plus_ns(prop),
                    CLASS_HEADER_ARRIVE,
                    ent,
                    Event::HeaderArrive {
                        sw: n,
                        port: ep.port,
                        vl: d.out_vl,
                        packet,
                    },
                );
            }
            NodeRef::Host(h) => {
                self.sched(
                    now.plus_ns(ser + prop),
                    CLASS_DELIVER,
                    ent,
                    Event::Deliver { host: h, packet },
                );
            }
        }
        self.sched(
            now.plus_ns(ser),
            CLASS_TX_DONE,
            ent,
            Event::TxDone {
                sw,
                port: PortIndex(d.input as u8),
                vl: VirtualLane(d.vl as u8),
                handle: d.handle,
                out: d.out_port,
            },
        );
    }
}
