//! The sampling probes — the telemetry tick and the stall watchdog:
//! they read model state by nature, so this is the one file of the
//! model that names a listener.

use super::*;

impl Shard<'_> {
    /// Schedule the first tick of each sampling probe that is armed.
    /// Both ride the event queue like everything else, so their sampling
    /// points are serialized deterministically across backends; a run
    /// without them schedules nothing. (The builder rejects a watchdog
    /// on more than one shard.)
    pub(super) fn prime_ticks(&mut self) {
        let Some(o) = self.observers.as_deref() else {
            return;
        };
        let telemetry = o.telemetry.as_ref().map(|t| t.cadence_ns());
        let watchdog = o.recorder.as_ref().and_then(|r| r.opts().watchdog);
        if let Some(every_ns) = telemetry {
            self.tick(SimTime::from_ns(every_ns), Event::TelemetrySample);
        }
        if let Some(wd) = watchdog {
            self.tick(SimTime::from_ns(wd.check_every_ns), Event::WatchdogCheck);
        }
    }

    /// Schedule a probe tick, unless it falls past the horizon.
    fn tick(&mut self, at: SimTime, ev: Event) {
        if at <= self.config.horizon() {
            let ent = self.ent_coord();
            self.sched(at, CLASS_PROBE, ent, ev);
        }
    }

    /// Take one telemetry sample, hand it to the sink, and reschedule
    /// the probe one cadence later (while the horizon allows). A shard
    /// samples only the switches it owns (the merge concatenates the
    /// shards' slices).
    pub(super) fn on_telemetry_sample(&mut self, now: SimTime) {
        let (part, id, nvls) = (&*self.part, self.id, self.config.data_vls);
        let Some(Observers {
            telemetry: Some(t), ..
        }) = self.observers.as_deref_mut()
        else {
            return;
        };
        let switches = self.switches.iter().enumerate();
        let owned = switches.filter(|(s, _)| part.shard_of_switch(SwitchId(*s as u16)) == id);
        let lanes = owned.flat_map(|(s, st)| {
            let lane = move |vl| st.inputs.iter().map(move |ip| &ip.vls[vl as usize]);
            (0..nvls).map(move |vl| (SwitchId(s as u16), VirtualLane(vl), lane(vl)))
        });
        t.record_sample(now, lanes);
        let next = now.plus_ns(t.cadence_ns());
        self.tick(next, Event::TelemetrySample);
    }

    /// One stall-watchdog pass: check every (switch, input port, VL)
    /// buffer for forward progress, classify stalled buffers by the
    /// liveness of their escape path, and reschedule one cadence later
    /// (while the horizon allows). Sweeps every switch: the builder
    /// rejects a watchdog on more than one shard.
    pub(super) fn on_watchdog_check(&mut self, now: SimTime) {
        let Some(r) = self.observers.as_deref().and_then(|o| o.recorder.as_ref()) else {
            return;
        };
        let Some(wd) = r.opts().watchdog else {
            return;
        };
        if !r.frozen() {
            let nports = self.topo.ports_per_switch() as usize;
            let nvls = self.config.data_vls as usize;
            for si in 0..self.switches.len() {
                for ip in 0..nports {
                    for vl in 0..nvls {
                        self.watchdog_check_buffer(
                            now,
                            SwitchId(si as u16),
                            ip,
                            vl,
                            wd.stall_after_ns,
                        );
                    }
                }
            }
        }
        self.tick(now.plus_ns(wd.check_every_ns), Event::WatchdogCheck);
    }

    /// Check one buffer: stalled means occupied, not mid-transmission,
    /// head past its routing delay, and no forward progress for
    /// `stall_after_ns`. A stalled buffer is classified by its head
    /// packet's *escape* path (the deadlock-freedom invariant guarantees
    /// escape queues drain, so a lively escape path means the stall
    /// resolves); a suspected wedge logs a [`FlightEvent::Stall`] and
    /// fires the freeze trigger.
    fn watchdog_check_buffer(
        &mut self,
        now: SimTime,
        sw: SwitchId,
        ip: usize,
        vl: usize,
        stall_after_ns: u64,
    ) {
        let st = &self.switches[sw.index()];
        let buf = &st.inputs[ip].vls[vl];
        if buf.is_empty() || buf.has_in_flight() {
            return;
        }
        let head = buf.get(0);
        if head.ready_at >= now {
            // Still in the routing pipeline (the probe of a timestamp
            // runs before its arbitration pass, so the head of
            // `ready_at == now` has not been offered yet): not
            // stall-eligible.
            return;
        }
        let op = self.routing.route_by_id(head.route).escape;
        let Some(Observers {
            recorder: Some(r), ..
        }) = self.observers.as_deref_mut()
        else {
            return;
        };
        let waited = r.stalled_for(sw, ip, vl, now);
        if waited < stall_after_ns {
            return;
        }
        let escape_link_up = st.link_up(op.index());
        let out = &st.outputs[op.index()];
        let escape_streaming = out.busy_until > now;
        let out_vl = st.sl2vl.vl_for(PortIndex(ip as u8), op, head.packet.sl);
        let escape_credits_ok = match out.credits.as_ref() {
            None => true,
            Some(cs) => cs[out_vl.index()] >= head.packet.credits(),
        };
        let packet_id = head.packet.id;
        let since_return = r.last_credit_return_at(sw, op).map(|t| now.since(t));
        let class = classify_stall(
            escape_link_up,
            escape_streaming,
            escape_credits_ok,
            since_return,
            stall_after_ns,
        );
        if r.should_log_stall(sw, ip, vl, class) {
            r.record(
                sw,
                now,
                FlightEvent::Stall {
                    port: PortIndex(ip as u8),
                    vl: VirtualLane(vl as u8),
                    packet: packet_id,
                    waited_ns: waited,
                    class,
                },
            );
            if class == StallClass::SuspectedWedge {
                r.trigger(now, TriggerCause::SuspectedWedge, Some(sw), Some(packet_id));
            }
        }
    }
}
