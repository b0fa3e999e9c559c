//! The host side of the model: generation, scripted replay, injection.

use super::*;
use iba_core::Lid;

impl<'a> Shard<'a> {
    /// Switch trace-driven mode on: clear the synthetic generators and
    /// install the script (validated by the caller).
    pub(crate) fn set_script(&mut self, script: &'a TrafficScript) {
        for h in &mut self.hosts {
            h.gen = None;
        }
        self.script = Some(script);
    }

    pub(super) fn on_generate(&mut self, now: SimTime, host: HostId) {
        // APM migration: while any link is down, new packets address the
        // alternate path set, steering them off the primary tree without
        // waiting for the SM.
        let migrate = self.recovery == RecoveryPolicy::ApmMigrate && self.active_faults > 0;
        let h = &mut self.hosts[host.index()];
        let gp = h.gen.as_mut().expect("synthetic mode").generate();
        let dlid = h.dlid(&self.routing, gp.dst, gp.adaptive, migrate);
        self.enqueue_generated(now, host, gp.dst, dlid, gp.sl, gp.size_bytes);

        let dt = self.hosts[host.index()]
            .gen
            .as_mut()
            .expect("synthetic mode")
            .next_interarrival_ns();
        if now.plus_ns(dt) < self.gen_deadline {
            let ent = self.ent_host(host);
            self.sched(
                now.plus_ns(dt),
                CLASS_GENERATE,
                ent,
                Event::Generate { host },
            );
        }
        self.try_inject(now, host);
    }

    /// The next scripted injection (the builder rejects scripts on more
    /// than one shard).
    pub(super) fn on_generate_scripted(&mut self, now: SimTime, idx: usize) {
        let script = self.script.expect("scripted mode");
        let entry = script.packets()[idx];
        // Scripted path sets are explicit traces and are honoured as
        // written even under ApmMigrate; only the tables may be swapped
        // by an SM re-sweep.
        let alternate = matches!(entry.path_set, PathSet::Alternate);
        let h = &mut self.hosts[entry.src.index()];
        let dlid = h.dlid(&self.routing, entry.dst, entry.adaptive, alternate);
        self.enqueue_generated(now, entry.src, entry.dst, dlid, entry.sl, entry.size_bytes);
        if let Some(next) = script.packets().get(idx + 1) {
            if next.at < self.gen_deadline {
                let ent = self.ent_coord();
                self.sched(
                    next.at,
                    CLASS_GENERATE,
                    ent,
                    Event::GenerateScripted { idx: idx + 1 },
                );
            }
        }
        self.try_inject(now, entry.src);
    }

    /// Create the packet and place it in the source queue (or drop it at
    /// a full finite queue). The id packs `(source host, per-host
    /// sequence)`, so it is independent of the interleaving of other
    /// hosts' generators across shards.
    fn enqueue_generated(
        &mut self,
        now: SimTime,
        host: HostId,
        dst: HostId,
        dlid: Lid,
        sl: iba_core::ServiceLevel,
        size_bytes: u32,
    ) {
        let h = &mut self.hosts[host.index()];
        let id = PacketId(((host.0 as u64) << 40) | h.next_seq);
        let packet = Packet {
            id,
            src: host,
            dst,
            dlid,
            sl,
            size_bytes,
            generated_at: now,
            seq: h.next_seq,
            hops: 0,
            escape_uses: 0,
        };
        h.next_seq += 1;
        let sw = h.attached_switch;
        let queue_full = self
            .config
            .host_queue_capacity
            .is_some_and(|cap| h.queue.len() >= cap);
        if !queue_full {
            h.queue.push_back(packet);
        }
        self.stats.on_generated(now);
        emit(&mut self.observers, now, sw, || FlightEvent::Generated {
            packet: id,
            host,
        });
        if queue_full {
            // Finite CA send queue: the new packet is discarded.
            self.stats.on_source_drop();
            emit(&mut self.observers, now, sw, || FlightEvent::Dropped {
                packet: id,
                cause: DropCause::SourceQueueFull,
            });
        }
    }

    pub(super) fn try_inject(&mut self, now: SimTime, host: HostId) {
        let h = &mut self.hosts[host.index()];
        if h.tx_busy_until > now {
            return; // a TryInject is already scheduled at tx_busy_until
        }
        let Some(front) = h.queue.front() else {
            return;
        };
        let vl = VirtualLane(front.sl.0 % self.config.data_vls);
        let need = front.credits();
        if h.credits[vl.index()] < need {
            return; // woken again by CreditReturn
        }
        let packet = h.queue.pop_front().expect("checked above");
        let traced_id = packet.id;
        h.credits[vl.index()] -= need;
        let ser = self.config.phys.serialization_ns(packet.size_bytes);
        h.tx_busy_until = now.plus_ns(ser);
        let queue_len = h.queue.len();
        let sw = h.attached_switch;
        let (_, port) = self.topo.host_attachment(host);
        self.stats.on_injected(queue_len);
        emit(&mut self.observers, now, sw, || FlightEvent::Injected {
            packet: traced_id,
            host,
        });
        let ent = self.ent_host(host);
        self.sched(
            now.plus_ns(self.config.phys.propagation_ns),
            CLASS_HEADER_ARRIVE,
            ent,
            Event::HeaderArrive {
                sw,
                port,
                vl,
                packet,
            },
        );
        self.sched(
            now.plus_ns(ser),
            CLASS_TRY_INJECT,
            ent,
            Event::TryInject { host },
        );
    }
}

impl HostState {
    /// The DLID a new packet for `dst` carries: under source-selected
    /// multipath the next address of the destination's range (each a
    /// distinct fixed path, rotated per source), otherwise the
    /// deterministic or adaptive address of the primary path set or —
    /// APM migration, scripted alternate entries — of the alternate one.
    fn dlid(&mut self, tables: &FaTables, dst: HostId, adaptive: bool, alternate: bool) -> Lid {
        match tables.source_multipath() {
            Some(x) => {
                let offset = self.mp_cursor % x;
                self.mp_cursor = (self.mp_cursor + 1) % x;
                (tables.lid_map().lid_for(dst, offset)).expect("offset within the LMC range")
            }
            None if alternate => (tables.apm_dlid(dst, adaptive))
                .expect("APM tables checked when faults were armed or the script validated"),
            None => tables
                .dlid(dst, adaptive)
                .expect("validated at construction"),
        }
    }
}
