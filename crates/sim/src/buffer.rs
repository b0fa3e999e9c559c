//! The split adaptive/escape VL buffer (§4.4, Figure 2).
//!
//! Each virtual lane's physical input buffer is divided into two
//! *logical* queues: the first half (in buffer positions, i.e. credits)
//! is the **adaptive queue**, the second half the **escape queue**. The
//! whole VL is still managed as a single FIFO RAM — packets enter at the
//! tail and compact forward as earlier packets leave — but the buffer has
//! *two* connection points into the crossbar: one at the global head
//! (the adaptive-queue head) and one at the head of the escape region,
//! so escape-queue packets can be routed independently even when the
//! adaptive head is blocked. A multiplexer selects which of the two is
//! being read, so only one packet can stream out of a VL buffer at a
//! time.
//!
//! Because the two queues share one physical buffer, a packet initially
//! stored in the escape region *migrates* into the adaptive region as
//! packets ahead of it leave — the escape→adaptive transition that §3
//! shows is harmless under virtual cut-through.
//!
//! The in-order guard of §4.4 is also implemented here: deterministic
//! packets must leave the buffer in FIFO order among themselves. When
//! forwarding the escape head would violate that, the escape read point
//! is *redirected* to the paper's pointer target — the first
//! deterministic packet in the adaptive region — rather than blocked:
//! keeping the escape read point serviceable is what preserves the
//! deadlock-freedom induction ([`EscapeOrderPolicy`] selects between the
//! paper's strict pointer rule and a refined rule that lets adaptive
//! packets overtake).
//!
//! ## Storage layout
//!
//! Residencies live in fixed *slots* (pre-sized to the buffer's credit
//! capacity — a packet occupies at least one credit, so the slot array
//! can never overflow under correct flow control) and the FIFO is a
//! separate list of slot indices, each beside its packet's credits and
//! routing mode — all the two read points scan for. A `SlotHandle` —
//! slot index plus a generation counter — survives compaction, so a
//! delayed `TxDone` addresses its residency directly instead of
//! re-scanning the buffer for a packet id, and a handle left over from
//! a departed residency is detected rather than mis-resolved.
//! Compaction shifts only the small index list, not the buffered
//! packets.

use iba_core::{Credits, InlineVec, Packet, RoutingMode, SimTime};
use iba_routing::RouteId;

/// How the escape-head read point honours in-order delivery (§4.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EscapeOrderPolicy {
    /// The paper's literal rule: the first deterministic packet stored in
    /// the adaptive queue must be forwarded before *any* packet stored in
    /// the escape queue.
    Strict,
    /// Refined rule with the same ordering guarantee: only *deterministic*
    /// escape-head packets are held back (adaptive packets may overtake —
    /// they carry no ordering promise).
    DeterministicFifo,
}

/// One packet resident in a VL buffer.
#[derive(Clone, Debug)]
pub(crate) struct BufferedPacket {
    /// The packet itself.
    pub packet: Packet,
    /// Routing options, resolved at header arrival and visible to
    /// arbitration once the forwarding-table pipeline completes
    /// (`ready_at`): the id of a decode of the live tables
    /// (`FaRouting::route_id`), so a hop copies eight bytes and touches
    /// no reference count another thread's simulation shares. Resolves
    /// on the tables that issued it only — a table swap re-resolves it
    /// ([`VlBuffer::reroute_with`]).
    pub(crate) route: RouteId,
    /// When the routing pipeline result becomes available.
    pub(crate) ready_at: SimTime,
    /// Whether the packet is currently streaming out through the
    /// crossbar (still occupying space until its tail leaves).
    pub(crate) in_flight: bool,
}

impl BufferedPacket {
    /// Whether the packet can be considered by arbitration at `now`.
    pub(crate) fn is_ready(&self, now: SimTime) -> bool {
        !self.in_flight && self.ready_at <= now
    }
}

/// Which read point of the buffer a candidate was found at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ReadPoint {
    /// The global head — the adaptive-queue connection.
    AdaptiveHead,
    /// The escape-region head — the escape-queue connection.
    EscapeHead,
}

/// The candidate list one arbitration look at a VL buffer can produce:
/// the adaptive head plus at most two escape read points, stored inline
/// so the per-event arbitration loop never allocates.
pub(crate) type Candidates = InlineVec<(usize, ReadPoint), 4>;

/// A stable, generation-checked reference to one buffer residency.
///
/// Returned by [`VlBuffer::push`]; stays valid across compaction and is
/// detected (resolves to `None`) after the residency departs, even if
/// the slot has been reused by a later packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SlotHandle {
    slot: u32,
    gen: u32,
}

/// One FIFO position: the residency's slot, beside the two facts about
/// its packet the read points scan for, so a scan reads the order list
/// and no slot.
#[derive(Clone, Copy, Debug)]
struct Place {
    slot: u32,
    credits: u32,
    deterministic: bool,
}

/// One fixed storage slot.
#[derive(Debug)]
struct Slot {
    /// Incremented on every departure; makes stale handles detectable.
    gen: u32,
    /// Position in the FIFO order list; only meaningful while occupied.
    order_pos: u32,
    packet: Option<BufferedPacket>,
}

/// The split VL buffer.
#[derive(Debug)]
pub(crate) struct VlBuffer {
    capacity: Credits,
    /// Fixed slot storage; `order` holds the FIFO arrangement.
    slots: Vec<Slot>,
    /// FIFO order of occupied slots, head first.
    order: Vec<Place>,
    /// Stack of unoccupied slot indices.
    free_slots: Vec<u32>,
    occupied: Credits,
    /// Number of residencies currently streaming out.
    in_flight: u32,
    /// Number of resident deterministic packets.
    deterministic: u32,
}

impl VlBuffer {
    /// An empty buffer of `capacity` credits. The capacity must allow
    /// each logical queue (half the buffer) to hold at least one
    /// MTU-sized packet — enforced by `SimConfig::validate`.
    pub(crate) fn new(capacity: Credits) -> VlBuffer {
        // A packet occupies at least one credit, so at most
        // `capacity.count()` residencies can coexist; pre-sizing the slot
        // array here means steady-state operation never allocates.
        let nslots = capacity.count().max(1) as usize;
        VlBuffer {
            capacity,
            slots: (0..nslots)
                .map(|_| Slot {
                    gen: 0,
                    order_pos: 0,
                    packet: None,
                })
                .collect(),
            order: Vec::with_capacity(nslots),
            free_slots: (0..nslots as u32).rev().collect(),
            occupied: Credits::ZERO,
            in_flight: 0,
            deterministic: 0,
        }
    }

    /// Credits currently occupied.
    #[inline]
    pub(crate) fn occupied(&self) -> Credits {
        self.occupied
    }

    /// Credits currently free.
    #[inline]
    pub(crate) fn free(&self) -> Credits {
        self.capacity - self.occupied
    }

    /// Number of resident packets.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the buffer holds no packets.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Whether a packet of `credits` size fits.
    #[inline]
    pub(crate) fn can_accept(&self, credits: Credits) -> bool {
        credits <= self.free()
    }

    /// Whether any resident packet is currently streaming out.
    #[inline]
    pub(crate) fn has_in_flight(&self) -> bool {
        self.in_flight > 0
    }

    /// Append an arriving packet (header arrival) with the routing
    /// result arbitration may use from `ready_at` on, returning the
    /// stable handle of the new residency. The caller guarantees space
    /// via credit flow control; violating it is an accounting bug.
    ///
    /// With cut-through a packet can re-enter a buffer (e.g. after a
    /// U-turn through a neighbor) while its previous residency is still
    /// streaming out, so the same packet id may briefly be resident
    /// twice; handles keep the two residencies apart.
    pub(crate) fn push(&mut self, packet: Packet, route: RouteId, ready_at: SimTime) -> SlotHandle {
        let credits = packet.credits();
        debug_assert!(
            self.can_accept(credits),
            "buffer overflow: {} into {} free",
            credits,
            self.free()
        );
        self.occupied += credits;
        let deterministic = packet.mode() == RoutingMode::Deterministic;
        self.deterministic += u32::from(deterministic);
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                // Unreachable under correct credit accounting (debug
                // builds assert above); grow rather than corrupt.
                self.slots.push(Slot {
                    gen: 0,
                    order_pos: 0,
                    packet: None,
                });
                (self.slots.len() - 1) as u32
            }
        };
        let entry = &mut self.slots[slot as usize];
        entry.order_pos = self.order.len() as u32;
        entry.packet = Some(BufferedPacket {
            packet,
            route,
            ready_at,
            in_flight: false,
        });
        self.order.push(Place {
            slot,
            credits: credits.count(),
            deterministic,
        });
        SlotHandle {
            slot,
            gen: entry.gen,
        }
    }

    /// Re-resolve the route of every *not in-flight* residency against a
    /// new forwarding function — the SM re-sweep hook: packets already
    /// buffered when recovery tables are installed were routed against
    /// the old tables, and their ids mean nothing on the new ones. That
    /// includes residencies still inside their routing delay
    /// (`ready_at` in the future): their route was resolved at arrival,
    /// and the pipeline must deliver the tables live at `ready_at`.
    /// In-flight residencies are skipped (their transfer was granted
    /// under the old tables, and nothing reads their route again).
    pub(crate) fn reroute_with(&mut self, mut f: impl FnMut(&Packet) -> RouteId) {
        for place in &self.order {
            let p = self.slots[place.slot as usize]
                .packet
                .as_mut()
                .expect("order entry occupied");
            if !p.in_flight {
                p.route = f(&p.packet);
            }
        }
    }

    #[inline]
    fn packet_in(&self, slot: u32) -> &BufferedPacket {
        self.slots[slot as usize]
            .packet
            .as_ref()
            .expect("order entry occupied")
    }

    /// The boundary between the adaptive region (first half) and the
    /// escape region (second half), in credits.
    #[inline]
    fn escape_boundary(&self) -> Credits {
        Credits(self.capacity.count() / 2)
    }

    /// Occupied credits split at the §4.4 adaptive/escape boundary:
    /// `(adaptive, escape)`. Packets compact towards offset 0, so the
    /// occupied credits are contiguous from the head — the adaptive
    /// region holds `min(occupied, ⌊C_max/2⌋)` and the escape region
    /// the rest. The telemetry occupancy probe.
    #[inline]
    pub(crate) fn region_occupancy(&self) -> (Credits, Credits) {
        let adaptive = self.occupied.min(self.escape_boundary());
        (adaptive, self.occupied - adaptive)
    }

    /// Index of the escape-queue head: the first packet whose start
    /// offset lies in the escape region. Packets start below the
    /// occupied credits, so there is none while they fit the adaptive
    /// region.
    pub(crate) fn escape_head_index(&self) -> Option<usize> {
        let boundary = self.escape_boundary();
        if self.occupied <= boundary {
            return None;
        }
        let mut offset = 0;
        for (i, place) in self.order.iter().enumerate() {
            if offset >= boundary.count() {
                return Some(i);
            }
            offset += place.credits;
        }
        None
    }

    /// Index of the first deterministic packet, if any. Every packet
    /// ahead of the escape head lies in the adaptive region, so when
    /// this index is below [`Self::escape_head_index`] it is exactly the
    /// paper's "first deterministic packet stored in the adaptive
    /// queue" pointer.
    fn first_deterministic_index(&self) -> Option<usize> {
        if self.deterministic == 0 {
            return None;
        }
        self.order.iter().position(|place| place.deterministic)
    }

    /// The candidates arbitration may read at `now`, in priority order:
    /// the adaptive head first, then what the escape read point offers.
    ///
    /// The escape read point must never be starved outright — it is the
    /// drain the deadlock-freedom induction rests on (every packet stored
    /// in the escape region got there through an escape forward, whose
    /// up\*/down\* continuation is always eventually usable). The in-order
    /// `policy` therefore *redirects* the escape read instead of blocking
    /// it: when forwarding the escape head would let a deterministic
    /// packet be overtaken, the read point serves the paper's pointer —
    /// the first deterministic packet in the adaptive region — which is
    /// the one packet whose departure both preserves FIFO order among
    /// deterministic packets and keeps the escape drain moving.
    ///
    /// Only one read can be in progress per VL buffer (the multiplexer of
    /// Figure 2): callers must also check [`Self::has_in_flight`] /
    /// the port's read-busy time.
    pub(crate) fn candidates(&self, now: SimTime, policy: EscapeOrderPolicy) -> Candidates {
        let mut out = Candidates::new();
        if !self.order.is_empty() && self.get(0).is_ready(now) {
            out.push((0, ReadPoint::AdaptiveHead));
        }
        if self.order.len() <= 1 {
            // A lone packet is the head: the escape read point can only
            // ever offer a position past it.
            return out;
        }
        let escape_head = self.escape_head_index();
        let first_det = self.first_deterministic_index();
        if escape_head.is_none() && first_det.is_none_or(|fd| fd == 0) {
            // Nothing past the head to offer, under either policy.
            return out;
        }
        self.offer_escape(now, policy, escape_head, first_det, &mut out);
        out
    }

    /// Append what the escape read point offers at `now` to `out`, given
    /// the escape head and the first deterministic packet.
    fn offer_escape(
        &self,
        now: SimTime,
        policy: EscapeOrderPolicy,
        escape_head: Option<usize>,
        first_det: Option<usize>,
        out: &mut Candidates,
    ) {
        let push = |idx: Option<usize>, out: &mut Candidates| {
            if let Some(i) = idx {
                if i != 0 && self.get(i).is_ready(now) && !out.iter().any(|&(j, _)| j == i) {
                    out.push((i, ReadPoint::EscapeHead));
                }
            }
        };
        match policy {
            EscapeOrderPolicy::Strict => {
                // §4.4 literally: while a deterministic packet sits in the
                // adaptive queue, it must be forwarded before any packet
                // of the escape queue — the escape read point serves the
                // pointer target instead of the escape head.
                match first_det {
                    Some(fd) if escape_head.is_none_or(|e| fd < e) => push(Some(fd), out),
                    _ => push(escape_head, out),
                }
            }
            EscapeOrderPolicy::DeterministicFifo => {
                // Refined rule with the same FIFO guarantee: adaptive
                // escape-head packets may overtake freely; a deterministic
                // escape head may only go when it is the oldest
                // deterministic packet. The pointer target is offered as a
                // fallback candidate either way.
                if let Some(e) = escape_head {
                    let overtakes =
                        self.order[e].deterministic && first_det.is_some_and(|fd| fd < e);
                    if !overtakes {
                        push(Some(e), out);
                    }
                }
                if first_det.is_some_and(|fd| escape_head.is_none_or(|e| fd < e)) {
                    push(first_det, out);
                }
            }
        }
    }

    /// Access a resident packet by FIFO position.
    pub(crate) fn get(&self, index: usize) -> &BufferedPacket {
        self.packet_in(self.order[index].slot)
    }

    /// The stable handle of the residency at FIFO position `index`.
    pub(crate) fn handle_at(&self, index: usize) -> SlotHandle {
        let slot = self.order[index].slot;
        SlotHandle {
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }

    /// Mark the packet at FIFO position `index` as streaming out.
    pub(crate) fn mark_in_flight(&mut self, index: usize) {
        let slot = self.order[index].slot as usize;
        let p = self.slots[slot]
            .packet
            .as_mut()
            .expect("order entry occupied");
        debug_assert!(!p.in_flight);
        p.in_flight = true;
        self.in_flight += 1;
    }

    /// Remove the residency at FIFO position `pos`; later packets shift
    /// towards the head (the RAM compacts — only the index list moves).
    fn remove_pos(&mut self, pos: usize) -> BufferedPacket {
        let slot = self.order[pos].slot;
        // One pass moves each later entry up and restamps its position:
        // a handful of words, where `Vec::remove` would call `memmove`.
        for i in pos + 1..self.order.len() {
            let place = self.order[i];
            self.order[i - 1] = place;
            self.slots[place.slot as usize].order_pos = (i - 1) as u32;
        }
        self.order.pop();
        let entry = &mut self.slots[slot as usize];
        let p = entry.packet.take().expect("occupied slot");
        entry.gen = entry.gen.wrapping_add(1);
        self.free_slots.push(slot);
        self.occupied -= p.packet.credits();
        self.deterministic -= u32::from(p.packet.mode() == RoutingMode::Deterministic);
        if p.in_flight {
            self.in_flight -= 1;
        }
        p
    }

    /// Remove the exact residency `handle` refers to (its tail has left
    /// the buffer). Returns `None` if it already departed.
    pub(crate) fn remove_at(&mut self, handle: SlotHandle) -> Option<BufferedPacket> {
        let entry = self.slots.get(handle.slot as usize)?;
        if entry.gen != handle.gen || entry.packet.is_none() {
            return None;
        }
        let pos = entry.order_pos as usize;
        Some(self.remove_pos(pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_core::{HostId, Lid, PacketId, ServiceLevel};

    impl VlBuffer {
        /// The residency `handle` refers to, or `None` once it has departed
        /// (the generation check rejects reused slots).
        fn get_slot(&self, handle: SlotHandle) -> Option<&BufferedPacket> {
            let entry = self.slots.get(handle.slot as usize)?;
            if entry.gen != handle.gen {
                return None;
            }
            entry.packet.as_ref()
        }

        /// Starting credit offset of the packet at `index` — its physical
        /// position in the RAM, counted from the head.
        fn offset_of(&self, index: usize) -> Credits {
            self.order[..index]
                .iter()
                .map(|place| self.packet_in(place.slot).packet.credits())
                .sum()
        }

        /// Whether the packet at `index` is stored in the adaptive region
        /// (its first byte lies in the first half of the buffer).
        fn in_adaptive_region(&self, index: usize) -> bool {
            self.offset_of(index) < self.escape_boundary()
        }

        /// Remove the *oldest* residency of `id` (compatibility shim for
        /// tests; the simulator removes by handle, which resolves duplicate
        /// residencies exactly — departures still complete in arrival order
        /// because `TxDone` events are themselves ordered).
        fn remove(&mut self, id: PacketId) -> Option<BufferedPacket> {
            let pos = self
                .order
                .iter()
                .position(|place| self.packet_in(place.slot).packet.id == id)?;
            Some(self.remove_pos(pos))
        }

        /// Iterate over resident packets (head first).
        pub(crate) fn iter(&self) -> impl Iterator<Item = &BufferedPacket> {
            self.order
                .iter()
                .map(move |place| self.packet_in(place.slot))
        }

        /// [`Self::escape_head_index`] as a full scan of the packets.
        fn escape_head_by_scan(&self) -> Option<usize> {
            let boundary = self.escape_boundary();
            let mut offset = Credits::ZERO;
            for (i, p) in self.iter().enumerate() {
                if offset >= boundary {
                    return Some(i);
                }
                offset += p.packet.credits();
            }
            None
        }

        /// [`Self::first_deterministic_index`] as a full scan of the
        /// packets.
        fn first_deterministic_by_scan(&self) -> Option<usize> {
            self.iter()
                .position(|p| p.packet.mode() == RoutingMode::Deterministic)
        }

        /// [`Self::candidates`] on the two scans, without shortcuts.
        fn candidates_by_scan(&self, now: SimTime, policy: EscapeOrderPolicy) -> Candidates {
            let mut out = Candidates::new();
            if !self.order.is_empty() && self.get(0).is_ready(now) {
                out.push((0, ReadPoint::AdaptiveHead));
            }
            if self.order.len() > 1 {
                let (escape_head, first_det) = (
                    self.escape_head_by_scan(),
                    self.first_deterministic_by_scan(),
                );
                self.offer_escape(now, policy, escape_head, first_det, &mut out);
            }
            out
        }
    }

    /// 1-credit (32 B) packet; odd LIDs request adaptive routing.
    fn pkt(id: u64, adaptive: bool, size: u32) -> Packet {
        Packet {
            id: PacketId(id),
            src: HostId(0),
            dst: HostId(1),
            dlid: Lid(if adaptive { 9 } else { 8 }),
            sl: ServiceLevel(0),
            size_bytes: size,
            generated_at: SimTime::ZERO,
            seq: id,
            hops: 0,
            escape_uses: 0,
        }
    }

    /// The buffer stores a route id and never resolves it.
    fn route() -> RouteId {
        RouteId::default()
    }

    /// Push with the routing pipeline already complete.
    fn push_ready(buf: &mut VlBuffer, p: Packet) -> SlotHandle {
        buf.push(p, route(), SimTime::ZERO)
    }

    #[test]
    fn occupancy_tracks_pushes_and_removes() {
        let mut buf = VlBuffer::new(Credits(8));
        push_ready(&mut buf, pkt(1, true, 64));
        push_ready(&mut buf, pkt(2, true, 128));
        assert_eq!(buf.occupied(), Credits(3));
        assert_eq!(buf.free(), Credits(5));
        buf.remove(PacketId(1)).unwrap();
        assert_eq!(buf.occupied(), Credits(2));
        assert!(buf.remove(PacketId(99)).is_none());
    }

    #[test]
    fn can_accept_respects_capacity() {
        let mut buf = VlBuffer::new(Credits(4));
        assert!(buf.can_accept(Credits(4)));
        push_ready(&mut buf, pkt(1, true, 256)); // 4 credits
        assert!(!buf.can_accept(Credits(1)));
    }

    #[test]
    fn escape_head_is_first_packet_in_second_half() {
        // Capacity 8 → boundary at 4 credits. Three 2-credit packets:
        // offsets 0, 2, 4 → the third is the escape head.
        let mut buf = VlBuffer::new(Credits(8));
        for i in 0..3 {
            push_ready(&mut buf, pkt(i, true, 128));
        }
        assert_eq!(buf.escape_head_index(), Some(2));
        assert!(buf.in_adaptive_region(0));
        assert!(buf.in_adaptive_region(1));
        assert!(!buf.in_adaptive_region(2));
    }

    #[test]
    fn no_escape_head_when_all_fits_in_adaptive_region() {
        let mut buf = VlBuffer::new(Credits(8));
        push_ready(&mut buf, pkt(1, true, 64));
        push_ready(&mut buf, pkt(2, true, 64));
        assert_eq!(buf.escape_head_index(), None);
        assert_eq!(
            buf.candidates(SimTime::ZERO, EscapeOrderPolicy::DeterministicFifo)
                .len(),
            1
        );
    }

    #[test]
    fn escape_to_adaptive_migration_on_compaction() {
        let mut buf = VlBuffer::new(Credits(8));
        for i in 0..4 {
            push_ready(&mut buf, pkt(i, true, 128));
        }
        // Packet 2 starts at offset 4 → escape region.
        assert!(!buf.in_adaptive_region(2));
        // Head leaves; everything shifts up by 2 credits.
        buf.remove(PacketId(0)).unwrap();
        // Former packet 2 (now index 1) starts at offset 2 → adaptive.
        assert!(buf.in_adaptive_region(1));
        assert_eq!(buf.escape_head_index(), Some(2));
    }

    #[test]
    fn candidates_include_both_heads_when_ready() {
        let mut buf = VlBuffer::new(Credits(8));
        for i in 0..3 {
            push_ready(&mut buf, pkt(i, true, 128));
        }
        let cands = buf.candidates(SimTime::ZERO, EscapeOrderPolicy::DeterministicFifo);
        assert_eq!(
            cands,
            vec![(0, ReadPoint::AdaptiveHead), (2, ReadPoint::EscapeHead)]
        );
    }

    #[test]
    fn packets_inside_their_routing_delay_are_not_candidates() {
        // The route is resolved at arrival but only visible at `ready_at`
        // — for a lone packet (the early return) and behind others.
        let mut buf = VlBuffer::new(Credits(8));
        buf.push(pkt(1, true, 64), route(), SimTime::from_ns(100));
        for policy in [
            EscapeOrderPolicy::Strict,
            EscapeOrderPolicy::DeterministicFifo,
        ] {
            assert!(buf.candidates(SimTime::from_ns(99), policy).is_empty());
            assert_eq!(
                buf.candidates(SimTime::from_ns(100), policy),
                vec![(0, ReadPoint::AdaptiveHead)]
            );
        }
        for i in 2..5 {
            buf.push(pkt(i, true, 128), route(), SimTime::from_ns(200));
        }
        let cands = buf.candidates(SimTime::from_ns(150), EscapeOrderPolicy::DeterministicFifo);
        assert_eq!(cands, vec![(0, ReadPoint::AdaptiveHead)]);
        let cands = buf.candidates(SimTime::from_ns(200), EscapeOrderPolicy::DeterministicFifo);
        assert_eq!(
            cands,
            vec![(0, ReadPoint::AdaptiveHead), (3, ReadPoint::EscapeHead)]
        );
    }

    #[test]
    fn reroute_reaches_packets_inside_their_routing_delay_but_not_in_flight_ones() {
        let mut buf = VlBuffer::new(Credits(8));
        push_ready(&mut buf, pkt(0, true, 64));
        buf.mark_in_flight(0);
        push_ready(&mut buf, pkt(1, true, 64));
        buf.push(pkt(2, true, 64), route(), SimTime::from_ns(100));
        let mut b = iba_topology::TopologyBuilder::new(2, 2);
        b.connect(iba_core::SwitchId(0), iba_core::SwitchId(1))
            .unwrap();
        b.attach_host(iba_core::SwitchId(1)).unwrap();
        let topo = b.build().unwrap();
        let fa = iba_routing::FaRouting::build(&topo, Default::default()).unwrap();
        let fresh = fa
            .route_id(iba_core::SwitchId(0), fa.dlid(HostId(0), false).unwrap())
            .unwrap();
        buf.reroute_with(|_| fresh);
        let routes: Vec<RouteId> = buf.iter().map(|p| p.route).collect();
        assert_eq!(routes, vec![route(), fresh, fresh]);
    }

    #[test]
    fn in_flight_packet_is_not_a_candidate() {
        let mut buf = VlBuffer::new(Credits(8));
        push_ready(&mut buf, pkt(1, true, 64));
        buf.mark_in_flight(0);
        assert!(buf.has_in_flight());
        assert!(buf
            .candidates(SimTime::ZERO, EscapeOrderPolicy::DeterministicFifo)
            .is_empty());
    }

    #[test]
    fn deterministic_fifo_blocks_only_deterministic_overtakers() {
        let mut buf = VlBuffer::new(Credits(8));
        // Deterministic at head region, adaptive at escape head.
        push_ready(&mut buf, pkt(0, false, 128));
        push_ready(&mut buf, pkt(1, true, 128));
        push_ready(&mut buf, pkt(2, true, 128)); // escape head (offset 4)
        let cands = buf.candidates(SimTime::ZERO, EscapeOrderPolicy::DeterministicFifo);
        assert!(cands.contains(&(2, ReadPoint::EscapeHead)));

        // Now a deterministic packet at the escape head behind another
        // deterministic packet: blocked.
        let mut buf2 = VlBuffer::new(Credits(8));
        push_ready(&mut buf2, pkt(0, false, 128));
        push_ready(&mut buf2, pkt(1, true, 128));
        push_ready(&mut buf2, pkt(2, false, 128));
        let cands2 = buf2.candidates(SimTime::ZERO, EscapeOrderPolicy::DeterministicFifo);
        assert_eq!(cands2, vec![(0, ReadPoint::AdaptiveHead)]);
    }

    #[test]
    fn strict_policy_blocks_all_escape_reads_behind_a_deterministic_packet() {
        let mut buf = VlBuffer::new(Credits(8));
        push_ready(&mut buf, pkt(0, false, 128)); // deterministic in adaptive region
        push_ready(&mut buf, pkt(1, true, 128));
        push_ready(&mut buf, pkt(2, true, 128)); // adaptive escape head
        let strict = buf.candidates(SimTime::ZERO, EscapeOrderPolicy::Strict);
        assert_eq!(strict, vec![(0, ReadPoint::AdaptiveHead)]);
    }

    #[test]
    fn strict_policy_allows_escape_when_no_deterministic_ahead() {
        let mut buf = VlBuffer::new(Credits(8));
        push_ready(&mut buf, pkt(0, true, 128));
        push_ready(&mut buf, pkt(1, true, 128));
        push_ready(&mut buf, pkt(2, false, 128)); // deterministic escape head
        let strict = buf.candidates(SimTime::ZERO, EscapeOrderPolicy::Strict);
        assert!(strict.contains(&(2, ReadPoint::EscapeHead)));
    }

    #[test]
    fn deterministic_escape_head_allowed_when_it_is_the_oldest_deterministic() {
        let mut buf = VlBuffer::new(Credits(8));
        push_ready(&mut buf, pkt(0, true, 128));
        push_ready(&mut buf, pkt(1, true, 128));
        push_ready(&mut buf, pkt(2, false, 128));
        let cands = buf.candidates(SimTime::ZERO, EscapeOrderPolicy::DeterministicFifo);
        assert!(cands.contains(&(2, ReadPoint::EscapeHead)));
    }

    #[test]
    fn strict_pointer_redirects_escape_read_to_first_deterministic() {
        // det at index 1 (adaptive region), adaptive escape head at 2:
        // the escape read point must serve the pointer target, not the
        // escape head — §4.4's "must be forwarded before any other packet
        // stored in the escape queue".
        let mut buf = VlBuffer::new(Credits(8));
        push_ready(&mut buf, pkt(0, true, 128));
        push_ready(&mut buf, pkt(1, false, 128));
        push_ready(&mut buf, pkt(2, true, 128));
        let cands = buf.candidates(SimTime::ZERO, EscapeOrderPolicy::Strict);
        assert_eq!(
            cands,
            vec![(0, ReadPoint::AdaptiveHead), (1, ReadPoint::EscapeHead)]
        );
    }

    #[test]
    fn deterministic_fifo_offers_pointer_as_fallback() {
        // Adaptive escape head is offered first, but the oldest
        // deterministic packet is also readable so the escape drain can
        // never starve deterministic traffic.
        let mut buf = VlBuffer::new(Credits(8));
        push_ready(&mut buf, pkt(0, true, 128));
        push_ready(&mut buf, pkt(1, false, 128));
        push_ready(&mut buf, pkt(2, true, 128));
        let cands = buf.candidates(SimTime::ZERO, EscapeOrderPolicy::DeterministicFifo);
        assert_eq!(
            cands,
            vec![
                (0, ReadPoint::AdaptiveHead),
                (2, ReadPoint::EscapeHead),
                (1, ReadPoint::EscapeHead)
            ]
        );
    }

    #[test]
    fn deterministic_escape_head_redirects_to_older_deterministic() {
        // det escape head behind an older det: the escape port serves the
        // older one instead (both policies agree here).
        for policy in [
            EscapeOrderPolicy::Strict,
            EscapeOrderPolicy::DeterministicFifo,
        ] {
            let mut buf = VlBuffer::new(Credits(8));
            push_ready(&mut buf, pkt(0, true, 128));
            push_ready(&mut buf, pkt(1, false, 128));
            push_ready(&mut buf, pkt(2, false, 128));
            let cands = buf.candidates(SimTime::ZERO, policy);
            assert_eq!(
                cands,
                vec![(0, ReadPoint::AdaptiveHead), (1, ReadPoint::EscapeHead)],
                "{policy:?}"
            );
        }
    }

    #[test]
    fn escape_read_point_never_starves_when_escape_region_occupied() {
        // Whatever the mix, if the escape region holds packets, the
        // escape read point offers at least one candidate — the property
        // deadlock freedom rests on.
        for det_mask in 0u32..8 {
            for policy in [
                EscapeOrderPolicy::Strict,
                EscapeOrderPolicy::DeterministicFifo,
            ] {
                let mut buf = VlBuffer::new(Credits(8));
                for i in 0..3 {
                    push_ready(&mut buf, pkt(i, det_mask & (1 << i) == 0, 128));
                }
                assert_eq!(buf.escape_head_index(), Some(2));
                let cands = buf.candidates(SimTime::ZERO, policy);
                // The head is always readable; when it carries no
                // ordering constraint (adaptive) and the escape region is
                // occupied, the escape read point must offer a second
                // packet. When the head is deterministic it is itself the
                // pointer target, which keeps the drain moving.
                assert!(!cands.is_empty(), "mask {det_mask:03b} {policy:?}");
                // Bit i set marks packet i deterministic; bit 0 clear
                // means the head is adaptive.
                if det_mask & 1 == 0 {
                    assert!(
                        cands.len() >= 2,
                        "mask {det_mask:03b} {policy:?}: escape port starved: {cands:?}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        /// The read points kept without rescans equal the full scans, and
        /// so do the candidates, after every step of a random life of a
        /// buffer: pushes of 32 B and 256 B packets in both routing modes
        /// (each ready at a random time), grants and departures in any
        /// order, on 8 and 16 credits, under both policies.
        #[test]
        fn prop_read_points_match_the_scans(
            big in 0u8..2,
            ops in proptest::collection::vec((0u8..4, 0usize..16, 0u64..400), 1..120),
        ) {
            let mut buf = VlBuffer::new(Credits(if big == 1 { 16 } else { 8 }));
            let mut handles: Vec<SlotHandle> = Vec::new();
            for (step, &(kind, pick, t)) in ops.iter().enumerate() {
                match kind {
                    0 | 1 => {
                        let size = if pick % 3 == 0 { 256 } else { 32 };
                        let p = pkt(step as u64, pick % 2 == 0, size);
                        if buf.can_accept(p.credits()) {
                            handles.push(buf.push(p, route(), SimTime::from_ns(t)));
                        }
                    }
                    2 if !buf.is_empty() => {
                        let i = pick % buf.len();
                        if !buf.get(i).in_flight {
                            buf.mark_in_flight(i);
                        }
                    }
                    _ if !handles.is_empty() => {
                        let h = handles.remove(pick % handles.len());
                        proptest::prop_assert!(buf.remove_at(h).is_some());
                    }
                    _ => {}
                }
                proptest::prop_assert_eq!(buf.escape_head_index(), buf.escape_head_by_scan());
                proptest::prop_assert_eq!(
                    buf.first_deterministic_index(),
                    buf.first_deterministic_by_scan()
                );
                for policy in [EscapeOrderPolicy::Strict, EscapeOrderPolicy::DeterministicFifo] {
                    for now in [0, t, 400] {
                        let now = SimTime::from_ns(now);
                        proptest::prop_assert_eq!(
                            buf.candidates(now, policy),
                            buf.candidates_by_scan(now, policy)
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "buffer overflow")]
    #[cfg(debug_assertions)]
    fn overflow_panics_in_debug() {
        let mut buf = VlBuffer::new(Credits(1));
        buf.push(pkt(1, true, 64), route(), SimTime::ZERO);
        buf.push(pkt(2, true, 64), route(), SimTime::ZERO);
    }

    #[test]
    fn duplicate_residency_keeps_the_new_copy_and_removes_the_old() {
        // A cut-through U-turn: the packet re-enters while its old
        // residency still streams out.
        let mut buf = VlBuffer::new(Credits(8));
        let old = push_ready(&mut buf, pkt(7, true, 128));
        buf.mark_in_flight(0);
        // Same id arrives again (new residency).
        let new = buf.push(pkt(7, true, 128), route(), SimTime::ZERO);
        assert_ne!(old, new);
        assert_eq!(buf.len(), 2);
        assert!(buf.get(0).in_flight);
        // TxDone of the old residency removes exactly the old copy.
        let removed = buf.remove_at(old).unwrap();
        assert!(removed.in_flight);
        assert_eq!(buf.len(), 1);
        assert!(!buf.get(0).in_flight);
        // The old handle is now stale, even though its slot was freed.
        assert!(buf.get_slot(old).is_none());
        assert!(buf.remove_at(old).is_none());
        assert!(buf.get_slot(new).is_some());
    }

    #[test]
    fn handles_survive_compaction_and_detect_slot_reuse() {
        let mut buf = VlBuffer::new(Credits(8));
        let h0 = push_ready(&mut buf, pkt(0, true, 64));
        let h1 = push_ready(&mut buf, pkt(1, true, 64));
        let h2 = push_ready(&mut buf, pkt(2, true, 64));
        // Remove the head: positions shift, handles must not.
        buf.remove_at(h0).unwrap();
        assert_eq!(buf.get_slot(h1).unwrap().packet.id, PacketId(1));
        assert_eq!(buf.get_slot(h2).unwrap().packet.id, PacketId(2));
        assert_eq!(buf.get(0).packet.id, PacketId(1));
        // A new push may reuse h0's slot; the stale handle must still
        // resolve to None (generation check), the fresh one to pkt 3.
        let h3 = buf.push(pkt(3, true, 64), route(), SimTime::ZERO);
        assert!(buf.get_slot(h0).is_none());
        assert_eq!(buf.get_slot(h3).unwrap().packet.id, PacketId(3));
        // handle_at agrees with the handles returned by push.
        assert_eq!(buf.handle_at(0), h1);
        assert_eq!(buf.handle_at(2), h3);
    }

    #[test]
    fn slot_storage_does_not_grow_in_steady_state() {
        // Fill/drain repeatedly: the pre-sized slot array suffices.
        let mut buf = VlBuffer::new(Credits(4));
        for round in 0..10u64 {
            let h: Vec<_> = (0..4)
                .map(|i| push_ready(&mut buf, pkt(round * 4 + i, true, 64)))
                .collect();
            assert_eq!(buf.occupied(), Credits(4));
            for handle in h {
                buf.remove_at(handle).unwrap();
            }
            assert!(buf.is_empty());
            assert_eq!(buf.occupied(), Credits::ZERO);
        }
    }

    #[test]
    fn mtu_packets_span_regions_correctly() {
        // 256 B packets (4 credits) in a 16-credit buffer: boundary at 8.
        let mut buf = VlBuffer::new(Credits(16));
        for i in 0..4 {
            push_ready(&mut buf, pkt(i, true, 256));
        }
        assert_eq!(buf.occupied(), Credits(16));
        assert_eq!(buf.escape_head_index(), Some(2)); // offsets 0,4,8,12
        assert!(buf.in_adaptive_region(1));
        assert!(!buf.in_adaptive_region(2));
    }
}
