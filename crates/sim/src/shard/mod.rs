//! One shard of the fabric simulation: the event core of the network
//! model.
//!
//! A [`Shard`] owns a private event queue over the run-time selected
//! [`DesQueue`] backend plus the *full-size* fabric state vectors
//! (switches, hosts, fault masks). It executes only the events of the
//! switches and hosts its [`Partition`] region owns — the whole fabric
//! when it is the only shard — exchanges cross-shard link messages
//! through per-shard mailboxes, and tags every schedule with a
//! canonical `(class, entity, counter)` key, so the pop order within a
//! timestamp is the same for every partition, thread count and queue
//! backend. There is one machine: `shards(1)` runs exactly this code
//! with a partition of one region and an always-empty outbox.
//!
//! What makes a run independent of the partition:
//!
//! * **Event keys** — every schedule goes through [`Shard::sched`],
//!   which packs [`event_key`] from the *acting* entity's counter.
//! * **RNG discipline** — one arbitration and one corruption stream per
//!   switch (`derive_indexed`), so draw order never depends on which
//!   other switches share the shard.
//! * **Packet ids** — `(source host, per-host sequence)`, so ids never
//!   depend on the interleaving of other hosts' generators.
//! * **Fault masks** — every shard executes every fault event and
//!   applies the port masks globally (reads are hot-path); behavioral
//!   side effects (stats, credit resync, arbitration kicks) run only in
//!   the owning shard.
//! * **Credit resync** — a two-phase snapshot protocol
//!   ([`Event::CreditResync`]) that crosses the link with its
//!   propagation delay and discards stale in-flight returns, conserving
//!   credits exactly.
//!
//! The partition is consulted for *ownership* only (`owns_switch`,
//! `owns_host`, `dst_shard`); nothing branches on how many shards exist.

use crate::buffer::{ReadPoint, SlotHandle, VlBuffer};
use crate::config::{RecoveryPolicy, SelectionPolicy, SimConfig};
use crate::probe::{emit, wants_verdicts, Observers};
use crate::recorder::{classify_stall, TriggerCause};
use crate::stats::StatsCollector;
use iba_core::{
    Credits, DropCause, FlightEvent, HostId, IbaError, InlineVec, NodeRef, OptionOutcome,
    OptionOutcomes, OptionVerdict, Packet, PacketId, PortIndex, SimTime, StallClass, SwitchId,
    VirtualLane, MAX_PORTS,
};
use iba_engine::rng::{StreamKind, StreamRng};
use iba_engine::shard::{KEY_COUNTER_BITS, KEY_ENTITY_BITS, KEY_MAX_CLASS, KEY_MAX_ENTITY};
use iba_engine::{event_key, DesQueue};
use iba_routing::{FaTables, SlToVlTable, TableSource};
use iba_topology::{Partition, Topology};
use iba_workloads::{
    FaultKind, FaultSchedule, HostGenerator, PathSet, TrafficScript, WorkloadSpec,
};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Event-class ranks for the canonical ordering key: ties at one
/// timestamp execute in class order, chosen so state mutations land
/// before the events that observe them (fault masks and table swaps
/// before packet events, credit snapshots before credit returns, credit
/// returns before injection retries, freed buffer slots before the
/// arbitration pass that may refill them). Arbitration is the last
/// per-switch action of a timestamp, so one pass sees everything the
/// timestamp changed — and it is not a queue event: [`CLASS_ARBITRATE`]
/// is the rank at which [`Shard::run_window`] merges a switch's wake-up
/// into the queue's `(time, key)` order.
pub(crate) const CLASS_FAULT: u8 = 0;
/// The sampling probes: telemetry tick and stall watchdog.
pub(crate) const CLASS_PROBE: u8 = 1;
pub(crate) const CLASS_CREDIT_RESYNC: u8 = 2;
pub(crate) const CLASS_CREDIT_RETURN: u8 = 3;
pub(crate) const CLASS_GENERATE: u8 = 4;
pub(crate) const CLASS_TRY_INJECT: u8 = 5;
pub(crate) const CLASS_HEADER_ARRIVE: u8 = 6;
pub(crate) const CLASS_TX_DONE: u8 = 7;
pub(crate) const CLASS_ARBITRATE: u8 = 8;
pub(crate) const CLASS_DELIVER: u8 = 9;
/// Class names by rank, for the per-class handler counts of the engine
/// profile.
pub(crate) const CLASS_NAMES: [&str; 10] = [
    "fault",
    "probe",
    "credit_resync",
    "credit_return",
    "generate",
    "try_inject",
    "header_arrive",
    "tx_done",
    "arbitrate",
    "deliver",
];

const _: () = {
    let classes = [
        CLASS_FAULT,
        CLASS_PROBE,
        CLASS_CREDIT_RESYNC,
        CLASS_CREDIT_RETURN,
        CLASS_GENERATE,
        CLASS_TRY_INJECT,
        CLASS_HEADER_ARRIVE,
        CLASS_TX_DONE,
        CLASS_ARBITRATE,
        CLASS_DELIVER,
    ];
    let mut i = 0;
    while i < classes.len() {
        assert!(classes[i] <= KEY_MAX_CLASS, "event class overflows the key");
        i += 1;
    }
    assert!(classes.len() == CLASS_NAMES.len());
    // One bit per port in `SwitchState::{occupied_inputs, live_ports}`.
    assert!(MAX_PORTS <= u128::BITS as usize);
};

mod arbiter;
mod audit;
mod fault;
mod host;
mod ticks;

/// Every switch, every host and the coordinator pseudo-entity need an
/// id in the event key's entity field; a fabric beyond that would wrap
/// into another entity's key space and silently reorder events.
pub(crate) fn check_key_capacity(switches: usize, hosts: usize) -> Result<(), IbaError> {
    if (switches + hosts + 1) as u64 > KEY_MAX_ENTITY {
        return Err(IbaError::InvalidConfig(format!(
            "{switches} switches + {hosts} hosts + the coordinator exceed the \
             {KEY_MAX_ENTITY} entities an event key can name"
        )));
    }
    Ok(())
}

/// [`Shard::due_min`] of an empty due set.
const NONE_DUE: u32 = u32::MAX;

/// `occupied` split at the round-robin `cursor`: the set bits of the
/// first mask, then of the second, each in ascending order, are
/// `(cursor + k) % nports` for `k = 0, 1, …` without the empty inputs.
#[inline]
fn round_robin_split(occupied: u128, cursor: usize) -> [u128; 2] {
    let from_cursor = occupied >> cursor << cursor;
    [from_cursor, occupied ^ from_cursor]
}

/// Discrete events of the network model.
#[derive(Debug)]
pub(crate) enum Event {
    /// A host's traffic generator fires.
    Generate { host: HostId },
    /// The next scripted injection (trace-driven mode) fires.
    GenerateScripted { idx: usize },
    /// A host retries sending the head of its source queue.
    TryInject { host: HostId },
    /// A packet's header reaches a switch input port.
    HeaderArrive {
        sw: SwitchId,
        port: PortIndex,
        vl: VirtualLane,
        packet: Packet,
    },
    /// A forwarded packet's tail has left its input buffer. The handle
    /// addresses the exact residency `push` created, so no buffer scan
    /// is needed when the event fires; `out` is the output it streamed
    /// through, free again at this instant.
    TxDone {
        sw: SwitchId,
        port: PortIndex,
        vl: VirtualLane,
        handle: SlotHandle,
        out: PortIndex,
    },
    /// Freed credits reach the upstream sender.
    CreditReturn {
        target: NodeRef,
        port: PortIndex,
        vl: VirtualLane,
        credits: Credits,
    },
    /// Link-retraining credit snapshot from the receiver side of a
    /// revived link. `free` is the receiver's per-VL free space at
    /// snapshot time; it reaches the sender-side switch `sw`/`port` with
    /// the link propagation delay, and in-flight credit returns that
    /// raced it are discarded.
    CreditResync {
        sw: SwitchId,
        port: PortIndex,
        /// Boxed so this rare variant (one per link revival) does not
        /// inflate the size of every queue entry in the hot path.
        free: Box<InlineVec<Credits, 16>>,
    },
    /// A packet's tail reaches its destination host.
    Deliver { host: HostId, packet: Packet },
    /// A scheduled link fault (down or up) takes effect.
    Fault { idx: usize },
    /// The subnet manager's re-sweep completes and recovery routing is
    /// installed (`RecoveryPolicy::SmResweep` only).
    ResweepDone,
    /// The telemetry probe samples buffer occupancy (instrumented runs
    /// only; reschedules itself at the configured cadence).
    TelemetrySample,
    /// The flight recorder's stall watchdog inspects every VL buffer for
    /// forward progress (recorded runs with a watchdog only; reschedules
    /// itself at the configured cadence).
    WatchdogCheck,
}

/// A cross-shard event en route to another shard's queue, carrying the
/// ordering key assigned by the sending shard.
pub(crate) struct OutMsg {
    pub(crate) dst: usize,
    pub(crate) at: SimTime,
    pub(crate) key: u64,
    pub(crate) ev: Event,
}

/// One shard's inbox in the threaded window protocol: senders push
/// keyed events under the lock during the flush step, the owner drains
/// it after the barrier.
pub(crate) type Mailbox = Mutex<Vec<(SimTime, u64, Event)>>;

/// A schedule entry with its endpoints resolved to concrete ports, done
/// once at construction so fault application is O(1) and allocation-free
/// inside the event loop. For switch faults only `a` is meaningful; the
/// affected ports are enumerated from the topology at apply time.
#[derive(Clone, Copy, Debug)]
struct ResolvedFault {
    at: SimTime,
    kind: FaultKind,
    a: SwitchId,
    pa: PortIndex,
    b: SwitchId,
    pb: PortIndex,
}

/// One physical input port of a switch.
struct InputPort {
    /// Per-VL split buffers.
    vls: Vec<VlBuffer>,
    /// Packets resident over all VLs (what `occupied_inputs` tests).
    resident: u32,
    /// The buffer RAM's read path (the Figure 2 multiplexer) is busy
    /// streaming a packet out until this time.
    read_busy_until: SimTime,
    /// Round-robin cursor over VLs (a minimal stand-in for IBA's VL
    /// arbitration so no data VL starves behind VL0).
    vl_cursor: usize,
}

/// One physical output port of a switch.
struct OutputPort {
    /// The serial link transmits one packet at a time.
    busy_until: SimTime,
    /// Sender-side credit counters per VL of the downstream input buffer;
    /// `None` for host-facing ports (hosts are infinite sinks).
    credits: Option<Vec<Credits>>,
    /// Cumulative transmission time (utilization probe).
    busy_ns_total: u64,
}

struct SwitchState {
    inputs: Vec<InputPort>,
    outputs: Vec<OutputPort>,
    sl2vl: SlToVlTable,
    /// Bit `p` set while input port `p` holds a packet on any VL, so a
    /// pass visits occupied inputs only.
    occupied_inputs: u128,
    /// Inputs a pass need not look at: the last look granted nothing —
    /// or the read path is streaming — and nothing that look read has
    /// changed since. A failed look draws no random number and moves no
    /// cursor, so skipping it is invisible. Every state change a look
    /// depends on clears the bits it can affect: a `TxDone` its input
    /// and the waiters of the output it frees, a credit return or resync
    /// the waiters of its output, a header's `ready_at` its input, a
    /// fault or a table swap everything (DESIGN.md §12 has the table).
    blocked: u128,
    /// Per output port, the inputs whose failed look examined it.
    waiters: Vec<u128>,
    rr_cursor: usize,
    /// Per-port link state, bit `p` set while port `p` is up; a clear
    /// bit masks the port out of every feasible option set at
    /// arbitration. Derived cache of `down_depth == 0` so the hot path
    /// stays a single bit test ([`Self::link_up`]). A host-facing port
    /// goes down only when its own switch dies.
    live_ports: u128,
    /// How many active faults currently mask each port: a link fault
    /// contributes 1 to both endpoints, a switch fault contributes 1 to
    /// every wired port of the dead switch *and* the peer-side port of
    /// each of its inter-switch links — so two overlapping switch deaths
    /// on adjacent switches stack on the shared link and the port only
    /// revives when both have recovered.
    down_depth: Vec<u8>,
    /// The portion of `down_depth` owed to switch deaths; used to
    /// attribute wire drops at a masked port to [`DropCause::SwitchDown`]
    /// rather than [`DropCause::LinkDown`]. Schedule validation forbids
    /// link and switch windows overlapping on a shared endpoint, so a
    /// nonzero value is unambiguous.
    switch_down_depth: Vec<u8>,
}

impl SwitchState {
    #[inline]
    fn link_up(&self, port: usize) -> bool {
        self.live_ports >> port & 1 == 1
    }

    /// Something input `ip`'s look reads in its own port changed.
    fn unblock_input(&mut self, ip: usize) {
        self.blocked &= !(1 << ip);
    }

    /// Output `out` changed: it went idle, or gained credits.
    fn unblock_waiters(&mut self, out: usize) {
        self.blocked &= !std::mem::take(&mut self.waiters[out]);
    }

    /// Link state or the tables changed under every look.
    fn unblock_all(&mut self) {
        self.blocked = 0;
        self.waiters.fill(0);
    }
}

struct HostState {
    /// Synthetic generator; `None` in trace-driven mode.
    gen: Option<HostGenerator>,
    /// Open-loop source queue.
    queue: VecDeque<Packet>,
    tx_busy_until: SimTime,
    /// Credits towards the attached switch's input buffer, per VL.
    credits: Vec<Credits>,
    attached_switch: SwitchId,
    /// Per-source sequence counter (order checking).
    next_seq: u64,
    /// Rotating DLID-offset cursor for source-selected multipath.
    mp_cursor: u16,
}

/// A forwarding decision produced by arbitration. Positions and handle
/// are taken while the buffer is inspected and stay valid until the
/// decision is committed (arbitration grants synchronously, and a grant
/// marks the packet in flight rather than removing it).
struct Decision {
    input: usize,
    vl: usize,
    /// FIFO position of the granted packet in its VL buffer.
    idx: usize,
    /// Stable residency handle, carried into the `TxDone` event.
    handle: SlotHandle,
    packet_id: PacketId,
    out_port: PortIndex,
    out_vl: VirtualLane,
    via_escape: bool,
}

/// One shard of the simulation.
pub(crate) struct Shard<'a> {
    /// This shard's index in the partition.
    pub(crate) id: usize,
    topo: &'a Topology,
    /// The control plane, asked only when a re-sweep completes.
    source: &'a dyn TableSource,
    /// The tables currently programmed into the fabric: the primary
    /// ones, borrowed, or — owned — those the last completed re-sweep
    /// installed.
    pub(crate) routing: Cow<'a, FaTables>,
    config: SimConfig,
    /// The shared fabric partition (one region when this is the only
    /// shard).
    part: Arc<Partition>,
    pub(crate) queue: DesQueue<Event>,
    /// Pending arbitration wake-ups, kept out of the event queue (a
    /// pass carries no payload) and merged into its order at rank
    /// [`CLASS_ARBITRATE`]. A request is either for the current
    /// timestamp — one bit per switch in `due`, which also coalesces
    /// coinciding requests — or one routing delay ahead, in `ready`.
    /// Exactly one pass runs per `(switch, timestamp)` that had a
    /// trigger, which is what keeps `rr_cursor` and the arbitration RNG
    /// stream independent of how many triggers coincide. The clock
    /// cannot move while a bit is set: its pass ranks ahead of every
    /// later event.
    due: Vec<u64>,
    /// The lowest switch in `due` ([`NONE_DUE`] when it is empty).
    due_min: u32,
    /// Headers inside their routing delay, `(ready_at, switch, input
    /// port)` in `(time, switch)` order.
    ready: VecDeque<(SimTime, SwitchId, u8)>,
    /// Handlers executed per event class ([`CLASS_NAMES`] order), the
    /// arbitration passes among them.
    pub(crate) handlers: [u64; CLASS_NAMES.len()],
    /// What the passes did: packets granted, inputs swept, inputs looked
    /// into (`pick_for_input` calls), passes with nothing to sweep.
    pub(crate) grants: u64,
    pub(crate) inputs_visited: u64,
    pub(crate) looks: u64,
    pub(crate) empty_passes: u64,
    switches: Vec<SwitchState>,
    hosts: Vec<HostState>,
    pub(crate) stats: StatsCollector,
    /// One arbitration stream per switch, so draw order is
    /// partition-independent.
    switch_arb_rngs: Vec<StreamRng>,
    /// No packets are generated at or after this time.
    pub(crate) gen_deadline: SimTime,
    /// Whether the initial generation events have been scheduled.
    primed: bool,
    /// Whatever listens to this shard's transitions — telemetry, the
    /// flight recorder (`crate::probe`). `None` (the
    /// default) makes every site of the seam one pointer test.
    pub(crate) observers: Option<Box<Observers>>,
    /// Trace-driven injections (replaces the synthetic generators).
    script: Option<&'a TrafficScript>,
    /// Resolved link-fault schedule (empty without armed faults).
    faults: Vec<ResolvedFault>,
    /// What repairs reachability after a fault.
    recovery: RecoveryPolicy,
    /// Modelled duration of one SM re-sweep (fault event → recovery
    /// tables live), in nanoseconds.
    resweep_latency_ns: u64,
    /// Number of faults (links *or* switches) currently down. Every
    /// shard executes every fault event, so the count is globally
    /// consistent across shards.
    pub(crate) active_faults: usize,
    /// Which switches are currently dead (switch-fault windows).
    dead_switches: Vec<bool>,
    /// Per-link bit-error probability folded to a per-packet CRC-failure
    /// probability at the receiving input port; 0.0 (the default) keeps
    /// the hot-path hook a single float compare.
    pub(crate) corrupt_prob: f64,
    /// One dedicated corruption stream per switch, so armed corruption
    /// never perturbs arbitration tie-breaks or generator schedules.
    switch_corrupt_rngs: Vec<StreamRng>,
    /// Per-entity schedule counters backing the canonical event keys
    /// (switches, then hosts, then the coordinator pseudo-entity).
    /// Only the owning shard advances an entity's counter, except the
    /// coordinator's, which every shard advances in lockstep.
    key_counters: Vec<u64>,
    /// `(switch, port)` flags set while a credit-resync snapshot is on
    /// the wire; credit returns arriving at a pending port are stale
    /// (their space is already counted in the snapshot) and discarded.
    resync_pending: Vec<bool>,
    /// Cross-shard events produced by the current window, drained into
    /// the per-shard mailboxes at the window boundary.
    outbox: Vec<OutMsg>,
    /// Replicated events (faults, re-sweeps and telemetry ticks, which
    /// every shard executes) popped by a shard other than shard 0;
    /// subtracted from the aggregate event count so totals are
    /// shard-count-invariant.
    replicated: u64,
}

impl<'a> Shard<'a> {
    /// Assemble one shard: it owns the switches and hosts `part` assigns
    /// to `id`, while state vectors stay full-size (fault masks are
    /// applied globally).
    pub(crate) fn new(
        topo: &'a Topology,
        source: &'a dyn TableSource,
        spec: WorkloadSpec,
        config: SimConfig,
        id: usize,
        part: Arc<Partition>,
    ) -> Result<Shard<'a>, IbaError> {
        let routing = source.tables();
        spec.validate()?;
        config.validate(spec.packet_bytes)?;
        if routing.lid_map().num_hosts() as usize != topo.num_hosts() {
            return Err(IbaError::InvalidConfig(
                "routing tables built for a different topology".into(),
            ));
        }
        if spec.adaptive_fraction > 0.0 && routing.config().table_options < 2 {
            return Err(IbaError::InvalidConfig(
                "adaptive traffic requires at least 2 routing options (LMC >= 1)".into(),
            ));
        }

        let root = StreamRng::from_seed(config.seed);
        let vls = config.data_vls as usize;
        let cap = config.vl_buffer_credits;

        let switches = topo
            .switch_ids()
            .map(|s| {
                let ports = topo.ports_per_switch() as usize;
                let inputs = (0..ports)
                    .map(|_| InputPort {
                        vls: (0..vls).map(|_| VlBuffer::new(cap)).collect(),
                        resident: 0,
                        read_busy_until: SimTime::ZERO,
                        vl_cursor: 0,
                    })
                    .collect();
                let outputs = (0..ports)
                    .map(|p| {
                        let to_switch = topo
                            .endpoint(s, PortIndex(p as u8))
                            .is_some_and(|ep| ep.node.is_switch());
                        OutputPort {
                            busy_until: SimTime::ZERO,
                            credits: to_switch.then(|| vec![cap; vls]),
                            busy_ns_total: 0,
                        }
                    })
                    .collect();
                Ok(SwitchState {
                    inputs,
                    outputs,
                    sl2vl: SlToVlTable::identity(topo.ports_per_switch(), config.data_vls)?,
                    occupied_inputs: 0,
                    blocked: 0,
                    waiters: vec![0; ports],
                    rr_cursor: 0,
                    live_ports: u128::MAX,
                    down_depth: vec![0; ports],
                    switch_down_depth: vec![0; ports],
                })
            })
            .collect::<Result<Vec<_>, IbaError>>()?;

        // Hosts are numbered consecutively per switch by the topology
        // builders; permutation patterns act on the switch index. Every
        // shard builds every host's generator (each host draws from its
        // own derived substream, so a generator's schedule is
        // independent of which shard advances it); only owned hosts'
        // generators ever advance.
        let hosts_per_switch = if topo.num_hosts().is_multiple_of(topo.num_switches()) {
            topo.num_hosts() / topo.num_switches()
        } else {
            1
        };
        let hosts = topo
            .host_ids()
            .map(|h| {
                Ok(HostState {
                    gen: Some(HostGenerator::with_groups(
                        h,
                        topo.num_hosts(),
                        hosts_per_switch,
                        spec,
                        &root,
                    )?),
                    queue: VecDeque::new(),
                    tx_busy_until: SimTime::ZERO,
                    credits: vec![cap; vls],
                    attached_switch: topo.host_switch(h),
                    next_seq: 0,
                    mp_cursor: h.0 % routing.config().table_options,
                })
            })
            .collect::<Result<Vec<_>, IbaError>>()?;

        // Pre-size the event queue from the topology: pending events are
        // bounded by buffered packets (each VL buffer holds at most its
        // credit count, each buffered packet has at most one pending
        // TxDone/CreditReturn) plus a few per host — so the
        // steady state never reallocates the queue.
        let ports = topo.ports_per_switch() as usize;
        let est_events = (topo.num_switches() * ports * vls * cap.count() as usize / 4
            + topo.num_hosts() * 4)
            .max(1024);

        let nsw = topo.num_switches();
        let nh = topo.num_hosts();
        let horizon = config.horizon();
        Ok(Shard {
            id,
            topo,
            source,
            routing: Cow::Borrowed(routing),
            config,
            part,
            queue: DesQueue::with_capacity(config.queue_backend, est_events),
            due: vec![0; nsw.div_ceil(64)],
            due_min: NONE_DUE,
            ready: VecDeque::new(),
            handlers: [0; CLASS_NAMES.len()],
            grants: 0,
            inputs_visited: 0,
            looks: 0,
            empty_passes: 0,
            switches,
            hosts,
            stats: StatsCollector::new(
                config.warmup,
                horizon,
                topo.num_hosts(),
                routing.lid_map().table_len(),
            ),
            switch_arb_rngs: (0..nsw)
                .map(|s| root.derive_indexed(StreamKind::Arbiter, s as u64))
                .collect(),
            gen_deadline: horizon,
            primed: false,
            observers: None,
            script: None,
            faults: Vec::new(),
            recovery: RecoveryPolicy::None,
            resweep_latency_ns: 0,
            active_faults: 0,
            dead_switches: vec![false; nsw],
            corrupt_prob: 0.0,
            switch_corrupt_rngs: (0..nsw)
                .map(|s| root.derive_indexed(StreamKind::Custom(0xC0DE), s as u64))
                .collect(),
            key_counters: vec![0; nsw + nh + 1],
            resync_pending: vec![false; nsw * ports],
            outbox: Vec::new(),
            replicated: 0,
        })
    }

    /// Entity id of a switch in the key space.
    #[inline]
    fn ent_switch(&self, s: SwitchId) -> u64 {
        s.index() as u64
    }

    /// Entity id of a host in the key space (after all switches).
    #[inline]
    fn ent_host(&self, h: HostId) -> u64 {
        (self.topo.num_switches() + h.index()) as u64
    }

    /// The coordinator pseudo-entity: schedules every shard replicates
    /// identically (fault priming, the telemetry tick chain). Never use
    /// it for an ownership-gated schedule — per-shard counters would
    /// diverge.
    #[inline]
    fn ent_coord(&self) -> u64 {
        (self.topo.num_switches() + self.topo.num_hosts()) as u64
    }

    /// Whether this shard executes switch `s`'s events.
    #[inline]
    fn owns_switch(&self, s: SwitchId) -> bool {
        self.part.shard_of_switch(s) == self.id
    }

    /// Whether this shard executes host `h`'s events.
    #[inline]
    fn owns_host(&self, h: HostId) -> bool {
        self.part.shard_of_host(h) == self.id
    }

    /// The shard that must execute `ev`.
    #[inline]
    fn dst_shard(&self, ev: &Event) -> usize {
        let p = &*self.part;
        match ev {
            Event::Generate { host } | Event::TryInject { host } | Event::Deliver { host, .. } => {
                p.shard_of_host(*host)
            }
            Event::HeaderArrive { sw, .. }
            | Event::TxDone { sw, .. }
            | Event::CreditResync { sw, .. } => p.shard_of_switch(*sw),
            Event::CreditReturn { target, .. } => match target {
                NodeRef::Switch(s) => p.shard_of_switch(*s),
                NodeRef::Host(h) => p.shard_of_host(*h),
            },
            // Replicated and single-shard-only events stay local.
            Event::Fault { .. }
            | Event::ResweepDone
            | Event::TelemetrySample
            | Event::WatchdogCheck
            | Event::GenerateScripted { .. } => self.id,
        }
    }

    /// The one schedule point: stamp the canonical `(class, entity,
    /// counter)` key and route the event to its owning shard — locally
    /// into the queue, or into the outbox when it crosses the partition
    /// (which the conservative lookahead guarantees is at least one
    /// propagation delay in the future).
    fn sched(&mut self, at: SimTime, class: u8, entity: u64, ev: Event) {
        let c = self.key_counters[entity as usize];
        self.key_counters[entity as usize] = c + 1;
        let key = event_key(class, entity, c);
        let dst = self.dst_shard(&ev);
        if dst == self.id {
            self.queue.schedule_keyed(at, key, ev);
        } else {
            debug_assert!(
                at.as_ns() >= self.queue.now().as_ns() + self.config.phys.propagation_ns,
                "cross-shard event inside the conservative lookahead window"
            );
            self.outbox.push(OutMsg { dst, at, key, ev });
        }
    }

    /// Seed the event queue: every owned host's first synthetic
    /// generation, or the script's first entry in trace-driven mode.
    /// Fault and telemetry events are replicated into every shard.
    /// Idempotent.
    pub(crate) fn prime(&mut self) {
        if self.primed {
            return;
        }
        self.primed = true;
        // APM migration certifies the alternate escape set acyclic up
        // front, before any packet can address it (the tables never
        // change, so once per run). The first migration is owner-local
        // and the verdict must land in exactly one shard's stats, so
        // shard 0 records it.
        if self.id == 0 && self.recovery == RecoveryPolicy::ApmMigrate && !self.faults.is_empty() {
            let ok = self.routing.certify_escape(self.topo, true).is_ok();
            self.stats.on_escape_certification(ok);
        }
        // Faults are plain events in the queue, so their application is
        // serialized with packet events at deterministic points — a
        // fault-driven run stays bit-identical across queue backends.
        // Every shard schedules (and executes) every fault so the port
        // masks stay globally consistent.
        for idx in 0..self.faults.len() {
            let (at, ent) = (self.faults[idx].at, self.ent_coord());
            self.sched(at, CLASS_FAULT, ent, Event::Fault { idx });
        }
        self.prime_ticks();
        if let Some(script) = self.script {
            // The script cursor is one global sequence, so it rides the
            // coordinator entity (the builder rejects scripts on more
            // than one shard).
            if let Some(first) = script.packets().first() {
                if first.at < self.gen_deadline {
                    let ent = self.ent_coord();
                    self.sched(
                        first.at,
                        CLASS_GENERATE,
                        ent,
                        Event::GenerateScripted { idx: 0 },
                    );
                }
            }
            return;
        }
        for h in 0..self.hosts.len() {
            let host = HostId(h as u16);
            if !self.owns_host(host) {
                continue;
            }
            let dt = self.hosts[h]
                .gen
                .as_mut()
                .expect("synthetic mode")
                .next_interarrival_ns();
            let at = SimTime::from_ns(dt);
            if at < self.gen_deadline {
                let ent = self.ent_host(host);
                self.sched(at, CLASS_GENERATE, ent, Event::Generate { host });
            }
        }
    }

    fn dispatch(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::Generate { host } => self.on_generate(now, host),
            Event::GenerateScripted { idx } => self.on_generate_scripted(now, idx),
            Event::TryInject { host } => self.try_inject(now, host),
            Event::HeaderArrive {
                sw,
                port,
                vl,
                packet,
            } => self.on_header_arrive(now, sw, port, vl, packet),
            Event::TxDone {
                sw,
                port,
                vl,
                handle,
                out,
            } => self.on_tx_done(now, sw, port, vl, handle, out),
            Event::CreditReturn {
                target,
                port,
                vl,
                credits,
            } => self.on_credit_return(now, target, port, vl, credits),
            Event::CreditResync { sw, port, free } => self.on_credit_resync(sw, port, &free),
            Event::Deliver { host, packet } => {
                let sw = self.hosts[host.index()].attached_switch;
                emit(&mut self.observers, now, sw, || FlightEvent::Delivered {
                    packet: packet.id,
                    host,
                    latency_ns: now.since(packet.generated_at),
                });
                self.stats.on_delivered(&packet, now);
            }
            Event::Fault { idx } => {
                self.replicated += u64::from(self.id != 0);
                self.on_fault(now, idx)
            }
            Event::ResweepDone => {
                self.replicated += u64::from(self.id != 0);
                self.on_resweep_done(now)
            }
            Event::TelemetrySample => {
                self.replicated += u64::from(self.id != 0);
                self.on_telemetry_sample(now)
            }
            Event::WatchdogCheck => self.on_watchdog_check(now),
        }
    }

    /// Execute every handler at or before `limit` — one conservative
    /// execution window — stopping early once this shard alone has
    /// counted `budget` handlers (a lone shard's window spans the whole
    /// run, so the run's event budget must bind inside it). Each step
    /// takes whichever is first in canonical `(time, key)` order: the
    /// queue head, or the earliest wake-up ranked as a
    /// [`CLASS_ARBITRATE`] event of its switch.
    pub(crate) fn run_window(&mut self, limit: SimTime, budget: u64) {
        while self.counted_events() < budget {
            let wake = self.next_wake();
            let bound = wake.map_or((SimTime::MAX, u64::MAX), |(t, sw)| {
                (t, event_key(CLASS_ARBITRATE, self.ent_switch(sw), 0))
            });
            if let Some((now, key, ev)) = self.queue.pop_ahead_of(limit, bound) {
                self.handlers[(key >> (KEY_ENTITY_BITS + KEY_COUNTER_BITS)) as usize] += 1;
                self.dispatch(now, ev);
            } else if let Some((now, sw)) = wake.filter(|w| w.0 <= limit) {
                self.take_wake(now, sw);
                self.queue.advance_to(now);
                self.handlers[CLASS_ARBITRATE as usize] += 1;
                self.arbitrate(now, sw);
            } else {
                break;
            }
        }
    }

    /// Move this window's cross-shard events into the per-shard
    /// mailboxes.
    pub(crate) fn flush_outbox(&mut self, mailboxes: &[Mailbox]) {
        for m in self.outbox.drain(..) {
            mailboxes[m.dst]
                .lock()
                .expect("mailbox poisoned")
                .push((m.at, m.key, m.ev));
        }
    }

    /// Ingest cross-shard events delivered by other shards. The
    /// canonical keys make the queue order independent of ingest order.
    pub(crate) fn ingest(&mut self, msgs: Vec<(SimTime, u64, Event)>) {
        for (at, key, ev) in msgs {
            self.queue.schedule_keyed(at, key, ev);
        }
    }

    /// Timestamp of this shard's next pending event or wake-up in ns
    /// (`u64::MAX` when neither) — the input to the conservative window
    /// computation, and the drained test.
    pub(crate) fn next_time_ns(&self) -> u64 {
        let wake = self.next_wake().map_or(SimTime::MAX, |w| w.0);
        self.queue.peek_time().map_or(wake, |t| t.min(wake)).as_ns()
    }

    /// Handlers executed — queue pops plus arbitration passes — with
    /// replicated fault, re-sweep and telemetry pops counted exactly once
    /// fabric-wide (on shard 0), so the aggregate over shards is
    /// invariant in the shard count.
    #[inline]
    pub(crate) fn counted_events(&self) -> u64 {
        self.queue.events_processed() + self.handlers[CLASS_ARBITRATE as usize] - self.replicated
    }

    /// Ask for an arbitration pass at owned switch `sw` at the current
    /// timestamp: a freed slot, returned credits, a revived port.
    fn wake(&mut self, sw: SwitchId) {
        self.due[sw.index() / 64] |= 1 << (sw.index() % 64);
        self.due_min = self.due_min.min(sw.index() as u32);
    }

    /// Ask for the pass at which the header that just arrived at `port`
    /// leaves the routing pipeline. Arrivals come in time order but not
    /// in switch order, so the entry usually lands a few places from the
    /// tail.
    fn wake_ready(&mut self, at: SimTime, sw: SwitchId, port: PortIndex) {
        if at == self.queue.now() {
            // No routing delay: this timestamp's pass sees the header.
            self.switches[sw.index()].unblock_input(port.index());
            return self.wake(sw);
        }
        let mut pos = self.ready.len();
        while pos > 0 && (self.ready[pos - 1].0, self.ready[pos - 1].1) > (at, sw) {
            pos -= 1;
        }
        self.ready.insert(pos, (at, sw, port.0));
    }

    /// The earliest pending wake-up.
    fn next_wake(&self) -> Option<(SimTime, SwitchId)> {
        let ready = self.ready.front().map(|&(t, sw, _)| (t, sw));
        if self.due_min == NONE_DUE {
            return ready;
        }
        let due = (self.queue.now(), SwitchId(self.due_min as u16));
        Some(ready.map_or(due, |r| r.min(due)))
    }

    /// Consume every request for a pass at `(now, sw)` — what
    /// [`Self::next_wake`] just returned. One pass serves every trigger
    /// this (switch, timestamp) has had so far; one that lands after it
    /// asks again.
    fn take_wake(&mut self, now: SimTime, sw: SwitchId) {
        if self.due_min == sw.index() as u32 {
            debug_assert_eq!(now, self.queue.now());
            let first = sw.index() / 64;
            self.due[first] &= !(1 << (sw.index() % 64));
            self.due_min = (first..self.due.len())
                .find(|&w| self.due[w] != 0)
                .map_or(NONE_DUE, |w| w as u32 * 64 + self.due[w].trailing_zeros());
        }
        while let Some(&(t, s, port)) = self.ready.front() {
            if (t, s) != (now, sw) {
                break;
            }
            self.ready.pop_front();
            self.switches[sw.index()].unblock_input(port as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_routing::FaRouting;
    use iba_topology::TopologyBuilder;

    #[test]
    fn event_stays_one_cache_line() {
        // Every queue entry carries an Event by value, and the binary
        // heap moves entries during sift — a fat variant taxes the whole
        // hot path. Rare bulky payloads (CreditResync's credit snapshot)
        // must be boxed; a `Packet` plus where it arrives is the floor.
        assert_eq!(
            std::mem::size_of::<Event>(),
            56,
            "Event changed size; box a new payload, or re-pin a smaller one"
        );
    }

    #[test]
    fn occupied_inputs_are_swept_in_round_robin_order() {
        let mut rng = StreamRng::from_seed(16);
        for nports in [1usize, 2, 7, 64, 65, MAX_PORTS] {
            for _ in 0..200 {
                let occupied = (0..nports)
                    .filter(|_| rng.chance(0.3))
                    .fold(0u128, |m, p| m | 1 << p);
                let cursor = rng.below(nports);
                let naive: Vec<usize> = (0..nports)
                    .map(|k| (cursor + k) % nports)
                    .filter(|&ip| occupied >> ip & 1 == 1)
                    .collect();
                let mut swept = Vec::new();
                for mut inputs in round_robin_split(occupied, cursor) {
                    while inputs != 0 {
                        swept.push(inputs.trailing_zeros() as usize);
                        inputs &= inputs - 1;
                    }
                }
                assert_eq!(
                    swept, naive,
                    "nports {nports} cursor {cursor} {occupied:#x}"
                );
            }
        }
    }

    /// A fabric, its tables and an empty script: a shard over them
    /// generates nothing, so a test places each header itself and runs
    /// the real event loop up to the instant it asks about.
    struct Rig {
        topo: Topology,
        routing: FaRouting,
        script: TrafficScript,
    }

    const S0: SwitchId = SwitchId(0);
    const S1: SwitchId = SwitchId(1);
    const S2: SwitchId = SwitchId(2);

    impl Rig {
        fn new(topo: Topology) -> Rig {
            let routing = FaRouting::build(&topo, iba_routing::RoutingConfig::two_options());
            Rig {
                routing: routing.unwrap(),
                topo,
                script: TrafficScript::default(),
            }
        }

        /// S0 — S1 — S2 through ports 0 and 1, hosts 2s and 2s + 1 on
        /// ports 2 and 3 of switch s.
        fn line3() -> Rig {
            let mut b = TopologyBuilder::new(3, 4);
            b.connect_ports(S0, PortIndex(0), S1, PortIndex(0)).unwrap();
            b.connect_ports(S1, PortIndex(1), S2, PortIndex(0)).unwrap();
            for s in [S0, S1, S2] {
                b.attach_host_at(s, PortIndex(2)).unwrap();
                b.attach_host_at(s, PortIndex(3)).unwrap();
            }
            Rig::new(b.build().unwrap())
        }

        fn shard(&self, data_vls: u8) -> Shard<'_> {
            self.shard_with(SimConfig {
                data_vls,
                ..SimConfig::test(3)
            })
        }

        fn shard_with(&self, cfg: SimConfig) -> Shard<'_> {
            let part = Arc::new(Partition::contiguous(&self.topo, 1).unwrap());
            let spec = WorkloadSpec::uniform32(0.01);
            let mut sh = Shard::new(&self.topo, &self.routing, spec, cfg, 0, part).unwrap();
            sh.set_script(&self.script);
            sh
        }
    }

    impl Shard<'_> {
        /// A 32-byte deterministic packet for `dst` reaches input `port`
        /// of `sw` at `at` on lane `vl`; it is ready one routing delay
        /// (100 ns) later.
        fn arrive(&mut self, at: u64, sw: SwitchId, port: u8, vl: u8, dst: u16) {
            let id = self.key_counters.iter().sum::<u64>();
            let packet = Packet {
                id: PacketId(id),
                src: HostId(0),
                dst: HostId(dst),
                dlid: self.routing.dlid(HostId(dst), false).unwrap(),
                sl: iba_core::ServiceLevel(vl),
                size_bytes: 32,
                generated_at: SimTime::ZERO,
                seq: id,
                hops: 0,
                escape_uses: 0,
            };
            let ev = Event::HeaderArrive {
                sw,
                port: PortIndex(port),
                vl: VirtualLane(vl),
                packet,
            };
            let ent = self.ent_coord();
            self.sched(SimTime::from_ns(at), CLASS_HEADER_ARRIVE, ent, ev);
        }

        fn credit(&mut self, at: u64, sw: SwitchId, port: u8, vl: u8) {
            let ev = Event::CreditReturn {
                target: NodeRef::Switch(sw),
                port: PortIndex(port),
                vl: VirtualLane(vl),
                credits: Credits(1),
            };
            let ent = self.ent_coord();
            self.sched(SimTime::from_ns(at), CLASS_CREDIT_RETURN, ent, ev);
        }

        /// Grants made once everything up to and including `t` has run.
        fn grants_by(&mut self, t: u64) -> u64 {
            self.prime();
            self.run_window(SimTime::from_ns(t), u64::MAX);
            self.grants
        }

        /// Arm telemetry and a recorder that never triggers nor ticks.
        fn listen(&mut self) {
            let opts = crate::recorder::RecorderOpts {
                trigger_on_drop: false,
                watchdog: None,
                ..Default::default()
            };
            let (nsw, ports, vls) = (3, 4, self.config.data_vls as usize);
            self.observers = Some(Box::new(Observers {
                telemetry: Some(crate::telemetry::TelemetryState::new(
                    crate::telemetry::TelemetryOpts::default(),
                    nsw,
                    ports,
                )),
                recorder: Some(crate::recorder::FlightRecorder::new(opts, nsw, ports, vls)),
            }));
        }

        /// What the listeners hold about S1: its `Blocked` events'
        /// verdicts, in order, and the `no_escape_credit` tally of its
        /// port towards S2.
        fn heard_at_s1(&self) -> (Vec<OptionVerdict>, u64) {
            let o = self.observers.as_deref().unwrap();
            let dump = o.recorder.as_ref().unwrap().dump();
            let blocked = dump.events.iter().filter_map(|e| match &e.ev {
                FlightEvent::Blocked { options, .. } if e.sw == Some(S1) => {
                    Some(options[0].verdict)
                }
                _ => None,
            });
            let telemetry = crate::telemetry::MemorySink::merge(&[o.telemetry.as_ref().unwrap()]);
            let stalls = telemetry.report.switches[1].stalls[1];
            (blocked.collect(), stalls.of(OptionVerdict::NoEscapeCredit))
        }
    }

    // The waiter sets, one forgotten unblock at a time: each case parks
    // a head behind exactly one condition and asserts the grant at the
    // instant the condition lifts. (In debug builds the oracle in
    // `arbitrate` also re-looks every skipped input of every pass of the
    // whole suite; these hold in release builds too.)

    #[test]
    fn a_credit_return_on_the_other_vl_leaves_the_head_waiting_for_the_right_one() {
        let rig = Rig::line3();
        let mut sh = rig.shard(2);
        sh.debug_block_output(S1, PortIndex(1));
        sh.arrive(100, S1, 0, 0, 4); // to S2, lane 0: no credit
        assert_eq!(sh.grants_by(999), 0);
        sh.credit(1_000, S1, 1, 1);
        assert_eq!(
            sh.grants_by(1_999),
            0,
            "lane 1's credit is no use to lane 0"
        );
        sh.credit(2_000, S1, 1, 0);
        assert_eq!(sh.grants_by(1_999), 0);
        assert_eq!(
            sh.grants_by(2_000),
            1,
            "the second failed look must wait again"
        );
    }

    #[test]
    fn an_output_freed_by_another_inputs_tx_done_wakes_its_waiter() {
        let rig = Rig::line3();
        let mut sh = rig.shard(1);
        sh.arrive(100, S1, 0, 0, 4); // from S0 …
        sh.arrive(100, S1, 2, 0, 4); // … and from a host, both to S2
        assert_eq!(sh.grants_by(200), 1, "one output, one grant");
        let ser = sh.config.phys.serialization_ns(32);
        assert_eq!(sh.grants_by(200 + ser - 1), 1);
        assert_eq!(
            sh.grants_by(200 + ser),
            2,
            "port 1 idles at the first TxDone"
        );
    }

    #[test]
    fn a_header_on_an_empty_second_vl_is_seen_behind_a_blocked_head() {
        let rig = Rig::line3();
        let mut sh = rig.shard(2);
        sh.debug_block_output(S1, PortIndex(1));
        sh.arrive(100, S1, 0, 0, 4); // lane 0's head: no credit towards S2
        assert_eq!(sh.grants_by(999), 0);
        sh.arrive(1_000, S1, 0, 1, 2); // lane 1, to a host of this switch
        assert_eq!(sh.grants_by(1_099), 0, "still inside its routing delay");
        assert_eq!(sh.grants_by(1_100), 1);

        // Without a routing delay the arrival itself is the wake-up.
        let mut cfg = SimConfig::test(3);
        (cfg.data_vls, cfg.phys.routing_delay_ns) = (2, 0);
        let mut sh = rig.shard_with(cfg);
        sh.debug_block_output(S1, PortIndex(1));
        sh.arrive(100, S1, 0, 0, 4);
        sh.arrive(1_000, S1, 0, 1, 2);
        assert_eq!(sh.grants_by(999), 0);
        assert_eq!(sh.grants_by(1_000), 1);
    }

    #[test]
    fn link_up_and_credit_resync_revive_a_waited_for_port() {
        let rig = Rig::line3();
        let mut sh = rig.shard(1);
        let at = SimTime::from_ns;
        let flap = FaultSchedule::new(vec![
            iba_workloads::FaultEvent::link_down(at(50), S1, S2),
            iba_workloads::FaultEvent::link_up(at(1_000), S1, S2),
        ]);
        sh.arm_faults(&flap.unwrap(), RecoveryPolicy::None, 0)
            .unwrap();
        sh.arrive(100, S1, 0, 0, 4); // to S2: the port is dead
                                     // A pass between link-up and the snapshot finds the port alive
                                     // and without credit, so the head waits once more — on the resync.
        sh.arrive(950, S1, 2, 0, 3);
        assert_eq!(sh.grants_by(1_050), 1, "only the local delivery");
        let prop = sh.config.phys.propagation_ns;
        assert_eq!(sh.grants_by(1_000 + prop - 1), 1);
        assert_eq!(sh.grants_by(1_000 + prop), 2);
    }

    #[test]
    fn switch_up_revives_a_host_port_no_credit_event_ever_touches() {
        let rig = Rig::line3();
        let mut sh = rig.shard(1);
        let at = SimTime::from_ns;
        let cycle = FaultSchedule::new(vec![
            iba_workloads::FaultEvent::switch_down(at(150), S1),
            iba_workloads::FaultEvent::switch_up(at(1_000), S1),
        ]);
        sh.arm_faults(&cycle.unwrap(), RecoveryPolicy::None, 0)
            .unwrap();
        sh.arrive(100, S1, 0, 0, 2); // buffered before the switch dies
        assert_eq!(sh.grants_by(999), 0);
        assert_eq!(sh.grants_by(1_000), 1);
    }

    #[test]
    fn a_table_swap_reroutes_a_blocked_head_and_leaves_no_stale_route_id() {
        // A triangle: whichever way S0 forwards to host 1 (on S1), the
        // link goes down and the re-sweep must send the head the other
        // way round.
        let mut b = TopologyBuilder::new(3, 4);
        for (x, y) in [(S0, S1), (S0, S2), (S2, S1)] {
            b.connect(x, y).unwrap();
        }
        for s in [S0, S1, S2] {
            b.attach_host(s).unwrap();
        }
        let rig = Rig::new(b.build().unwrap());
        let dlid = rig.routing.dlid(HostId(1), false).unwrap();
        let first_hop = rig.routing.route(S0, dlid).unwrap().escape;
        let NodeRef::Switch(next) = rig.topo.endpoint(S0, first_hop).unwrap().node else {
            panic!("host 1 is not on S0");
        };
        let mut sh = rig.shard(1);
        let down = FaultSchedule::single(SimTime::from_ns(50), S0, next).unwrap();
        sh.arm_faults(&down, RecoveryPolicy::SmResweep, 1_000)
            .unwrap();
        let host_port = rig.topo.host_attachment(HostId(0)).1;
        sh.arrive(100, S0, host_port.0, 0, 1);
        // At the swap (1 050) one residency is streaming out, granted on
        // the old tables, and one is inside its routing delay.
        let other = if next == S1 { S2 } else { S1 };
        let from_s0 = rig.topo.port_towards(other, S0).unwrap();
        sh.arrive(900, other, from_s0.0, 0, other.0);
        sh.arrive(1_040, S0, host_port.0, 0, 1);
        assert_eq!(sh.grants_by(1_049), 1, "S0's head waits on a dead port");
        let old = sh.switches[0].inputs[host_port.index()].vls[0].get(0).route;
        assert_eq!(sh.grants_by(1_050), 2, "granted by the pass of the swap");
        let Cow::Owned(live) = &sh.routing else {
            panic!("no re-swept tables installed");
        };
        let mut in_flight = 0;
        for (si, st) in sh.switches.iter().enumerate() {
            for bp in st.inputs.iter().flat_map(|i| &i.vls).flat_map(|b| b.iter()) {
                if bp.in_flight {
                    in_flight += 1;
                } else {
                    assert_eq!(bp.ready_at, SimTime::from_ns(1_140));
                    let sw = SwitchId(si as u16);
                    assert_eq!(Ok(bp.route), live.route_id(sw, bp.packet.dlid));
                }
            }
        }
        assert_eq!(in_flight, 2);
        assert_eq!(rig.routing.route_id(S0, dlid), Ok(old));
        assert_ne!(
            rig.routing.route_by_id(old).escape,
            live.route_by_id(live.route_id(S0, dlid).unwrap()).escape,
            "the old id names the way through the dead link"
        );
        let ser = sh.config.phys.serialization_ns(32);
        assert_eq!(sh.grants_by(1_050 + ser), 3, "on the new tables as well");
    }

    #[test]
    fn a_resweep_installs_the_pinned_tables_the_sm_would_upload() {
        // Every link whose loss keeps the fabric connected, among them
        // links where a rebuild left to elect its own root moves it.
        let mut moved = 0;
        for seed in [1, 7, 42] {
            let rig = Rig::new(
                iba_topology::IrregularConfig::paper(16, seed)
                    .generate()
                    .unwrap(),
            );
            let root = rig.routing.escape().root();
            for a in rig.topo.switch_ids() {
                for (_, b, _) in rig.topo.switch_neighbors(a).filter(|&(_, b, _)| a < b) {
                    let Ok(degraded) = rig.topo.without_links(|s, _, peer| (s, peer) == (a, b))
                    else {
                        continue;
                    };
                    let down = FaultSchedule::single(SimTime::from_ns(100), a, b).unwrap();
                    let mut sh = rig.shard(1);
                    sh.arm_faults(&down, RecoveryPolicy::SmResweep, 1_000)
                        .unwrap();
                    sh.grants_by(2_000);
                    let Cow::Owned(installed) = &sh.routing else {
                        panic!("seed {seed}, {a}-{b}: no re-swept tables");
                    };
                    let swept = rig.routing.resweep(&degraded).unwrap();
                    assert!(installed.tables_equal(&swept), "seed {seed}, {a}-{b}");
                    assert_eq!(installed.config().root, Some(root), "seed {seed}, {a}-{b}");
                    let unpinned = FaRouting::build(&degraded, *rig.routing.config()).unwrap();
                    moved += usize::from(unpinned.escape().root() != root);
                }
            }
        }
        assert!(
            moved > 0,
            "no link moves the root: nothing tells pinned from unpinned"
        );
    }

    #[test]
    #[should_panic(expected = "tables that did not issue it")]
    fn a_look_stops_at_a_route_id_of_replaced_tables() {
        // Tables swapped under a buffered header without re-resolving
        // it: the look must stop — in a release build too — rather than
        // forward on whatever decode now sits in the id's slot.
        let rig = Rig::line3();
        let mut sh = rig.shard(1);
        sh.arrive(100, S0, 2, 0, 2);
        assert_eq!(sh.grants_by(150), 0, "inside its routing delay");
        sh.routing = Cow::Owned(rig.routing.resweep_tables(&rig.topo).unwrap());
        sh.grants_by(200);
    }

    #[test]
    fn a_parked_head_is_heard_once_per_reason_not_once_per_wake_up() {
        use OptionVerdict::{LinkBusy, NoEscapeCredit};
        let rig = Rig::line3();
        let mut sh = rig.shard(2);
        sh.listen();
        sh.debug_block_output(S1, PortIndex(1));
        sh.credit(50, S1, 1, 1); // one credit towards S2, on lane 1
        sh.arrive(100, S1, 2, 1, 4); // takes it (the cursor is past input 0) …
        sh.arrive(100, S1, 0, 0, 4); // … and lane 0's head finds the link busy
        for at in [250, 400, 500, 700, 800, 900] {
            sh.credit(at, S1, 0, 0); // wakes S1; nothing the head reads
        }
        let parked = |sh: &Shard<'_>| sh.switches[1].waiters[1];
        let ser = sh.config.phys.serialization_ns(32);
        assert_eq!(sh.grants_by(200 + ser - 1), 1);
        assert_eq!((parked(&sh), sh.heard_at_s1()), (1, (vec![LinkBusy], 0)));
        // The TxDone frees the link and clears the bit; the look it
        // causes finds no credit — a new reason, a new bit, one tally.
        assert_eq!(sh.grants_by(600), 2, "S2 has passed lane 1's packet on");
        let no_credit = vec![LinkBusy, NoEscapeCredit];
        assert_eq!((parked(&sh), sh.heard_at_s1()), (1, (no_credit.clone(), 1)));
        // Lane 1's credit comes back (at 628): port 1 changed, the head
        // is looked at again and refused for the reason already logged.
        assert_eq!(sh.grants_by(999), 2);
        assert_eq!((parked(&sh), sh.heard_at_s1()), (1, (no_credit.clone(), 2)));
        assert!(
            sh.handlers[CLASS_ARBITRATE as usize] >= 9,
            "a pass per wake-up"
        );
        sh.credit(1_000, S1, 1, 0);
        assert_eq!(sh.grants_by(1_000), 3);
        assert_eq!((parked(&sh), sh.heard_at_s1()), (0, (no_credit, 2)));
    }

    #[test]
    fn an_arrival_into_an_empty_buffer_restarts_its_progress_clock() {
        let rig = Rig::line3();
        let mut sh = rig.shard(1);
        sh.listen();
        sh.debug_block_output(S1, PortIndex(1));
        sh.arrive(100, S1, 0, 0, 2); // to a host of S1: through at once
        sh.arrive(50_000, S1, 0, 0, 4); // to S2: no credit, ever
        sh.arrive(50_500, S1, 0, 0, 4); // behind it: the buffer is not empty
        let stalled_at = |sh: &Shard<'_>, now| {
            let recorder = sh.observers.as_deref().unwrap().recorder.as_ref();
            recorder
                .unwrap()
                .stalled_for(S1, 0, 0, SimTime::from_ns(now))
        };
        assert_eq!(sh.grants_by(250), 1);
        assert_eq!(stalled_at(&sh, 250), 50, "the grant at 200 is progress");
        assert_eq!(sh.grants_by(60_000), 1);
        assert_eq!(
            stalled_at(&sh, 60_000),
            10_000,
            "not since the last tail left"
        );
    }

    #[test]
    fn waiter_sets_reach_past_port_64() {
        // Two inputs above bit 64 contend for an output above bit 64.
        let mut b = TopologyBuilder::new(2, 72);
        b.connect_ports(S0, PortIndex(70), S1, PortIndex(71))
            .unwrap();
        b.attach_host_at(S0, PortIndex(65)).unwrap();
        b.attach_host_at(S0, PortIndex(66)).unwrap();
        b.attach_host_at(S1, PortIndex(64)).unwrap();
        let rig = Rig::new(b.build().unwrap());
        let mut sh = rig.shard(1);
        sh.arrive(100, S0, 66, 0, 0);
        sh.arrive(100, S0, 70, 0, 0);
        assert_eq!(sh.grants_by(200), 1);
        let st = &sh.switches[0];
        assert_eq!(st.blocked, 1 << 66 | 1 << 70, "granted, and waiting");
        assert_eq!(st.waiters[65], 1 << 70);
        let ser = sh.config.phys.serialization_ns(32);
        assert_eq!(sh.grants_by(200 + ser), 2);
    }

    #[test]
    fn first_fabric_past_the_key_entity_field_is_rejected() {
        // `SwitchId`/`HostId` are 16-bit today, so no `Topology` can be
        // this large yet; the guard is what keeps a later widening of
        // the ids from silently wrapping entities into each other's key
        // space. Probe it at the boundary: the last size that fits and
        // the first that does not.
        let max = KEY_MAX_ENTITY as usize;
        let switches = max / 5;
        assert!(check_key_capacity(switches, max - 1 - switches).is_ok());
        let err = check_key_capacity(switches, max - switches).unwrap_err();
        assert!(matches!(err, IbaError::InvalidConfig(_)), "{err:?}");
    }
}
