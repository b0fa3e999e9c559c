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
use iba_routing::{check_escape_routes, EscapeEngine, FaRouting, SlToVlTable};
use iba_topology::{Partition, Topology, TopologyBuilder};
use iba_workloads::{
    FaultKind, FaultSchedule, HostGenerator, PathSet, TrafficScript, WorkloadSpec,
};
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
pub(crate) struct Shard<'a, E: EscapeEngine> {
    /// This shard's index in the partition.
    pub(crate) id: usize,
    topo: &'a Topology,
    routing: &'a FaRouting<E>,
    pub(crate) spec: WorkloadSpec,
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
    /// Whatever listens to this shard's transitions — journeys,
    /// telemetry, the flight recorder (`crate::probe`). `None` (the
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
    /// Recovery tables installed by the last completed re-sweep; `None`
    /// while the primary tables are live.
    pub(crate) recovery_routing: Option<FaRouting<E>>,
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
    /// Replicated events (fault and telemetry ticks, which every shard
    /// executes) popped by a shard other than shard 0; subtracted from
    /// the aggregate event count so totals are shard-count-invariant.
    replicated: u64,
}

impl<'a, E: EscapeEngine> Shard<'a, E> {
    /// Assemble one shard: it owns the switches and hosts `part` assigns
    /// to `id`, while state vectors stay full-size (fault masks are
    /// applied globally).
    pub(crate) fn new(
        topo: &'a Topology,
        routing: &'a FaRouting<E>,
        spec: WorkloadSpec,
        config: SimConfig,
        id: usize,
        part: Arc<Partition>,
    ) -> Result<Shard<'a, E>, IbaError> {
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
            routing,
            spec,
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
            recovery_routing: None,
            key_counters: vec![0; nsw + nh + 1],
            resync_pending: vec![false; nsw * ports],
            outbox: Vec::new(),
            replicated: 0,
        })
    }

    /// Switch trace-driven mode on: clear the synthetic generators and
    /// install the script (validated by the caller).
    pub(crate) fn set_script(&mut self, script: &'a TrafficScript) {
        for h in &mut self.hosts {
            h.gen = None;
        }
        self.script = Some(script);
    }

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

    /// The routing tables currently programmed into the fabric: the
    /// recovery tables once an SM re-sweep has installed them, the
    /// primary tables otherwise.
    #[inline]
    fn cur_routing(&self) -> &FaRouting<E> {
        self.recovery_routing.as_ref().unwrap_or(self.routing)
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
            self.certify_escape(true);
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
            Event::ResweepDone => self.on_resweep_done(now),
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
    /// replicated fault/telemetry pops counted exactly once fabric-wide
    /// (on shard 0), so the aggregate over shards is invariant in the
    /// shard count.
    #[inline]
    pub(crate) fn counted_events(&self) -> u64 {
        self.queue.events_processed() + self.handlers[CLASS_ARBITRATE as usize] - self.replicated
    }

    /// Schedule the first tick of each sampling probe that is armed.
    /// Both ride the event queue like everything else, so their sampling
    /// points are serialized deterministically across backends; a run
    /// without them schedules nothing. (The builder rejects the recorder
    /// on more than one shard.)
    fn prime_ticks(&mut self) {
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
    fn on_telemetry_sample(&mut self, now: SimTime) {
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
    /// rejects the recorder on more than one shard.
    fn on_watchdog_check(&mut self, now: SimTime) {
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
        let routing = self.recovery_routing.as_ref().unwrap_or(self.routing);
        let op = routing.route_by_id(head.route).escape;
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
                Some(sw),
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
    fn on_credit_resync(&mut self, sw: SwitchId, port: PortIndex, free: &InlineVec<Credits, 16>) {
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
    fn on_fault(&mut self, now: SimTime, idx: usize) {
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
            // A re-sweep rebuilds global routing mid-run, so it is a
            // fabric state mutation like the fault that triggered it
            // (the builder rejects SmResweep on more than one shard).
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

    /// The SM re-sweep completes: install routing rebuilt on the
    /// *current* degraded topology and re-route already-buffered packets
    /// against it. If every link is back up the primary tables are
    /// reinstated; if the degraded fabric is disconnected the sweep
    /// fails and the old tables stay live.
    fn on_resweep_done(&mut self, now: SimTime) {
        if self.active_faults == 0 {
            self.recovery_routing = None;
            self.stats.on_recovery_installed(now);
        } else {
            match self.rebuild_degraded_routing() {
                Ok(r) => {
                    self.recovery_routing = Some(r);
                    self.stats.on_recovery_installed(now);
                }
                Err(_) => {
                    self.stats.on_resweep_failed();
                    return;
                }
            }
        }
        // Every freshly installed table set — degraded recovery tables or
        // the reinstated primaries — is certified deadlock-free before
        // traffic resumes on it.
        self.certify_escape(false);
        self.reroute_buffered();
        for s in 0..self.switches.len() {
            self.wake(SwitchId(s as u16));
        }
    }

    /// Certify the currently live tables' escape paths acyclic with
    /// [`check_escape_routes`] (the up\*/down\* deadlock-freedom
    /// invariant), feeding the verdict into the run statistics. With
    /// `alternate` set the APM alternate path set is walked instead of
    /// the primary one. Purely observational: no RNG, no control flow —
    /// certified runs stay bit-identical across queue backends.
    fn certify_escape(&mut self, alternate: bool) {
        let routing = self.recovery_routing.as_ref().unwrap_or(self.routing);
        let ok = routing.certify_escape(self.topo, alternate).is_ok();
        self.stats.on_escape_certification(ok);
    }

    /// Test hook: run an escape certification against an arbitrary
    /// next-hop function through the production stats path, so the
    /// failure-counting plumbing can be exercised with a deliberately
    /// cyclic table.
    pub(crate) fn debug_certify_with(
        &mut self,
        next_hop: impl Fn(SwitchId, HostId) -> Option<PortIndex>,
    ) {
        let ok = check_escape_routes(self.topo, next_hop).is_ok();
        self.stats.on_escape_certification(ok);
    }

    /// Rebuild routing on the degraded topology, in *physical* id order
    /// so the LID space is unchanged and DLIDs of in-flight packets stay
    /// valid (the SMP-level SM pipeline discovers in BFS order and
    /// correlates by GUID; the in-sim re-sweep models its outcome, not
    /// its numbering).
    fn rebuild_degraded_routing(&self) -> Result<FaRouting<E>, IbaError> {
        let mut b = TopologyBuilder::new(self.topo.num_switches(), self.topo.ports_per_switch());
        for s in self.topo.switch_ids() {
            for (p, peer, pp) in self.topo.switch_neighbors(s) {
                if peer.0 > s.0 && self.switches[s.index()].link_up(p.index()) {
                    b.connect_ports(s, p, peer, pp)?;
                }
            }
        }
        for h in self.topo.host_ids() {
            let (sw, port) = self.topo.host_attachment(h);
            b.attach_host_at(sw, port)?;
        }
        let degraded = b.build()?; // errors when the dead link disconnected the fabric
        let cfg = *self.routing.config();
        if self.routing.has_apm() {
            FaRouting::build_apm_with_engine(&degraded, cfg)
        } else if self.routing.source_multipath().is_some() {
            FaRouting::build_source_multipath_with_engine(&degraded, cfg)
        } else {
            let caps: Vec<bool> = self
                .topo
                .switch_ids()
                .map(|s| self.routing.switch_adaptive(s))
                .collect();
            FaRouting::build_mixed_with_engine(&degraded, cfg, &caps)
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
        let routing = self.recovery_routing.as_ref().unwrap_or(self.routing);
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

    fn on_generate(&mut self, now: SimTime, host: HostId) {
        // APM migration: while any link is down, new packets address the
        // alternate path set, steering them off the primary tree without
        // waiting for the SM.
        let migrate = self.recovery == RecoveryPolicy::ApmMigrate && self.active_faults > 0;
        let routing = self.recovery_routing.as_ref().unwrap_or(self.routing);
        let h = &mut self.hosts[host.index()];
        let gp = h.gen.as_mut().expect("synthetic mode").generate();
        let dlid = match routing.source_multipath() {
            // Source-selected multipath: rotate over the destination's
            // whole address range; each address is a distinct fixed path.
            Some(x) => {
                let offset = h.mp_cursor % x;
                h.mp_cursor = (h.mp_cursor + 1) % x;
                routing
                    .lid_map()
                    .lid_for(gp.dst, offset)
                    .expect("offset within the LMC range")
            }
            None if migrate => routing
                .apm_dlid(gp.dst, gp.adaptive)
                .expect("APM tables checked when faults were armed"),
            None => routing
                .dlid(gp.dst, gp.adaptive)
                .expect("validated at construction"),
        };
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
    fn on_generate_scripted(&mut self, now: SimTime, idx: usize) {
        let script = self.script.expect("scripted mode");
        let entry = script.packets()[idx];
        // Scripted path sets are explicit traces and are honoured as
        // written even under ApmMigrate; only the tables may be swapped
        // by an SM re-sweep.
        let routing = self.recovery_routing.as_ref().unwrap_or(self.routing);
        let dlid = match (routing.source_multipath(), entry.path_set) {
            (Some(x), _) => {
                let h = &mut self.hosts[entry.src.index()];
                let offset = h.mp_cursor % x;
                h.mp_cursor = (h.mp_cursor + 1) % x;
                routing
                    .lid_map()
                    .lid_for(entry.dst, offset)
                    .expect("offset within the LMC range")
            }
            (None, PathSet::Primary) => routing
                .dlid(entry.dst, entry.adaptive)
                .expect("validated at construction"),
            (None, PathSet::Alternate) => routing
                .apm_dlid(entry.dst, entry.adaptive)
                .expect("validated at construction"),
        };
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
        dlid: iba_core::Lid,
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
        if queue_full {
            // Finite CA send queue: the new packet is discarded.
            self.stats.on_source_drop();
            emit(&mut self.observers, now, sw, || FlightEvent::Dropped {
                packet: id,
                cause: DropCause::SourceQueueFull,
            });
        } else if let Some(o) = self.observers.as_deref_mut() {
            o.generated(now, id, host);
        }
    }

    fn try_inject(&mut self, now: SimTime, host: HostId) {
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

    /// Account one in-transit loss at `sw`.
    fn drop_in_transit(&mut self, now: SimTime, sw: SwitchId, id: PacketId, cause: DropCause) {
        self.stats.on_transit_drop(now, cause);
        emit(&mut self.observers, now, sw, || FlightEvent::Dropped {
            packet: id,
            cause,
        });
    }

    fn on_header_arrive(
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
            .cur_routing()
            .route_id(sw, packet.dlid)
            .expect("forwarding tables are fully programmed");
        let st = &mut self.switches[sw.index()];
        let input = &mut st.inputs[port.index()];
        input.vls[vl.index()].push(packet, route, ready_at);
        input.resident += 1;
        st.occupied_inputs |= 1 << port.index();
        self.wake_ready(ready_at, sw, port);
    }

    fn on_tx_done(
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

    fn on_credit_return(
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

    /// One arbitration pass: one sweep, in round-robin order, of the
    /// occupied inputs something may have changed for, granting feasible
    /// (input, output) matches. A pass only consumes outputs, credits
    /// and read paths, so what a sweep could not grant a second sweep
    /// cannot either; of the one that used to follow a granting sweep
    /// only its cursor step is left.
    fn arbitrate(&mut self, now: SimTime, sw: SwitchId) {
        if cfg!(debug_assertions) {
            self.assert_blocked_inputs_cannot_be_granted(now, sw);
        }
        let st = &self.switches[sw.index()];
        // Grants remove nothing, so the occupied set holds for the pass.
        let sweep = st.occupied_inputs & !st.blocked;
        self.inputs_visited += u64::from(sweep.count_ones());
        self.empty_passes += u64::from(sweep == 0);
        let mut progress = false;
        for mut inputs in round_robin_split(sweep, st.rr_cursor) {
            while inputs != 0 {
                let ip = inputs.trailing_zeros() as usize;
                inputs &= inputs - 1;
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
        st.rr_cursor = (st.rr_cursor + 1 + usize::from(progress)) % nports;
    }

    /// The oracle behind `SwitchState::blocked` (debug builds, every
    /// pass): looking into a skipped input must grant nothing. Nobody
    /// listens to its looks, so an armed run is checked like a bare one.
    fn assert_blocked_inputs_cannot_be_granted(&mut self, now: SimTime, sw: SwitchId) {
        let observers = self.observers.take();
        let st = &self.switches[sw.index()];
        let mut skipped = st.occupied_inputs & st.blocked;
        while skipped != 0 {
            let ip = skipped.trailing_zeros() as usize;
            skipped &= skipped - 1;
            assert!(
                self.switches[sw.index()].inputs[ip].read_busy_until > now
                    || self.pick_for_input(now, sw, ip).is_err(),
                "{sw} input {ip} is grantable at {now:?} but marked blocked: an unblock is missing"
            );
        }
        self.observers = observers;
    }

    /// Find one forwardable candidate in input port `ip`'s buffers, or
    /// report the outputs the failed look examined (one bit each). The
    /// look says what it decided — the grant, or each candidate nothing
    /// could take, which is where a stall is seen: the caller parks the
    /// input on exactly those outputs.
    fn pick_for_input(&mut self, now: SimTime, sw: SwitchId, ip: usize) -> Result<Decision, u128> {
        let nvls = self.config.data_vls as usize;
        let start = self.switches[sw.index()].inputs[ip].vl_cursor;
        let verdicts = wants_verdicts(&self.observers);
        let mut examined = 0;
        for k in 0..nvls {
            let vl = (start + k) % nvls;
            let cands = {
                let buf = &self.switches[sw.index()].inputs[ip].vls[vl];
                if buf.has_in_flight() {
                    continue;
                }
                let mut cands = buf.candidates(now, self.config.escape_order);
                if !self.routing.switch_adaptive(sw) {
                    // A plain deterministic IBA switch (§4.2 mixed
                    // fabrics) has a single FIFO read point: no escape
                    // head, no pointer redirection.
                    cands.retain(|&(idx, _)| idx == 0);
                }
                cands
            };
            for &(idx, read_point) in &cands {
                let mut options = OptionOutcomes::new();
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
                        self.switches[sw.index()].inputs[ip].vl_cursor = (vl + 1) % nvls;
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
        let routing = self.recovery_routing.as_ref().unwrap_or(self.routing);
        let route = routing.route_by_id(bp.route);
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

    /// Quiescence of one switch: every buffer empty with zero occupancy
    /// and every live sender-side counter back at capacity. Only
    /// meaningful on the owning shard.
    pub(crate) fn switch_quiescent(&self, si: usize) -> bool {
        let cap = self.config.vl_buffer_credits;
        let sw = &self.switches[si];
        sw.inputs.iter().all(|ip| {
            ip.vls
                .iter()
                .all(|b| b.is_empty() && b.occupied() == Credits::ZERO)
        }) && sw.outputs.iter().all(|op| {
            op.credits
                .as_ref()
                .is_none_or(|cs| cs.iter().all(|&c| c == cap))
        })
    }

    /// Quiescence of one host: empty source queue, counters at capacity.
    pub(crate) fn host_quiescent(&self, hi: usize) -> bool {
        let cap = self.config.vl_buffer_credits;
        let h = &self.hosts[hi];
        h.queue.is_empty() && h.credits.iter().all(|&c| c == cap)
    }

    /// Packets resident in one switch's VL buffers.
    pub(crate) fn switch_residual(&self, si: usize) -> usize {
        self.switches[si]
            .inputs
            .iter()
            .flat_map(|ip| ip.vls.iter())
            .map(|b| b.len())
            .sum()
    }

    /// Packets waiting in one host's source queue.
    pub(crate) fn host_residual(&self, hi: usize) -> usize {
        self.hosts[hi].queue.len()
    }

    /// Credit-audit lines for one switch (see `Network::credit_audit`);
    /// ports masked by an open fault window are skipped.
    pub(crate) fn audit_switch_into(&self, si: usize, out: &mut Vec<String>) {
        let cap = self.config.vl_buffer_credits;
        let sw = &self.switches[si];
        for (p, op) in sw.outputs.iter().enumerate() {
            if !sw.link_up(p) {
                continue;
            }
            let Some(cs) = op.credits.as_ref() else {
                continue;
            };
            for (v, &c) in cs.iter().enumerate() {
                if c != cap {
                    out.push(format!(
                        "switch {si} port {p} vl {v}: {}/{} credits",
                        c.count(),
                        cap.count()
                    ));
                }
            }
        }
    }

    /// Credit-audit lines for one host; a host behind a masked
    /// attachment port is skipped.
    pub(crate) fn audit_host_into(&self, hi: usize, out: &mut Vec<String>) {
        let cap = self.config.vl_buffer_credits;
        let h = &self.hosts[hi];
        let (sw, port) = self.topo.host_attachment(HostId(hi as u16));
        if !self.switches[sw.index()].link_up(port.index()) {
            return;
        }
        for (v, &c) in h.credits.iter().enumerate() {
            if c != cap {
                out.push(format!(
                    "host {hi} vl {v}: {}/{} credits",
                    c.count(),
                    cap.count()
                ));
            }
        }
    }

    /// Cumulative transmission time per output port of one switch
    /// (utilization probe numerator).
    pub(crate) fn port_busy_row(&self, si: usize) -> Vec<u64> {
        self.switches[si]
            .outputs
            .iter()
            .map(|op| op.busy_ns_total)
            .collect()
    }

    /// Test hook: zero the sender-side credit counters of one output
    /// port without marking the link down. Nothing can be forwarded
    /// through the port (and, with nothing in flight, no credits ever
    /// return), which wedges any buffer whose packets have no other
    /// feasible option — the credit-withholding flavour of a fabric
    /// wedge, as opposed to the dead-escape-link flavour.
    pub(crate) fn debug_block_output(&mut self, sw: SwitchId, port: PortIndex) {
        if let Some(cs) = self.switches[sw.index()].outputs[port.index()]
            .credits
            .as_mut()
        {
            for c in cs.iter_mut() {
                *c = Credits::ZERO;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

        fn shard(&self, data_vls: u8) -> Shard<'_, iba_routing::UpDownRouting> {
            self.shard_with(SimConfig {
                data_vls,
                ..SimConfig::test(3)
            })
        }

        fn shard_with(&self, cfg: SimConfig) -> Shard<'_, iba_routing::UpDownRouting> {
            let part = Arc::new(Partition::contiguous(&self.topo, 1).unwrap());
            let spec = WorkloadSpec::uniform32(0.01);
            let mut sh = Shard::new(&self.topo, &self.routing, spec, cfg, 0, part).unwrap();
            sh.set_script(&self.script);
            sh
        }
    }

    impl Shard<'_, iba_routing::UpDownRouting> {
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
                tracer: None,
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
            let dump = o.recorder.as_ref().unwrap().dump(3, 4, 2);
            let blocked = dump.events.iter().filter_map(|e| match &e.ev {
                FlightEvent::Blocked { options, .. } if e.sw == Some(S1) => {
                    Some(options[0].verdict)
                }
                _ => None,
            });
            let stalls = o.telemetry.as_ref().unwrap().switches()[1].stalls[1];
            (blocked.collect(), stalls.no_escape_credit)
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
        assert!(sh.recovery_routing.is_some());
        let live = sh.cur_routing();
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
    #[should_panic(expected = "tables that did not issue it")]
    fn a_look_stops_at_a_route_id_of_replaced_tables() {
        // Tables swapped under a buffered header without re-resolving
        // it: the look must stop — in a release build too — rather than
        // forward on whatever decode now sits in the id's slot.
        let rig = Rig::line3();
        let mut sh = rig.shard(1);
        sh.arrive(100, S0, 2, 0, 2);
        assert_eq!(sh.grants_by(150), 0, "inside its routing delay");
        sh.recovery_routing = Some(FaRouting::build(&rig.topo, *rig.routing.config()).unwrap());
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
        let parked = |sh: &Shard<'_, _>| sh.switches[1].waiters[1];
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
        let stalled_at = |sh: &Shard<'_, _>, now| {
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
