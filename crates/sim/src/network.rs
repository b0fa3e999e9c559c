//! The simulation coordinator.
//!
//! [`Network`] wires a [`Topology`] + [`FaTables`] + [`WorkloadSpec`]
//! into a register-transfer-level simulation of an IBA subnet, following
//! §5.1 of the paper:
//!
//! * virtual cut-through switching: a packet is forwarded as soon as its
//!   header has been routed *and* the downstream VL buffer can hold the
//!   whole packet (credit check);
//! * credit-based flow control per VL, in 64-byte credits; the sender
//!   decrements its counter at transmission start, the receiver returns
//!   credits when the packet's tail leaves its buffer, and the return
//!   travels back with the link's propagation delay;
//! * the 100 ns switch routing time covers forwarding-table access,
//!   arbitration and crossbar setup — modelled as a pipeline delay
//!   between header arrival and arbitration eligibility;
//! * serialization at 4 ns/byte (1X link) and 100 ns propagation (20 m
//!   copper), both taken from [`iba_core::PhysParams`];
//! * the split adaptive/escape VL buffers, the per-VL credit split
//!   (`C_A`/`C_E`), and the §4.3 output selection at arbitration time.
//!
//! Hosts are open-loop sources with unbounded source queues and infinite
//! sink buffers (the paper measures fabric performance, not end-node
//! limits).
//!
//! ## Execution
//!
//! The event-handling machinery lives in the (private) `shard` module:
//! a `Shard` owns a connected group of switches, their attached hosts,
//! and a private event queue. This module is the coordinator around it.
//! [`Partition::contiguous`] splits the fabric into `shards(n)`
//! connected regions (one region by default), and the shards
//! synchronize conservatively: every pending-event timestamp is
//! collected, the global minimum plus the link propagation delay bounds
//! a window, and each shard drains its queue up to (and excluding) the
//! window end before any cross-shard message is exchanged. Since every
//! cross-shard effect travels over a physical link (≥ one propagation
//! delay in the future), no shard can receive an event earlier than the
//! window it just executed — classic conservative link-latency
//! lookahead. A lone shard has no peer to wait for, so its single
//! window reaches the run limit.
//!
//! Every event carries a canonical `(class, entity, counter)` key, each
//! switch draws from its own RNG substreams and packet ids are
//! source-local, so each shard's queue order — and therefore the whole
//! simulation — is independent of thread interleaving and of the shard
//! count: for a fixed fabric, `shards(1)`, `shards(2)` and `shards(8)`
//! produce identical results, on any `threads(..)` setting and any
//! event-queue backend.
//!
//! Two subsystems still need the whole fabric in one shard and are
//! rejected by `build()` when combined with `shards(n > 1)`:
//! trace-driven replay (a global script cursor) and a flight recorder
//! that arms a trigger (it must freeze every ring at the same event).
//! A recorder that arms none runs on any shard count: each switch's
//! ring fills in the shard that owns the switch, and the dump takes it
//! from there.
//! [`RecoveryPolicy::SmResweep`] runs on any shard count: every shard
//! executes every fault, so every shard installs the same re-swept
//! tables at the same instant.

use crate::config::{RecoveryPolicy, SimConfig};
use crate::probe::Observers;
use crate::profile::{EngineProfile, WorkerProfile};
use crate::recorder::{FlightDump, FlightRecorder, RecorderOpts, Trigger};
use crate::shard::{check_key_capacity, Mailbox, Shard, CLASS_NAMES};
use crate::stats::{RunResult, StatsCollector};
use crate::telemetry::{MemorySink, TelemetryOpts, TelemetryState};
use iba_core::{HostId, IbaError, PortIndex, SimTime, SwitchId};
use iba_engine::{conservative_window, SpinBarrier};
use iba_routing::{FaTables, TableSource};
use iba_topology::{Partition, Topology};
use iba_workloads::{FaultSchedule, TrafficScript, WorkloadSpec};
use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// An IBA subnet simulation: one or more shards advancing in
/// conservative lookahead windows (see the module docs for the
/// execution model).
pub struct Network<'a> {
    topo: &'a Topology,
    config: SimConfig,
    partition: Arc<Partition>,
    /// Worker threads driving the shards (1 = the calling thread only).
    threads: usize,
    shards: Vec<Shard<'a>>,
    /// The merged telemetry (rebuilt by the observer merge from the
    /// shard-local states at the end of every drive).
    merged_telemetry: Option<MemorySink>,
    /// Whether engine profiling (the `.metrics()` builder option) is
    /// armed.
    metrics_enabled: bool,
    /// Accumulated engine profile, populated by the run loops when
    /// `metrics_enabled`.
    profile: Option<Box<EngineProfile>>,
}

/// The one construction path for [`Network`]: topology and routing up
/// front, then a traffic source (synthetic [`WorkloadSpec`] or replayed
/// [`TrafficScript`]), a [`SimConfig`], and the optional subsystems —
/// faults, telemetry, the flight recorder, sharding — as builder options
/// instead of bolted-on constructors and post-construction mutators.
///
/// ```
/// # use iba_topology::IrregularConfig;
/// # use iba_routing::{FaRouting, RoutingConfig};
/// # use iba_sim::{Network, SimConfig, TelemetryOpts};
/// # use iba_workloads::WorkloadSpec;
/// let topo = IrregularConfig::paper(8, 1).generate().unwrap();
/// let routing = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
/// let mut net = Network::builder(&topo, &routing)
///     .workload(WorkloadSpec::uniform32(0.005))
///     .config(SimConfig::test(7))
///     .telemetry(TelemetryOpts::every_ns(1_000))
///     .build()
///     .unwrap();
/// let result = net.run();
/// assert!(result.delivered > 0);
/// ```
pub struct NetworkBuilder<'a> {
    topo: &'a Topology,
    routing: &'a dyn TableSource,
    workload: Option<WorkloadSpec>,
    script: Option<&'a TrafficScript>,
    config: Option<SimConfig>,
    faults: Option<(&'a FaultSchedule, RecoveryPolicy, u64)>,
    corruption: Option<f64>,
    telemetry: Option<TelemetryOpts>,
    recorder: Option<RecorderOpts>,
    shards: Option<usize>,
    threads: Option<usize>,
    metrics: bool,
}

impl<'a> NetworkBuilder<'a> {
    /// Drive the simulation with synthetic generators (mutually
    /// exclusive with [`Self::script`]).
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.workload = Some(spec);
        self
    }

    /// Replay the exact injections of `script` instead of synthetic
    /// generators (mutually exclusive with [`Self::workload`]).
    pub fn script(mut self, script: &'a TrafficScript) -> Self {
        self.script = Some(script);
        self
    }

    /// The simulator configuration (required; [`Self::build`] checks it
    /// with `SimConfig::validate`).
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Arm a link-fault schedule with the recovery policy answering it.
    /// `resweep_latency_ns` is the modelled duration of one SM re-sweep
    /// (ignored unless the policy is [`RecoveryPolicy::SmResweep`]);
    /// callers wanting a grounded value can time an actual
    /// `ManagedFabric` re-sweep and derive it from the SMP count.
    pub fn faults(
        mut self,
        schedule: &'a FaultSchedule,
        policy: RecoveryPolicy,
        resweep_latency_ns: u64,
    ) -> Self {
        self.faults = Some((schedule, policy, resweep_latency_ns));
        self
    }

    /// Arm transient packet corruption: every packet arriving at a
    /// switch input port independently fails its CRC check with
    /// probability `per_packet_prob` and is dropped (the IBA link layer
    /// has no retransmission; reliability lives in the transport). The
    /// receiver still advertises the freed space back, so corruption
    /// never leaks credits. Draws come from a dedicated RNG substream —
    /// arming corruption does not perturb arbitration or generation.
    pub fn corruption(mut self, per_packet_prob: f64) -> Self {
        self.corruption = Some(per_packet_prob);
        self
    }

    /// Arm the telemetry probes (retrieve the samples and the report
    /// after the run through [`Network::telemetry_sink`]).
    pub fn telemetry(mut self, opts: TelemetryOpts) -> Self {
        self.telemetry = Some(opts);
        self
    }

    /// Arm the flight recorder: bounded per-switch event rings, anomaly
    /// triggers, and the stall watchdog (see [`crate::FlightRecorder`]).
    /// Retrieve the dump after the run through [`Network::flight_dump`].
    /// Rings that never fill (`capacity_per_switch: usize::MAX`) capture
    /// every packet's journey. A recorder that arms a trigger — the drop
    /// trigger, a latency threshold or the watchdog — requires a single
    /// shard (the default [`Self::shards`] of 1).
    pub fn recorder(mut self, opts: RecorderOpts) -> Self {
        self.recorder = Some(opts);
        self
    }

    /// Partition the fabric into `n` shards for parallel execution
    /// (default 1). Results are identical for every `n`, regardless of
    /// [`Self::threads`] and the event-queue backend. See the module
    /// docs for the subsystems that require `n = 1`.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = Some(n);
        self
    }

    /// Worker threads driving the shards (default 1 = the calling
    /// thread alone). Only meaningful with [`Self::shards`] above 1;
    /// never affects results.
    pub fn threads(mut self, t: usize) -> Self {
        self.threads = Some(t);
        self
    }

    /// Arm engine profiling: per-worker wall-clock breakdowns (barrier
    /// waits, window execution, mailbox ingest), conservative-window
    /// shape distributions and per-class handler counts, read after the
    /// run through [`Network::engine_profile`]. Off by default; arming
    /// it adds a handful of `Instant` reads per conservative window.
    /// Never affects simulation results.
    pub fn metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Assemble the simulation. Fails on a missing config or traffic
    /// source, on both traffic sources at once, on more than one shard
    /// combined with a single-shard subsystem, on a fabric with more
    /// entities than an event key can name, and on every
    /// inconsistency the individual subsystems check (workload vs
    /// routing tables, fault schedule vs topology, config invariants).
    pub fn build(self) -> Result<Network<'a>, IbaError> {
        let config = self.config.ok_or_else(|| {
            IbaError::InvalidConfig(
                "NetworkBuilder: a SimConfig is required (use .config(...))".into(),
            )
        })?;
        let num_shards = self.shards.unwrap_or(1);
        if num_shards == 0 {
            return Err(IbaError::InvalidConfig(
                "NetworkBuilder: at least one shard is required".into(),
            ));
        }
        let threads = self.threads.unwrap_or(1).max(1);
        let (spec, script) = match (self.workload, self.script) {
            (Some(spec), None) => (spec, None),
            (None, Some(script)) => (
                validate_script(self.topo, self.routing.tables(), &config, script)?,
                Some(script),
            ),
            (Some(_), Some(_)) => {
                return Err(IbaError::InvalidConfig(
                    "NetworkBuilder: .workload(...) and .script(...) are mutually exclusive".into(),
                ))
            }
            (None, None) => {
                return Err(IbaError::InvalidConfig(
                    "NetworkBuilder: a traffic source is required \
                     (use .workload(...) or .script(...))"
                        .into(),
                ))
            }
        };
        if let Some(p) = self.corruption {
            if !(0.0..=1.0).contains(&p) {
                return Err(IbaError::InvalidConfig(format!(
                    "corruption probability {p} outside [0, 1]"
                )));
            }
        }
        if num_shards > 1 {
            if script.is_some() {
                return Err(IbaError::InvalidConfig(
                    "trace-driven replay requires the serial engine (shards = 1): \
                     the script cursor is a single global sequence"
                        .into(),
                ));
            }
            if self.recorder.is_some_and(|r| r.arms_trigger()) {
                return Err(IbaError::InvalidConfig(
                    "a flight recorder that arms a trigger requires the serial engine \
                     (shards = 1): a trigger freezes every ring at the same event"
                        .into(),
                ));
            }
        }
        check_key_capacity(self.topo.num_switches(), self.topo.num_hosts())?;
        let partition = Arc::new(Partition::contiguous(self.topo, num_shards)?);

        let (nsw, ports) = (
            self.topo.num_switches(),
            self.topo.ports_per_switch() as usize,
        );
        let armed = self.telemetry.is_some() || self.recorder.is_some();
        let mut shards = Vec::with_capacity(num_shards);
        for id in 0..num_shards {
            let mut sh = Shard::new(self.topo, self.routing, spec, config, id, partition.clone())?;
            if let Some(script) = script {
                sh.set_script(script);
            }
            if let Some((schedule, policy, resweep_latency_ns)) = self.faults {
                sh.arm_faults(schedule, policy, resweep_latency_ns)?;
            }
            if let Some(p) = self.corruption {
                sh.corrupt_prob = p;
            }
            // Each shard listens for itself (telemetry samples only its
            // own switches, a recorder fills only their rings); the
            // observer merge and the dump splice the pieces together.
            sh.observers = armed.then(|| {
                Box::new(Observers {
                    telemetry: (self.telemetry).map(|o| TelemetryState::new(o, nsw, ports)),
                    recorder: (self.recorder)
                        .map(|o| FlightRecorder::new(o, nsw, ports, config.data_vls as usize)),
                })
            });
            shards.push(sh);
        }

        Ok(Network {
            topo: self.topo,
            config,
            partition,
            threads,
            shards,
            merged_telemetry: None,
            metrics_enabled: self.metrics,
            profile: None,
        })
    }
}

/// The trace-driven-mode validations (script vs topology, routing
/// capabilities, VL separation of alternate paths), returning the
/// placeholder [`WorkloadSpec`] whose packet size mirrors the script's
/// largest packet (only the size participates in buffer validation).
fn validate_script(
    topo: &Topology,
    routing: &FaTables,
    config: &SimConfig,
    script: &TrafficScript,
) -> Result<WorkloadSpec, IbaError> {
    if let Some(max) = script.max_host() {
        if max.index() >= topo.num_hosts() {
            return Err(IbaError::InvalidConfig(format!(
                "script references {max} but the topology has {} hosts",
                topo.num_hosts()
            )));
        }
    }
    if script.uses_adaptive() && routing.config().table_options < 2 {
        return Err(IbaError::InvalidConfig(
            "adaptive script entries require at least 2 routing options".into(),
        ));
    }
    if script.uses_alternate() {
        if !routing.has_apm() {
            return Err(IbaError::InvalidConfig(
                "alternate-path script entries require APM tables \
                 (FaRouting::build_with_apm)"
                    .into(),
            ));
        }
        // The two escape orientations are only jointly deadlock-free
        // on disjoint virtual lanes: every SL used by alternate
        // entries must map to a different VL than every primary SL.
        let (primary, alternate) = script.sls_by_path_set();
        let vl_of = |sl: iba_core::ServiceLevel| sl.0 % config.data_vls;
        for a in &alternate {
            if primary.iter().any(|p| vl_of(*p) == vl_of(*a)) {
                return Err(IbaError::InvalidConfig(format!(
                    "alternate-path SL {a} shares a VL with primary traffic; \
                     put the path sets on SLs mapping to disjoint VLs \
                     (data_vls = {})",
                    config.data_vls
                )));
            }
        }
    }
    Ok(WorkloadSpec {
        packet_bytes: script.max_packet_bytes().max(1),
        adaptive_fraction: 0.0,
        ..WorkloadSpec::uniform32(1e-6)
    })
}

/// What the workers of one [`Network::execute_windows`] call share.
struct WindowCtx {
    /// Minimum cross-shard latency: how far past the global minimum
    /// timestamp a shard may run before it must exchange messages.
    lookahead_ns: u64,
    limit_ns: u64,
    max_total: u64,
    mailboxes: Vec<Mailbox>,
    /// Each shard's next pending timestamp and counted events, published
    /// by its worker after every ingest.
    next_times: Vec<AtomicU64>,
    counted: Vec<AtomicU64>,
    barrier: SpinBarrier,
    hit_budget: AtomicBool,
    /// Workers fold their profile fragments in here at exit (`None` =
    /// profiling off; the window loop then only tests a bool).
    profile: Option<Mutex<EngineProfile>>,
}

impl WindowCtx {
    /// One worker's window loop over its chunk of shards (`base` is the
    /// chunk's first shard index).
    fn run_worker(&self, wi: usize, base: usize, shards: &mut [Shard<'_>]) {
        let metrics = self.profile.is_some();
        let clock = || metrics.then(Instant::now);
        let since = |t: Option<Instant>| t.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let mut wp = WorkerProfile {
            worker: wi,
            shards: shards.len(),
            ..WorkerProfile::default()
        };
        // Window-shape observations are identical in every worker (all
        // compute the same window), so worker 0 records them for the
        // fabric.
        let mut shape = (metrics && wi == 0).then(EngineProfile::default);
        let mut prev_total: Option<u64> = None;
        loop {
            // Decide: every worker reads the same published values
            // (stores precede barrier B, reads follow it), computes the
            // same window, and therefore takes the same branch — no
            // worker can strand another at a barrier.
            let total: u64 = self.counted.iter().map(|c| c.load(Ordering::Acquire)).sum();
            if let Some(shape) = shape.as_mut() {
                if let Some(prev) = prev_total {
                    shape.events_per_window.record(total - prev);
                }
                prev_total = Some(total);
            }
            if total >= self.max_total {
                self.hit_budget.store(true, Ordering::Release);
                break;
            }
            let next: Vec<u64> = self
                .next_times
                .iter()
                .map(|t| t.load(Ordering::Acquire))
                .collect();
            let Some(w) = conservative_window(&next, self.lookahead_ns) else {
                break;
            };
            if w.start_ns > self.limit_ns {
                break;
            }
            // `run_window`'s limit is inclusive; the window end is exclusive.
            let exec = SimTime::from_ns((w.end_ns - 1).min(self.limit_ns));
            if let Some(shape) = shape.as_mut() {
                shape.windows += 1;
                shape.window_width_ns.record(exec.as_ns() + 1 - w.start_ns);
            }
            let t = clock();
            for sh in shards.iter_mut() {
                sh.run_window(exec, self.max_total);
                sh.flush_outbox(&self.mailboxes);
            }
            wp.run_ns += since(t);
            let t = clock();
            self.barrier.wait(); // A: every outbox flushed
            wp.barrier_a_wait_ns += since(t);
            let t = clock();
            for (i, sh) in shards.iter_mut().enumerate() {
                let msgs = std::mem::take(
                    &mut *self.mailboxes[base + i].lock().expect("mailbox poisoned"),
                );
                wp.mailbox_msgs += msgs.len() as u64;
                sh.ingest(msgs);
                self.next_times[base + i].store(sh.next_time_ns(), Ordering::Release);
                self.counted[base + i].store(sh.counted_events(), Ordering::Release);
            }
            wp.ingest_ns += since(t);
            let t = clock();
            self.barrier.wait(); // B: every ingest published
            wp.barrier_b_wait_ns += since(t);
        }
        if let Some(pc) = self.profile.as_ref() {
            let mut frag = shape.unwrap_or_default();
            frag.mailbox_msgs = wp.mailbox_msgs;
            frag.worker_profiles = vec![wp];
            pc.lock().expect("profile poisoned").absorb(&frag);
        }
    }
}

impl<'a> Network<'a> {
    /// Start building a simulation over `topo` with `routing`'s tables
    /// (an `&FaRouting<E>` coerces) — see [`NetworkBuilder`] for the
    /// options.
    pub fn builder(topo: &'a Topology, routing: &'a dyn TableSource) -> NetworkBuilder<'a> {
        NetworkBuilder {
            topo,
            routing,
            workload: None,
            script: None,
            config: None,
            faults: None,
            corruption: None,
            telemetry: None,
            recorder: None,
            shards: None,
            threads: None,
            metrics: false,
        }
    }

    /// Current simulated time: the furthest shard clock (shard clocks
    /// never differ by more than one conservative window).
    pub fn now(&self) -> SimTime {
        self.shards
            .iter()
            .map(|s| s.queue.now())
            .max()
            .expect("at least one shard")
    }

    /// Number of links currently down.
    pub fn active_faults(&self) -> usize {
        // Fault events are replicated: every shard applies every fault,
        // so shard 0's count is the fabric's.
        self.shards[0].active_faults
    }

    /// Whether SM recovery tables (rather than the primary tables) are
    /// currently live.
    pub fn recovery_installed(&self) -> bool {
        matches!(self.shards[0].routing, Cow::Owned(_))
    }

    /// The merged telemetry — every occupancy sample and the
    /// accumulated report — as of the end of the last drive (`None`
    /// unless telemetry was armed and a drive has finished).
    pub fn telemetry_sink(&self) -> Option<&MemorySink> {
        self.merged_telemetry.as_ref()
    }

    /// Drain the flight recorder into an exportable [`FlightDump`]
    /// (`None` unless the recorder was armed through the builder): each
    /// switch's ring from the shard that owns the switch, in the one
    /// canonical order, so the dump is the same at every shard count.
    pub fn flight_dump(&self) -> Option<FlightDump> {
        let owner = |sw: SwitchId| self.partition.shard_of_switch(sw);
        Some(FlightRecorder::merge(&self.recorders()?, owner))
    }

    /// `flight_dump()`'s `triggers`, without copying or sorting a ring
    /// (`None` unless the recorder was armed).
    pub fn flight_triggers(&self) -> Option<Vec<Trigger>> {
        let rs = self.recorders()?;
        Some(rs.iter().flat_map(|r| r.triggers()).copied().collect())
    }

    /// Every shard's recorder, or `None` when none was armed.
    fn recorders(&self) -> Option<Vec<&FlightRecorder>> {
        (self.shards.iter())
            .map(|s| s.observers.as_deref()?.recorder.as_ref())
            .collect()
    }

    /// The shard owning switch `si`.
    #[inline]
    fn shard_for_switch(&self, si: usize) -> usize {
        self.partition.shard_of_switch(SwitchId(si as u16))
    }

    /// The shard owning host `hi`.
    #[inline]
    fn shard_for_host(&self, hi: usize) -> usize {
        self.partition.shard_of_host(HostId(hi as u16))
    }

    /// Test hook: zero the sender-side credit counters of one output
    /// port without marking the link down. Nothing can be forwarded
    /// through the port (and, with nothing in flight, no credits ever
    /// return), which wedges any buffer whose packets have no other
    /// feasible option — the credit-withholding flavour of a fabric
    /// wedge, as opposed to the dead-escape-link flavour.
    #[doc(hidden)]
    pub fn debug_block_output(&mut self, sw: SwitchId, port: PortIndex) {
        let sid = self.shard_for_switch(sw.index());
        self.shards[sid].debug_block_output(sw, port);
    }

    /// Run until the measurement horizon, returning the per-run result.
    pub fn run(&mut self) -> RunResult {
        self.drive(self.config.horizon()).0
    }

    /// Run with generation stopped at `stop_generation`, continuing until
    /// every event has drained (all in-flight packets delivered) or
    /// `hard_deadline` passes. Returns the result and whether the network
    /// fully drained — the deadlock-freedom check used by the test suite.
    pub fn run_until_drained(
        &mut self,
        stop_generation: SimTime,
        hard_deadline: SimTime,
    ) -> (RunResult, bool) {
        for sh in self.shards.iter_mut() {
            sh.gen_deadline = stop_generation;
        }
        let (result, hit_budget) = self.drive(hard_deadline);
        let drained = !hit_budget && self.shards.iter().all(|s| s.next_time_ns() == u64::MAX);
        // Packets dropped at full source queues never entered the fabric,
        // and packets lost on a failed link are resolved, not in flight —
        // every other generated packet must have been delivered.
        let fully_drained = drained
            && result.delivered + result.drops_in_transit == result.generated - result.source_drops;
        (result, fully_drained)
    }

    /// The one measurement drive: prime, run windows up to `limit` under
    /// the configured event budget, merge observers and statistics.
    /// Returns the result and whether the budget stopped the run. The
    /// wall clock covers all of it (priming and both merges included),
    /// so `events_per_sec` is what a caller timing `run()` from outside
    /// would compute.
    fn drive(&mut self, limit: SimTime) -> (RunResult, bool) {
        let wall_start = Instant::now();
        for sh in self.shards.iter_mut() {
            sh.prime();
        }
        let hit_budget = self.execute_windows(limit, self.config.max_events);
        self.finalize_observers();
        let events = self.total_events();
        let num_switches = self.topo.num_switches();
        let stats = self.merge_stats();
        (
            stats.finish(num_switches, events, wall_start.elapsed()),
            hit_budget,
        )
    }

    /// Process up to `max_events` further events (priming the generators
    /// on first use), stopping early at the configured horizon. Returns
    /// the number of events actually processed. A stepping hook for
    /// benchmarks and diagnostics; [`Self::run`] and
    /// [`Self::run_until_drained`] remain the measurement entry points.
    /// With more than one shard the budget binds between conservative
    /// windows, so the run may overshoot `max_events` by up to one
    /// window's worth of events.
    pub fn advance(&mut self, max_events: u64) -> u64 {
        for sh in self.shards.iter_mut() {
            sh.prime();
        }
        let before = self.total_events();
        self.execute_windows(self.config.horizon(), before.saturating_add(max_events));
        self.total_events() - before
    }

    /// Events processed fabric-wide, with replicated events (faults,
    /// telemetry ticks) counted once — invariant in the shard count.
    fn total_events(&self) -> u64 {
        self.shards.iter().map(|s| s.counted_events()).sum()
    }

    /// Run conservative lookahead windows until every queue is drained,
    /// `limit` is passed, or `max_total` fabric-wide events have been
    /// processed. Returns whether the event budget stopped the run.
    ///
    /// Shards are split into contiguous chunks, one worker per chunk;
    /// worker 0 runs on the calling thread, so a single worker spawns
    /// nothing. `workers` is recomputed from the chunk size so the
    /// barrier matches the number of workers actually started (e.g. 4
    /// shards over 3 requested threads → chunks of 2 → 2 workers).
    fn execute_windows(&mut self, limit: SimTime, max_total: u64) -> bool {
        let nshards = self.shards.len();
        let chunk = nshards.div_ceil(self.threads.clamp(1, nshards));
        let workers = nshards.div_ceil(chunk);
        let ctx = WindowCtx {
            // A lone shard has no peer whose messages it must wait for.
            lookahead_ns: if nshards == 1 {
                u64::MAX
            } else {
                self.config.phys.propagation_ns
            },
            limit_ns: limit.as_ns(),
            max_total,
            mailboxes: (0..nshards).map(|_| Mutex::new(Vec::new())).collect(),
            next_times: self
                .shards
                .iter()
                .map(|s| AtomicU64::new(s.next_time_ns()))
                .collect(),
            counted: self
                .shards
                .iter()
                .map(|s| AtomicU64::new(s.counted_events()))
                .collect(),
            barrier: SpinBarrier::new(workers),
            hit_budget: AtomicBool::new(false),
            profile: self.metrics_enabled.then(|| {
                Mutex::new(EngineProfile {
                    shards: nshards,
                    workers,
                    ..EngineProfile::default()
                })
            }),
        };
        let started = Instant::now();
        let mut chunks = self.shards.chunks_mut(chunk).enumerate();
        let (_, first) = chunks.next().expect("at least one shard");
        std::thread::scope(|scope| {
            let ctx = &ctx;
            for (wi, chunk_shards) in chunks {
                scope.spawn(move || ctx.run_worker(wi, wi * chunk, chunk_shards));
            }
            ctx.run_worker(0, 0, first);
        });
        if let Some(pc) = ctx.profile {
            let mut frag = pc.into_inner().expect("profile poisoned");
            frag.wall_ns = started.elapsed().as_nanos() as u64;
            let p = self.profile.get_or_insert_with(Box::default);
            p.absorb(&frag);
            // The shards' counters are cumulative: set, not added.
            let shards = &self.shards;
            p.handlers = (CLASS_NAMES.iter().enumerate())
                .map(|(c, &name)| (name, shards.iter().map(|s| s.handlers[c]).sum()))
                .collect();
            p.grants = shards.iter().map(|s| s.grants).sum();
            p.inputs_visited = shards.iter().map(|s| s.inputs_visited).sum();
            p.looks = shards.iter().map(|s| s.looks).sum();
            p.empty_passes = shards.iter().map(|s| s.empty_passes).sum();
            let paths = |i: usize| shards.iter().map(|s| s.queue.schedule_paths()[i]).sum();
            (p.lane_pushes, p.heap_pushes) = (paths(0), paths(1));
        }
        ctx.hit_budget.into_inner()
    }

    /// The accumulated engine profile (`None` unless `.metrics()` was
    /// armed and a run has executed).
    pub fn engine_profile(&self) -> Option<&EngineProfile> {
        self.profile.as_deref()
    }

    /// The observer merge, run at the end of every drive: rebuild the
    /// merged telemetry from the shard states.
    fn finalize_observers(&mut self) {
        let states: Vec<&TelemetryState> = (self.shards.iter())
            .filter_map(|s| s.observers.as_deref()?.telemetry.as_ref())
            .collect();
        if !states.is_empty() {
            self.merged_telemetry = Some(MemorySink::merge(&states));
        }
    }

    /// Fold every other shard's collector into shard 0's, in place, and
    /// return it as the fabric-wide collector (with one shard there is
    /// nothing to fold). The fold drains what it absorbs, so repeating
    /// it — a second run, `advance` between runs — never double-counts.
    fn merge_stats(&mut self) -> &StatsCollector {
        let (first, rest) = self.shards.split_first_mut().expect("at least one shard");
        for sh in rest {
            first.stats.absorb(&mut sh.stats);
        }
        &first.stats
    }

    /// Whether every buffer is empty, every credit counter restored to
    /// capacity and every source queue empty — the quiescence invariant
    /// after a full drain. Each entity is checked in its owning shard
    /// (the only shard whose copy of that state advances).
    pub fn is_quiescent(&self) -> bool {
        (0..self.topo.num_switches())
            .all(|si| self.shards[self.shard_for_switch(si)].switch_quiescent(si))
            && (0..self.topo.num_hosts())
                .all(|hi| self.shards[self.shard_for_host(hi)].host_quiescent(hi))
    }

    /// Packets still resident in the fabric: everything buffered in
    /// switch VL buffers plus everything waiting in host source queues.
    /// After a drain this is exactly the `in-flight` term of the
    /// conservation invariant `generated = delivered + dropped +
    /// in-flight`.
    pub fn residual_packets(&self) -> usize {
        (0..self.topo.num_switches())
            .map(|si| self.shards[self.shard_for_switch(si)].switch_residual(si))
            .sum::<usize>()
            + (0..self.topo.num_hosts())
                .map(|hi| self.shards[self.shard_for_host(hi)].host_residual(hi))
                .sum::<usize>()
    }

    /// Per-VL credit-conservation audit: after a full drain every
    /// sender-side counter on a *live* link and every host counter on a
    /// live attachment must be back at capacity. Returns one
    /// human-readable line per violation (empty means conserved); ports
    /// still masked by an open fault window are skipped, since their
    /// counters are only re-synchronized when the link retrains.
    pub fn credit_audit(&self) -> Vec<String> {
        let mut out = Vec::new();
        for si in 0..self.topo.num_switches() {
            self.shards[self.shard_for_switch(si)].audit_switch_into(si, &mut out);
        }
        for hi in 0..self.topo.num_hosts() {
            self.shards[self.shard_for_host(hi)].audit_host_into(hi, &mut out);
        }
        out
    }

    /// Per-(switch, output port) link utilization: cumulative
    /// transmission time divided by elapsed simulated time. A congestion
    /// probe — under pure up\*/down\* routing the ports around the tree
    /// root run visibly hotter than the rest (the §5.2.1 effect).
    pub fn port_utilization(&self) -> Vec<Vec<f64>> {
        let elapsed = self.now().as_ns().max(1) as f64;
        (0..self.topo.num_switches())
            .map(|si| {
                self.shards[self.shard_for_switch(si)]
                    .port_busy_row(si)
                    .into_iter()
                    .map(|busy| busy as f64 / elapsed)
                    .collect()
            })
            .collect()
    }

    /// Mean utilization of a switch's inter-switch links.
    pub fn switch_link_utilization(&self, s: SwitchId) -> f64 {
        let util = &self.port_utilization()[s.index()];
        let mut sum = 0.0;
        let mut n = 0usize;
        for (p, u) in util.iter().enumerate() {
            let is_switch_link = self
                .topo
                .endpoint(s, PortIndex(p as u8))
                .is_some_and(|ep| ep.node.is_switch());
            if is_switch_link {
                sum += u;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}
