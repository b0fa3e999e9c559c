//! Measurement collection and the per-run result.
//!
//! The paper reports two quantities per simulation point (§5.1):
//!
//! * **average packet latency** — "the elapsed time between the
//!   generation of a packet at the source host until it is delivered at
//!   the destination end-node" (footnote 4), in nanoseconds;
//! * **accepted traffic** — "the amount of information delivered by the
//!   network per time unit", in bytes/ns/switch.
//!
//! Latency is averaged over packets *generated inside* the measurement
//! window (after warm-up) and delivered before the horizon; accepted
//! traffic counts all bytes delivered inside the window.

use iba_core::{DropCause, HostId, Json, Lid, Packet, RoutingMode, ServiceLevel, SimTime};
use iba_stats::LogHistogram;
use std::time::Duration;

/// Live accumulator updated by the simulator.
#[derive(Debug)]
pub struct StatsCollector {
    window_start: SimTime,
    window_end: SimTime,
    /// Packets generated (all time / inside window).
    pub(crate) generated: u64,
    generated_window: u64,
    /// Packets injected into the fabric (left the source queue).
    pub(crate) injected: u64,
    /// Packets delivered (all time).
    pub(crate) delivered: u64,
    delivered_bytes_window: u64,
    latency_sum_ns: u128,
    latency_max_ns: u64,
    latency_count: u64,
    /// End-to-end latency of measured packets, log-linear buckets
    /// (bounded relative quantile error) — the source of the
    /// p50/p90/p99/p999 fields of [`RunResult`].
    latency_hist: LogHistogram,
    hops_sum: u64,
    escape_forwards: u64,
    adaptive_forwards: u64,
    max_host_queue: usize,
    /// Packets discarded at full source queues (finite-queue mode).
    pub(crate) source_drops: u64,
    /// Per (src, DLID, SL) flow order tracker.
    last_det_seq: OrderTracker,
    /// Number of deterministic packets delivered out of order.
    pub(crate) order_violations: u64,
    /// Number of deterministic packets delivered twice (the exact
    /// duplicate-of-latest case; an older duplicate is indistinguishable
    /// from an order violation and counts there).
    pub(crate) duplicate_deliveries: u64,
    /// Fault events (link or switch down) applied to the fabric.
    pub faults: u64,
    first_fault_at: Option<SimTime>,
    recovery_installed_at: Option<SimTime>,
    resweeps: u64,
    resweeps_failed: u64,
    transit_drops: u64,
    transit_drops_after_recovery: u64,
    drops_link_down: u64,
    drops_switch_down: u64,
    drops_corrupted: u64,
    escape_certifications: u64,
    escape_cert_failures: u64,
}

/// Per-flow in-order tracker: one past the highest sequence number
/// delivered by a deterministic packet of each `(src, DLID, SL)` flow
/// ("delivered through"). IBA orders
/// traffic per path and service level: the exact DLID names the path
/// (both under the paper's scheme — where the low bit selects
/// deterministic routing — and under source-selected multipath, where
/// each address is a distinct fixed path); different SLs may ride
/// different VLs and overtake freely.
///
/// The key space is dense — sources × the LID table length per service
/// level — so the tracker is a flat array rather than a hash map: the
/// per-delivery update is one multiply-add and one store, with no
/// hashing in the event loop. The layout is SL-major, one
/// `hosts × lid_space` plane per service level, and only the planes up
/// to the highest SL seen are allocated: single-SL traffic (every paper
/// experiment) holds one plane, not sixteen.
/// Storing `seq + 1` keeps `0` as an unambiguous "nothing delivered
/// yet" — a re-delivery of sequence 0 is detectable as a duplicate
/// instead of colliding with the empty sentinel.
#[derive(Debug)]
struct OrderTracker {
    /// `planes × hosts × lid_space` watermarks, indexed
    /// `(sl × hosts + src) × lid_space + dlid`.
    last: Vec<u64>,
    /// Source stripes per plane.
    hosts: usize,
    /// LIDs per source stripe (the routing table length).
    lid_space: usize,
}

impl OrderTracker {
    /// No plane yet: like every later one, the first is added by the
    /// first deterministic delivery that needs it, so a run without
    /// deterministic traffic never asks for `hosts × lid_space` words.
    fn new(num_hosts: usize, lid_space: usize) -> OrderTracker {
        OrderTracker {
            last: Vec::new(),
            hosts: num_hosts.max(1),
            lid_space: lid_space.max(1),
        }
    }

    #[inline]
    fn slot(&mut self, src: HostId, dlid: Lid, sl: ServiceLevel) -> &mut u64 {
        let (src, dlid, sl) = (src.index(), dlid.0 as usize, sl.0 as usize);
        debug_assert!(sl < 16, "an IBA service level is four bits");
        if src >= self.hosts || dlid >= self.lid_space {
            self.restride(src, dlid);
        }
        let idx = (sl * self.hosts + src) * self.lid_space + dlid;
        if idx >= self.last.len() {
            // First delivery on this service level: add the planes up to
            // it, as zeroed pages that stay untouched until written.
            let mut grown = vec![0; (sl + 1) * self.hosts * self.lid_space];
            grown[..self.last.len()].copy_from_slice(&self.last);
            self.last = grown;
        }
        &mut self.last[idx]
    }

    /// Widen the planes to hold `(src, dlid)`, keeping every watermark.
    /// Only reachable when the collector was built with placeholder
    /// dimensions (unit tests); the simulator passes the exact ones. An
    /// index past a stripe must never land in the neighbouring stripe.
    #[cold]
    fn restride(&mut self, src: usize, dlid: usize) {
        let hosts = self.hosts.max(src + 1);
        let lid_space = self.lid_space.max(dlid + 1);
        let planes = self.last.len() / (self.hosts * self.lid_space);
        let mut last = vec![0; planes * hosts * lid_space];
        for (stripe, old) in self.last.chunks(self.lid_space).enumerate() {
            let (plane, host) = (stripe / self.hosts, stripe % self.hosts);
            let at = (plane * hosts + host) * lid_space;
            last[at..at + self.lid_space].copy_from_slice(old);
        }
        *self = OrderTracker {
            last,
            hosts,
            lid_space,
        };
    }
}

impl StatsCollector {
    /// Collector for a `[window_start, window_end)` measurement window.
    /// `num_hosts` and `lid_space` (the routing-table length) size one
    /// service-level plane of the dense in-order tracker.
    pub fn new(
        window_start: SimTime,
        window_end: SimTime,
        num_hosts: usize,
        lid_space: usize,
    ) -> StatsCollector {
        StatsCollector {
            window_start,
            window_end,
            generated: 0,
            generated_window: 0,
            injected: 0,
            delivered: 0,
            delivered_bytes_window: 0,
            latency_sum_ns: 0,
            latency_max_ns: 0,
            latency_count: 0,
            latency_hist: LogHistogram::new(),
            hops_sum: 0,
            escape_forwards: 0,
            adaptive_forwards: 0,
            max_host_queue: 0,
            source_drops: 0,
            last_det_seq: OrderTracker::new(num_hosts, lid_space),
            order_violations: 0,
            duplicate_deliveries: 0,
            faults: 0,
            first_fault_at: None,
            recovery_installed_at: None,
            resweeps: 0,
            resweeps_failed: 0,
            transit_drops: 0,
            transit_drops_after_recovery: 0,
            drops_link_down: 0,
            drops_switch_down: 0,
            drops_corrupted: 0,
            escape_certifications: 0,
            escape_cert_failures: 0,
        }
    }

    #[inline]
    fn in_window(&self, t: SimTime) -> bool {
        t >= self.window_start && t < self.window_end
    }

    /// A packet was generated at a source host.
    pub(crate) fn on_generated(&mut self, at: SimTime) {
        self.generated += 1;
        if self.in_window(at) {
            self.generated_window += 1;
        }
    }

    /// A packet was generated against a full source queue and dropped.
    pub(crate) fn on_source_drop(&mut self) {
        self.source_drops += 1;
    }

    /// A packet left its source queue into the fabric.
    pub(crate) fn on_injected(&mut self, queue_len: usize) {
        self.injected += 1;
        self.max_host_queue = self.max_host_queue.max(queue_len);
    }

    /// A switch forwarded a packet through an adaptive (minimal) option.
    pub(crate) fn on_adaptive_forward(&mut self) {
        self.adaptive_forwards += 1;
    }

    /// A switch forwarded a packet through its escape option.
    pub(crate) fn on_escape_forward(&mut self) {
        self.escape_forwards += 1;
    }

    /// A fault (link or switch down) took effect in the fabric.
    pub(crate) fn on_fault(&mut self, at: SimTime) {
        self.faults += 1;
        if self.first_fault_at.is_none() {
            self.first_fault_at = Some(at);
        }
    }

    /// The SM re-sweep installed routing tables at `at`. The first
    /// install closes the recovery window: `recovery_time_ns` is the
    /// time from the first fault to the first successful LFT
    /// (re)programming, a pure control-plane quantity independent of
    /// whatever traffic happens to be in flight. Every shard marks it,
    /// for the drops it sees after recovery.
    pub(crate) fn on_recovery_installed(&mut self, at: SimTime) {
        self.recovery_installed_at.get_or_insert(at);
    }

    /// An SM re-sweep completed: its tables were installed, or it was
    /// refused (degraded fabric disconnected, or tables that do not
    /// certify). Counted once fabric-wide.
    pub(crate) fn on_resweep(&mut self, installed: bool) {
        match installed {
            true => self.resweeps += 1,
            false => self.resweeps_failed += 1,
        }
    }

    /// A packet was lost in transit (dead link, dead switch, or CRC
    /// failure), attributed per cause so conservation totals stay
    /// decomposable.
    pub(crate) fn on_transit_drop(&mut self, at: SimTime, cause: DropCause) {
        self.transit_drops += 1;
        match cause {
            DropCause::LinkDown => self.drops_link_down += 1,
            DropCause::SwitchDown => self.drops_switch_down += 1,
            DropCause::Corrupted => self.drops_corrupted += 1,
            // Source-queue drops go through `on_source_drop`; reaching
            // here with that cause is a caller bug.
            DropCause::SourceQueueFull => debug_assert!(false, "not an in-transit cause"),
        }
        if self.recovery_installed_at.is_some_and(|t| at >= t) {
            self.transit_drops_after_recovery += 1;
        }
    }

    /// An escape-route certification (`check_escape_routes` over
    /// re-swept, reinstated or first-migrated tables) completed.
    pub(crate) fn on_escape_certification(&mut self, ok: bool) {
        self.escape_certifications += 1;
        if !ok {
            self.escape_cert_failures += 1;
        }
    }

    /// A packet's tail reached its destination host.
    pub(crate) fn on_delivered(&mut self, packet: &Packet, at: SimTime) {
        self.delivered += 1;
        if self.in_window(at) {
            self.delivered_bytes_window += packet.size_bytes as u64;
        }
        if self.in_window(packet.generated_at) {
            let lat = at.since(packet.generated_at);
            self.latency_sum_ns += lat as u128;
            self.latency_max_ns = self.latency_max_ns.max(lat);
            self.latency_count += 1;
            self.latency_hist.record(lat);
            self.hops_sum += packet.hops as u64;
        }
        if packet.mode() == RoutingMode::Deterministic {
            let last = self.last_det_seq.slot(packet.src, packet.dlid, packet.sl);
            let through = *last; // one past the highest delivered seq
            if packet.seq + 1 == through {
                self.duplicate_deliveries += 1;
            } else if packet.seq + 1 < through {
                self.order_violations += 1;
            } else {
                *last = packet.seq + 1;
            }
        }
    }

    /// Fold another collector (same window and tracker dimensions) into
    /// this one, draining it — how the run combines shard-local
    /// statistics into shard 0's collector. Counters move over (the
    /// source is left at zero, so folding again after a further run
    /// never double-counts); extrema take the max; first-occurrence
    /// times take the min. The order trackers stay where they are: a
    /// `(src, DLID, SL)` flow is delivered in exactly one shard, whose
    /// tracker goes on checking it; only the violation and duplicate
    /// counters fold.
    pub(crate) fn absorb(&mut self, other: &mut StatsCollector) {
        use std::mem::take;
        debug_assert_eq!(self.window_start, other.window_start);
        debug_assert_eq!(self.window_end, other.window_end);
        self.generated += take(&mut other.generated);
        self.generated_window += take(&mut other.generated_window);
        self.injected += take(&mut other.injected);
        self.delivered += take(&mut other.delivered);
        self.delivered_bytes_window += take(&mut other.delivered_bytes_window);
        self.latency_sum_ns += take(&mut other.latency_sum_ns);
        self.latency_max_ns = self.latency_max_ns.max(other.latency_max_ns);
        self.latency_count += take(&mut other.latency_count);
        self.latency_hist.merge(&take(&mut other.latency_hist));
        self.hops_sum += take(&mut other.hops_sum);
        self.escape_forwards += take(&mut other.escape_forwards);
        self.adaptive_forwards += take(&mut other.adaptive_forwards);
        self.max_host_queue = self.max_host_queue.max(other.max_host_queue);
        self.source_drops += take(&mut other.source_drops);
        self.order_violations += take(&mut other.order_violations);
        self.duplicate_deliveries += take(&mut other.duplicate_deliveries);
        self.faults += take(&mut other.faults);
        self.first_fault_at = match (self.first_fault_at, other.first_fault_at) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.recovery_installed_at = match (self.recovery_installed_at, other.recovery_installed_at)
        {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.resweeps += take(&mut other.resweeps);
        self.resweeps_failed += take(&mut other.resweeps_failed);
        self.transit_drops += take(&mut other.transit_drops);
        self.transit_drops_after_recovery += take(&mut other.transit_drops_after_recovery);
        self.drops_link_down += take(&mut other.drops_link_down);
        self.drops_switch_down += take(&mut other.drops_switch_down);
        self.drops_corrupted += take(&mut other.drops_corrupted);
        self.escape_certifications += take(&mut other.escape_certifications);
        self.escape_cert_failures += take(&mut other.escape_cert_failures);
    }

    /// Finalize into a [`RunResult`], given the number of switches, the
    /// events processed, and the wall-clock time the event loop took.
    pub fn finish(&self, num_switches: usize, events: u64, wall: Duration) -> RunResult {
        let window_ns = self.window_end.since(self.window_start);
        let wall_time_s = wall.as_secs_f64();
        RunResult {
            schema_version: RUN_RESULT_SCHEMA_VERSION,
            generated: self.generated,
            injected: self.injected,
            delivered: self.delivered,
            avg_latency_ns: if self.latency_count == 0 {
                f64::NAN
            } else {
                self.latency_sum_ns as f64 / self.latency_count as f64
            },
            max_latency_ns: self.latency_max_ns,
            // All four percentiles come from the log-linear histogram:
            // bounded relative error, and None (never NaN/garbage) when
            // zero packets were measured.
            p50_latency_ns: self.latency_hist.quantile(0.5),
            p90_latency_ns: self.latency_hist.quantile(0.9),
            p99_latency_ns: self.latency_hist.quantile(0.99),
            p999_latency_ns: self.latency_hist.quantile(0.999),
            measured_packets: self.latency_count,
            accepted_bytes_per_ns_per_switch: if window_ns == 0 {
                0.0
            } else {
                self.delivered_bytes_window as f64 / window_ns as f64 / num_switches as f64
            },
            avg_hops: if self.latency_count == 0 {
                f64::NAN
            } else {
                self.hops_sum as f64 / self.latency_count as f64
            },
            escape_forwards: self.escape_forwards,
            adaptive_forwards: self.adaptive_forwards,
            order_violations: self.order_violations,
            duplicate_deliveries: self.duplicate_deliveries,
            max_host_queue: self.max_host_queue,
            source_drops: self.source_drops,
            faults_injected: self.faults,
            drops_in_transit: self.transit_drops,
            drops_after_recovery: self.transit_drops_after_recovery,
            drops_link_down: self.drops_link_down,
            drops_switch_down: self.drops_switch_down,
            drops_corrupted: self.drops_corrupted,
            escape_certifications: self.escape_certifications,
            escape_cert_failures: self.escape_cert_failures,
            delivered_ratio: {
                let entered = self.generated - self.source_drops;
                if entered == 0 {
                    1.0
                } else {
                    self.delivered as f64 / entered as f64
                }
            },
            recovery_time_ns: (self.first_fault_at.zip(self.recovery_installed_at))
                .filter(|(fault, installed)| fault <= installed)
                .map(|(fault, installed)| installed.since(fault)),
            resweeps: self.resweeps,
            resweeps_failed: self.resweeps_failed,
            events,
            wall_time_s,
            events_per_sec: if wall_time_s > 0.0 {
                events as f64 / wall_time_s
            } else {
                0.0
            },
        }
    }
}

/// Version stamp of the [`RunResult`] field set, carried in
/// [`RunResult::schema_version`] and into every JSON artifact derived
/// from it. Bump whenever a field is added, removed or re-interpreted.
///
/// History: 1 → 2 added `duplicate_deliveries`, the per-cause transit
/// drop counters (`drops_link_down` / `drops_switch_down` /
/// `drops_corrupted`) and the escape-certification counters. 2 → 3
/// added the FIB-cache counters (`fib_hits` / `fib_misses`) and
/// re-pinned `recovery_time_ns` to fault → last successful LFT
/// reprogramming (previously fault → first post-install delivery,
/// which made the value depend on the traffic pattern). 3 → 4 added
/// `p90_latency_ns` / `p999_latency_ns` and re-sourced all four
/// percentiles from the log-linear latency histogram
/// (`iba_stats::LogHistogram`, relative error ≤ 1/32 at the default
/// precision; previously power-of-two upper bucket bounds, i.e. up to
/// 2× overestimates). 4 → 5 removed `fib_hits` / `fib_misses` with the
/// observational FIB cache they counted. v3 and v4 files still parse
/// via [`RunResult::from_json`] — the fields v4 added read back as
/// `None`, the two v5 removed are ignored.
pub(crate) const RUN_RESULT_SCHEMA_VERSION: u32 = 5;

/// Declares [`RunResult`] from one field list and derives from it
/// everything that names the fields: equality over the simulated fields
/// (the `wall_clock` ones are host-machine measurements and excluded;
/// f64 semantics match a derive, NaN != NaN), [`RunResult::to_json`]
/// (members in field order, keyed by field name) and
/// [`RunResult::from_json`].
macro_rules! run_result {
    (
        $(#[$meta:meta])*
        pub struct RunResult {
            $( $(#[$fmeta:meta])* pub $field:ident: $ty:ty, )*
            wall_clock {
                $( $(#[$wmeta:meta])* pub $wfield:ident: $wty:ty, )*
            }
        }
    ) => {
        $(#[$meta])*
        pub struct RunResult {
            $( $(#[$fmeta])* pub $field: $ty, )*
            $( $(#[$wmeta])* pub $wfield: $wty, )*
        }

        impl PartialEq for RunResult {
            fn eq(&self, other: &Self) -> bool {
                $( self.$field == other.$field )&&*
            }
        }

        impl RunResult {
            /// Render every field as a JSON object (field names as keys,
            /// NaN latencies as `null`) — what the experiments embed in
            /// their `results/*.json` artifacts instead of
            /// hand-assembling the layout.
            pub fn to_json(&self) -> Json {
                Json::obj([
                    $( (stringify!($field), Json::from(self.$field)), )*
                    $( (stringify!($wfield), Json::from(self.$wfield)), )*
                ])
            }

            /// Parse a [`Self::to_json`] document back. Accepts schema
            /// v3 to v5: a v3 file simply lacks
            /// `p90_latency_ns`/`p999_latency_ns`, which read back as
            /// `None` (v3's p50/p99 were coarser power-of-two bounds,
            /// but the field meaning — "latency percentile in ns, `None`
            /// when nothing was measured" — is unchanged), and the
            /// `fib_hits` / `fib_misses` of a v3 or v4 file are ignored.
            /// `None` on any other version or a malformed document.
            pub fn from_json(j: &Json) -> Option<RunResult> {
                let r = RunResult {
                    $( $field: JsonField::read(j.get(stringify!($field)))?, )*
                    $( $wfield: JsonField::read(j.get(stringify!($wfield)))?, )*
                };
                (3..=RUN_RESULT_SCHEMA_VERSION)
                    .contains(&r.schema_version)
                    .then_some(r)
            }
        }
    };
}

/// How a [`RunResult`] field reads back from its JSON member; `None`
/// when a required member is missing or malformed.
trait JsonField: Sized {
    fn read(member: Option<&Json>) -> Option<Self>;
}

impl JsonField for u64 {
    fn read(member: Option<&Json>) -> Option<u64> {
        member?.as_u64()
    }
}

impl JsonField for u32 {
    fn read(member: Option<&Json>) -> Option<u32> {
        member?.as_u64().map(|v| v as u32)
    }
}

impl JsonField for usize {
    fn read(member: Option<&Json>) -> Option<usize> {
        member?.as_u64().map(|v| v as usize)
    }
}

/// Optional: absent or `null` reads back as `None`.
impl JsonField for Option<u64> {
    fn read(member: Option<&Json>) -> Option<Option<u64>> {
        Some(member.and_then(Json::as_u64))
    }
}

/// NaN renders as `null`; read `null` (or an absent member) back as NaN.
impl JsonField for f64 {
    fn read(member: Option<&Json>) -> Option<f64> {
        Some(member.and_then(Json::as_f64).unwrap_or(f64::NAN))
    }
}

run_result! {
    /// The outcome of one simulation run.
    ///
    /// Equality compares the *simulated* outcome only — [`Self::wall_time_s`]
    /// and [`Self::events_per_sec`] are host-machine measurements and are
    /// excluded, so two deterministic runs (e.g. on different event-queue
    /// backends) compare equal exactly when they simulated the same thing.
    #[derive(Clone, Debug)]
    pub struct RunResult {
        /// Field-set version (`RUN_RESULT_SCHEMA_VERSION`) — lets
        /// consumers of `results/*.json` detect layout changes.
        pub schema_version: u32,
        /// Packets generated at sources.
        pub generated: u64,
        /// Packets injected into the fabric.
        pub injected: u64,
        /// Packets delivered to destinations.
        pub delivered: u64,
        /// Mean latency (generation → delivery) of measured packets, ns.
        pub avg_latency_ns: f64,
        /// Maximum measured latency, ns.
        pub max_latency_ns: u64,
        /// Median latency (log-linear bucket bound, relative error ≤ 1/32),
        /// ns. `None` when zero packets were measured.
        pub p50_latency_ns: Option<u64>,
        /// 90th-percentile latency, same resolution/guard as p50.
        pub p90_latency_ns: Option<u64>,
        /// 99th-percentile latency, same resolution/guard as p50.
        pub p99_latency_ns: Option<u64>,
        /// 99.9th-percentile latency, same resolution/guard as p50.
        pub p999_latency_ns: Option<u64>,
        /// Number of packets in the latency average.
        pub measured_packets: u64,
        /// Accepted traffic in bytes/ns/switch — the paper's throughput
        /// metric.
        pub accepted_bytes_per_ns_per_switch: f64,
        /// Mean switch hops of measured packets.
        pub avg_hops: f64,
        /// Total escape-option forwards.
        pub escape_forwards: u64,
        /// Total adaptive-option forwards.
        pub adaptive_forwards: u64,
        /// Deterministic packets delivered out of order (must be 0).
        pub order_violations: u64,
        /// Deterministic packets delivered twice (must be 0; the simulator
        /// removes each buffer residency exactly once, so a nonzero value is
        /// a simulator bug, not a modelled fabric behaviour).
        pub duplicate_deliveries: u64,
        /// Largest source-queue length observed.
        pub max_host_queue: usize,
        /// Packets discarded at full source queues (0 in open-loop mode).
        pub source_drops: u64,
        /// Fault events (link or switch down) applied (0 without a fault
        /// schedule).
        pub faults_injected: u64,
        /// Packets lost in transit: on a link that went down under them, at
        /// a dead switch, or to a CRC failure.
        pub drops_in_transit: u64,
        /// Of [`Self::drops_in_transit`], those lost at or after the first
        /// recovery-routing installation (must be 0 for a single-fault
        /// SM-resweep run: nothing is routed onto a dead link once the
        /// recovery tables are live).
        pub drops_after_recovery: u64,
        /// Of [`Self::drops_in_transit`], those lost to a dead link.
        pub drops_link_down: u64,
        /// Of [`Self::drops_in_transit`], those lost at a dead switch.
        pub drops_switch_down: u64,
        /// Of [`Self::drops_in_transit`], those lost to packet corruption
        /// (CRC failure at the receiver).
        pub drops_corrupted: u64,
        /// Escape-route acyclicity certifications run (`check_escape_routes`
        /// after each re-sweep installation and at the first APM migration).
        pub escape_certifications: u64,
        /// Of [`Self::escape_certifications`], those that found a cyclic
        /// escape dependency (must be 0).
        pub escape_cert_failures: u64,
        /// Delivered packets over packets that entered the fabric
        /// (`delivered / (generated − source_drops)`; 1.0 for an empty run).
        /// Strictly below 1 even without faults — packets still in flight at
        /// the horizon are not delivered.
        pub delivered_ratio: f64,
        /// Nanoseconds from the first fault event to the moment the first
        /// re-sweep finished (re)programming the forwarding tables — i.e.
        /// to the *last successful LFT reprogram* of that sweep, when the
        /// recovery tables go live. `None` when no fault occurred or no
        /// recovery completed. Deliberately a control-plane measurement:
        /// it does not depend on when (or whether) traffic flows after the
        /// repair, so values are comparable across runs with different
        /// traffic patterns and between full and incremental re-sweeps.
        pub recovery_time_ns: Option<u64>,
        /// SM re-sweeps that installed recovery tables.
        pub resweeps: u64,
        /// SM re-sweeps abandoned because the degraded fabric was
        /// disconnected.
        pub resweeps_failed: u64,
        /// Discrete events processed.
        pub events: u64,
        wall_clock {
            /// Wall-clock seconds the event loop ran (host-machine measurement,
            /// excluded from equality).
            pub wall_time_s: f64,
            /// Events processed per wall-clock second (host-machine measurement,
            /// excluded from equality).
            pub events_per_sec: f64,
        }
    }
}

impl RunResult {
    /// Fraction of switch forwards that used an escape queue.
    pub fn escape_fraction(&self) -> f64 {
        let total = self.escape_forwards + self.adaptive_forwards;
        if total == 0 {
            0.0
        } else {
            self.escape_forwards as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_core::{Lid, PacketId, ServiceLevel};

    fn packet(seq: u64, adaptive: bool, gen_at: u64) -> Packet {
        Packet {
            id: PacketId(seq),
            src: HostId(0),
            dst: HostId(1),
            dlid: Lid(if adaptive { 9 } else { 8 }),
            sl: ServiceLevel(0),
            size_bytes: 32,
            generated_at: SimTime::from_ns(gen_at),
            seq,
            hops: 2,
            escape_uses: 0,
        }
    }

    fn collector() -> StatsCollector {
        StatsCollector::new(SimTime::from_ns(1000), SimTime::from_ns(2000), 4, 16)
    }

    #[test]
    fn latency_counts_only_window_generated_packets() {
        let mut c = collector();
        // Generated before the window: delivery counts bytes (if inside
        // window) but not latency.
        c.on_generated(SimTime::from_ns(500));
        c.on_delivered(&packet(1, true, 500), SimTime::from_ns(1100));
        assert_eq!(c.latency_count, 0);
        // Generated inside the window: latency measured.
        c.on_generated(SimTime::from_ns(1200));
        c.on_delivered(&packet(2, true, 1200), SimTime::from_ns(1500));
        let r = c.finish(4, 0, Duration::ZERO);
        assert_eq!(r.measured_packets, 1);
        assert!((r.avg_latency_ns - 300.0).abs() < 1e-9);
        assert_eq!(r.max_latency_ns, 300);
        assert!((r.avg_hops - 2.0).abs() < 1e-9);
    }

    #[test]
    fn accepted_traffic_counts_window_deliveries() {
        let mut c = collector();
        c.on_delivered(&packet(1, true, 0), SimTime::from_ns(999)); // before window
        c.on_delivered(&packet(2, true, 0), SimTime::from_ns(1000)); // inside
        c.on_delivered(&packet(3, true, 0), SimTime::from_ns(1999)); // inside
        c.on_delivered(&packet(4, true, 0), SimTime::from_ns(2000)); // after
        let r = c.finish(2, 0, Duration::ZERO);
        // 64 bytes over 1000 ns over 2 switches.
        assert!((r.accepted_bytes_per_ns_per_switch - 0.032).abs() < 1e-12);
        assert_eq!(r.delivered, 4);
    }

    #[test]
    fn order_violations_detected_for_deterministic_only() {
        let mut c = collector();
        c.on_delivered(&packet(2, false, 1100), SimTime::from_ns(1200));
        c.on_delivered(&packet(1, false, 1100), SimTime::from_ns(1300)); // overtaken!
        assert_eq!(c.order_violations, 1);
        let mut c2 = collector();
        c2.on_delivered(&packet(2, true, 1100), SimTime::from_ns(1200));
        c2.on_delivered(&packet(1, true, 1100), SimTime::from_ns(1300)); // adaptive: fine
        assert_eq!(c2.order_violations, 0);
    }

    #[test]
    fn empty_run_yields_nan_latency_and_zero_traffic() {
        let r = collector().finish(4, 7, Duration::ZERO);
        assert!(r.avg_latency_ns.is_nan());
        assert!(r.avg_hops.is_nan());
        assert_eq!(r.accepted_bytes_per_ns_per_switch, 0.0);
        assert_eq!(r.events, 7);
    }

    #[test]
    fn escape_fraction() {
        let mut c = collector();
        c.on_escape_forward();
        c.on_adaptive_forward();
        c.on_adaptive_forward();
        c.on_adaptive_forward();
        let r = c.finish(1, 0, Duration::ZERO);
        assert!((r.escape_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(
            collector().finish(1, 0, Duration::ZERO).escape_fraction(),
            0.0
        );
    }

    #[test]
    fn percentiles_flow_into_run_result() {
        let mut c = collector();
        c.on_delivered(&packet(1, true, 1100), SimTime::from_ns(1400));
        let r = c.finish(1, 0, Duration::ZERO);
        // A single 300 ns sample: the log-linear histogram clamps the
        // bucket bound to the exact observed maximum.
        assert_eq!(r.p50_latency_ns, Some(300));
        assert_eq!(r.p90_latency_ns, Some(300));
        assert_eq!(r.p99_latency_ns, Some(300));
        assert_eq!(r.p999_latency_ns, Some(300));
        assert_eq!(
            collector().finish(1, 0, Duration::ZERO).p50_latency_ns,
            None
        );
    }

    #[test]
    fn percentiles_have_bounded_relative_error() {
        let mut c = collector();
        // 100 samples spread 1000..=1990 ns (generated at 1000, offsets
        // into the window): exact p50 = 1000+2*... compare within 1/32.
        for i in 0..100u64 {
            c.on_generated(SimTime::from_ns(1100));
            c.on_delivered(
                &packet(i, true, 1100),
                SimTime::from_ns(1100 + 1000 + 10 * i),
            );
        }
        let r = c.finish(1, 0, Duration::ZERO);
        let exact_p50 = 1000 + 10 * 49; // rank 50 of 100 sorted samples
        let p50 = r.p50_latency_ns.unwrap();
        assert!(p50 >= exact_p50);
        assert!((p50 - exact_p50) as f64 <= exact_p50 as f64 / 32.0 + 1.0);
        // Percentiles are monotone.
        assert!(r.p50_latency_ns <= r.p90_latency_ns);
        assert!(r.p90_latency_ns <= r.p99_latency_ns);
        assert!(r.p99_latency_ns <= r.p999_latency_ns);
        assert!(r.p999_latency_ns.unwrap() <= r.max_latency_ns);
    }

    #[test]
    fn run_result_json_roundtrip() {
        let mut c = collector();
        c.on_generated(SimTime::from_ns(1200));
        c.on_delivered(&packet(1, true, 1200), SimTime::from_ns(1500));
        c.on_fault(SimTime::from_ns(1300));
        c.on_recovery_installed(SimTime::from_ns(1400));
        let r = c.finish(4, 10, Duration::from_millis(5));
        let parsed = Json::parse(&r.to_json().to_string_compact()).unwrap();
        let back = RunResult::from_json(&parsed).unwrap();
        // PartialEq ignores the wall-clock fields, exactly what a
        // round-trip should preserve bit-for-bit.
        assert_eq!(back, r);
        assert_eq!(back.schema_version, RUN_RESULT_SCHEMA_VERSION);
        assert_eq!(back.p90_latency_ns, r.p90_latency_ns);
        assert_eq!(back.p999_latency_ns, r.p999_latency_ns);
    }

    #[test]
    fn run_result_v3_files_still_parse() {
        // A v3 document as PR 7 wrote it: no p90/p999 fields, p50/p99
        // as power-of-two bounds.
        let v3 = r#"{"schema_version":3,"generated":10,"injected":9,"delivered":8,
            "avg_latency_ns":350.5,"max_latency_ns":800,"p50_latency_ns":512,
            "p99_latency_ns":1024,"measured_packets":8,
            "accepted_bytes_per_ns_per_switch":0.01,"avg_hops":2.5,
            "escape_forwards":1,"adaptive_forwards":20,"order_violations":0,
            "duplicate_deliveries":0,"max_host_queue":3,"source_drops":1,
            "faults_injected":0,"drops_in_transit":0,"drops_after_recovery":0,
            "drops_link_down":0,"drops_switch_down":0,"drops_corrupted":0,
            "escape_certifications":0,"escape_cert_failures":0,
            "delivered_ratio":0.888,"recovery_time_ns":null,"resweeps":0,
            "resweeps_failed":0,"fib_hits":0,"fib_misses":0,"events":123,
            "wall_time_s":0.5,"events_per_sec":246.0}"#;
        let parsed = Json::parse(v3).unwrap();
        let r = RunResult::from_json(&parsed).unwrap();
        assert_eq!(r.schema_version, 3);
        assert_eq!(r.p50_latency_ns, Some(512));
        // Fields v4 introduced read back as None from a v3 file.
        assert_eq!(r.p90_latency_ns, None);
        assert_eq!(r.p999_latency_ns, None);
        assert_eq!(r.events, 123);
        // Unknown future versions are rejected, not misread.
        let v9 = v3.replace(r#""schema_version":3"#, r#""schema_version":9"#);
        assert!(RunResult::from_json(&Json::parse(&v9).unwrap()).is_none());
    }

    #[test]
    fn run_result_v4_files_still_parse() {
        // A v4 document as the committed `results/*.json` artifacts
        // carry it: the two FIB-cache counters v5 removed are present
        // (here non-zero) and must be ignored, not required.
        let v4 = r#"{"schema_version":4,"generated":10,"injected":9,"delivered":8,
            "avg_latency_ns":350.5,"max_latency_ns":800,"p50_latency_ns":344,
            "p90_latency_ns":600,"p99_latency_ns":784,"p999_latency_ns":800,
            "measured_packets":8,
            "accepted_bytes_per_ns_per_switch":0.01,"avg_hops":2.5,
            "escape_forwards":1,"adaptive_forwards":20,"order_violations":0,
            "duplicate_deliveries":0,"max_host_queue":3,"source_drops":1,
            "faults_injected":0,"drops_in_transit":0,"drops_after_recovery":0,
            "drops_link_down":0,"drops_switch_down":0,"drops_corrupted":0,
            "escape_certifications":0,"escape_cert_failures":0,
            "delivered_ratio":0.888,"recovery_time_ns":null,"resweeps":0,
            "resweeps_failed":0,"fib_hits":17,"fib_misses":4,"events":123,
            "wall_time_s":0.5,"events_per_sec":246.0}"#;
        let r = RunResult::from_json(&Json::parse(v4).unwrap()).unwrap();
        assert_eq!(r.schema_version, 4);
        assert_eq!(r.p90_latency_ns, Some(600));
        assert_eq!(r.adaptive_forwards, 20);
        assert_eq!(r.events, 123);
        assert!(!r.to_json().to_string_compact().contains("fib_"));
        // A v5 writer never emitted them: their absence parses too.
        let bare = v4.replace(r#""fib_hits":17,"fib_misses":4,"#, "");
        let b = RunResult::from_json(&Json::parse(&bare).unwrap()).unwrap();
        assert_eq!(b, r);
    }

    #[test]
    fn zero_delivery_run_has_guarded_ratio_and_quantiles() {
        // The delivered_ratio NaN guard, extended to the quantile
        // fields: a run where nothing delivers must report None (which
        // renders as null), never NaN or a stale number.
        let mut c = collector();
        c.on_generated(SimTime::from_ns(1200));
        c.on_source_drop();
        let r = c.finish(4, 0, Duration::ZERO);
        assert_eq!(r.delivered_ratio, 1.0); // 0 entered ⇒ vacuously whole
        assert_eq!(r.p50_latency_ns, None);
        assert_eq!(r.p90_latency_ns, None);
        assert_eq!(r.p99_latency_ns, None);
        assert_eq!(r.p999_latency_ns, None);
        let json = r.to_json().to_string_compact();
        assert!(json.contains(r#""p90_latency_ns":null"#));
        assert!(json.contains(r#""p999_latency_ns":null"#));
        // And the round-trip preserves the guard.
        let back = RunResult::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back.p999_latency_ns, None);
        assert_eq!(back.delivered_ratio, 1.0);
    }

    #[test]
    fn fault_accounting_and_recovery_time() {
        let mut c = collector();
        c.on_generated(SimTime::from_ns(100));
        c.on_generated(SimTime::from_ns(150));
        // Fault at t=1100; a packet on the dead wire is lost.
        c.on_fault(SimTime::from_ns(1100));
        c.on_transit_drop(SimTime::from_ns(1150), DropCause::LinkDown);
        // Deliveries never move the recovery clock...
        c.on_delivered(&packet(1, true, 1000), SimTime::from_ns(1200));
        // ...installing the recovery tables closes it: 1500 − 1100 =
        // 400 ns from the fault to the last successful LFT reprogram.
        c.on_resweep(true);
        c.on_recovery_installed(SimTime::from_ns(1500));
        c.on_delivered(&packet(2, true, 1000), SimTime::from_ns(1600));
        c.on_delivered(&packet(3, true, 1000), SimTime::from_ns(1900));
        let r = c.finish(4, 0, Duration::ZERO);
        assert_eq!(r.faults_injected, 1);
        assert_eq!(r.drops_in_transit, 1);
        assert_eq!(r.drops_after_recovery, 0);
        assert_eq!(r.drops_link_down, 1);
        assert_eq!(r.recovery_time_ns, Some(400));
        assert_eq!(r.resweeps, 1);
        assert!((r.delivered_ratio - 1.5).abs() < 1e-12); // 3 of 2 generated (toy numbers)
                                                          // Drops after installation are flagged separately.
        c.on_transit_drop(SimTime::from_ns(1700), DropCause::Corrupted);
        let r2 = c.finish(4, 0, Duration::ZERO);
        assert_eq!(r2.drops_after_recovery, 1);
        assert_eq!(r2.drops_corrupted, 1);
        assert_eq!(
            r2.drops_in_transit,
            r2.drops_link_down + r2.drops_switch_down + r2.drops_corrupted
        );
    }

    #[test]
    fn duplicate_deliveries_detected_including_seq_zero() {
        let mut c = collector();
        // Sequence 0 delivered twice: the old highest-seq sentinel could
        // not see this; the delivered-through encoding can.
        c.on_delivered(&packet(0, false, 1100), SimTime::from_ns(1200));
        c.on_delivered(&packet(0, false, 1100), SimTime::from_ns(1300));
        assert_eq!(c.duplicate_deliveries, 1);
        assert_eq!(c.order_violations, 0);
        // A duplicate of the current head counts as duplicate; an older
        // re-delivery is indistinguishable from overtaking and counts as
        // an order violation.
        c.on_delivered(&packet(1, false, 1100), SimTime::from_ns(1400));
        c.on_delivered(&packet(1, false, 1100), SimTime::from_ns(1500));
        c.on_delivered(&packet(0, false, 1100), SimTime::from_ns(1600));
        let r = c.finish(4, 0, Duration::ZERO);
        assert_eq!(r.duplicate_deliveries, 2);
        assert_eq!(r.order_violations, 1);
        // Adaptive packets may be reordered freely and are not tracked.
        let mut c2 = collector();
        c2.on_delivered(&packet(0, true, 1100), SimTime::from_ns(1200));
        c2.on_delivered(&packet(0, true, 1100), SimTime::from_ns(1300));
        assert_eq!(c2.duplicate_deliveries, 0);
    }

    /// A deterministic packet of flow `(src, dlid, sl)`.
    fn flow_packet(src: u16, dlid: u16, sl: u8, seq: u64) -> Packet {
        Packet {
            src: HostId(src),
            dlid: Lid(dlid),
            sl: ServiceLevel(sl),
            ..packet(seq, false, 1100)
        }
    }

    #[test]
    fn planes_count_reorders_and_duplicates_per_service_level() {
        let at = SimTime::from_ns(1500);
        let mut c = collector();
        // Seeded shuffle of sequences 0..32, the highest then repeated, on
        // SL 0 and on SL 7 of the same (src, DLID): the expected counts
        // come from replaying the same three-way compare on a scalar.
        let mut seqs: Vec<u64> = (0..32).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..seqs.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            seqs.swap(i, (state >> 33) as usize % (i + 1));
        }
        seqs.push(31);
        let (mut through, mut violations, mut duplicates) = (0u64, 0u64, 0u64);
        for &s in &seqs {
            if s + 1 == through {
                duplicates += 1;
            } else if s + 1 < through {
                violations += 1;
            } else {
                through = s + 1;
            }
        }
        assert!(violations > 0 && duplicates == 1);

        let plane = 4 * 16;
        for &s in &seqs {
            c.on_delivered(&flow_packet(0, 8, 0, s), at);
        }
        assert_eq!(
            (c.order_violations, c.duplicate_deliveries),
            (violations, 1)
        );
        assert_eq!(
            c.last_det_seq.last.len(),
            plane,
            "single-SL traffic holds one plane"
        );
        for &s in &seqs {
            c.on_delivered(&flow_packet(0, 8, 7, s), at);
        }
        assert_eq!(
            (c.order_violations, c.duplicate_deliveries),
            (2 * violations, 2)
        );
        assert_eq!(c.last_det_seq.last.len(), 8 * plane);
    }

    #[test]
    fn flows_outside_the_declared_dimensions_never_share_a_slot() {
        let at = SimTime::from_ns(1500);
        // DLID 24 of a 16-LID stripe must not be read as DLID 8 of the
        // next source...
        let mut c = collector();
        c.on_delivered(&flow_packet(0, 24, 0, 5), at);
        c.on_delivered(&flow_packet(1, 8, 0, 0), at);
        assert_eq!((c.order_violations, c.duplicate_deliveries), (0, 0));
        // ...nor source 4 of a 4-host plane as source 0 of the next
        // service level; and widening keeps the watermarks it moves.
        let mut c = collector();
        c.on_delivered(&flow_packet(0, 8, 1, 5), at);
        c.on_delivered(&flow_packet(3, 8, 0, 2), at);
        c.on_delivered(&flow_packet(4, 8, 0, 0), at);
        assert_eq!((c.order_violations, c.duplicate_deliveries), (0, 0));
        c.on_delivered(&flow_packet(0, 8, 1, 5), at);
        c.on_delivered(&flow_packet(3, 8, 0, 1), at);
        assert_eq!((c.order_violations, c.duplicate_deliveries), (1, 1));
    }

    #[test]
    fn escape_certifications_counted() {
        let mut c = collector();
        c.on_escape_certification(true);
        c.on_escape_certification(false);
        c.on_escape_certification(true);
        let r = c.finish(4, 0, Duration::ZERO);
        assert_eq!(r.escape_certifications, 3);
        assert_eq!(r.escape_cert_failures, 1);
    }

    #[test]
    fn recovery_time_is_traffic_independent() {
        // The pinned semantics: fault-event time → recovery-table
        // installation. Two runs whose control planes act at the same
        // instants must report the same recovery time no matter how
        // their traffic differs — that is what makes the metric
        // comparable across policies and loads.
        let control_plane = |c: &mut StatsCollector| {
            c.on_fault(SimTime::from_ns(1100));
            c.on_recovery_installed(SimTime::from_ns(1750));
        };
        let mut idle = collector();
        control_plane(&mut idle);
        // No traffic at all: the old delivery-based definition would
        // have reported None here.
        let mut busy = collector();
        control_plane(&mut busy);
        for seq in 0..20 {
            busy.on_delivered(&packet(seq, true, 1000), SimTime::from_ns(1800 + 10 * seq));
        }
        let (ri, rb) = (
            idle.finish(4, 0, Duration::ZERO),
            busy.finish(4, 0, Duration::ZERO),
        );
        assert_eq!(ri.recovery_time_ns, Some(650));
        assert_eq!(ri.recovery_time_ns, rb.recovery_time_ns);
        // Only the first installation counts; later re-sweeps don't
        // stretch the window.
        busy.on_recovery_installed(SimTime::from_ns(5000));
        assert_eq!(
            busy.finish(4, 0, Duration::ZERO).recovery_time_ns,
            Some(650)
        );
    }

    #[test]
    fn absorb_moves_counters_and_drains_its_source() {
        let mut a = collector();
        for _ in 0..10 {
            a.on_adaptive_forward();
        }
        a.on_escape_forward();
        let mut b = collector();
        for _ in 0..5 {
            b.on_adaptive_forward();
        }
        b.on_escape_forward();
        a.absorb(&mut b);
        // The fold drains its source: folding again adds nothing.
        a.absorb(&mut b);
        let r = a.finish(4, 0, Duration::ZERO);
        assert_eq!(r.adaptive_forwards, 15);
        assert_eq!(r.escape_forwards, 2);
    }

    #[test]
    fn faultless_run_reports_no_recovery() {
        let r = collector().finish(4, 0, Duration::ZERO);
        assert_eq!(r.faults_injected, 0);
        assert_eq!(r.recovery_time_ns, None);
        assert_eq!(r.delivered_ratio, 1.0); // empty run: vacuously whole
    }

    #[test]
    fn run_result_is_versioned_and_renders_json() {
        let mut c = collector();
        c.on_generated(SimTime::from_ns(1200));
        c.on_delivered(&packet(1, true, 1200), SimTime::from_ns(1500));
        let r = c.finish(4, 10, Duration::ZERO);
        assert_eq!(r.schema_version, RUN_RESULT_SCHEMA_VERSION);
        let json = r.to_json().to_string_compact();
        assert!(json.starts_with(r#"{"schema_version":5,"#));
        assert!(json.contains(r#""delivered":1"#));
        assert!(json.contains(r#""events":10"#));
        // NaN-valued aggregates render as null, not as invalid JSON.
        let empty = collector().finish(4, 0, Duration::ZERO).to_json();
        assert!(empty
            .to_string_compact()
            .contains(r#""avg_latency_ns":null"#));
    }

    #[test]
    fn injected_tracks_queue_high_water_mark() {
        let mut c = collector();
        c.on_injected(3);
        c.on_injected(10);
        c.on_injected(5);
        let r = c.finish(1, 0, Duration::ZERO);
        assert_eq!(r.injected, 3);
        assert_eq!(r.max_host_queue, 10);
    }
}
