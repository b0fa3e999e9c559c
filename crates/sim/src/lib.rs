//! # iba-sim
//!
//! The register-transfer-level IBA network simulator of the iba-far
//! reproduction — the measurement instrument behind every figure and
//! table of the paper.
//!
//! * [`buffer`] — the split adaptive/escape VL buffer of §4.4 (Figure 2),
//!   with its two crossbar read points, positional queue membership,
//!   escape→adaptive migration and the in-order guard;
//! * [`config`] — physical and architectural parameters (§5.1 values are
//!   [`SimConfig::paper`]);
//! * [`network`] — the event-driven subnet model: hosts, switches, serial
//!   links, per-VL credit flow control, virtual cut-through forwarding
//!   and the §4.3 arbitration-time output selection, run as one or more
//!   shards of one machine (results never depend on the shard count);
//! * [`stats`] — latency and accepted-traffic measurement, including
//!   the log-linear latency histogram behind the p50/p90/p99/p999
//!   fields of [`RunResult`];
//! * [`profile`] — engine profiling ([`EngineProfile`], armed by the
//!   builder's `.metrics()`): where a run's wall time went;
//! * [`telemetry`] — the sampling probe layer: per-VL occupancy
//!   timeseries, cause-tagged credit-stall counters, escape-vs-adaptive
//!   forwarding counters and arbitration-wait histograms, merged into
//!   one [`MemorySink`] at the end of every drive;
//! * [`recorder`] — the fabric flight recorder and the one journey
//!   capture: per-switch rings of structured events (generation,
//!   routing decisions with full candidate sets, credit returns, blocks,
//!   drops, stalls, delivery), anomaly triggers that freeze the rings,
//!   and the stall/deadlock watchdog;
//! * [`perfetto`] — Chrome trace-event / Perfetto export of flight
//!   dumps.
//!
//! ## Quick tour
//!
//! Simulations are assembled through the builder: topology and routing
//! up front, then a traffic source, a config, and any optional
//! subsystems (faults, telemetry, the flight recorder).
//!
//! ```
//! use iba_topology::IrregularConfig;
//! use iba_routing::{FaRouting, RoutingConfig};
//! use iba_sim::{Network, SimConfig};
//! use iba_workloads::WorkloadSpec;
//!
//! let topo = IrregularConfig::paper(8, 1).generate().unwrap();
//! let routing = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
//! let mut net = Network::builder(&topo, &routing)
//!     .workload(WorkloadSpec::uniform32(0.005)) // bytes/ns per host
//!     .config(SimConfig::test(7))
//!     .build()
//!     .unwrap();
//! let result = net.run();
//! assert!(result.delivered > 0);
//! assert_eq!(result.order_violations, 0);
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod config;
pub mod network;
pub mod perfetto;
mod probe;
pub mod profile;
pub mod recorder;
mod shard;
pub mod stats;
pub mod telemetry;

pub use buffer::EscapeOrderPolicy;
pub use config::{RecoveryPolicy, SelectionPolicy, SimConfig};
pub use iba_engine::QueueBackend;
pub use network::{Network, NetworkBuilder};
pub use perfetto::perfetto_trace;
pub use profile::EngineProfile;
pub use recorder::{FlightDump, FlightRecorder, RecorderOpts, Trigger, TriggerCause, WatchdogOpts};
pub use stats::{RunResult, StatsCollector};
pub use telemetry::{
    MemorySink, StallCause, TelemetryOpts, TelemetryReport, TelemetrySample,
    TELEMETRY_SCHEMA_VERSION,
};
