//! # iba-far — Fully Adaptive Routing for InfiniBand Networks
//!
//! A from-scratch reproduction of *"Supporting Fully Adaptive Routing in
//! InfiniBand Networks"* (Martínez, Flich, Robles, López, Duato — IPPS
//! 2003): the LMC virtual-addressing mechanism that retrofits fully
//! adaptive routing onto spec-conformant IBA switches, the split
//! adaptive/escape VL buffers that make it deadlock-free, and the
//! register-transfer-level subnet simulator used to evaluate it.
//!
//! This crate is the facade: it re-exports the workspace crates under
//! stable module names and offers a [`prelude`] with the types most
//! programs need.
//!
//! ## Quickstart
//!
//! ```
//! use iba_far::prelude::*;
//!
//! // A random irregular subnet in the paper's style: 8 switches with 8
//! // ports each — 4 inter-switch links, 4 hosts per switch.
//! let topo = IrregularConfig::paper(8, /*seed*/ 42).generate()?;
//!
//! // FA routing: up*/down* escape paths + minimal adaptive options,
//! // compiled into interleaved linear forwarding tables (2 options).
//! let routing = FaRouting::build(&topo, RoutingConfig::two_options())?;
//!
//! // Uniform 32-byte traffic, every packet marked adaptive, at 0.01
//! // bytes/ns per host.
//! let spec = WorkloadSpec::uniform32(0.01);
//!
//! // Simulate with the paper's physical parameters.
//! let mut net = Network::builder(&topo, &routing).workload(spec).config(SimConfig::test(7)).build()?;
//! let result = net.run();
//! assert!(result.delivered > 0);
//! assert_eq!(result.order_violations, 0);
//! # Ok::<(), iba_far::types::IbaError>(())
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`types`] | LIDs/LMC, packets, credits, virtual lanes, time, physical constants |
//! | [`engine`] | deterministic event queue and RNG streams |
//! | [`topology`] | subnet graphs: random irregular + regular generators |
//! | [`routing`] | up\*/down\*, minimal options, FA, interleaved forwarding tables, SLtoVL, Table-2 analysis |
//! | [`sim`] | the RTL-level subnet simulator (split VL buffers, credits, VCT) |
//! | [`sm`] | the subnet manager: directed-route discovery, MAD-based table programming |
//! | [`workloads`] | traffic patterns and injection processes |
//! | [`stats`] | aggregation, curves, report formatting |
//! | [`campaign`] | crash-safe campaign runner: supervised workers, fsync'd journal, resume |
//!
//! The experiment harness that regenerates every figure and table of the
//! paper lives in the separate `iba-experiments` crate (the `iba` binary:
//! `iba fig3`, `iba table1`, …; `iba help` lists them).

#![warn(missing_docs)]

pub use iba_campaign as campaign;
pub use iba_core as types;
pub use iba_engine as engine;
pub use iba_routing as routing;
pub use iba_sim as sim;
pub use iba_sm as sm;
pub use iba_stats as stats;
pub use iba_topology as topology;
pub use iba_workloads as workloads;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use iba_campaign::{
        run_campaign, write_atomic, ArtifactCache, Campaign, CampaignOutcome, Executor, FabricKey,
        Journal, RunRecord, RunSpec, RunStatus, RunnerOpts,
    };
    pub use iba_core::{
        Credits, HostId, IbaError, Lid, LidMap, Lmc, Packet, PacketId, PhysParams, PortIndex,
        RoutingMode, ServiceLevel, SimTime, SwitchId, VirtualLane,
    };
    pub use iba_routing::{
        certify_engine, check_escape_routes, EscapeEngine, FaRouting, FaTables, FullMeshRouting,
        InterleavedForwardingTable, MinimalRouting, OptionDistribution, OutflankRouting,
        PathLengthStats, RouteOptions, RoutingConfig, SlToVlTable, TableSource, UpDownRouting,
    };
    pub use iba_sim::{
        perfetto_trace, EngineProfile, EscapeOrderPolicy, FlightDump, MemorySink, Network,
        NetworkBuilder, QueueBackend, RecorderOpts, RecoveryPolicy, RunResult, SelectionPolicy,
        SimConfig, TelemetryOpts, TelemetryReport, TelemetrySample, Trigger, TriggerCause,
        WatchdogOpts,
    };
    pub use iba_sm::{
        ManagedFabric, Programmer, Resweep, RetryPolicy, RobustBringUp, SubnetManager, SweepReport,
    };
    pub use iba_stats::{Curve, CurvePoint, LogHistogram, MinMaxAvg};
    pub use iba_topology::{
        regular, IrregularConfig, Topology, TopologyBuilder, TopologyMetrics, TopologySpec,
    };
    pub use iba_workloads::{
        FaultEvent, FaultKind, FaultSchedule, HostGenerator, InjectionProcess, PathSet,
        ScriptedPacket, TrafficPattern, TrafficScript, WorkloadSpec,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_full_pipeline() {
        let topo = IrregularConfig::paper(8, 1).generate().unwrap();
        let routing = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
        let mut net = Network::builder(&topo, &routing)
            .workload(WorkloadSpec::uniform32(0.005))
            .config(SimConfig::test(1))
            .build()
            .unwrap();
        let r = net.run();
        assert!(r.delivered > 0);
    }
}
