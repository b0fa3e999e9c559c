//! # iba-bench
//!
//! [`BenchFixture`]: a prepared (topology, routing) pair with one
//! `simulate_*` method per observation plane. The repository's benchmark
//! (`perfbench/`, declared in `BENCHMARK.json`) links it for its
//! per-layer probes; the crate holds nothing else.

#![warn(missing_docs)]

use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{Network, RecorderOpts, RecoveryPolicy, RunResult, SimConfig, TelemetryOpts};
use iba_topology::{IrregularConfig, Topology};
use iba_workloads::{FaultSchedule, WorkloadSpec};

/// A prepared (topology, routing) pair for simulation benches.
pub struct BenchFixture {
    /// The wired topology.
    pub topology: Topology,
    /// Compiled FA routing.
    pub routing: FaRouting,
}

impl BenchFixture {
    /// Build the standard fixture: an irregular paper-style network.
    pub fn paper(switches: usize, seed: u64) -> BenchFixture {
        let topology = IrregularConfig::paper(switches, seed)
            .generate()
            .expect("valid paper configuration");
        let routing =
            FaRouting::build(&topology, RoutingConfig::two_options()).expect("routable topology");
        BenchFixture { topology, routing }
    }

    /// Run one simulation on the fixture.
    pub fn simulate(&self, spec: WorkloadSpec, cfg: SimConfig) -> RunResult {
        Network::builder(&self.topology, &self.routing)
            .workload(spec)
            .config(cfg)
            .build()
            .expect("consistent setup")
            .run()
    }

    /// Run one simulation with the fabric split into `shards` partitions
    /// advanced in conservative lookahead windows by `threads` workers.
    /// Every shard count runs the same machine and returns the same
    /// result; `shards = 1` is what [`Self::simulate`] runs.
    pub fn simulate_sharded(
        &self,
        spec: WorkloadSpec,
        cfg: SimConfig,
        shards: usize,
        threads: usize,
    ) -> RunResult {
        Network::builder(&self.topology, &self.routing)
            .workload(spec)
            .config(cfg)
            .shards(shards)
            .threads(threads)
            .build()
            .expect("consistent setup")
            .run()
    }

    /// Run one simulation with the telemetry probes armed (in-memory
    /// sink) — the instrumented side of the hook-overhead benchmark.
    pub fn simulate_instrumented(
        &self,
        spec: WorkloadSpec,
        cfg: SimConfig,
        opts: TelemetryOpts,
    ) -> RunResult {
        Network::builder(&self.topology, &self.routing)
            .workload(spec)
            .config(cfg)
            .telemetry(opts)
            .build()
            .expect("consistent setup")
            .run()
    }

    /// Run one simulation with the fault machinery armed but idle: an
    /// empty fault schedule plus a zero-probability corruption hook.
    /// Nothing ever fires, so this must match the bare run's throughput
    /// — the armed-but-empty-hooks side of the overhead benchmark.
    pub fn simulate_fault_armed(&self, spec: WorkloadSpec, cfg: SimConfig) -> RunResult {
        let schedule = FaultSchedule::new(Vec::new()).expect("empty schedule is valid");
        Network::builder(&self.topology, &self.routing)
            .workload(spec)
            .config(cfg)
            .faults(&schedule, RecoveryPolicy::SmResweep, 2_000)
            .corruption(0.0)
            .build()
            .expect("consistent setup")
            .run()
    }

    /// Run one simulation with engine profiling armed (`.metrics()`)
    /// and read its [`EngineProfile`](iba_sim::EngineProfile) back — the
    /// profiling side of the hook-overhead benchmark, which measures
    /// the per-window clock reads and the per-class handler tallies and
    /// nothing else. The disarmed counterpart is [`Self::simulate`]:
    /// its hot path carries only a `bool` check.
    pub fn simulate_metered(&self, spec: WorkloadSpec, cfg: SimConfig) -> RunResult {
        let mut net = Network::builder(&self.topology, &self.routing)
            .workload(spec)
            .config(cfg)
            .metrics()
            .build()
            .expect("consistent setup");
        let result = net.run();
        assert!(net.engine_profile().is_some(), "profiling armed");
        result
    }

    /// Run one simulation with the flight recorder armed — the
    /// always-on-capture side of the hook-overhead benchmark.
    pub fn simulate_recorded(
        &self,
        spec: WorkloadSpec,
        cfg: SimConfig,
        opts: RecorderOpts,
    ) -> RunResult {
        Network::builder(&self.topology, &self.routing)
            .workload(spec)
            .config(cfg)
            .recorder(opts)
            .build()
            .expect("consistent setup")
            .run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds_and_simulates() {
        let f = BenchFixture::paper(8, 1);
        let r = f.simulate(WorkloadSpec::uniform32(0.01), SimConfig::test(1));
        assert!(r.delivered > 0);
    }
}
