//! The metrics-plane experiment: one instrumented workload run per
//! shard count, plus an instrumented SM bring-up, folded into a single
//! fabric-wide [`MetricsRegistry`] and a shard-scaling profile.
//!
//! Three artifacts come out of one invocation:
//!
//! * `results/metrics.json` — the experiment document: RunResult
//!   percentiles, registry digests per shard count, and per-shard
//!   engine profiles (barrier-wait share, window-width and
//!   events-per-window distributions, mailbox traffic);
//! * a full Prometheus text exposition of the merged registry (data
//!   plane + SM control plane + profiling namespace);
//! * a JSONL snapshot stream and a digest-name listing, which CI greps
//!   to prove the determinism digest never ingests a `profiling_`
//!   series.
//!
//! The experiment doubles as an end-to-end determinism check: the
//! digest of the sim-time registry must be identical for every shard
//! count (there is one deterministic machine regardless of
//! partitioning), and [`verify`] hard-errors when it is not, or when a
//! profiling series leaks into the digest.

use crate::fidelity::Fidelity;
use iba_core::{IbaError, Json};
use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{Network, RunResult, TelemetryOpts};
use iba_sm::{ManagedFabric, RetryPolicy, SubnetManager};
use iba_stats::MetricsRegistry;
use iba_topology::IrregularConfig;
use iba_workloads::WorkloadSpec;

/// Configuration of the metrics experiment.
#[derive(Clone, Debug)]
pub struct MetricsConfig {
    /// Fabric size in switches (irregular family, 4 hosts/switch).
    pub switches: usize,
    /// Offered load in bytes/ns per host.
    pub load: f64,
    /// Adaptive-traffic fraction.
    pub adaptive_fraction: f64,
    /// Shard counts to profile (the scaling axis).
    pub shards: Vec<usize>,
    /// Fidelity preset (sim horizon/warmup).
    pub fidelity: Fidelity,
    /// Base seed.
    pub seed: u64,
}

impl MetricsConfig {
    /// The checked-in profile: 32 switches, shards 1/2/4.
    pub fn paper(fidelity: Fidelity, seed: u64) -> MetricsConfig {
        MetricsConfig {
            switches: 32,
            load: 0.01,
            adaptive_fraction: 1.0,
            shards: vec![1, 2, 4],
            fidelity,
            seed,
        }
    }
}

/// One shard count's instrumented run.
#[derive(Clone, Debug)]
pub struct ShardPoint {
    /// Shard count of the engine.
    pub shards: usize,
    /// The measurement itself.
    pub result: RunResult,
    /// The post-run registry (sim-time metrics + profiling namespace).
    pub registry: MetricsRegistry,
    /// Determinism digest of the registry (profiling excluded).
    pub digest: u64,
    /// Engine profile as JSON (wall-clock: barrier waits, window
    /// shape, mailbox traffic).
    pub profile: Json,
    /// Fraction of worker wall-clock spent at the two window barriers.
    pub barrier_wait_share: f64,
}

/// The whole experiment: per-shard points plus the merged fabric-wide
/// registry (data plane of the first point + SM control plane).
pub struct MetricsRun {
    /// One point per configured shard count, in order.
    pub points: Vec<ShardPoint>,
    /// Data-plane + control-plane + profiling registry, merged.
    pub registry: MetricsRegistry,
}

/// Run the experiment: an instrumented SM bring-up over the fabric,
/// then one telemetry-and-profiling-armed simulation per shard count.
pub fn run(cfg: &MetricsConfig) -> Result<MetricsRun, IbaError> {
    let topo = IrregularConfig::paper(cfg.switches, cfg.seed).generate()?;
    let fa = FaRouting::build(&topo, RoutingConfig::two_options())?;

    // Control plane: a loss-free robust bring-up, exported as
    // iba_sm_* counters plus profiling_sm_phase_ns.
    let mut registry = MetricsRegistry::new();
    let mut fabric = ManagedFabric::new(&topo, 2)?;
    let sweep = SubnetManager::new(RoutingConfig::two_options())
        .initialize_robust(&mut fabric, RetryPolicy::default())?;
    sweep.report.record_metrics(&mut registry);
    if let Some(up) = &sweep.bringup {
        up.report.record_metrics(&mut registry);
    }

    let spec = WorkloadSpec::uniform32(cfg.load).with_adaptive_fraction(cfg.adaptive_fraction);
    let mut points = Vec::new();
    for &shards in &cfg.shards {
        let mut net = Network::builder(&topo, &fa)
            .workload(spec)
            .config(cfg.fidelity.sim_config(cfg.seed))
            .telemetry(TelemetryOpts::every_ns(10_000))
            .metrics()
            .shards(shards)
            .build()?;
        let result = net.run();
        let reg = net.metrics_registry(&result);
        let profile = net
            .engine_profile()
            .map(|p| p.to_json())
            .unwrap_or(Json::Null);
        let barrier_wait_share = net
            .engine_profile()
            .map(|p| p.barrier_wait_share())
            .unwrap_or(0.0);
        points.push(ShardPoint {
            shards,
            digest: reg.digest(),
            result,
            registry: reg,
            profile,
            barrier_wait_share,
        });
    }

    // The fabric-wide registry: data plane of the first point merged
    // over the control plane. (All points carry the same sim-time
    // content by construction; `verify` checks that.)
    if let Some(p) = points.first() {
        registry.merge(&p.registry);
    }
    Ok(MetricsRun { points, registry })
}

/// Hard gates: every shard count must produce the same sim-time
/// digest, and no `profiling_` series may be digested.
pub fn verify(run: &MetricsRun) -> Result<(), String> {
    for w in run.points.windows(2) {
        if w[0].digest != w[1].digest {
            return Err(format!(
                "sim-time metrics diverged across shard counts: {} shards digests {:#018x}, {} shards {:#018x}",
                w[0].shards, w[0].digest, w[1].shards, w[1].digest
            ));
        }
        if w[0].result != w[1].result {
            return Err(format!(
                "RunResult diverged between {} and {} shards",
                w[0].shards, w[1].shards
            ));
        }
    }
    for p in &run.points {
        if let Some(name) = p
            .registry
            .digest_names()
            .iter()
            .find(|n| iba_stats::is_profiling(n))
        {
            return Err(format!(
                "profiling series {name:?} leaked into the determinism digest at {} shards",
                p.shards
            ));
        }
        if p.result.delivered == 0 {
            return Err(format!("{} shards delivered nothing", p.shards));
        }
    }
    Ok(())
}

/// Render the experiment as the `results/metrics.json` document.
pub fn to_json(cfg: &MetricsConfig, run: &MetricsRun) -> String {
    Json::obj([
        ("experiment", Json::from("metrics")),
        ("switches", Json::from(cfg.switches)),
        ("load", Json::from(cfg.load)),
        ("adaptive_fraction", Json::from(cfg.adaptive_fraction)),
        ("seed", Json::from(cfg.seed)),
        (
            "shard_profile",
            Json::arr(run.points.iter().map(|p| {
                Json::obj([
                    ("shards", Json::from(p.shards)),
                    ("digest", Json::from(format!("{:#018x}", p.digest))),
                    ("barrier_wait_share", Json::from(p.barrier_wait_share)),
                    ("profile", p.profile.clone()),
                    ("result", p.result.to_json()),
                ])
            })),
        ),
        ("registry", run.registry.snapshot_json(0)),
    ])
    .to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_metrics_run_verifies_and_renders() {
        let cfg = MetricsConfig {
            switches: 8,
            load: 0.02,
            adaptive_fraction: 1.0,
            shards: vec![1, 2, 4],
            fidelity: Fidelity::Quick,
            seed: 5,
        };
        let run = run(&cfg).unwrap();
        assert_eq!(run.points.len(), 3);
        verify(&run).unwrap();
        // Control plane and data plane coexist in the merged registry.
        assert!(run.registry.counter("iba_sm_sweeps_total", &[]).is_some());
        assert!(run
            .registry
            .counter("iba_sim_delivered_total", &[])
            .is_some());
        let json = to_json(&cfg, &run);
        assert!(json.contains("\"barrier_wait_share\""));
        assert!(json.contains("\"shard_profile\""));
        let prom = run.registry.prometheus();
        assert!(prom.contains("iba_sm_lft_blocks_total"));
        assert!(prom.contains("iba_sim_latency_ns"));
        assert!(prom.contains("profiling_engine_barrier_wait_share"));
    }
}
