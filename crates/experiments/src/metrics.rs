//! The shard-scaling profile: one profiled run (`.metrics()`) of the
//! same workload per shard count, reported as each run's `RunResult`
//! beside its [`EngineProfile`] — barrier-wait share, window-width and
//! events-per-window distributions, mailbox traffic, handlers per
//! class. The document is `results/metrics.json`.
//!
//! The experiment doubles as an end-to-end determinism check: there is
//! one machine whatever the partitioning, so every shard count must
//! return the same `RunResult`, and [`verify`] hard-errors when it does
//! not.

use crate::fidelity::Fidelity;
use iba_core::{IbaError, Json};
use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{EngineProfile, Network, RunResult};
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

/// One shard count's profiled run.
#[derive(Clone, Debug)]
pub struct ShardPoint {
    /// Shard count of the engine.
    pub shards: usize,
    /// The measurement itself.
    pub result: RunResult,
    /// Where the run's wall time went.
    pub profile: EngineProfile,
}

/// Run the experiment: one profiled simulation per shard count.
pub fn run(cfg: &MetricsConfig) -> Result<Vec<ShardPoint>, IbaError> {
    let topo = IrregularConfig::paper(cfg.switches, cfg.seed).generate()?;
    let fa = FaRouting::build(&topo, RoutingConfig::two_options())?;
    let spec = WorkloadSpec::uniform32(cfg.load).with_adaptive_fraction(cfg.adaptive_fraction);
    let mut points = Vec::new();
    for &shards in &cfg.shards {
        let mut net = Network::builder(&topo, &fa)
            .workload(spec)
            .config(cfg.fidelity.sim_config(cfg.seed))
            .metrics()
            .shards(shards)
            .build()?;
        let result = net.run();
        let profile = net.engine_profile().expect("profiling armed").clone();
        points.push(ShardPoint {
            shards,
            result,
            profile,
        });
    }
    Ok(points)
}

/// Hard gates: every shard count returns the same `RunResult`, and
/// that result delivered something.
pub fn verify(points: &[ShardPoint]) -> Result<(), String> {
    for w in points.windows(2) {
        if w[0].result != w[1].result {
            return Err(format!(
                "RunResult diverged between {} and {} shards",
                w[0].shards, w[1].shards
            ));
        }
    }
    match points.iter().find(|p| p.result.delivered == 0) {
        Some(p) => Err(format!("{} shards delivered nothing", p.shards)),
        None => Ok(()),
    }
}

/// Render the experiment as the `results/metrics.json` document.
pub fn to_json(cfg: &MetricsConfig, points: &[ShardPoint]) -> String {
    Json::obj([
        ("experiment", Json::from("metrics")),
        ("switches", Json::from(cfg.switches)),
        ("load", Json::from(cfg.load)),
        ("adaptive_fraction", Json::from(cfg.adaptive_fraction)),
        ("seed", Json::from(cfg.seed)),
        (
            "shard_profile",
            Json::arr(points.iter().map(|p| {
                Json::obj([
                    ("shards", Json::from(p.shards)),
                    ("profile", p.profile.to_json()),
                    ("result", p.result.to_json()),
                ])
            })),
        ),
    ])
    .to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> (MetricsConfig, Vec<ShardPoint>) {
        let cfg = MetricsConfig {
            switches: 8,
            load: 0.02,
            adaptive_fraction: 1.0,
            shards: vec![1, 2, 4],
            fidelity: Fidelity::Quick,
            seed: 5,
        };
        let points = run(&cfg).unwrap();
        (cfg, points)
    }

    #[test]
    fn quick_metrics_run_verifies_and_renders() {
        let (cfg, points) = quick();
        assert_eq!(points.len(), 3);
        verify(&points).unwrap();
        assert_eq!(points[2].profile.shards, 4);
        let json = to_json(&cfg, &points);
        for key in [
            "\"shard_profile\"",
            "\"barrier_wait_share\"",
            "\"handlers\"",
        ] {
            assert!(json.contains(key), "{key} missing");
        }
    }

    #[test]
    fn verify_refuses_unequal_results_and_empty_runs() {
        let (_, points) = quick();
        let mut diverged = points.clone();
        diverged[1].result.delivered += 1;
        let err = verify(&diverged).unwrap_err();
        assert!(err.contains("between 1 and 2 shards"), "{err}");
        let mut diverged = points.clone();
        diverged[2].result.p99_latency_ns = None;
        assert!(verify(&diverged).is_err());
        let mut empty = points;
        for p in &mut empty {
            p.result.delivered = 0;
        }
        assert_eq!(verify(&empty).unwrap_err(), "1 shards delivered nothing");
    }
}
