//! Shared simulation harness: ensembles, sweeps and saturation search.

use iba_core::{par_map, IbaError};
use iba_routing::{FaRouting, RoutingConfig, TableSource};
use iba_sim::{Network, RunResult, SimConfig};
use iba_stats::{Curve, CurvePoint};
use iba_topology::{IrregularConfig, Topology};
use iba_workloads::WorkloadSpec;

/// One topology of an ensemble with its compiled routing tables.
pub struct EnsembleMember {
    /// The wired topology.
    pub topology: Topology,
    /// FA routing compiled for it.
    pub routing: FaRouting,
}

/// Generate `count` topologies for `base` (seeds `base.seed + 0..count`)
/// and compile routing tables. Sequential on purpose: a member of a
/// paper-size ensemble builds in about the time a thread takes to spawn.
pub fn build_ensemble(
    base: IrregularConfig,
    count: u64,
    routing: RoutingConfig,
) -> Result<Vec<EnsembleMember>, IbaError> {
    (0..count)
        .map(|i| {
            let config = IrregularConfig {
                seed: base.seed.wrapping_add(i),
                ..base
            };
            let topology = config.generate()?;
            let routing = FaRouting::build(&topology, routing)?;
            Ok(EnsembleMember { topology, routing })
        })
        .collect()
}

/// Run a single simulation point.
pub fn run_point(
    topo: &Topology,
    routing: &dyn TableSource,
    spec: WorkloadSpec,
    cfg: SimConfig,
) -> Result<RunResult, IbaError> {
    Ok(Network::builder(topo, routing)
        .workload(spec)
        .config(cfg)
        .build()?
        .run())
}

/// Per-host injection rate for a target *offered* load in
/// bytes/ns/switch.
fn host_rate(topo: &Topology, offered_per_switch: f64) -> f64 {
    let hosts_per_switch = topo.num_hosts() as f64 / topo.num_switches() as f64;
    offered_per_switch / hosts_per_switch
}

/// Simulate one point of a latency / accepted-traffic curve at
/// `offered` bytes/ns/switch.
pub(crate) fn curve_point(
    topo: &Topology,
    routing: &dyn TableSource,
    base_spec: WorkloadSpec,
    cfg: SimConfig,
    offered: f64,
) -> Result<CurvePoint, IbaError> {
    let spec = base_spec.at_rate(host_rate(topo, offered));
    let r = run_point(topo, routing, spec, cfg)?;
    Ok(CurvePoint {
        offered,
        accepted: r.accepted_bytes_per_ns_per_switch,
        avg_latency_ns: r.avg_latency_ns,
    })
}

/// Sweep `offered_grid` (bytes/ns/switch) and collect the latency /
/// accepted-traffic curve. Points are simulated in parallel.
pub(crate) fn sweep_curve(
    topo: &Topology,
    routing: &dyn TableSource,
    base_spec: WorkloadSpec,
    cfg: SimConfig,
    offered_grid: &[f64],
) -> Result<Curve, IbaError> {
    par_map(offered_grid, |&offered| {
        curve_point(topo, routing, base_spec, cfg, offered)
    })
    .into_iter()
    .collect()
}

/// Saturation throughput (bytes/ns/switch): sweep `offered_grid` upward
/// and return the maximum accepted traffic. Stops early once accepted
/// traffic has clearly flattened (two consecutive points below 98 % of
/// the best), which skips the most expensive, deeply saturated points.
pub(crate) fn find_saturation(
    topo: &Topology,
    routing: &dyn TableSource,
    base_spec: WorkloadSpec,
    cfg: SimConfig,
    offered_grid: &[f64],
) -> Result<f64, IbaError> {
    let mut best = 0.0f64;
    let mut flat_streak = 0;
    for &offered in offered_grid {
        let spec = base_spec.at_rate(host_rate(topo, offered));
        let r = run_point(topo, routing, spec, cfg)?;
        let acc = r.accepted_bytes_per_ns_per_switch;
        if acc > best {
            best = acc;
        }
        if acc < 0.98 * best {
            flat_streak += 1;
            if flat_streak >= 2 {
                break;
            }
        } else {
            flat_streak = 0;
        }
    }
    Ok(best)
}

/// Saturation throughputs for the same ensemble under two adaptive
/// fractions (numerator, denominator), in parallel over members; returns
/// the per-member factor `sat(num) / sat(den)`. This is Table 1's
/// "factor of throughput increase" (100 % adaptive vs deterministic).
pub(crate) fn throughput_factors(
    ensemble: &[EnsembleMember],
    base_spec: WorkloadSpec,
    cfg: SimConfig,
    offered_grid: &[f64],
    num_fraction: f64,
    den_fraction: f64,
) -> Result<Vec<f64>, IbaError> {
    par_map(ensemble, |m| {
        let num = find_saturation(
            &m.topology,
            &m.routing,
            base_spec.with_adaptive_fraction(num_fraction),
            cfg,
            offered_grid,
        )?;
        let den = find_saturation(
            &m.topology,
            &m.routing,
            base_spec.with_adaptive_fraction(den_fraction),
            cfg,
            offered_grid,
        )?;
        if den <= 0.0 {
            return Err(IbaError::InvalidConfig(
                "baseline saturation is zero; grid too coarse".into(),
            ));
        }
        Ok(num / den)
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::geometric_grid;
    use iba_core::SimTime;

    fn quick_cfg(seed: u64) -> SimConfig {
        SimConfig {
            warmup: SimTime::from_us(10),
            measure_window: SimTime::from_us(30),
            ..SimConfig::paper(seed)
        }
    }

    #[test]
    fn ensemble_members_take_consecutive_seeds() {
        let members = build_ensemble(
            IrregularConfig::paper(8, 42),
            4,
            RoutingConfig::two_options(),
        )
        .unwrap();
        assert_eq!(members.len(), 4);
        for (seed, m) in (42..).zip(&members) {
            m.topology.validate().unwrap();
            let want = IrregularConfig::paper(8, seed).generate().unwrap();
            for s in want.switch_ids() {
                assert!(want.switch_neighbors(s).eq(m.topology.switch_neighbors(s)));
            }
        }
    }

    #[test]
    fn sweep_produces_increasing_offered_points() {
        let m = &build_ensemble(
            IrregularConfig::paper(8, 1),
            1,
            RoutingConfig::two_options(),
        )
        .unwrap()[0];
        let grid = geometric_grid(0.01, 0.08, 4);
        let curve = sweep_curve(
            &m.topology,
            &m.routing,
            WorkloadSpec::uniform32(0.01),
            quick_cfg(5),
            &grid,
        )
        .unwrap();
        assert_eq!(curve.len(), 4);
        assert!(curve.low_load_accepts_offered(0.1));
    }

    #[test]
    fn saturation_is_positive_and_bounded() {
        let m = &build_ensemble(
            IrregularConfig::paper(8, 2),
            1,
            RoutingConfig::two_options(),
        )
        .unwrap()[0];
        let grid = geometric_grid(0.01, 0.6, 7);
        let sat = find_saturation(
            &m.topology,
            &m.routing,
            WorkloadSpec::uniform32(0.01),
            quick_cfg(6),
            &grid,
        )
        .unwrap();
        // An 8-switch network cannot accept more than its bisection allows
        // nor less than the lowest grid point it sustained.
        assert!(sat > 0.01 && sat < 2.0, "sat = {sat}");
    }

    #[test]
    fn adaptive_factor_exceeds_one_on_an_ensemble() {
        let ensemble = build_ensemble(
            IrregularConfig::paper(8, 3),
            2,
            RoutingConfig::two_options(),
        )
        .unwrap();
        let grid = geometric_grid(0.02, 0.6, 6);
        let factors = throughput_factors(
            &ensemble,
            WorkloadSpec::uniform32(0.01),
            quick_cfg(7),
            &grid,
            1.0,
            0.0,
        )
        .unwrap();
        assert_eq!(factors.len(), 2);
        for f in factors {
            assert!(f > 0.95, "adaptive factor collapsed: {f}");
        }
    }
}
