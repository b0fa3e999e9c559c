//! Engine-zoo comparison: FA over every escape engine in the tree, on
//! the topology families the engines claim, as a Fig-3-style
//! latency/accepted-traffic sweep.
//!
//! Per network size the zoo runs two topology families, each under two
//! escape engines on the *identical* wired fabric:
//!
//! * a 2-D torus — FA-over-up\*/down\* (the portable default) vs
//!   FA-over-OutFlank (dateline-free dimension-order escape, the
//!   torus-native discipline);
//! * a full mesh — FA-over-up\*/down\* vs FA-over-direct (single-hop
//!   escape). On a complete graph the two compile byte-identical
//!   tables, so this pair is the harness calibration point: any
//!   measured difference is a bug, not a result.
//!
//! Every point re-certifies the *materialized* escape offset of the
//! forwarding tables through the channel-dependency checker and records
//! the verdict as `escape_acyclic`; [`verify_cells`] turns a `false` into a
//! hard error so CI fails loudly.
//!
//! The full mesh stops where the port budget does: a K_n switch needs
//! `n − 1` switch ports plus its host ports, so sizes above
//! [`MAX_PORTS`] minus the host count are skipped (and logged) rather
//! than silently dropped.

use crate::fidelity::Fidelity;
use crate::harness::sweep_curve;
use iba_core::{IbaError, Json, MAX_PORTS};
use iba_routing::{EscapeEngine, FaRouting, FullMeshRouting, OutflankRouting, RoutingConfig};
use iba_stats::Curve;
use iba_topology::{Topology, TopologySpec};
use iba_workloads::WorkloadSpec;

/// Configuration of the engine-zoo sweep.
#[derive(Clone, Debug)]
pub struct ZooConfig {
    /// Network sizes in switches; tori need a `rows × cols` split with
    /// both sides ≥ 3, full meshes must fit the port budget.
    pub sizes: Vec<usize>,
    /// Hosts attached to every switch.
    pub hosts_per_switch: usize,
    /// Adaptive-traffic fraction of the workload (1.0 = the FA paper's
    /// fully adaptive operating point).
    pub adaptive_fraction: f64,
    /// Fidelity preset.
    pub fidelity: Fidelity,
    /// Base seed.
    pub seed: u64,
}

/// One engine × topology measurement.
#[derive(Clone, Debug)]
pub struct ZooPoint {
    /// Stable topology name (e.g. `torus8x8`, `fullmesh64`).
    pub topology: String,
    /// Fabric size in switches.
    pub switches: usize,
    /// Escape-engine name ([`EscapeEngine::NAME`]).
    pub(crate) engine: &'static str,
    /// Whether the materialized escape offset of the forwarding tables
    /// certified acyclic through the channel-dependency checker.
    pub escape_acyclic: bool,
    /// Saturation throughput (bytes/ns/switch) of the curve.
    pub saturation: Option<f64>,
    /// The latency/accepted-traffic curve.
    pub(crate) curve: Curve,
}

/// Split `n` into `rows × cols` with both sides ≥ 3, as square as
/// possible (`None` when `n` has no such factorization).
pub(crate) fn torus_dims(n: usize) -> Option<(usize, usize)> {
    (3..=n.isqrt())
        .rev()
        .find(|&r| n.is_multiple_of(r) && n / r >= 3)
        .map(|r| (r, n / r))
}

/// Run one engine on one topology: compile FA over it, certify the
/// materialized escape offset, sweep the curve.
fn run_engine<E: EscapeEngine>(
    topo: &Topology,
    name: String,
    cfg: &ZooConfig,
) -> Result<ZooPoint, IbaError> {
    let fa = FaRouting::<E>::build_with_engine(topo, RoutingConfig::two_options())?;
    let escape_acyclic = fa.certify_escape(topo, false).is_ok();
    let spec = WorkloadSpec::uniform32(0.01).with_adaptive_fraction(cfg.adaptive_fraction);
    let curve = sweep_curve(
        topo,
        &fa,
        spec,
        cfg.fidelity.sim_config(cfg.seed),
        &cfg.fidelity.curve_grid(),
    )?;
    Ok(ZooPoint {
        topology: name,
        switches: topo.num_switches(),
        engine: E::NAME,
        escape_acyclic,
        saturation: curve.saturation_throughput(),
        curve,
    })
}

/// [`run_engine`] dispatched on the engine's stable name (the
/// vocabulary a campaign spec stores).
pub(crate) fn run_engine_named(
    topo: &Topology,
    name: String,
    engine: &str,
    cfg: &ZooConfig,
) -> Result<ZooPoint, IbaError> {
    match engine {
        "updown" => run_engine::<iba_routing::UpDownRouting>(topo, name, cfg),
        "outflank" => run_engine::<OutflankRouting>(topo, name, cfg),
        "fullmesh" => run_engine::<FullMeshRouting>(topo, name, cfg),
        other => Err(IbaError::RoutingFailed(format!(
            "unknown escape engine {other:?}"
        ))),
    }
}

/// The `(topology spec, engine)` grid of the zoo for `cfg`: per size the
/// torus pair and, port budget permitting, the full-mesh pair. Tori need
/// a `rows × cols ≥ 3` split, full meshes must fit the port budget;
/// what is skipped is reported on stderr, never silently dropped.
pub(crate) fn plan(cfg: &ZooConfig) -> Vec<(TopologySpec, &'static str)> {
    let mut grid = Vec::new();
    for &size in &cfg.sizes {
        match torus_dims(size) {
            Some((rows, cols)) => {
                let spec = TopologySpec::Torus2D {
                    rows,
                    cols,
                    hosts_per_switch: cfg.hosts_per_switch,
                };
                grid.push((spec, "updown"));
                grid.push((spec, "outflank"));
            }
            None => {
                eprintln!("engine_zoo: {size} switches has no rows×cols ≥ 3 split; torus skipped")
            }
        }
        if size - 1 + cfg.hosts_per_switch <= MAX_PORTS {
            let spec = TopologySpec::FullMesh {
                switches: size,
                hosts_per_switch: cfg.hosts_per_switch,
            };
            grid.push((spec, "updown"));
            grid.push((spec, "fullmesh"));
        } else {
            eprintln!(
                "engine_zoo: K_{size} needs {} ports (> {MAX_PORTS}); full mesh skipped",
                size - 1 + cfg.hosts_per_switch
            );
        }
    }
    grid
}

/// Hard gates over rendered point cells (the shape the campaign runner
/// recovers from its journal): every point's escape layer must have
/// certified acyclic, and the full-mesh calibration pair must saturate
/// identically (the two engines compile byte-identical tables there).
pub fn verify_cells(points: &[Json]) -> Result<(), String> {
    let field = |p: &Json, key: &str| -> String {
        p.get(key)
            .and_then(Json::as_str)
            .unwrap_or("<missing>")
            .to_string()
    };
    for p in points {
        if p.get("escape_acyclic").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "{} on {}: escape layer failed the cycle certification",
                field(p, "engine"),
                field(p, "topology")
            ));
        }
    }
    for w in points.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let (ta, tb) = (field(a, "topology"), field(b, "topology"));
        if ta == tb
            && ta.starts_with("fullmesh")
            && field(a, "engine") != field(b, "engine")
            && a.get("saturation") != b.get("saturation")
        {
            return Err(format!(
                "calibration broken: {} vs {} on {} saturate at {:?} vs {:?}",
                field(a, "engine"),
                field(b, "engine"),
                ta,
                a.get("saturation"),
                b.get("saturation")
            ));
        }
    }
    Ok(())
}

/// One zoo point as a JSON object — the `points[]` element of the
/// results document, and the per-run result a campaign journal record
/// stores.
pub fn point_json(p: &ZooPoint) -> Json {
    Json::obj([
        ("topology", Json::from(p.topology.as_str())),
        ("switches", Json::from(p.switches)),
        ("engine", Json::from(p.engine)),
        ("escape_acyclic", Json::from(p.escape_acyclic)),
        (
            "saturation",
            p.saturation.map(Json::from).unwrap_or(Json::Null),
        ),
        (
            "curve",
            Json::arr(p.curve.points().iter().map(|c| {
                Json::obj([
                    ("offered", Json::from(c.offered)),
                    ("accepted", Json::from(c.accepted)),
                    ("avg_latency_ns", Json::from(c.avg_latency_ns)),
                ])
            })),
        ),
    ])
}

/// Assemble the results document from already-rendered point cells.
pub fn document_from_cells(cfg: &ZooConfig, points: &[Json]) -> String {
    Json::obj([
        ("experiment", Json::from("engine_zoo")),
        ("sizes", Json::arr(cfg.sizes.iter().map(|&s| Json::from(s)))),
        ("hosts_per_switch", Json::from(cfg.hosts_per_switch)),
        ("adaptive_fraction", Json::from(cfg.adaptive_fraction)),
        ("seed", Json::from(cfg.seed)),
        ("points", Json::arr(points.iter().cloned())),
    ])
    .to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_routing::UpDownRouting;

    #[test]
    fn torus_dims_prefers_square_splits() {
        assert_eq!(torus_dims(16), Some((4, 4)));
        assert_eq!(torus_dims(64), Some((8, 8)));
        assert_eq!(torus_dims(256), Some((16, 16)));
        assert_eq!(torus_dims(12), Some((3, 4)));
        // 10 = 2×5 only; no side ≥ 3 on both ends.
        assert_eq!(torus_dims(10), None);
        assert_eq!(torus_dims(7), None);
    }

    #[test]
    fn fullmesh_pair_compiles_identical_tables() {
        // The calibration contract behind `verify_cells`: on a complete graph
        // the direct engine and up*/down* agree on every escape hop and
        // every minimal option, so the interleaved tables match bytewise.
        let topo = TopologySpec::FullMesh {
            switches: 16,
            hosts_per_switch: 2,
        }
        .generate(0)
        .unwrap();
        let ud = FaRouting::<UpDownRouting>::build_with_engine(&topo, RoutingConfig::two_options())
            .unwrap();
        let fm =
            FaRouting::<FullMeshRouting>::build_with_engine(&topo, RoutingConfig::two_options())
                .unwrap();
        assert!(ud.tables_equal(&fm), "calibration pair tables diverged");
    }

    #[test]
    fn quick_zoo_runs_all_three_engines_acyclic() {
        let cfg = ZooConfig {
            sizes: vec![16],
            hosts_per_switch: 2,
            adaptive_fraction: 1.0,
            fidelity: Fidelity::Quick,
            seed: 3,
        };
        let points: Vec<ZooPoint> = plan(&cfg)
            .into_iter()
            .map(|(spec, engine)| {
                let topo = spec.generate(cfg.seed).unwrap();
                run_engine_named(&topo, spec.name(), engine, &cfg).unwrap()
            })
            .collect();
        let engines: Vec<&str> = points.iter().map(|p| p.engine).collect();
        assert_eq!(engines, ["updown", "outflank", "updown", "fullmesh"]);
        let cells: Vec<Json> = points.iter().map(point_json).collect();
        verify_cells(&cells).unwrap();
        let json = document_from_cells(&cfg, &cells);
        assert!(json.contains("\"escape_acyclic\": true"));
        assert!(!json.contains("\"escape_acyclic\": false"));
    }
}
