//! Figure 3 — average packet latency vs accepted traffic for FA routing
//! while the percentage of adaptive traffic sweeps 0/25/50/75/100 %.
//!
//! Paper configuration (§5.2.1): network sizes 8, 16, 32, 64 switches;
//! two routing options in the forwarding tables; 4 links connecting each
//! switch to other switches; uniform destinations; 32-byte packets.
//! Curves are averaged element-wise across the topology ensemble (the
//! paper plots representative members; the averaged curve has the same
//! shape with less noise).

use crate::fidelity::Fidelity;
use crate::harness::{build_ensemble, curve_point, EnsembleMember};
use iba_core::{par_map, IbaError};
use iba_routing::RoutingConfig;
use iba_stats::{markdown_table, Curve, CurvePoint};
use iba_topology::IrregularConfig;
use iba_workloads::WorkloadSpec;

/// Configuration of the Figure 3 reproduction.
#[derive(Clone, Debug)]
pub struct Fig3Config {
    /// Network sizes (subfigures a–d are 8, 16, 32, 64).
    pub sizes: Vec<usize>,
    /// Adaptive-traffic fractions to sweep.
    pub fractions: Vec<f64>,
    /// Fidelity preset.
    pub fidelity: Fidelity,
    /// Base seed.
    pub seed: u64,
}

impl Fig3Config {
    /// The paper's sweep at the given fidelity.
    pub fn paper(fidelity: Fidelity, seed: u64) -> Fig3Config {
        Fig3Config {
            sizes: vec![8, 16, 32, 64],
            fractions: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            fidelity,
            seed,
        }
    }
}

/// The curves of one subfigure (one network size).
#[derive(Clone, Debug)]
pub struct Fig3SizeResult {
    /// Network size in switches.
    pub size: usize,
    /// `(adaptive fraction, ensemble-averaged curve)` pairs.
    pub curves: Vec<(f64, Curve)>,
}

impl Fig3SizeResult {
    /// Saturation throughput of a fraction's curve.
    pub fn saturation(&self, fraction: f64) -> Option<f64> {
        self.curves
            .iter()
            .find(|(f, _)| (*f - fraction).abs() < 1e-9)
            .and_then(|(_, c)| c.saturation_throughput())
    }

    /// Throughput-increase factor of `fraction` over 0 % adaptive.
    pub fn factor_vs_deterministic(&self, fraction: f64) -> Option<f64> {
        Some(self.saturation(fraction)? / self.saturation(0.0)?)
    }
}

/// Element-wise average of curves sharing one offered grid.
fn average_curves(curves: &[Curve]) -> Curve {
    assert!(!curves.is_empty());
    let n = curves[0].len();
    assert!(curves.iter().all(|c| c.len() == n), "mismatched grids");
    (0..n)
        .map(|i| {
            let pts: Vec<&CurvePoint> = curves.iter().map(|c| &c.points()[i]).collect();
            let m = pts.len() as f64;
            CurvePoint {
                offered: pts[0].offered,
                accepted: pts.iter().map(|p| p.accepted).sum::<f64>() / m,
                // Latency may be NaN deep in saturation if no measured
                // packet finished; ignore those members for the average.
                avg_latency_ns: {
                    let finite: Vec<f64> = pts
                        .iter()
                        .map(|p| p.avg_latency_ns)
                        .filter(|l| l.is_finite())
                        .collect();
                    if finite.is_empty() {
                        f64::NAN
                    } else {
                        finite.iter().sum::<f64>() / finite.len() as f64
                    }
                },
            }
        })
        .collect()
}

/// Run the Figure 3 sweep for one ensemble: every `(fraction, member,
/// offered load)` point is one job of a single parallel map — a deeply
/// saturated point costs ~50× an idle one, so the jobs are shared out
/// one by one, not curve by curve — regrouped in order into one
/// ensemble-averaged curve per fraction.
fn run_size(
    members: &[EnsembleMember],
    size: usize,
    fractions: &[f64],
    fidelity: Fidelity,
    seed: u64,
) -> Result<Fig3SizeResult, IbaError> {
    let grid = fidelity.curve_grid();
    let mut jobs = Vec::with_capacity(fractions.len() * members.len() * grid.len());
    for &frac in fractions {
        for m in members {
            jobs.extend(grid.iter().map(|&offered| (frac, m, offered)));
        }
    }
    let points = par_map(&jobs, |&(frac, m, offered)| {
        curve_point(
            &m.topology,
            &m.routing,
            WorkloadSpec::uniform32(0.01).with_adaptive_fraction(frac),
            fidelity.sim_config(seed ^ (frac * 1000.0) as u64),
            offered,
        )
    })
    .into_iter()
    .collect::<Result<Vec<CurvePoint>, IbaError>>()?;
    let member_curves: Vec<Curve> = points
        .chunks(grid.len())
        .map(|curve| curve.iter().copied().collect())
        .collect();
    let curves = fractions
        .iter()
        .zip(member_curves.chunks(members.len()))
        .map(|(&frac, of_members)| (frac, average_curves(of_members)))
        .collect();
    Ok(Fig3SizeResult { size, curves })
}

/// Run the full Figure 3 reproduction.
pub fn run(cfg: &Fig3Config) -> Result<Vec<Fig3SizeResult>, IbaError> {
    cfg.sizes
        .iter()
        .map(|&size| {
            let ensemble = build_ensemble(
                IrregularConfig::paper(size, cfg.seed),
                cfg.fidelity.topologies(),
                RoutingConfig::two_options(),
            )?;
            run_size(&ensemble, size, &cfg.fractions, cfg.fidelity, cfg.seed)
        })
        .collect()
}

/// Render one subfigure as the paper-style series table: one row per
/// offered-load point, `(accepted, latency)` per fraction.
pub fn render_size(result: &Fig3SizeResult) -> String {
    let mut header: Vec<String> = vec!["offered B/ns/sw".into()];
    for (f, _) in &result.curves {
        header.push(format!("acc@{:.0}%", f * 100.0));
        header.push(format!("lat@{:.0}% ns", f * 100.0));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let npoints = result.curves[0].1.len();
    let mut rows = Vec::with_capacity(npoints);
    for i in 0..npoints {
        let mut row = vec![format!("{:.4}", result.curves[0].1.points()[i].offered)];
        for (_, c) in &result.curves {
            let p = &c.points()[i];
            row.push(format!("{:.4}", p.accepted));
            row.push(if p.avg_latency_ns.is_finite() {
                format!("{:.0}", p.avg_latency_ns)
            } else {
                "-".into()
            });
        }
        rows.push(row);
    }
    let mut out = format!(
        "### Figure 3 — {} switches (uniform, 32 B, 2 routing options, 4 links)\n\n",
        result.size
    );
    out.push_str(&markdown_table(&header_refs, &rows));
    out.push_str("\nThroughput factor vs deterministic: ");
    for (f, _) in &result.curves {
        if let Some(factor) = result.factor_vs_deterministic(*f) {
            out.push_str(&format!("{:.0}%→{:.2}  ", f * 100.0, factor));
        }
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_point;

    #[test]
    fn average_curves_is_elementwise() {
        let a: Curve = [
            CurvePoint {
                offered: 0.01,
                accepted: 0.01,
                avg_latency_ns: 100.0,
            },
            CurvePoint {
                offered: 0.02,
                accepted: 0.02,
                avg_latency_ns: 200.0,
            },
        ]
        .into_iter()
        .collect();
        let b: Curve = [
            CurvePoint {
                offered: 0.01,
                accepted: 0.03,
                avg_latency_ns: 300.0,
            },
            CurvePoint {
                offered: 0.02,
                accepted: 0.04,
                avg_latency_ns: f64::NAN,
            },
        ]
        .into_iter()
        .collect();
        let avg = average_curves(&[a, b]);
        assert!((avg.points()[0].accepted - 0.02).abs() < 1e-12);
        assert!((avg.points()[0].avg_latency_ns - 200.0).abs() < 1e-12);
        // NaN members are excluded from the latency average.
        assert!((avg.points()[1].avg_latency_ns - 200.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_fig3_run_has_the_paper_shape() {
        // One small size, extremes only, minimal ensemble: adaptive must
        // not lose to deterministic.
        let cfg = Fig3Config {
            sizes: vec![8],
            fractions: vec![0.0, 1.0],
            fidelity: Fidelity::Quick,
            seed: 5,
        };
        let results = run(&cfg).unwrap();
        assert_eq!(results.len(), 1);
        let r = &results[0];
        let factor = r.factor_vs_deterministic(1.0).unwrap();
        assert!(factor > 0.95, "adaptive factor {factor} collapsed");
        let rendered = render_size(r);
        assert!(rendered.contains("8 switches"));
        assert!(rendered.contains("acc@100%"));
    }

    #[test]
    fn run_renders_what_a_sequential_run_point_loop_renders() {
        let cfg = Fig3Config {
            sizes: vec![8],
            fractions: vec![0.0, 1.0],
            fidelity: Fidelity::Quick,
            seed: 100,
        };
        let rendered: String = run(&cfg).unwrap().iter().map(render_size).collect();

        let members = build_ensemble(
            IrregularConfig::paper(8, cfg.seed),
            cfg.fidelity.topologies(),
            RoutingConfig::two_options(),
        )
        .unwrap();
        let curves = cfg
            .fractions
            .iter()
            .map(|&frac| {
                let spec = WorkloadSpec::uniform32(0.01).with_adaptive_fraction(frac);
                let sim = cfg.fidelity.sim_config(cfg.seed ^ (frac * 1000.0) as u64);
                let member_curves: Vec<Curve> = members
                    .iter()
                    .map(|m| {
                        let hosts_per_switch = m.topology.num_hosts() as f64 / 8.0;
                        cfg.fidelity
                            .curve_grid()
                            .into_iter()
                            .map(|offered| {
                                let rate = offered / hosts_per_switch;
                                let r = run_point(&m.topology, &m.routing, spec.at_rate(rate), sim)
                                    .unwrap();
                                CurvePoint {
                                    offered,
                                    accepted: r.accepted_bytes_per_ns_per_switch,
                                    avg_latency_ns: r.avg_latency_ns,
                                }
                            })
                            .collect()
                    })
                    .collect();
                (frac, average_curves(&member_curves))
            })
            .collect();
        assert_eq!(render_size(&Fig3SizeResult { size: 8, curves }), rendered);
    }
}
