//! Ablations of the paper's design choices.
//!
//! * [`options_sweep`] — §5.2.2's headline: "only two routing options are
//!   enough to obtain roughly 90 % of the maximum throughput
//!   improvement". Compares table fan-outs on high-connectivity networks.
//! * [`selection_sweep`] — §4.3's choice of output-port selection:
//!   credit-weighted vs random vs first-feasible.
//! * [`order_sweep`] — §4.4's in-order guard: the paper's strict pointer
//!   rule vs the refined deterministic-FIFO rule.
//! * [`buffer_sweep`] — sensitivity to the VL buffer size (the one §5.1
//!   parameter the surviving text does not specify).
//! * [`escape_head_sweep`] — whether packets read from the escape head
//!   may still take adaptive options.

use crate::fidelity::Fidelity;
use crate::harness::{build_ensemble, find_saturation, EnsembleMember};
use iba_core::{par_map, Credits, IbaError};
use iba_routing::RoutingConfig;
use iba_sim::{EscapeOrderPolicy, SelectionPolicy, SimConfig};
use iba_stats::{markdown_table, MinMaxAvg};
use iba_topology::IrregularConfig;
use iba_workloads::WorkloadSpec;

/// A labelled min/max/avg outcome.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Variant label.
    pub(crate) label: String,
    /// Saturation throughput (bytes/ns/switch) over the ensemble.
    pub saturation: MinMaxAvg,
}

fn ensemble_saturation(
    ensemble: &[EnsembleMember],
    spec: WorkloadSpec,
    cfg: SimConfig,
    grid: &[f64],
) -> Result<MinMaxAvg, IbaError> {
    let sats: Vec<f64> = par_map(ensemble, |m| {
        find_saturation(&m.topology, &m.routing, spec, cfg, grid)
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    Ok(MinMaxAvg::from_samples(sats))
}

/// §5.2.2 — routing-option fan-out sweep on 6-link networks.
///
/// Returns one row per option count (1 = deterministic baseline), all at
/// 100 % adaptive traffic (except the baseline).
pub fn options_sweep(
    size: usize,
    option_counts: &[u16],
    fidelity: Fidelity,
    seed: u64,
) -> Result<Vec<AblationRow>, IbaError> {
    let grid = fidelity.offered_grid();
    option_counts
        .iter()
        .map(|&options| {
            let ensemble = build_ensemble(
                IrregularConfig::paper_connected(size, seed),
                fidelity.topologies(),
                RoutingConfig::with_options(options),
            )?;
            let frac = if options >= 2 { 1.0 } else { 0.0 };
            let sat = ensemble_saturation(
                &ensemble,
                WorkloadSpec::uniform32(0.01).with_adaptive_fraction(frac),
                fidelity.sim_config(seed),
                &grid,
            )?;
            Ok(AblationRow {
                label: if options == 1 {
                    "1 (deterministic)".into()
                } else {
                    format!("{options} ({} adaptive)", options - 1)
                },
                saturation: sat,
            })
        })
        .collect()
}

/// §4.3 — output-selection policy comparison (2 options, 4 links).
pub fn selection_sweep(
    size: usize,
    fidelity: Fidelity,
    seed: u64,
) -> Result<Vec<AblationRow>, IbaError> {
    let grid = fidelity.offered_grid();
    let ensemble = build_ensemble(
        IrregularConfig::paper(size, seed),
        fidelity.topologies(),
        RoutingConfig::two_options(),
    )?;
    [
        ("credit-weighted", SelectionPolicy::CreditWeighted),
        ("random", SelectionPolicy::RandomAdaptive),
        ("first-feasible", SelectionPolicy::FirstFeasible),
    ]
    .iter()
    .map(|(label, policy)| {
        let mut cfg = fidelity.sim_config(seed);
        cfg.selection = *policy;
        let sat = ensemble_saturation(&ensemble, WorkloadSpec::uniform32(0.01), cfg, &grid)?;
        Ok(AblationRow {
            label: (*label).into(),
            saturation: sat,
        })
    })
    .collect()
}

/// §4.4 — in-order guard comparison at 50 % adaptive traffic (where
/// deterministic and adaptive packets share buffers the most).
pub fn order_sweep(
    size: usize,
    fidelity: Fidelity,
    seed: u64,
) -> Result<Vec<AblationRow>, IbaError> {
    let grid = fidelity.offered_grid();
    let ensemble = build_ensemble(
        IrregularConfig::paper(size, seed),
        fidelity.topologies(),
        RoutingConfig::two_options(),
    )?;
    [
        ("strict pointer (paper)", EscapeOrderPolicy::Strict),
        ("deterministic FIFO", EscapeOrderPolicy::DeterministicFifo),
    ]
    .iter()
    .map(|(label, policy)| {
        let mut cfg = fidelity.sim_config(seed);
        cfg.escape_order = *policy;
        let sat = ensemble_saturation(
            &ensemble,
            WorkloadSpec::uniform32(0.01).with_adaptive_fraction(0.5),
            cfg,
            &grid,
        )?;
        Ok(AblationRow {
            label: (*label).into(),
            saturation: sat,
        })
    })
    .collect()
}

/// VL buffer-size sensitivity (the unstated §5.1 parameter).
pub fn buffer_sweep(
    size: usize,
    credits: &[u32],
    fidelity: Fidelity,
    seed: u64,
) -> Result<Vec<AblationRow>, IbaError> {
    let grid = fidelity.offered_grid();
    let ensemble = build_ensemble(
        IrregularConfig::paper(size, seed),
        fidelity.topologies(),
        RoutingConfig::two_options(),
    )?;
    credits
        .iter()
        .map(|&c| {
            let mut cfg = fidelity.sim_config(seed);
            cfg.vl_buffer_credits = Credits(c);
            let sat = ensemble_saturation(&ensemble, WorkloadSpec::uniform32(0.01), cfg, &grid)?;
            Ok(AblationRow {
                label: format!("{c} credits ({} B)", c * 64),
                saturation: sat,
            })
        })
        .collect()
}

/// Whether escape-head reads may take adaptive options.
pub fn escape_head_sweep(
    size: usize,
    fidelity: Fidelity,
    seed: u64,
) -> Result<Vec<AblationRow>, IbaError> {
    let grid = fidelity.offered_grid();
    let ensemble = build_ensemble(
        IrregularConfig::paper(size, seed),
        fidelity.topologies(),
        RoutingConfig::two_options(),
    )?;
    [true, false]
        .iter()
        .map(|&allowed| {
            let mut cfg = fidelity.sim_config(seed);
            cfg.adaptive_from_escape_head = allowed;
            let sat = ensemble_saturation(&ensemble, WorkloadSpec::uniform32(0.01), cfg, &grid)?;
            Ok(AblationRow {
                label: if allowed {
                    "escape head may go adaptive".into()
                } else {
                    "escape head forced onto escape path".into()
                },
                saturation: sat,
            })
        })
        .collect()
}

/// §1 motivation — source-selected multipath vs switch adaptivity: "by
/// using alternative paths selected at the source node, the overall
/// network performance is hardly improved". Compares deterministic
/// (1 path), source multipath over 2/4 addresses (plain switches,
/// sources rotate the DLID offset), and FA with 2 options.
pub fn source_multipath_sweep(
    size: usize,
    fidelity: Fidelity,
    seed: u64,
) -> Result<Vec<AblationRow>, IbaError> {
    use iba_routing::FaRouting;

    let grid = fidelity.offered_grid();
    let member_seeds: Vec<u64> = (0..fidelity.topologies()).collect();
    let build_members = |mode: &str, options: u16| -> Result<Vec<EnsembleMember>, IbaError> {
        par_map(&member_seeds, |&i| {
            let config = IrregularConfig::paper(size, seed.wrapping_add(i));
            let topology = config.generate()?;
            let rc = RoutingConfig::with_options(options);
            let routing = match mode {
                "multipath" => FaRouting::build_source_multipath(&topology, rc)?,
                _ => FaRouting::build(&topology, rc)?,
            };
            Ok(EnsembleMember { topology, routing })
        })
        .into_iter()
        .collect()
    };
    let mut rows = Vec::new();
    for (label, mode, options, fraction) in [
        ("deterministic (1 path)", "fa", 2, 0.0),
        ("source multipath x2", "multipath", 2, 0.0),
        ("source multipath x4", "multipath", 4, 0.0),
        ("FA, 2 options (switch adaptive)", "fa", 2, 1.0),
    ] {
        let members = build_members(mode, options)?;
        let sat = ensemble_saturation(
            &members,
            WorkloadSpec::uniform32(0.01).with_adaptive_fraction(fraction),
            fidelity.sim_config(seed),
            &grid,
        )?;
        rows.push(AblationRow {
            label: label.into(),
            saturation: sat,
        });
    }
    Ok(rows)
}

/// §4.2 — incremental deployment: sweep the fraction of adaptive-capable
/// switches in a mixed fabric (capable subset chosen per ensemble seed).
pub fn mixed_fabric_sweep(
    size: usize,
    fractions: &[f64],
    fidelity: Fidelity,
    seed: u64,
) -> Result<Vec<AblationRow>, IbaError> {
    use iba_engine::rng::{StreamKind, StreamRng};
    use iba_routing::FaRouting;

    let grid = fidelity.offered_grid();
    let member_seeds: Vec<u64> = (0..fidelity.topologies()).collect();
    fractions
        .iter()
        .map(|&fraction| {
            // Rebuild the ensemble with per-member capability subsets.
            let members: Vec<EnsembleMember> = par_map(&member_seeds, |&i| {
                let config = IrregularConfig::paper(size, seed.wrapping_add(i));
                let topology = config.generate()?;
                let mut rng = StreamRng::from_seed(seed.wrapping_add(i))
                    .derive(StreamKind::Custom(0x4D49_5845));
                let mut caps: Vec<bool> = (0..size)
                    .map(|k| (k as f64) < fraction * size as f64)
                    .collect();
                rng.shuffle(&mut caps);
                let routing =
                    FaRouting::build_mixed(&topology, RoutingConfig::two_options(), &caps)?;
                Ok(EnsembleMember { topology, routing })
            })
            .into_iter()
            .collect::<Result<_, IbaError>>()?;
            let sat = ensemble_saturation(
                &members,
                WorkloadSpec::uniform32(0.01),
                fidelity.sim_config(seed),
                &grid,
            )?;
            Ok(AblationRow {
                label: format!("{:.0}% adaptive switches", fraction * 100.0),
                saturation: sat,
            })
        })
        .collect()
}

/// Render ablation rows.
pub fn render(title: &str, rows: &[AblationRow]) -> String {
    let header = ["variant", "saturation B/ns/sw (min/max/avg)"];
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.label.clone(), r.saturation.to_string()])
        .collect();
    format!(
        "### Ablation — {title}\n\n{}",
        markdown_table(&header, &table_rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_sweep_shows_the_90_percent_effect_in_miniature() {
        let rows = options_sweep(8, &[1, 2, 4], Fidelity::Quick, 3).unwrap();
        assert_eq!(rows.len(), 3);
        let base = rows[0].saturation.avg();
        let two = rows[1].saturation.avg();
        let four = rows[2].saturation.avg();
        assert!(
            two >= base * 0.95,
            "2 options must not lose to deterministic"
        );
        assert!(four >= two * 0.9, "4 options should be competitive with 2");
        // The §5.2.2 claim proper (2 options ≥ 90 % of the 4-option gain)
        // is asserted by the integration suite at higher fidelity.
        let rendered = render("options", &rows);
        assert!(rendered.contains("deterministic"));
    }
}
