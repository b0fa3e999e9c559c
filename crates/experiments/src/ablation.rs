//! Ablations of the paper's design choices: per ablation a list of
//! variants, every one run the same way — build its ensemble, find
//! each member's saturation throughput, fold them into one row.
//!
//! * `options` — §5.2.2's headline: "only two routing options are
//!   enough to obtain roughly 90 % of the maximum throughput
//!   improvement". Compares table fan-outs on high-connectivity networks.
//! * `selection` — §4.3's choice of output-port selection:
//!   credit-weighted vs random vs first-feasible.
//! * `order` — §4.4's in-order guard: the paper's strict pointer rule vs
//!   the refined deterministic-FIFO rule.
//! * `buffer` — sensitivity to the VL buffer size (the one §5.1
//!   parameter the surviving text does not specify).
//! * `escapehead` — whether packets read from the escape head may still
//!   take adaptive options.
//! * `mixed` — §4.2's incremental deployment: the fraction of
//!   adaptive-capable switches in a mixed fabric.
//! * `source` — §1's motivation: source-selected multipath vs switch
//!   adaptivity.

use crate::fidelity::Fidelity;
use crate::harness::{find_saturation, EnsembleMember};
use iba_core::{par_map, Credits, IbaError};
use iba_engine::rng::{StreamKind, StreamRng};
use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{EscapeOrderPolicy, SelectionPolicy, SimConfig};
use iba_stats::{markdown_table, MinMaxAvg};
use iba_topology::IrregularConfig;
use iba_workloads::WorkloadSpec;

/// The ablations in the order `iba ablation all` runs them.
pub const NAMES: [&str; 7] = [
    "options",
    "selection",
    "order",
    "buffer",
    "escapehead",
    "mixed",
    "source",
];

/// A labelled min/max/avg outcome.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Variant label.
    pub(crate) label: String,
    /// Saturation throughput (bytes/ns/switch) over the ensemble.
    pub saturation: MinMaxAvg,
}

/// How a variant's fabrics are routed.
#[derive(Clone, Copy, Debug)]
enum Tables {
    /// FA tables with this many routing options (1: deterministic).
    Fa(u16),
    /// Plain switches; sources rotate the DLID over this many addresses.
    SourceMultipath(u16),
    /// Two-option FA on this fraction of the switches (the
    /// adaptive-capable subset drawn per ensemble member).
    Mixed(f64),
}

/// One row of an ablation.
struct Variant {
    label: String,
    /// Inter-switch links per switch.
    links: usize,
    tables: Tables,
    /// Share of packets marked adaptive.
    adaptive: f64,
    sim: SimConfig,
}

impl Variant {
    /// The variant's ensemble member on `size` switches seeded `seed`.
    fn member(&self, size: usize, seed: u64) -> Result<EnsembleMember, IbaError> {
        let config = IrregularConfig {
            inter_switch_links: self.links,
            ..IrregularConfig::paper(size, seed)
        };
        let topology = config.generate()?;
        let routing = match self.tables {
            Tables::Fa(x) => FaRouting::build(&topology, RoutingConfig::with_options(x))?,
            Tables::SourceMultipath(x) => {
                FaRouting::build_source_multipath(&topology, RoutingConfig::with_options(x))?
            }
            Tables::Mixed(fraction) => {
                let mut caps: Vec<bool> = (0..size)
                    .map(|k| (k as f64) < fraction * size as f64)
                    .collect();
                StreamRng::from_seed(seed)
                    .derive(StreamKind::Custom(0x4D49_5845))
                    .shuffle(&mut caps);
                FaRouting::build_mixed(&topology, RoutingConfig::two_options(), &caps)?
            }
        };
        Ok(EnsembleMember { topology, routing })
    }
}

/// The title and the variants of ablation `name` on `size` switches,
/// each simulated from `base` or from `base` with one knob turned.
fn variants(name: &str, size: usize, base: SimConfig) -> Option<(String, Vec<Variant>)> {
    use Tables::{Fa, Mixed, SourceMultipath};
    let row = |label: String, links, tables, adaptive, sim| Variant {
        label,
        links,
        tables,
        adaptive,
        sim,
    };
    let edit = |turn: &dyn Fn(&mut SimConfig)| {
        let mut sim = base;
        turn(&mut sim);
        sim
    };
    Some(match name {
        "options" => (
            format!("routing options (§5.2.2), {size} switches, 6 links"),
            [(1, 0.0), (2, 1.0), (4, 1.0)]
                .map(|(x, adaptive)| {
                    let label = match x {
                        1 => "1 (deterministic)".into(),
                        _ => format!("{x} ({} adaptive)", x - 1),
                    };
                    row(label, 6, Fa(x), adaptive, base)
                })
                .into(),
        ),
        "selection" => (
            format!("output selection (§4.3), {size} switches"),
            [
                ("credit-weighted", SelectionPolicy::CreditWeighted),
                ("random", SelectionPolicy::RandomAdaptive),
                ("first-feasible", SelectionPolicy::FirstFeasible),
            ]
            .map(|(label, p)| row(label.into(), 4, Fa(2), 1.0, edit(&|s| s.selection = p)))
            .into(),
        ),
        "order" => (
            format!("in-order guard (§4.4), {size} switches, 50% adaptive"),
            [
                ("strict pointer (paper)", EscapeOrderPolicy::Strict),
                ("deterministic FIFO", EscapeOrderPolicy::DeterministicFifo),
            ]
            .map(|(label, p)| row(label.into(), 4, Fa(2), 0.5, edit(&|s| s.escape_order = p)))
            .into(),
        ),
        "buffer" => (
            format!("VL buffer size, {size} switches"),
            [8, 16, 32, 64]
                .map(|c| {
                    let sim = edit(&|s| s.vl_buffer_credits = Credits(c));
                    row(format!("{c} credits ({} B)", c * 64), 4, Fa(2), 1.0, sim)
                })
                .into(),
        ),
        "escapehead" => (
            format!("escape-head adaptivity, {size} switches"),
            [
                ("escape head may go adaptive", true),
                ("escape head forced onto escape path", false),
            ]
            .map(|(label, may)| {
                let sim = edit(&|s| s.adaptive_from_escape_head = may);
                row(label.into(), 4, Fa(2), 1.0, sim)
            })
            .into(),
        ),
        "mixed" => (
            format!("mixed fabric (§4.2), {size} switches, 100% adaptive traffic"),
            [0.0, 0.25, 0.5, 0.75, 1.0]
                .map(|f| {
                    let label = format!("{:.0}% adaptive switches", f * 100.0);
                    row(label, 4, Mixed(f), 1.0, base)
                })
                .into(),
        ),
        "source" => (
            format!("source multipath vs switch adaptivity (§1), {size} switches"),
            [
                ("deterministic (1 path)", Fa(2), 0.0),
                ("source multipath x2", SourceMultipath(2), 0.0),
                ("source multipath x4", SourceMultipath(4), 0.0),
                ("FA, 2 options (switch adaptive)", Fa(2), 1.0),
            ]
            .map(|(label, tables, adaptive)| row(label.into(), 4, tables, adaptive, base))
            .into(),
        ),
        _ => return None,
    })
}

/// Run ablation `name` (one of [`NAMES`]) on `size`-switch fabrics: its
/// title and one row per variant, the saturation throughput of
/// `fidelity.topologies()` members seeded from `seed`.
pub fn run(
    name: &str,
    size: usize,
    fidelity: Fidelity,
    seed: u64,
) -> Result<(String, Vec<AblationRow>), IbaError> {
    let (title, variants) = variants(name, size, fidelity.sim_config(seed)).ok_or_else(|| {
        IbaError::InvalidConfig(format!(
            "unknown ablation {name:?} ({}|all)",
            NAMES.join("|")
        ))
    })?;
    let grid = fidelity.offered_grid();
    let rows = (variants.into_iter())
        .map(|v| {
            let members = (0..fidelity.topologies())
                .map(|i| v.member(size, seed.wrapping_add(i)))
                .collect::<Result<Vec<_>, _>>()?;
            let spec = WorkloadSpec::uniform32(0.01).with_adaptive_fraction(v.adaptive);
            let sats = par_map(&members, |m| {
                find_saturation(&m.topology, &m.routing, spec, v.sim, &grid)
            });
            Ok(AblationRow {
                label: v.label,
                saturation: MinMaxAvg::from_samples(
                    sats.into_iter().collect::<Result<Vec<_>, _>>()?,
                ),
            })
        })
        .collect::<Result<_, IbaError>>()?;
    Ok((title, rows))
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
        let (title, rows) = run("options", 8, Fidelity::Quick, 3).unwrap();
        assert!(title.starts_with("routing options"), "{title}");
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
