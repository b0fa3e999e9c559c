//! Table 2 — average percentage of routing options at each switch for
//! each destination port.
//!
//! Static analysis over the topology ensemble: no simulation involved,
//! so this experiment always runs at the paper's full ten topologies.

use iba_core::{par_map, IbaError};
use iba_routing::{MinimalRouting, OptionDistribution, UpDownRouting};
use iba_stats::markdown_table;
use iba_topology::IrregularConfig;

/// Configuration of the Table 2 reproduction.
#[derive(Clone, Debug)]
pub struct Table2Config {
    /// Network sizes.
    pub sizes: Vec<usize>,
    /// Inter-switch link counts (the paper compares 4 and 6).
    pub links: Vec<usize>,
    /// MR values (maximum routing options per destination).
    pub max_options: Vec<usize>,
    /// Topologies per configuration.
    pub topologies: u64,
    /// Base seed.
    pub seed: u64,
    /// Include destinations attached to the switch itself (always a
    /// single option). The paper's counting is not explicit; the default
    /// excludes them (see DESIGN.md).
    pub include_local: bool,
}

impl Table2Config {
    /// The paper's full matrix.
    pub fn paper(seed: u64) -> Table2Config {
        Table2Config {
            sizes: vec![8, 16, 32, 64],
            links: vec![4, 6],
            max_options: vec![2, 3, 4],
            topologies: 10,
            seed,
            include_local: false,
        }
    }
}

/// One row of Table 2.
#[derive(Clone, Debug)]
pub struct Table2Row {
    /// Network size.
    pub size: usize,
    /// Inter-switch links.
    pub links: usize,
    /// MR cap.
    pub max_options: usize,
    /// Ensemble-averaged distribution (percent per option count 1..=MR).
    pub distribution: OptionDistribution,
}

/// Run the Table 2 analysis.
pub fn run(cfg: &Table2Config) -> Result<Vec<Table2Row>, IbaError> {
    let mut rows = Vec::new();
    for &size in &cfg.sizes {
        for &links in &cfg.links {
            let base = IrregularConfig {
                switches: size,
                inter_switch_links: links,
                hosts_per_switch: 4,
                seed: cfg.seed,
            };
            // Raw (uncapped) option data per member, in parallel.
            type Member = (iba_topology::Topology, MinimalRouting, UpDownRouting);
            let seeds: Vec<u64> = (0..cfg.topologies).collect();
            let members: Vec<Member> = par_map(&seeds, |&i| {
                let c = IrregularConfig {
                    seed: base.seed.wrapping_add(i),
                    ..base
                };
                let t = c.generate()?;
                let m = MinimalRouting::build(&t)?;
                let u = UpDownRouting::build(&t)?;
                Ok((t, m, u))
            })
            .into_iter()
            .collect::<Result<_, IbaError>>()?;
            for &mr in &cfg.max_options {
                let dists: Vec<OptionDistribution> = members
                    .iter()
                    .map(|(t, m, u)| OptionDistribution::compute(t, m, u, mr, cfg.include_local))
                    .collect::<Result<_, _>>()?;
                rows.push(Table2Row {
                    size,
                    links,
                    max_options: mr,
                    distribution: OptionDistribution::average(&dists)?,
                });
            }
        }
    }
    Ok(rows)
}

/// Render in the paper's layout: one row per (size, MR), side-by-side
/// 4-link / 6-link blocks, columns = option counts 1..=4.
pub fn render(cfg: &Table2Config, rows: &[Table2Row]) -> String {
    let mut header: Vec<String> = vec!["Sw".into(), "MR".into()];
    for &links in &cfg.links {
        for k in 1..=4 {
            header.push(format!("{links}L:{k}"));
        }
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut out_rows = Vec::new();
    for &size in &cfg.sizes {
        for &mr in &cfg.max_options {
            let mut row = vec![size.to_string(), mr.to_string()];
            for &links in &cfg.links {
                let found = rows
                    .iter()
                    .find(|r| r.size == size && r.links == links && r.max_options == mr);
                for k in 1..=4usize {
                    row.push(match found {
                        Some(r) if k <= r.distribution.percent.len() => {
                            format!("{:.2}", r.distribution.percent[k - 1])
                        }
                        _ => "-".into(),
                    });
                }
            }
            out_rows.push(row);
        }
    }
    format!(
        "### Table 2 — % of (switch, destination) pairs with k routing options (avg of {} topologies)\n\n{}",
        cfg.topologies,
        markdown_table(&header_refs, &out_rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Table2Config {
        Table2Config {
            sizes: vec![8, 16],
            links: vec![4, 6],
            max_options: vec![2, 4],
            topologies: 3,
            seed: 11,
            include_local: false,
        }
    }

    #[test]
    fn rows_cover_the_matrix_and_sum_to_100() {
        let cfg = tiny();
        let rows = run(&cfg).unwrap();
        assert_eq!(rows.len(), 2 * 2 * 2);
        for r in &rows {
            let sum: f64 = r.distribution.percent.iter().sum();
            assert!((sum - 100.0).abs() < 1e-6, "{r:?}");
        }
    }

    #[test]
    fn more_links_more_multi_option_destinations() {
        let cfg = tiny();
        let rows = run(&cfg).unwrap();
        let multi = |links: usize| {
            rows.iter()
                .find(|r| r.size == 16 && r.links == links && r.max_options == 4)
                .unwrap()
                .distribution
                .percent_multi_option()
        };
        assert!(multi(6) > multi(4));
    }

    #[test]
    fn larger_networks_have_more_multi_option_destinations() {
        // The paper's Table 2 trend down the rows.
        let cfg = tiny();
        let rows = run(&cfg).unwrap();
        let multi = |size: usize| {
            rows.iter()
                .find(|r| r.size == size && r.links == 4 && r.max_options == 2)
                .unwrap()
                .distribution
                .percent_multi_option()
        };
        assert!(multi(16) > multi(8));
    }

    #[test]
    fn render_contains_all_cells() {
        let cfg = tiny();
        let rows = run(&cfg).unwrap();
        let s = render(&cfg, &rows);
        assert!(s.contains("Table 2"));
        assert!(s.contains("4L:1") && s.contains("6L:4"));
        // 4 data rows: (8,2),(8,4),(16,2),(16,4).
        assert_eq!(s.lines().filter(|l| l.starts_with('|')).count(), 2 + 4);
    }
}
