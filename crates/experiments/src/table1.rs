//! Table 1 — minimum / maximum / average factors of throughput increase
//! when using 100 % adaptive traffic, relative to deterministic routing.
//!
//! Left block (paper defaults): 4 inter-switch links, 2 routing options;
//! network sizes 8–64; packet sizes 32 B and 256 B; traffic patterns
//! uniform, bit-reversal and hot-spot at 5/10/20 %.
//!
//! Right block: 6 inter-switch links and/or up to 4 routing options,
//! uniform traffic (run with `links: 6`, `options: 4`).

use crate::fidelity::Fidelity;
use crate::harness::{build_ensemble, throughput_factors};
use iba_core::IbaError;
use iba_routing::RoutingConfig;
use iba_stats::{markdown_table, MinMaxAvg};
use iba_topology::IrregularConfig;
use iba_workloads::{InjectionProcess, TrafficPattern, WorkloadSpec};

/// Configuration of the Table 1 reproduction.
#[derive(Clone, Debug)]
pub struct Table1Config {
    /// Network sizes.
    pub sizes: Vec<usize>,
    /// Inter-switch links per switch (4 = left block, 6 = right block).
    pub links: usize,
    /// Forwarding-table routing options (2 or 4).
    pub options: u16,
    /// Packet sizes in bytes.
    pub packet_sizes: Vec<u32>,
    /// Traffic patterns.
    pub patterns: Vec<TrafficPattern>,
    /// Fidelity preset.
    pub fidelity: Fidelity,
    /// Base seed.
    pub seed: u64,
}

impl Table1Config {
    /// The paper's left block.
    pub fn left_block(fidelity: Fidelity, seed: u64) -> Table1Config {
        Table1Config {
            sizes: vec![8, 16, 32, 64],
            links: 4,
            options: 2,
            packet_sizes: vec![32, 256],
            patterns: vec![
                TrafficPattern::Uniform,
                TrafficPattern::BitReversal,
                TrafficPattern::hotspot_percent(5),
                TrafficPattern::hotspot_percent(10),
                TrafficPattern::hotspot_percent(20),
            ],
            fidelity,
            seed,
        }
    }

    /// The paper's right block (6 links, up to 4 options, uniform).
    pub fn right_block(fidelity: Fidelity, seed: u64) -> Table1Config {
        Table1Config {
            links: 6,
            options: 4,
            packet_sizes: vec![32, 256],
            patterns: vec![TrafficPattern::Uniform],
            ..Table1Config::left_block(fidelity, seed)
        }
    }
}

/// One cell of Table 1.
#[derive(Clone, Debug)]
pub struct Table1Cell {
    /// Network size.
    pub size: usize,
    /// Packet size in bytes.
    pub packet_bytes: u32,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// min/max/avg factor over the topology ensemble.
    pub factor: MinMaxAvg,
}

/// Run the Table 1 matrix.
pub fn run(cfg: &Table1Config) -> Result<Vec<Table1Cell>, IbaError> {
    let grid = cfg.fidelity.offered_grid();
    let mut cells = Vec::new();
    for &size in &cfg.sizes {
        let base = IrregularConfig {
            switches: size,
            inter_switch_links: cfg.links,
            hosts_per_switch: 4,
            seed: cfg.seed,
        };
        let ensemble = build_ensemble(
            base,
            cfg.fidelity.topologies(),
            RoutingConfig::with_options(cfg.options),
        )?;
        for &packet_bytes in &cfg.packet_sizes {
            for &pattern in &cfg.patterns {
                let spec = WorkloadSpec {
                    pattern,
                    packet_bytes,
                    adaptive_fraction: 1.0,
                    injection_rate: 0.01, // overwritten per sweep point
                    process: InjectionProcess::Poisson,
                    service_levels: 1,
                };
                let factors = throughput_factors(
                    &ensemble,
                    spec,
                    cfg.fidelity.sim_config(cfg.seed),
                    &grid,
                    1.0,
                    0.0,
                )?;
                let cell = Table1Cell {
                    size,
                    packet_bytes,
                    pattern,
                    factor: MinMaxAvg::from_samples(factors),
                };
                eprintln!(
                    "table1: {size} sw, {packet_bytes} B, {}: {}",
                    pattern.name(),
                    cell.factor
                );
                cells.push(cell);
            }
        }
    }
    Ok(cells)
}

/// Render as the paper-style table: rows = (size, packet), columns =
/// patterns, each cell min/max/avg.
pub fn render(cfg: &Table1Config, cells: &[Table1Cell]) -> String {
    let mut header: Vec<String> = vec!["Sw".into(), "pkt B".into()];
    for p in &cfg.patterns {
        header.push(format!("{} min/max/avg", p.name()));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for &size in &cfg.sizes {
        for &pkt in &cfg.packet_sizes {
            let mut row = vec![size.to_string(), pkt.to_string()];
            for &pattern in &cfg.patterns {
                let cell = cells
                    .iter()
                    .find(|c| c.size == size && c.packet_bytes == pkt && c.pattern == pattern);
                row.push(match cell {
                    Some(c) => c.factor.to_string(),
                    None => "-".into(),
                });
            }
            rows.push(row);
        }
    }
    format!(
        "### Table 1 — throughput increase factors ({} links, {} routing options)\n\n{}",
        cfg.links,
        cfg.options,
        markdown_table(&header_refs, &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_blocks_have_expected_shape() {
        let left = Table1Config::left_block(Fidelity::Quick, 0);
        assert_eq!(left.links, 4);
        assert_eq!(left.options, 2);
        assert_eq!(left.patterns.len(), 5);
        let right = Table1Config::right_block(Fidelity::Quick, 0);
        assert_eq!(right.links, 6);
        assert_eq!(right.options, 4);
        assert_eq!(right.patterns, vec![TrafficPattern::Uniform]);
    }

    #[test]
    fn micro_table1_runs_and_renders() {
        // Single tiny cell to keep the unit test fast; the real matrix is
        // exercised by `iba table1` and the integration tests.
        let cfg = Table1Config {
            sizes: vec![8],
            links: 4,
            options: 2,
            packet_sizes: vec![32],
            patterns: vec![TrafficPattern::Uniform],
            fidelity: Fidelity::Quick,
            seed: 9,
        };
        let mut tiny = cfg.clone();
        tiny.fidelity = Fidelity::Quick;
        let cells = run(&tiny).unwrap();
        assert_eq!(cells.len(), 1);
        let f = &cells[0].factor;
        assert!(f.count >= 3);
        assert!(f.avg() > 0.9, "uniform adaptive factor collapsed: {f}");
        let rendered = render(&tiny, &cells);
        assert!(rendered.contains("Table 1"));
        assert!(rendered.contains("uniform"));
    }
}
