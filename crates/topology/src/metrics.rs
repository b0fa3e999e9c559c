//! Structural metrics of a topology.
//!
//! Used by the experiment reports (topology summaries accompany every
//! table) and by tests that assert ensemble-level properties of the
//! random generator.

use crate::graph::Topology;

/// Summary statistics of a switch graph.
#[derive(Clone, Debug, PartialEq)]
pub struct TopologyMetrics {
    /// Number of switches.
    pub switches: usize,
    /// Number of hosts.
    pub(crate) hosts: usize,
    /// Number of undirected inter-switch links.
    pub(crate) switch_links: usize,
    /// Longest shortest path between any two switches.
    pub diameter: u32,
    /// Mean shortest-path length over ordered switch pairs (excluding
    /// self-pairs).
    pub avg_distance: f64,
    /// Minimum inter-switch degree.
    pub(crate) min_degree: usize,
    /// Maximum inter-switch degree.
    pub(crate) max_degree: usize,
}

impl TopologyMetrics {
    /// Compute all metrics for `topo`.
    pub fn compute(topo: &Topology) -> TopologyMetrics {
        let dist = topo.switch_distances();
        let n = topo.num_switches();
        let mut diameter = 0u32;
        let mut sum = 0u64;
        let mut pairs = 0u64;
        for (i, row) in dist.iter().enumerate() {
            for (j, &d) in row.iter().enumerate() {
                if i != j && d != u32::MAX {
                    diameter = diameter.max(d);
                    sum += d as u64;
                    pairs += 1;
                }
            }
        }
        let degrees: Vec<usize> = topo.switch_ids().map(|s| topo.switch_degree(s)).collect();
        TopologyMetrics {
            switches: n,
            hosts: topo.num_hosts(),
            switch_links: topo.num_switch_links(),
            diameter,
            avg_distance: if pairs == 0 {
                0.0
            } else {
                sum as f64 / pairs as f64
            },
            min_degree: degrees.iter().copied().min().unwrap_or(0),
            max_degree: degrees.iter().copied().max().unwrap_or(0),
        }
    }
}

impl std::fmt::Display for TopologyMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} switches, {} hosts, {} links, degree {}..{}, diameter {}, avg distance {:.2}",
            self.switches,
            self.hosts,
            self.switch_links,
            self.min_degree,
            self.max_degree,
            self.diameter,
            self.avg_distance
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::irregular::IrregularConfig;
    use crate::regular;

    #[test]
    fn ring_metrics_exact() {
        let m = TopologyMetrics::compute(&regular::ring(8, 1).unwrap());
        assert_eq!(m.switches, 8);
        assert_eq!(m.switch_links, 8);
        assert_eq!(m.diameter, 4);
        assert_eq!(m.min_degree, 2);
        assert_eq!(m.max_degree, 2);
        // Ring of 8: distances 1,2,3,4,3,2,1 from any node → avg 16/7.
        assert!((m.avg_distance - 16.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn complete_metrics_exact() {
        let m = TopologyMetrics::compute(&regular::complete(6, 1).unwrap());
        assert_eq!(m.diameter, 1);
        assert!((m.avg_distance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn irregular_metrics_are_sane() {
        let t = IrregularConfig::paper(32, 3).generate().unwrap();
        let m = TopologyMetrics::compute(&t);
        assert_eq!(m.switches, 32);
        assert_eq!(m.hosts, 128);
        assert_eq!(m.min_degree, 4);
        assert_eq!(m.max_degree, 4);
        assert_eq!(m.switch_links, 64);
        assert!(
            m.diameter >= 2,
            "a 4-regular 32-switch graph cannot have diameter 1"
        );
        assert!(m.avg_distance > 1.0 && m.avg_distance < 10.0);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let m = TopologyMetrics::compute(&regular::ring(8, 1).unwrap());
        let s = m.to_string();
        assert!(s.contains("8 switches") && s.contains("diameter 4"));
    }
}
