//! Regular reference topologies.
//!
//! The paper evaluates on irregular networks only, but regular topologies
//! with known diameters and path counts make the test suite sharp (we can
//! assert exact distances and option counts) and give the examples
//! recognizable shapes. All generators attach a configurable number of
//! hosts per switch and leave the switch-port budget to the caller.

use crate::graph::{Topology, TopologyBuilder};
use iba_core::{IbaError, SwitchId};

/// A bidirectional ring of `n` switches (degree 2).
pub fn ring(n: usize, hosts_per_switch: usize) -> Result<Topology, IbaError> {
    if n < 3 {
        return Err(IbaError::InvalidConfig(
            "ring needs at least 3 switches".into(),
        ));
    }
    let ports = 2 + hosts_per_switch;
    let mut b = TopologyBuilder::new(n, ports);
    for i in 0..n {
        b.connect(SwitchId(i as u16), SwitchId(((i + 1) % n) as u16))?;
    }
    b.attach_hosts_everywhere(hosts_per_switch)?;
    b.build()
}

/// A `rows × cols` 2-D mesh (degree ≤ 4).
pub fn mesh2d(rows: usize, cols: usize, hosts_per_switch: usize) -> Result<Topology, IbaError> {
    if rows == 0 || cols == 0 || rows * cols < 2 {
        return Err(IbaError::InvalidConfig(
            "mesh needs at least 2 switches".into(),
        ));
    }
    let ports = 4 + hosts_per_switch;
    let id = |r: usize, c: usize| SwitchId((r * cols + c) as u16);
    let mut b = TopologyBuilder::new(rows * cols, ports);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.connect(id(r, c), id(r, c + 1))?;
            }
            if r + 1 < rows {
                b.connect(id(r, c), id(r + 1, c))?;
            }
        }
    }
    b.attach_hosts_everywhere(hosts_per_switch)?;
    b.build()
}

/// A `rows × cols` 2-D torus (degree 4). Requires `rows, cols ≥ 3` so the
/// wrap-around links do not duplicate mesh links.
pub fn torus2d(rows: usize, cols: usize, hosts_per_switch: usize) -> Result<Topology, IbaError> {
    if rows < 3 || cols < 3 {
        return Err(IbaError::InvalidConfig(
            "torus needs rows, cols >= 3 (single-link constraint)".into(),
        ));
    }
    let ports = 4 + hosts_per_switch;
    let id = |r: usize, c: usize| SwitchId((r * cols + c) as u16);
    let mut b = TopologyBuilder::new(rows * cols, ports);
    for r in 0..rows {
        for c in 0..cols {
            b.connect(id(r, c), id(r, (c + 1) % cols))?;
            b.connect(id(r, c), id((r + 1) % rows, c))?;
        }
    }
    b.attach_hosts_everywhere(hosts_per_switch)?;
    b.build()
}

/// A hypercube of dimension `dim` (2^dim switches, degree `dim`).
pub fn hypercube(dim: u32, hosts_per_switch: usize) -> Result<Topology, IbaError> {
    if dim == 0 || dim > 10 {
        return Err(IbaError::InvalidConfig(
            "hypercube dimension must be 1..=10".into(),
        ));
    }
    let n = 1usize << dim;
    let ports = dim as usize + hosts_per_switch;
    let mut b = TopologyBuilder::new(n, ports);
    for i in 0..n {
        for bit in 0..dim {
            let j = i ^ (1 << bit);
            if i < j {
                b.connect(SwitchId(i as u16), SwitchId(j as u16))?;
            }
        }
    }
    b.attach_hosts_everywhere(hosts_per_switch)?;
    b.build()
}

/// A fully connected graph of `n` switches (degree `n − 1`).
pub fn complete(n: usize, hosts_per_switch: usize) -> Result<Topology, IbaError> {
    if n < 2 {
        return Err(IbaError::InvalidConfig(
            "complete graph needs >= 2 switches".into(),
        ));
    }
    let ports = (n - 1) + hosts_per_switch;
    let mut b = TopologyBuilder::new(n, ports);
    for i in 0..n {
        for j in (i + 1)..n {
            b.connect(SwitchId(i as u16), SwitchId(j as u16))?;
        }
    }
    b.attach_hosts_everywhere(hosts_per_switch)?;
    b.build()
}

/// A linear chain of `n` switches (degree ≤ 2) — the most pathological
/// shape for congestion tests.
pub fn chain(n: usize, hosts_per_switch: usize) -> Result<Topology, IbaError> {
    if n < 2 {
        return Err(IbaError::InvalidConfig(
            "chain needs at least 2 switches".into(),
        ));
    }
    let ports = 2 + hosts_per_switch;
    let mut b = TopologyBuilder::new(n, ports);
    for i in 0..n - 1 {
        b.connect(SwitchId(i as u16), SwitchId((i + 1) as u16))?;
    }
    b.attach_hosts_everywhere(hosts_per_switch)?;
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_structure() {
        let t = ring(6, 1).unwrap();
        assert_eq!(t.num_switches(), 6);
        assert_eq!(t.num_switch_links(), 6);
        for s in t.switch_ids() {
            assert_eq!(t.switch_degree(s), 2);
        }
        // Diameter of a 6-ring is 3.
        assert_eq!(t.switch_distances()[0][3], 3);
    }

    #[test]
    fn mesh_structure() {
        let t = mesh2d(3, 4, 2).unwrap();
        assert_eq!(t.num_switches(), 12);
        assert_eq!(t.num_switch_links(), 3 * 3 + 2 * 4); // rows*(cols-1) + (rows-1)*cols
                                                         // Corner has degree 2, center degree 4.
        assert_eq!(t.switch_degree(SwitchId(0)), 2);
        assert_eq!(t.switch_degree(SwitchId(5)), 4);
        // Manhattan distance between opposite corners.
        assert_eq!(t.switch_distances()[0][11], 2 + 3);
    }

    #[test]
    fn torus_structure() {
        let t = torus2d(3, 3, 1).unwrap();
        assert_eq!(t.num_switch_links(), 18);
        for s in t.switch_ids() {
            assert_eq!(t.switch_degree(s), 4);
        }
        assert!(t.is_connected());
        assert!(torus2d(2, 3, 1).is_err());
    }

    #[test]
    fn hypercube_structure() {
        let t = hypercube(4, 1).unwrap();
        assert_eq!(t.num_switches(), 16);
        assert_eq!(t.num_switch_links(), 16 * 4 / 2);
        // Distance equals Hamming distance.
        let d = t.switch_distances();
        assert_eq!(d[0b0000][0b1111], 4);
        assert_eq!(d[0b0101][0b0110], 2);
    }

    #[test]
    fn complete_structure() {
        let t = complete(5, 1).unwrap();
        assert_eq!(t.num_switch_links(), 10);
        let d = t.switch_distances();
        for (i, row) in d.iter().enumerate() {
            for (j, &dd) in row.iter().enumerate() {
                assert_eq!(dd, u32::from(i != j));
            }
        }
    }

    #[test]
    fn chain_structure() {
        let t = chain(5, 1).unwrap();
        assert_eq!(t.switch_distances()[0][4], 4);
        assert_eq!(t.switch_degree(SwitchId(0)), 1);
        assert_eq!(t.switch_degree(SwitchId(2)), 2);
    }

    #[test]
    fn degenerate_configs_rejected() {
        assert!(ring(2, 1).is_err());
        assert!(hypercube(0, 1).is_err());
        assert!(complete(1, 1).is_err());
        assert!(chain(1, 1).is_err());
        assert!(mesh2d(0, 5, 1).is_err());
    }

    #[test]
    fn all_regular_topologies_validate() {
        ring(8, 4).unwrap().validate().unwrap();
        mesh2d(4, 4, 4).unwrap().validate().unwrap();
        torus2d(4, 4, 4).unwrap().validate().unwrap();
        hypercube(3, 4).unwrap().validate().unwrap();
        complete(8, 4).unwrap().validate().unwrap();
        chain(8, 4).unwrap().validate().unwrap();
    }
}
