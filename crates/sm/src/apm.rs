//! LMC partitioning for Automatic Path Migration (§4.1).
//!
//! The paper notes that some of a destination's 2^LMC addresses "may be
//! required to provide fault-tolerant paths by the Automatic Path
//! Migration (APM) method defined in the specs. However, the entire set
//! of paths can be divided (by using separate bits in the LMC) to allow
//! the coexistence of both mechanisms" — with the footnote that "the
//! subnet manager should guarantee that the APM mechanism uses different
//! LIDs from those used for adaptive routing".
//!
//! [`ApmPlan`] implements exactly that split: the top LMC bit selects
//! between the *adaptive-routing half* (offset 0 = deterministic escape,
//! offsets 1..2^(m−1)−1 = adaptive options) and the *APM half*, whose
//! addresses are programmed with an **alternate deterministic path** —
//! up\*/down\* rebuilt from a secondary root, giving each destination a
//! second, independently deadlock-free path a CA can migrate to.

use iba_core::{HostId, IbaError, Lid, LidMap, SwitchId};
use iba_routing::{RoutingConfig, UpDownRouting};
use iba_topology::Topology;

/// The coexistence plan: address-range split plus the alternate routing.
#[derive(Clone, Debug)]
pub struct ApmPlan {
    lid_map: LidMap,
    /// Offsets below this belong to adaptive routing; at or above, APM.
    apm_base_offset: u16,
    primary_root: SwitchId,
    alternate: UpDownRouting,
}

impl ApmPlan {
    /// Build the plan for `topo`. `routing_config` describes the adaptive
    /// half (its `table_options` count); the total LMC doubles it to make
    /// room for the APM half. The alternate paths use up\*/down\* rooted
    /// at the switch *farthest* from the primary root, maximizing path
    /// independence.
    pub fn build(
        topo: &Topology,
        routing_config: &RoutingConfig,
        primary: &UpDownRouting,
    ) -> Result<ApmPlan, IbaError> {
        let adaptive_half = routing_config.table_options;
        if !adaptive_half.is_power_of_two() {
            return Err(IbaError::InvalidOptionCount(adaptive_half));
        }
        let total = adaptive_half
            .checked_mul(2)
            .ok_or(IbaError::InvalidOptionCount(adaptive_half))?;
        let lid_map = LidMap::for_options(topo.num_hosts() as u16, total)?;
        let primary_root = primary.root();
        // Secondary root: farthest from the primary (ties to lowest id).
        let dist = topo.distances_from(primary_root);
        let alt_root = topo
            .switch_ids()
            .max_by_key(|s| (dist[s.index()], std::cmp::Reverse(s.0)))
            .ok_or_else(|| IbaError::InvalidTopology("empty topology".into()))?;
        let alternate = UpDownRouting::build_with_root(topo, alt_root)?;
        Ok(ApmPlan {
            lid_map,
            apm_base_offset: adaptive_half,
            primary_root,
            alternate,
        })
    }

    /// The combined LID map (covering both halves).
    pub fn lid_map(&self) -> &LidMap {
        &self.lid_map
    }

    /// The alternate (APM) routing layer.
    pub fn alternate(&self) -> &UpDownRouting {
        &self.alternate
    }

    /// The primary up\*/down\* root the plan was derived against.
    pub fn primary_root(&self) -> SwitchId {
        self.primary_root
    }

    /// The primary (APM-inactive) DLID of `host` — its deterministic
    /// address in the adaptive half.
    pub fn primary_lid(&self, host: HostId) -> Result<Lid, IbaError> {
        self.lid_map.lid_for(host, 0)
    }

    /// The alternate DLID a CA migrates to on path failure.
    pub fn alternate_lid(&self, host: HostId) -> Result<Lid, IbaError> {
        self.lid_map.lid_for(host, self.apm_base_offset)
    }

    /// Whether a LID belongs to the APM half.
    pub fn is_apm_lid(&self, lid: Lid) -> Result<bool, IbaError> {
        Ok(self.lid_map.offset_of(lid)? >= self.apm_base_offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iba_topology::{regular, IrregularConfig};

    fn setup(n: usize, seed: u64) -> (Topology, UpDownRouting, ApmPlan) {
        let topo = IrregularConfig::paper(n, seed).generate().unwrap();
        let primary = UpDownRouting::build(&topo).unwrap();
        let plan = ApmPlan::build(&topo, &RoutingConfig::two_options(), &primary).unwrap();
        (topo, primary, plan)
    }

    #[test]
    fn lmc_doubles_to_fit_both_halves() {
        let (_, _, plan) = setup(8, 1);
        // 2 adaptive-half addresses + 2 APM-half addresses → LMC 2.
        assert_eq!(plan.lid_map().lmc().bits(), 2);
        let alt = plan.alternate_lid(HostId(0)).unwrap();
        assert_eq!(plan.lid_map().offset_of(alt).unwrap(), 2);
    }

    #[test]
    fn halves_are_disjoint_lid_ranges() {
        let (topo, _, plan) = setup(16, 2);
        for h in topo.host_ids() {
            let primary = plan.primary_lid(h).unwrap();
            let alt = plan.alternate_lid(h).unwrap();
            assert_ne!(primary, alt);
            assert!(!plan.is_apm_lid(primary).unwrap());
            assert!(plan.is_apm_lid(alt).unwrap());
            // Both resolve to the same physical port.
            assert_eq!(plan.lid_map().host_of(primary).unwrap(), h);
            assert_eq!(plan.lid_map().host_of(alt).unwrap(), h);
        }
    }

    #[test]
    fn alternate_root_differs_and_is_far() {
        let (topo, primary, plan) = setup(32, 3);
        assert_ne!(plan.alternate().root(), primary.root());
        let dist = topo.distances_from(primary.root());
        // The alternate root is at the primary root's eccentricity.
        let ecc = dist.iter().max().unwrap();
        assert_eq!(dist[plan.alternate().root().index()], *ecc);
    }

    #[test]
    fn alternate_paths_reach_every_destination() {
        let (topo, _, plan) = setup(16, 4);
        for s in topo.switch_ids() {
            for t in topo.switch_ids() {
                // Walk the alternate chain.
                let mut cur = s;
                let mut hops = 0;
                while cur != t {
                    let port = plan.alternate().next_hop(cur, t).unwrap();
                    match topo.endpoint(cur, port).unwrap().node {
                        iba_core::NodeRef::Switch(next) => cur = next,
                        host => panic!("alternate hop {cur}→{t} reaches {host:?}"),
                    }
                    hops += 1;
                    assert!(hops <= 2 * topo.num_switches());
                }
            }
        }
    }

    #[test]
    fn alternate_paths_often_differ_from_primary() {
        // The point of APM: path independence. The two roots give
        // genuinely different trees; count differing first hops.
        let (topo, primary, plan) = setup(32, 5);
        let mut differ = 0;
        let mut total = 0;
        for s in topo.switch_ids() {
            for t in topo.switch_ids() {
                if s == t {
                    continue;
                }
                total += 1;
                if primary.next_hop(s, t) != plan.alternate().next_hop(s, t) {
                    differ += 1;
                }
            }
        }
        assert!(
            differ * 5 > total,
            "expected >20% of pairs to use a different first hop ({differ}/{total})"
        );
    }

    #[test]
    fn works_on_regular_shapes() {
        let topo = regular::torus2d(3, 3, 2).unwrap();
        let primary = UpDownRouting::build(&topo).unwrap();
        let plan = ApmPlan::build(&topo, &RoutingConfig::with_options(4), &primary).unwrap();
        assert_eq!(plan.lid_map().lmc().bits(), 3); // 4 + 4 addresses
        let alt = plan.alternate_lid(HostId(0)).unwrap();
        assert_eq!(plan.lid_map().offset_of(alt).unwrap(), 4);
    }
}
