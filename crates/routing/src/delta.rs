//! What is left of the incremental ("delta") route recomputation: the
//! entry point and result types the benchmark's per-layer probes still
//! import. The column patch it named is gone — on small-diameter
//! irregular fabrics a link lies on a shortest path to most
//! destinations, so the patch recomputed 59–99 % of the columns
//! (DESIGN.md §13) — and a re-sweep is [`FaRouting::resweep`]. ROADMAP
//! item 0 (a) drops this file together with the probe rows that call
//! it.

use crate::engine::EscapeEngine;
use crate::fa::FaRouting;
use crate::updown::UpDownRouting;
use iba_core::{IbaError, PortIndex, SwitchId};
use iba_topology::Topology;

/// What [`FaRouting::rebuild_after_link_failure`] did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaStats {
    /// Always `true`: every rebuild is from scratch.
    pub full_rebuild: bool,
}

/// The result of [`FaRouting::rebuild_after_link_failure`].
#[derive(Clone, Debug)]
pub struct DeltaRebuild<E: EscapeEngine = UpDownRouting> {
    /// Routing valid for the degraded topology: a root-pinned
    /// from-scratch rebuild, escape layer certified.
    pub routing: FaRouting<E>,
    /// How it was computed.
    pub stats: DeltaStats,
}

impl<E: EscapeEngine> FaRouting<E> {
    /// [`Self::resweep`] for `degraded` — the same fabric with the
    /// single link `a.pa ↔ b.pb` removed.
    ///
    /// Errors when `degraded` still contains the link, has a different
    /// shape than the routing was built for, or is disconnected.
    #[doc(hidden)]
    pub fn rebuild_after_link_failure(
        &self,
        degraded: &Topology,
        a: SwitchId,
        pa: PortIndex,
        b: SwitchId,
        pb: PortIndex,
    ) -> Result<DeltaRebuild<E>, IbaError> {
        let n = self.num_switches();
        if degraded.num_switches() != n {
            return Err(IbaError::InvalidConfig(format!(
                "degraded topology has {} switches, routing was built for {n}",
                degraded.num_switches()
            )));
        }
        if a.index() >= n || b.index() >= n || a == b {
            return Err(IbaError::InvalidConfig(format!(
                "bad failed link {a}.{pa} <-> {b}.{pb}"
            )));
        }
        if degraded.endpoint(a, pa).is_some() || degraded.endpoint(b, pb).is_some() {
            return Err(IbaError::InvalidConfig(
                "degraded topology still wires the failed link".into(),
            ));
        }
        let routing = self.resweep(degraded)?;
        let stats = DeltaStats { full_rebuild: true };
        Ok(DeltaRebuild { routing, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fa::RoutingConfig;
    use iba_topology::IrregularConfig;

    /// Passing a topology that still wires the link is rejected.
    #[test]
    fn undegraded_topology_is_rejected() {
        let topo = IrregularConfig::paper(8, 2).generate().unwrap();
        let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
        let a = SwitchId(0);
        let (pa, b, pb) = topo.switch_neighbors(a).next().unwrap();
        assert!(fa.rebuild_after_link_failure(&topo, a, pa, b, pb).is_err());
    }
}
