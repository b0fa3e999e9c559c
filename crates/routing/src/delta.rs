//! Incremental ("delta") route recomputation after a single link
//! failure.
//!
//! A full SM re-sweep recomputes every forwarding-table row from
//! scratch; at scale that is the recovery bottleneck. This module
//! exploits a structural property of the paper's routing stack: both
//! per-destination layers — the escape engine's deterministic next hops
//! and the minimal adaptive option sets — are *destination-separable*.
//! A dead link can only change the column of a destination switch `t`
//! if the link was **tight** for `t`, i.e. lay on a shortest path of a
//! layer's distance relaxation or was the chosen next hop. Every other
//! column is provably unchanged, so every forwarding-table row
//! addressing a host on an unaffected switch is unchanged too.
//!
//! The escape half of that analysis belongs to the engine:
//! [`EscapeEngine::rebuild_after_link_failure`] either patches its own
//! columns (up\*/down\* has a tightness argument over its down/legal
//! distance relaxations) or refuses with a reason, in which case the
//! whole routing is rebuilt from scratch with the frame anchor pinned.
//! [`FaRouting::rebuild_after_link_failure`] unions the engine's
//! affected set with the minimal layer's own tightness test, recomputes
//! only those columns and rewrites only their hosts' LID rows (at every
//! switch — an affected *destination* changes rows fabric-wide),
//! reusing the same row-programming routine as the full build so the
//! result is byte-identical to a from-scratch rebuild by construction.
//!
//! Fallback situations (always correct, just slower):
//!
//! * the engine refuses — for up\*/down\*: the failed link touches the
//!   spanning-tree root, or the BFS levels from the pinned root shift
//!   (the up/down orientation of *surviving* links would change);
//!   engines without an incremental argument refuse unconditionally,
//! * the tables are not plain FA (APM alternate sets and
//!   source-selected multipath interleave per-destination state in ways
//!   a column patch does not cover).
//!
//! Two machine-checked gates guard the delta path: the escape layer of
//! the result must pass [`FaRouting::certify_escape`], and (in debug builds)
//! the whole table set is compared against a from-scratch rebuild.

use crate::engine::{DeltaOutcome, EscapeEngine};
use crate::fa::{FaRouting, RoutingConfig};
use crate::updown::UpDownRouting;
use iba_core::{HostId, IbaError, PortIndex, SwitchId};
use iba_topology::Topology;

/// What one incremental rebuild did — the accounting half of the
/// recovery-scaling story.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaStats {
    /// `true` when a fallback condition forced a from-scratch rebuild.
    pub full_rebuild: bool,
    /// Why the fallback fired (`None` on the delta path).
    pub fallback_reason: Option<String>,
    /// Destination switches whose routing columns were recomputed.
    pub affected_switches: usize,
    /// Destination LIDs whose table rows were rewritten (per switch).
    pub affected_lids: usize,
    /// Forwarding-table entries recomputed across the fabric.
    pub entries_recomputed: u64,
}

impl DeltaStats {
    /// Export this rebuild into `reg`. All counters are deterministic
    /// functions of the topology change, so they participate in
    /// determinism digests.
    pub fn record_metrics(&self, reg: &mut iba_stats::MetricsRegistry) {
        reg.add("iba_routing_delta_rebuilds_total", &[], 1);
        if self.full_rebuild {
            reg.add("iba_routing_delta_fallbacks_total", &[], 1);
        }
        reg.add(
            "iba_routing_delta_affected_switches_total",
            &[],
            self.affected_switches as u64,
        );
        reg.add(
            "iba_routing_delta_affected_lids_total",
            &[],
            self.affected_lids as u64,
        );
        reg.add(
            "iba_routing_delta_entries_recomputed_total",
            &[],
            self.entries_recomputed,
        );
    }
}

/// The result of an incremental rebuild: the patched routing plus the
/// delta accounting.
#[derive(Clone, Debug)]
pub struct DeltaRebuild<E: EscapeEngine = UpDownRouting> {
    /// Routing valid for the degraded topology, byte-identical to a
    /// root-pinned from-scratch rebuild.
    pub routing: FaRouting<E>,
    /// What the rebuild touched.
    pub stats: DeltaStats,
}

impl<E: EscapeEngine> FaRouting<E> {
    /// Incrementally rebuild this routing for `degraded` — the same
    /// fabric with the single link `a.pa ↔ b.pb` removed. Only the
    /// destination columns the dead link could have influenced are
    /// recomputed; the escape engine's frame anchor stays pinned (the SM
    /// keeps its spanning-tree anchor stable across sweeps, which is
    /// also what makes delta-vs-full equality well-defined).
    ///
    /// Errors when `degraded` still contains the link, has a different
    /// shape than the routing was built for, or is disconnected.
    pub fn rebuild_after_link_failure(
        &self,
        degraded: &Topology,
        a: SwitchId,
        pa: PortIndex,
        b: SwitchId,
        pb: PortIndex,
    ) -> Result<DeltaRebuild<E>, IbaError> {
        let n = self.tables.len();
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
        if self.apm.is_some() {
            return self.full_fallback(degraded, "APM tables carry an alternate path set");
        }
        if self.source_multipath.is_some() {
            return self.full_fallback(degraded, "source-selected multipath tables");
        }

        // Ask the escape engine for its half of the analysis first: it
        // owns the root/level fallback conditions and patches its own
        // distance and next-hop columns.
        let (engine, escape_affected) = match self
            .escape
            .rebuild_after_link_failure(degraded, a, pa, b, pb)?
        {
            DeltaOutcome::FullRebuild { reason } => return self.full_fallback(degraded, &reason),
            DeltaOutcome::Patched { engine, affected } => (engine, affected),
        };

        // Union with the minimal (adaptive) layer's own tightness test:
        // the edge lies on some shortest path to `t` iff its endpoint
        // distances to `t` differ by exactly one.
        let mut affected = escape_affected;
        affected.extend((0..n).filter(|&t| {
            let t = SwitchId(t as u16);
            (self.minimal.distance(a, t)).abs_diff(self.minimal.distance(b, t)) == 1
        }));
        affected.sort_unstable();
        affected.dedup();

        let mut next = self.clone();
        next.escape = engine;
        // 1. Adaptive layer: the per-destination shortest distances and
        //    minimal option sets of the affected columns, refilled in
        //    place by the traversal of the full build.
        if !next.minimal.fill(degraded, Some(&affected)) {
            return Err(IbaError::RoutingFailed(
                "link failure disconnected the fabric".into(),
            ));
        }
        // 2. Table rows and their decodes: every host attached to an
        //    affected destination switch gets its whole LID group
        //    reprogrammed at every switch, through the same routine as
        //    the full build, and the route cache refreshed for it.
        let affected_hosts: Vec<HostId> = degraded
            .host_ids()
            .filter(|&h| {
                affected
                    .binary_search(&degraded.host_switch(h).index())
                    .is_ok()
            })
            .collect();
        let x = next.config.table_options;
        let rewritten: Vec<_> = affected_hosts
            .iter()
            .map(|&h| next.lid_map.base_lid(h).raw() as usize)
            .map(|base| base..base + x as usize)
            .collect();
        next.program(degraded, None, &affected_hosts, &rewritten)?;

        let stats = DeltaStats {
            full_rebuild: false,
            fallback_reason: None,
            affected_switches: affected.len(),
            affected_lids: affected_hosts.len() * x as usize,
            // Every affected LID is rewritten at every switch.
            entries_recomputed: (affected_hosts.len() * x as usize * n) as u64,
        };
        // Always-on gate: the delta result's escape layer must still be
        // certifiably deadlock-free.
        next.certify_escape(degraded, false)?;
        #[cfg(debug_assertions)]
        {
            let full = Self::build_mixed_with_engine(
                degraded,
                pinned(&self.config, self.escape.root()),
                &self.adaptive_capable,
            )?;
            debug_assert!(
                next.tables_equal(&full),
                "delta rebuild diverged from a from-scratch rebuild"
            );
        }
        Ok(DeltaRebuild {
            routing: next,
            stats,
        })
    }

    /// Fallback: from-scratch rebuild with the frame anchor pinned,
    /// packaged as a (degenerate) delta result.
    fn full_fallback(
        &self,
        degraded: &Topology,
        reason: &str,
    ) -> Result<DeltaRebuild<E>, IbaError> {
        let cfg = pinned(&self.config, self.escape.root());
        let routing = if self.apm.is_some() {
            Self::build_apm_with_engine(degraded, cfg)?
        } else if self.source_multipath.is_some() {
            Self::build_source_multipath_with_engine(degraded, cfg)?
        } else {
            Self::build_mixed_with_engine(degraded, cfg, &self.adaptive_capable)?
        };
        let entries = (routing.lid_map.table_len() * degraded.num_switches()) as u64;
        let stats = DeltaStats {
            full_rebuild: true,
            fallback_reason: Some(reason.to_string()),
            affected_switches: degraded.num_switches(),
            affected_lids: routing.lid_map.table_len(),
            entries_recomputed: entries,
        };
        Ok(DeltaRebuild { routing, stats })
    }
}

/// `config` with the engine's frame anchor pinned to `root` — the
/// comparison frame for delta-vs-full equality (an unpinned rebuild may
/// elect a different anchor on the degraded topology and produce
/// legitimately different, incomparable tables).
fn pinned(config: &RoutingConfig, root: SwitchId) -> RoutingConfig {
    RoutingConfig {
        root: Some(root),
        ..*config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columns::per_item;
    use crate::fa::RoutingConfig;
    use iba_topology::IrregularConfig;

    /// Remove the wire `a.pa ↔ b.pb` from `topo`, keeping every id and
    /// port number.
    fn without_link(topo: &Topology, a: SwitchId, b: SwitchId) -> (Topology, PortIndex, PortIndex) {
        let (pa, _, pb) = topo
            .switch_neighbors(a)
            .find_map(|(p, peer, pp)| (peer == b).then_some((p, peer, pp)))
            .expect("link exists");
        let mut builder =
            iba_topology::TopologyBuilder::new(topo.num_switches(), topo.ports_per_switch());
        for s in topo.switch_ids() {
            for (p, peer, pp) in topo.switch_neighbors(s) {
                if peer.0 > s.0
                    && !(s == a && peer == b && p == pa)
                    && !(s == b && peer == a && p == pb)
                {
                    builder.connect_ports(s, p, peer, pp).unwrap();
                }
            }
        }
        for h in topo.host_ids() {
            let (sw, port) = topo.host_attachment(h);
            builder.attach_host_at(sw, port).unwrap();
        }
        (builder.build().unwrap(), pa, pb)
    }

    /// Every inter-switch link of `topo` whose removal keeps the switch
    /// graph connected.
    fn removable_links(topo: &Topology) -> Vec<(SwitchId, SwitchId)> {
        let mut links = Vec::new();
        for s in topo.switch_ids() {
            for (_, peer, _) in topo.switch_neighbors(s) {
                if peer.0 > s.0 {
                    let n = topo.num_switches();
                    let mut seen = vec![false; n];
                    let mut stack = vec![SwitchId(0)];
                    seen[0] = true;
                    while let Some(cur) = stack.pop() {
                        for (_, nb, _) in topo.switch_neighbors(cur) {
                            let dead = (cur == s && nb == peer) || (cur == peer && nb == s);
                            if !dead && !seen[nb.index()] {
                                seen[nb.index()] = true;
                                stack.push(nb);
                            }
                        }
                    }
                    if seen.iter().all(|&v| v) {
                        links.push((s, peer));
                    }
                }
            }
        }
        links
    }

    /// The delta rebuild must equal a root-pinned from-scratch rebuild
    /// byte for byte, for every removable link over an ensemble of
    /// irregular fabrics, and must touch strictly fewer entries than a
    /// full rebuild (away from degenerate tiny fabrics).
    #[test]
    fn delta_equals_full_rebuild_on_every_removable_link() {
        for seed in [1u64, 7, 42] {
            let topo = IrregularConfig::paper(16, seed).generate().unwrap();
            let fa = FaRouting::build(&topo, RoutingConfig::with_options(4)).unwrap();
            let root = fa.escape().root();
            for (a, b) in removable_links(&topo) {
                let (degraded, pa, pb) = without_link(&topo, a, b);
                let delta = fa
                    .rebuild_after_link_failure(&degraded, a, pa, b, pb)
                    .unwrap();
                let full = FaRouting::build_mixed(
                    &degraded,
                    RoutingConfig {
                        root: Some(root),
                        ..*fa.config()
                    },
                    &(0..16).map(|_| true).collect::<Vec<_>>(),
                )
                .unwrap();
                assert!(
                    delta.routing.tables_equal(&full),
                    "seed {seed}, link {a}-{b}: delta diverged from full rebuild \
                     (fallback: {:?})",
                    delta.stats.fallback_reason
                );
                // The gate also certified the escape layer; assert the
                // public claim directly too.
                delta.routing.certify_escape(&degraded, false).unwrap();
                if !delta.stats.full_rebuild {
                    let total = (fa.lid_map().table_len() * topo.num_switches()) as u64;
                    assert!(
                        delta.stats.entries_recomputed < total,
                        "seed {seed}, link {a}-{b}: delta recomputed everything"
                    );
                    assert!(delta.stats.affected_switches <= topo.num_switches());
                    assert_eq!(
                        delta.stats.entries_recomputed,
                        (delta.stats.affected_lids * topo.num_switches()) as u64,
                        "every affected LID is rewritten at every switch"
                    );
                }
            }
        }
    }

    /// The delta patch shares its affected columns and the switches
    /// whose rows it rewrites out over the pool like a full build: 256
    /// and 300 switches, same bytes and slot numbers at every worker
    /// count.
    #[test]
    fn delta_rebuild_is_worker_count_independent() {
        for n in [256usize, 300] {
            let topo = IrregularConfig {
                hosts_per_switch: 1,
                ..IrregularConfig::paper(n, 5)
            };
            let topo = topo.generate().unwrap();
            let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
            let (degraded, a, pa, b, pb) = removable_links(&topo)
                .into_iter()
                .map(|(a, b)| {
                    let (degraded, pa, pb) = without_link(&topo, a, b);
                    (degraded, a, pa, b, pb)
                })
                .find(|(degraded, a, pa, b, pb)| {
                    let delta = fa.rebuild_after_link_failure(degraded, *a, *pa, *b, *pb);
                    let stats = delta.unwrap().stats;
                    !stats.full_rebuild && stats.affected_switches > 2 * per_item(n)
                })
                .expect("some link's delta patch spans several pool items");
            let what = format!("delta {n}");
            crate::fa::tests::assert_same_at_every_worker_count(&what, Some(&fa), || {
                fa.rebuild_after_link_failure(&degraded, a, pa, b, pb)
                    .unwrap()
                    .routing
            });
        }
    }

    /// The affected-destination analysis must actually prune: on a
    /// 32-switch fabric a single link failure leaves most destination
    /// columns untouched for at least some links.
    #[test]
    fn delta_prunes_unaffected_destinations() {
        let topo = IrregularConfig::paper(32, 3).generate().unwrap();
        let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
        let mut pruned_somewhere = false;
        for (a, b) in removable_links(&topo).into_iter().take(8) {
            let (degraded, pa, pb) = without_link(&topo, a, b);
            let delta = fa
                .rebuild_after_link_failure(&degraded, a, pa, b, pb)
                .unwrap();
            if !delta.stats.full_rebuild && delta.stats.affected_switches < topo.num_switches() {
                pruned_somewhere = true;
            }
        }
        assert!(pruned_somewhere, "the delta path never pruned a column");
    }

    /// Killing a root link must fall back to a full rebuild (and still
    /// produce root-pinned full-rebuild tables).
    #[test]
    fn root_link_failure_falls_back_to_full_rebuild() {
        let topo = IrregularConfig::paper(16, 5).generate().unwrap();
        let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
        let root = fa.escape().root();
        let (a, b) = removable_links(&topo)
            .into_iter()
            .find(|&(a, b)| a == root || b == root)
            .expect("some root link is removable");
        let (degraded, pa, pb) = without_link(&topo, a, b);
        let delta = fa
            .rebuild_after_link_failure(&degraded, a, pa, b, pb)
            .unwrap();
        assert!(delta.stats.full_rebuild);
        assert!(delta
            .stats
            .fallback_reason
            .as_deref()
            .unwrap()
            .contains("root"));
        let full = FaRouting::build_mixed(
            &degraded,
            RoutingConfig {
                root: Some(root),
                ..*fa.config()
            },
            &[true; 16],
        )
        .unwrap();
        assert!(delta.routing.tables_equal(&full));
    }

    /// APM and multipath tables always take the fallback.
    #[test]
    fn non_plain_tables_fall_back() {
        let topo = IrregularConfig::paper(16, 8).generate().unwrap();
        let (a, b) = removable_links(&topo)[0];
        let (degraded, pa, pb) = without_link(&topo, a, b);
        for fa in [
            FaRouting::build_with_apm(&topo, RoutingConfig::two_options()).unwrap(),
            FaRouting::build_source_multipath(&topo, RoutingConfig::two_options()).unwrap(),
        ] {
            let delta = fa
                .rebuild_after_link_failure(&degraded, a, pa, b, pb)
                .unwrap();
            assert!(delta.stats.full_rebuild);
        }
    }

    /// A disconnecting failure is an error, not a bogus table set. The
    /// topology layer already refuses to build a disconnected graph, so
    /// the error surfaces before the delta is even attempted — assert
    /// that contract holds (it is what `rebuild_after_link_failure`'s
    /// own disconnection check backstops).
    #[test]
    fn disconnection_is_an_error() {
        // A 2-switch chain: its single link is a bridge.
        let topo = iba_topology::regular::chain(2, 1).unwrap();
        let mut builder = iba_topology::TopologyBuilder::new(2, topo.ports_per_switch());
        for h in topo.host_ids() {
            let (sw, port) = topo.host_attachment(h);
            builder.attach_host_at(sw, port).unwrap();
        }
        assert!(builder.build().is_err(), "bridge removal must not build");
    }

    /// Passing a topology that still wires the link is rejected.
    #[test]
    fn undegraded_topology_is_rejected() {
        let topo = IrregularConfig::paper(8, 2).generate().unwrap();
        let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
        let (a, b) = removable_links(&topo)[0];
        let (_, pa, pb) = without_link(&topo, a, b);
        assert!(fa.rebuild_after_link_failure(&topo, a, pa, b, pb).is_err());
    }

    /// The interned route cache shares identical decodes across switches.
    #[test]
    fn route_cache_interning_shares_identical_decodes() {
        let topo = IrregularConfig::paper(16, 4).generate().unwrap();
        let fa = FaRouting::build(&topo, RoutingConfig::two_options()).unwrap();
        let (total, unique) = fa.route_cache_sharing();
        assert!(total > 0);
        assert!(
            unique < total / 2,
            "expected heavy sharing, got {unique}/{total} distinct decodes"
        );
        // Sharing must not change what any access returns.
        for s in topo.switch_ids() {
            for h in topo.host_ids() {
                let dlid = fa.dlid(h, true).unwrap();
                let shared = fa.route_shared(s, dlid).unwrap();
                let direct = fa.decode(s, dlid).unwrap();
                assert_eq!(*shared, direct);
            }
        }
    }

    #[test]
    fn delta_refreshes_the_route_cache() {
        let topo = IrregularConfig::paper(16, 6).generate().unwrap();
        let fa = FaRouting::build(&topo, RoutingConfig::with_options(2)).unwrap();
        for (a, b) in removable_links(&topo).into_iter().take(4) {
            let (degraded, pa, pb) = without_link(&topo, a, b);
            let delta = fa
                .rebuild_after_link_failure(&degraded, a, pa, b, pb)
                .unwrap();
            for s in degraded.switch_ids() {
                for h in degraded.host_ids() {
                    for adaptive in [false, true] {
                        let dlid = delta.routing.dlid(h, adaptive).unwrap();
                        let shared = delta.routing.route_shared(s, dlid).unwrap();
                        let direct = delta.routing.decode(s, dlid).unwrap();
                        assert_eq!(*shared, direct, "{s} {h} stale cache entry");
                    }
                }
            }
        }
    }
}
