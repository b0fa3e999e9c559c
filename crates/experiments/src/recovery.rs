//! Recovery-scaling experiment (DESIGN.md §13): full SM rebuild vs
//! incremental re-sweep after a single link failure, swept over fabric
//! size.
//!
//! Both policies recover the *same* degradation on twin fabrics driven
//! by the real SMP-level subnet manager:
//!
//! * **full** — the legacy path: re-discover the whole fabric with a
//!   fresh (stateless) [`iba_sm::Programmer`] and re-upload every LFT
//!   block;
//! * **incremental** — the [`iba_sm::SubnetManager::
//!   resweep_after_link_failure`] path: reuse the previous discovery,
//!   rebuild the routing with the escape root pinned, and diff-program
//!   through the *stateful* programmer that remembers per-block hashes.
//!
//! Per point the sweep records the SMPs spent, the block-upload
//! accounting, and a recovery time pinned to SMP wire cost
//! (`smps × per_smp_ns`), plus two machine-checked gates: the
//! incremental fabric's LFTs must be entry-identical to the fully
//! rebuilt twin's, and the recovered escape layer must certify
//! deadlock-free. [`verify`] turns gate violations into a hard error so
//! CI fails loudly instead of plotting a broken curve.

use iba_core::{IbaError, Json, SwitchId};
use iba_routing::{FaRouting, RoutingConfig};
use iba_sm::{Discoverer, ManagedFabric, Programmer, SubnetManager};
use iba_topology::{IrregularConfig, Topology};

/// One point of the recovery-scaling curve.
#[derive(Debug, Clone)]
pub struct RecoveryPoint {
    /// Fabric size (switches).
    pub switches: usize,
    /// `"full"` or `"incremental"`.
    pub policy: &'static str,
    /// SMPs the recovery spent on the wire (writes + verification reads).
    pub smps: u64,
    /// Non-empty LFT blocks the recovered tables contain.
    pub blocks_total: u64,
    /// LFT blocks actually uploaded.
    pub blocks_uploaded: u64,
    /// `smps × per_smp_ns` — the wire-cost recovery time, comparable
    /// across policies because both recover the identical degradation.
    pub recovery_time_ns: u64,
    /// Whether the two policies ended with entry-identical LFTs.
    pub lfts_match: bool,
    /// Whether the recovered escape layer certifies deadlock-free.
    pub escape_acyclic: bool,
}

/// Physical switch carrying `guid`.
fn physical_of(topo: &Topology, fabric: &ManagedFabric, guid: u64) -> Result<SwitchId, IbaError> {
    topo.switch_ids()
        .find(|&s| fabric.agent(s).guid == guid)
        .ok_or_else(|| {
            IbaError::RoutingFailed(format!("discovered GUID {guid:#x} has no physical switch"))
        })
}

/// Entry-wise LFT equality across two fabrics of the same topology: two
/// tables are equal when their extents, fanouts and every entry are. An
/// agent's extent is the end of the highest block holding an entry, and
/// no SMP clears an entry, so equal entries mean equal extents.
fn fabrics_equal(topo: &Topology, a: &ManagedFabric, b: &ManagedFabric) -> bool {
    topo.switch_ids().all(|s| a.agent(s).lft == b.agent(s).lft)
}

/// Recover one seeded fabric of `size` switches under both policies and
/// return the `(full, incremental)` pair of curve points.
pub fn run_size(
    size: usize,
    seed: u64,
    per_smp_ns: u64,
) -> Result<(RecoveryPoint, RecoveryPoint), IbaError> {
    let physical = IrregularConfig::paper(size, seed).generate()?;
    let sm = SubnetManager::new(RoutingConfig::two_options());

    // Incremental fabric: bring up through a stateful programmer so the
    // re-sweep can diff against the verified shadow state.
    let mut fabric = ManagedFabric::new(&physical, 2)?;
    let mut programmer = Programmer::new();
    let up = sm.initialize_with(&mut fabric, &mut programmer)?;
    if !up.report.verified {
        return Err(IbaError::RoutingFailed("bring-up did not verify".into()));
    }
    // The full-rebuild twin starts from this verified bring-up: a clone
    // is the state a second `initialize` would reach.
    let mut twin = fabric.clone();
    // Prefer a removable link between switches at the *same* BFS level
    // from the up*/down* root: such a link lies on no shortest path from
    // the root, so its removal shifts no level, the up/down orientation
    // of every surviving link holds, and the diff the curve measures is
    // that of a non-tree link. Root-adjacent links are the next thing
    // to avoid, for the same reason.
    let root = up.routing.escape().root();
    let level = up.topology.distances_from(root);
    let mut candidates = Vec::new();
    for n in (1..=8).rev() {
        if let Ok(c) = crate::faults::removable_links(&up.topology, n) {
            candidates = c;
            break;
        }
    }
    if candidates.is_empty() {
        candidates = crate::faults::removable_links(&up.topology, 1)?;
    }
    let fallback = candidates.first().copied().ok_or_else(|| {
        IbaError::InvalidTopology(format!("{size}-switch fabric has no removable link"))
    })?;
    let (a, b) = candidates
        .iter()
        .copied()
        .find(|&(x, y)| x != root && y != root && level[x.index()] == level[y.index()])
        .or_else(|| {
            candidates
                .iter()
                .copied()
                .find(|&(x, y)| x != root && y != root)
        })
        .unwrap_or(fallback);
    let pa = physical_of(&physical, &fabric, up.discovered.switches[a.index()].guid)?;
    let pb = physical_of(&physical, &fabric, up.discovered.switches[b.index()].guid)?;
    fabric.fail_link(pa, pb)?;
    let before = fabric.smps_sent;
    let resweep = sm.resweep_after_link_failure(&mut fabric, &up, a, b, &mut programmer)?;
    let inc_smps = fabric.smps_sent - before;

    // Full-rebuild twin: the copy of the verified bring-up, with the same
    // dead link, recovered the legacy way — re-sweep the whole fabric,
    // build the routing from scratch, upload every block through a fresh
    // (stateless) programmer. The from-scratch build is held in the
    // *same* comparison frame as the incremental one (previous
    // discovery's LID assignment, previous up*/down* root): an unpinned
    // rebuild may elect a different root and produce legitimately
    // different, incomparable tables, which would make the byte-equality
    // gate meaningless. The frame's graph and directed routes are the
    // SM's own view of the degraded fabric. The re-discovery sweep still
    // runs on the twin so its SMPs count toward the full path's wire cost.
    let degraded = &resweep.bringup.discovered;
    let degraded_topo = &resweep.bringup.topology;
    let pinned = RoutingConfig {
        root: Some(up.routing.escape().root()),
        ..RoutingConfig::two_options()
    };
    let full_routing = FaRouting::build(degraded_topo, pinned)?;

    twin.fail_link(pa, pb)?;
    let before = twin.smps_sent;
    Discoverer::new().discover(&mut twin)?;
    let full_report = Programmer::new().program(&mut twin, degraded, &full_routing)?;
    let full_smps = twin.smps_sent - before;

    let lfts_match = fabrics_equal(&physical, &fabric, &twin);
    let full = RecoveryPoint {
        switches: size,
        policy: "full",
        smps: full_smps,
        blocks_total: full_report.blocks_total,
        blocks_uploaded: full_report.blocks_written,
        recovery_time_ns: full_smps * per_smp_ns,
        lfts_match,
        escape_acyclic: full_routing.certify_escape(degraded_topo, false).is_ok(),
    };
    let incremental = RecoveryPoint {
        switches: size,
        policy: "incremental",
        smps: inc_smps,
        blocks_total: resweep.bringup.report.blocks_total,
        blocks_uploaded: resweep.bringup.report.blocks_written,
        recovery_time_ns: inc_smps * per_smp_ns,
        lfts_match,
        escape_acyclic: (resweep.bringup.routing)
            .certify_escape(&resweep.bringup.topology, false)
            .is_ok(),
    };
    Ok((full, incremental))
}

/// The experiment's hard gates: per size, the incremental path must end
/// with the same tables, certify deadlock-free, and upload strictly
/// fewer blocks / spend strictly fewer SMPs than the full rebuild.
pub fn verify(points: &[RecoveryPoint]) -> Result<(), String> {
    for pair in points.chunks(2) {
        let [full, inc] = pair else {
            return Err("curve must hold (full, incremental) pairs".into());
        };
        let n = full.switches;
        if !(full.lfts_match && inc.lfts_match) {
            return Err(format!(
                "{n} switches: incremental LFTs diverge from full rebuild"
            ));
        }
        if !(full.escape_acyclic && inc.escape_acyclic) {
            return Err(format!("{n} switches: recovered escape layer has a cycle"));
        }
        if inc.blocks_uploaded >= full.blocks_uploaded {
            return Err(format!(
                "{n} switches: incremental uploaded {} blocks, full {} — no saving",
                inc.blocks_uploaded, full.blocks_uploaded
            ));
        }
        if inc.smps >= full.smps {
            return Err(format!(
                "{n} switches: incremental spent {} SMPs, full {}",
                inc.smps, full.smps
            ));
        }
    }
    Ok(())
}

/// One curve point as a JSON object — the `curve[]` element of the
/// results document, and (paired full/incremental) the per-run result a
/// campaign journal record stores.
pub fn point_json(p: &RecoveryPoint) -> Json {
    Json::obj([
        ("switches", Json::from(p.switches)),
        ("policy", Json::from(p.policy)),
        ("smps", Json::from(p.smps)),
        ("blocks_total", Json::from(p.blocks_total)),
        ("blocks_uploaded", Json::from(p.blocks_uploaded)),
        ("recovery_time_ns", Json::from(p.recovery_time_ns)),
        ("lfts_match", Json::from(p.lfts_match)),
        ("escape_acyclic", Json::from(p.escape_acyclic)),
    ])
}

impl RecoveryPoint {
    /// Rebuild a point from its [`point_json`] rendering (the campaign
    /// runner recovers these from its journal; [`verify`] then runs on
    /// the reconstructed curve exactly as on a fresh one).
    pub fn from_json(j: &Json) -> Result<RecoveryPoint, String> {
        let u = |key: &str| {
            j.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("recovery point missing numeric {key:?}"))
        };
        let b = |key: &str| {
            j.get(key)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("recovery point missing boolean {key:?}"))
        };
        let policy = match j.get("policy").and_then(Json::as_str) {
            Some("full") => "full",
            Some("incremental") => "incremental",
            other => return Err(format!("recovery point has bad policy {other:?}")),
        };
        Ok(RecoveryPoint {
            switches: u("switches")? as usize,
            policy,
            smps: u("smps")?,
            blocks_total: u("blocks_total")?,
            blocks_uploaded: u("blocks_uploaded")?,
            recovery_time_ns: u("recovery_time_ns")?,
            lfts_match: b("lfts_match")?,
            escape_acyclic: b("escape_acyclic")?,
        })
    }
}

/// [`verify`] over rendered point cells (journal-recovered shape).
pub fn verify_cells(cells: &[Json]) -> Result<(), String> {
    let points: Vec<RecoveryPoint> = cells
        .iter()
        .map(RecoveryPoint::from_json)
        .collect::<Result<_, _>>()?;
    verify(&points)
}

/// Assemble the results document from already-rendered curve cells.
pub fn document_from_cells(sizes: &[usize], seed: u64, per_smp_ns: u64, cells: &[Json]) -> String {
    Json::obj([
        ("experiment", Json::from("recovery_scaling")),
        ("sizes", Json::arr(sizes.iter().map(|&s| Json::from(s)))),
        ("seed", Json::from(seed)),
        ("per_smp_ns", Json::from(per_smp_ns)),
        ("curve", Json::arr(cells.iter().cloned())),
    ])
    .to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_beats_full_at_every_gate() {
        let (full, inc) = run_size(16, 8, 1_000).unwrap();
        assert!(full.lfts_match && inc.lfts_match);
        assert!(full.escape_acyclic && inc.escape_acyclic);
        assert!(inc.blocks_uploaded < full.blocks_uploaded);
        assert!(inc.smps < full.smps);
        assert!(inc.recovery_time_ns < full.recovery_time_ns);
        assert_eq!(inc.blocks_total, full.blocks_total);
        verify(&[full, inc]).unwrap();
    }

    /// `run_size`'s twin is a clone of the verified bring-up; a clone must
    /// be every bit the fabric a second, fresh bring-up produces.
    #[test]
    fn cloned_twin_is_a_fresh_bring_up() {
        for seed in [3, 8] {
            let physical = IrregularConfig::paper(16, seed).generate().unwrap();
            let sm = SubnetManager::new(RoutingConfig::two_options());
            let mut fabric = ManagedFabric::new(&physical, 2).unwrap();
            sm.initialize_with(&mut fabric, &mut Programmer::new())
                .unwrap();
            let clone = fabric.clone();
            let mut fresh = ManagedFabric::new(&physical, 2).unwrap();
            sm.initialize(&mut fresh).unwrap();
            for s in physical.switch_ids() {
                let (c, f) = (clone.agent(s), fresh.agent(s));
                assert_eq!(c.lft, f.lft, "seed {seed}, switch {s:?}: lft");
                assert_eq!(c.sl2vl, f.sl2vl, "seed {seed}, switch {s:?}: sl2vl");
                assert_eq!(c.lid, f.lid, "seed {seed}, switch {s:?}: lid");
                assert_eq!(
                    c.smps_processed, f.smps_processed,
                    "seed {seed}, switch {s:?}"
                );
            }
            assert_eq!(clone.smps_sent, fresh.smps_sent, "seed {seed}");
        }
    }

    #[test]
    fn json_layout_is_wellformed_enough() {
        let (full, inc) = run_size(8, 3, 1_000).unwrap();
        let j = document_from_cells(&[8], 3, 1_000, &[point_json(&full), point_json(&inc)]);
        assert!(j.contains("\"experiment\": \"recovery_scaling\""));
        assert!(j.contains("\"policy\": \"incremental\""));
        assert!(j.contains("\"recovery_time_ns\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn verify_rejects_a_broken_pair() {
        let (full, mut inc) = run_size(8, 3, 1_000).unwrap();
        inc.blocks_uploaded = full.blocks_uploaded;
        assert!(verify(&[full, inc]).is_err());
    }
}
