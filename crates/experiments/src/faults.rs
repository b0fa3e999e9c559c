//! Fault-tolerance experiment (DESIGN.md §8).
//!
//! Sweeps *number of simultaneous link faults* × *recovery policy*
//! (none / APM migration / SM re-sweep) over an ensemble of seeds and
//! reports, per cell: delivered ratio, drops by cause, whether the
//! network drained, and the recovery time measured from the first fault
//! to the first post-recovery delivery. For the SM re-sweep policy it
//! also replays the same degradation against the *real* SMP-level
//! subnet manager ([`iba_sm::SubnetManager`]) to count how many SMPs
//! the re-sweep would cost on the wire.

use iba_core::{par_map, IbaError, Json, SwitchId};
use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{Network, RecoveryPolicy, SimConfig};
use iba_sm::{ManagedFabric, SubnetManager};
use iba_stats::MinMaxAvg;
use iba_topology::{IrregularConfig, Topology};
use iba_workloads::{FaultEvent, FaultKind, FaultSchedule, WorkloadSpec};

/// One (policy, fault-count) cell aggregated over seeds.
#[derive(Debug, Clone)]
pub struct FaultCell {
    /// Recovery policy simulated.
    pub policy: RecoveryPolicy,
    /// Simultaneous link faults injected mid-window.
    pub faults: usize,
    /// Seeds simulated.
    pub seeds: u64,
    /// Delivered / (generated − source drops), per seed.
    pub delivered_ratio: MinMaxAvg,
    /// Packets lost in transit on a dying link, summed over seeds.
    pub drops_in_transit: u64,
    /// Packets dropped after recovery tables were live (must be 0 for
    /// a sound re-sweep), summed over seeds.
    pub drops_after_recovery: u64,
    /// Seeds whose network fully drained after generation stopped.
    pub(crate) drained: u64,
    /// First-fault → first-post-recovery-delivery time, per recovered seed.
    pub recovery_ns: MinMaxAvg,
    /// Seeds that completed recovery (have a finite recovery time).
    pub recovered: u64,
    /// SMPs a real SMP-level re-sweep of the degraded fabric costs
    /// (discovery + reprogramming), averaged over seeds; 0 for policies
    /// that never re-sweep.
    pub resweep_smps: MinMaxAvg,
}

/// Pick `count` distinct switch–switch links whose joint removal keeps
/// the fabric connected (greedy, deterministic). Each candidate is tried
/// by a search over the switch graph with the chosen links masked; no
/// topology is built.
pub fn removable_links(
    topo: &Topology,
    count: usize,
) -> Result<Vec<(SwitchId, SwitchId)>, IbaError> {
    let mut chosen: Vec<(SwitchId, SwitchId)> = Vec::new();
    let mut reached = vec![false; topo.num_switches()];
    let mut queue = Vec::with_capacity(topo.num_switches());
    'outer: while chosen.len() < count {
        for a in topo.switch_ids() {
            for (_, b, _) in topo.switch_neighbors(a) {
                if b.0 <= a.0 || chosen.contains(&(a, b)) {
                    continue;
                }
                chosen.push((a, b));
                if connected_without(topo, &chosen, &mut reached, &mut queue) {
                    continue 'outer;
                }
                chosen.pop();
            }
        }
        return Err(IbaError::InvalidTopology(format!(
            "only {} of {count} requested link faults keep the fabric connected",
            chosen.len()
        )));
    }
    Ok(chosen)
}

/// Whether every switch reaches switch 0 over the links of `topo` but
/// the `dead` ones (each named lower switch id first).
fn connected_without(
    topo: &Topology,
    dead: &[(SwitchId, SwitchId)],
    reached: &mut [bool],
    queue: &mut Vec<SwitchId>,
) -> bool {
    reached.fill(false);
    queue.clear();
    queue.push(SwitchId(0));
    reached[0] = true;
    let mut head = 0;
    while let Some(&cur) = queue.get(head) {
        head += 1;
        for (_, peer, _) in topo.switch_neighbors(cur) {
            let link = if cur.0 < peer.0 {
                (cur, peer)
            } else {
                (peer, cur)
            };
            if !reached[peer.index()] && !dead.contains(&link) {
                reached[peer.index()] = true;
                queue.push(peer);
            }
        }
    }
    queue.len() == reached.len()
}

/// Rebuild `topo` without the `dead` links; errors when disconnected.
pub fn degraded(topo: &Topology, dead: &[(SwitchId, SwitchId)]) -> Result<Topology, IbaError> {
    topo.without_links(|s, _, peer| dead.contains(&(s, peer)))
}

/// SMPs the real subnet manager spends re-sweeping the degraded fabric:
/// bring the fabric up clean, fail the links, re-initialize, and count
/// the second pass.
fn resweep_smp_cost(topo: &Topology, dead: &[(SwitchId, SwitchId)]) -> Result<u64, IbaError> {
    let mut fabric = ManagedFabric::new(topo, 2)?;
    let sm = SubnetManager::new(RoutingConfig::two_options());
    sm.initialize(&mut fabric)?;
    for &(a, b) in dead {
        fabric.fail_link(a, b)?;
    }
    let before = fabric.smps_sent;
    sm.initialize(&mut fabric)?;
    Ok(fabric.smps_sent - before)
}

/// Simulate one cell: `fault_count` simultaneous mid-window link faults
/// under `policy`, over seeds `base_seed..base_seed + seeds`.
pub fn run_cell(
    size: usize,
    policy: RecoveryPolicy,
    fault_count: usize,
    seeds: u64,
    base_seed: u64,
    rate: f64,
    resweep_latency_ns: u64,
) -> Result<FaultCell, IbaError> {
    let run_seeds: Vec<u64> = (base_seed..base_seed + seeds).collect();
    let per_seed: Vec<_> = par_map(&run_seeds, |&seed| -> Result<_, IbaError> {
        let topo = IrregularConfig::paper(size, seed).generate()?;
        let routing = if policy == RecoveryPolicy::ApmMigrate {
            FaRouting::build_with_apm(&topo, RoutingConfig::two_options())?
        } else {
            FaRouting::build(&topo, RoutingConfig::two_options())?
        };
        let dead = removable_links(&topo, fault_count)?;
        let cfg = SimConfig::test(seed);
        let horizon = cfg.horizon();
        let fault_at = cfg.warmup.plus_ns(cfg.measure_window.as_ns() / 2);
        let schedule = FaultSchedule::new(
            dead.iter()
                .map(|&(a, b)| FaultEvent {
                    at: fault_at,
                    kind: FaultKind::LinkDown,
                    a,
                    b,
                })
                .collect(),
        )?;
        let mut net = Network::builder(&topo, &routing)
            .workload(WorkloadSpec::uniform32(rate))
            .config(cfg)
            .faults(&schedule, policy, resweep_latency_ns)
            .build()?;
        let (result, drained) = net.run_until_drained(horizon, horizon.plus_ns(500_000));
        let smps = if policy == RecoveryPolicy::SmResweep {
            Some(resweep_smp_cost(&topo, &dead)?)
        } else {
            None
        };
        Ok((result, drained, smps))
    })
    .into_iter()
    .collect::<Result<_, _>>()?;

    let mut cell = FaultCell {
        policy,
        faults: fault_count,
        seeds,
        delivered_ratio: MinMaxAvg::new(),
        drops_in_transit: 0,
        drops_after_recovery: 0,
        drained: 0,
        recovery_ns: MinMaxAvg::new(),
        recovered: 0,
        resweep_smps: MinMaxAvg::new(),
    };
    for (r, drained, smps) in per_seed {
        cell.delivered_ratio.push(r.delivered_ratio);
        cell.drops_in_transit += r.drops_in_transit;
        cell.drops_after_recovery += r.drops_after_recovery;
        cell.drained += drained as u64;
        if let Some(ns) = r.recovery_time_ns {
            cell.recovery_ns.push(ns as f64);
            cell.recovered += 1;
        }
        if let Some(s) = smps {
            cell.resweep_smps.push(s as f64);
        }
    }
    Ok(cell)
}

/// The full sweep: every policy × every fault count.
pub fn sweep(
    size: usize,
    fault_counts: &[usize],
    policies: &[RecoveryPolicy],
    seeds: u64,
    base_seed: u64,
    rate: f64,
    resweep_latency_ns: u64,
) -> Result<Vec<FaultCell>, IbaError> {
    let mut cells = Vec::new();
    for &policy in policies {
        for &n in fault_counts {
            cells.push(run_cell(
                size,
                policy,
                n,
                seeds,
                base_seed,
                rate,
                resweep_latency_ns,
            )?);
        }
    }
    Ok(cells)
}

/// Stable lower-case name for a policy (JSON / CLI vocabulary).
pub fn policy_name(p: RecoveryPolicy) -> &'static str {
    match p {
        RecoveryPolicy::None => "none",
        RecoveryPolicy::ApmMigrate => "apm-migrate",
        RecoveryPolicy::SmResweep => "sm-resweep",
    }
}

/// Parse the [`policy_name`] vocabulary.
pub fn parse_policy(s: &str) -> Option<RecoveryPolicy> {
    match s {
        "none" => Some(RecoveryPolicy::None),
        "apm-migrate" | "apm" => Some(RecoveryPolicy::ApmMigrate),
        "sm-resweep" | "resweep" | "sm" => Some(RecoveryPolicy::SmResweep),
        _ => None,
    }
}

/// Render the sweep as a JSON document (via [`iba_core::Json`]).
/// Layout documented in EXPERIMENTS.md.
pub fn to_json(
    size: usize,
    seeds: u64,
    rate: f64,
    resweep_latency_ns: u64,
    cells: &[FaultCell],
) -> String {
    fn mma(m: &MinMaxAvg) -> Json {
        if m.count == 0 {
            Json::Null
        } else {
            Json::obj([
                ("min", Json::from(m.min)),
                ("max", Json::from(m.max)),
                ("avg", Json::from(m.avg())),
            ])
        }
    }
    Json::obj([
        ("experiment", Json::from("faults")),
        ("switches", Json::from(size)),
        ("seeds", Json::from(seeds)),
        ("rate_bytes_per_ns", Json::from(rate)),
        ("resweep_latency_ns", Json::from(resweep_latency_ns)),
        (
            "cells",
            Json::arr(cells.iter().map(|c| {
                Json::obj([
                    ("policy", Json::from(policy_name(c.policy))),
                    ("faults", Json::from(c.faults)),
                    ("delivered_ratio", mma(&c.delivered_ratio)),
                    ("drops_in_transit", Json::from(c.drops_in_transit)),
                    ("drops_after_recovery", Json::from(c.drops_after_recovery)),
                    ("drained", Json::from(c.drained)),
                    ("recovered", Json::from(c.recovered)),
                    ("recovery_ns", mma(&c.recovery_ns)),
                    ("resweep_smps", mma(&c.resweep_smps)),
                ])
            })),
        ),
    ])
    .to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The choice [`removable_links`] replaced: every candidate checked
    /// by rebuilding the fabric without the chosen links.
    fn removable_links_by_rebuilding(
        topo: &Topology,
        count: usize,
    ) -> Result<Vec<(SwitchId, SwitchId)>, IbaError> {
        let mut chosen: Vec<(SwitchId, SwitchId)> = Vec::new();
        'outer: while chosen.len() < count {
            for a in topo.switch_ids() {
                for (_, b, _) in topo.switch_neighbors(a) {
                    if b.0 <= a.0 || chosen.contains(&(a, b)) {
                        continue;
                    }
                    chosen.push((a, b));
                    if degraded(topo, &chosen).is_ok() {
                        continue 'outer;
                    }
                    chosen.pop();
                }
            }
            return Err(IbaError::InvalidTopology(format!(
                "only {} of {count} requested link faults keep the fabric connected",
                chosen.len()
            )));
        }
        Ok(chosen)
    }

    #[test]
    fn removable_links_choose_what_rebuilding_chose() {
        for n in [8usize, 16, 32, 64, 128, 256] {
            for seed in 0..20 {
                let topo = IrregularConfig::paper(n, seed).generate().unwrap();
                for count in [1, 8] {
                    let (new, old) = (
                        removable_links(&topo, count),
                        removable_links_by_rebuilding(&topo, count),
                    );
                    assert_eq!(new, old, "{n} switches, seed {seed}, {count} links");
                }
            }
        }
        // A ring loses one link and no second one.
        let ring = iba_topology::regular::ring(6, 1).unwrap();
        assert_eq!(removable_links(&ring, 1).unwrap().len(), 1);
        assert_eq!(
            removable_links(&ring, 2),
            removable_links_by_rebuilding(&ring, 2)
        );
        assert!(removable_links(&ring, 2).is_err());
    }

    #[test]
    fn removable_links_keep_connectivity() {
        let topo = IrregularConfig::paper(16, 2).generate().unwrap();
        let dead = removable_links(&topo, 3).unwrap();
        assert_eq!(dead.len(), 3);
        assert!(degraded(&topo, &dead).unwrap().is_connected());
    }

    #[test]
    fn resweep_cell_recovers_every_seed() {
        let cell = run_cell(8, RecoveryPolicy::SmResweep, 1, 2, 40, 0.02, 2_000).unwrap();
        assert_eq!(cell.recovered, cell.seeds);
        assert_eq!(cell.drained, cell.seeds);
        assert_eq!(cell.drops_after_recovery, 0);
        assert!(cell.delivered_ratio.min >= 0.99);
        assert!(cell.resweep_smps.avg() > 0.0);
    }

    #[test]
    fn none_policy_cell_reports_no_recovery() {
        let cell = run_cell(8, RecoveryPolicy::None, 1, 2, 40, 0.02, 0).unwrap();
        assert_eq!(cell.recovered, 0);
        assert_eq!(cell.recovery_ns.count, 0);
    }

    #[test]
    fn json_layout_is_wellformed_enough() {
        let cells = vec![run_cell(8, RecoveryPolicy::SmResweep, 1, 1, 40, 0.02, 2_000).unwrap()];
        let j = to_json(8, 1, 0.02, 2_000, &cells);
        assert!(j.contains("\"experiment\": \"faults\""));
        assert!(j.contains("\"policy\": \"sm-resweep\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn policy_vocabulary_roundtrips() {
        for p in [
            RecoveryPolicy::None,
            RecoveryPolicy::ApmMigrate,
            RecoveryPolicy::SmResweep,
        ] {
            assert_eq!(parse_policy(policy_name(p)), Some(p));
        }
        assert_eq!(parse_policy("bogus"), None);
    }
}
