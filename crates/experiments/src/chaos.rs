//! Chaos campaign (DESIGN.md §11): sampled fault schedules × invariant
//! checking.
//!
//! Each campaign run samples a fault schedule from a seeded RNG — some
//! mix of link faults, switch deaths, link flaps, packet corruption and
//! SMP loss — simulates it to full drain on **both** event-queue
//! backends, and machine-checks the invariants the fault machinery must
//! preserve no matter what was thrown at it:
//!
//! 1. **conservation** — `generated = delivered + source drops +
//!    in-transit drops + residual`, with zero residual once drained;
//! 2. **per-cause coverage** — every in-transit drop is attributed to
//!    exactly one cause (link down / switch down / corrupted);
//! 3. **no duplicate deliveries**;
//! 4. **credit conservation** — after recovery and drain, every VL
//!    credit counter is back at capacity ([`Network::credit_audit`]);
//! 5. **escape acyclicity** — every post-recovery escape table passed
//!    [`iba_routing::check_escape_routes`] (zero certification
//!    failures);
//! 6. **no suspected wedge** — the stall watchdog never reached a
//!    deadlock verdict;
//! 7. **backend bit-identity** — the `BinaryHeap` and `Calendar` queue
//!    backends produced equal [`RunResult`]s.
//!
//! Mixes with SMP loss additionally replay subnet bring-up against the
//! SMP-level subnet manager with the same loss rate and require the
//! retry layer ([`iba_sm::retry`]) to converge with bounded
//! retransmits.
//!
//! Reordering (`order_violations`) is deliberately **not** an
//! invariant: a re-sweep legitimately reroutes buffered packets onto
//! different-length paths.

use iba_core::{IbaError, Json, SimTime, SwitchId};
use iba_engine::rng::StreamKind;
use iba_engine::{QueueBackend, StreamRng};
use iba_routing::{FaRouting, RoutingConfig};
use iba_sim::{
    Network, RecorderOpts, RecoveryPolicy, RunResult, SimConfig, TriggerCause, WatchdogOpts,
};
use iba_sm::{ManagedFabric, RetryPolicy, SubnetManager};
use iba_topology::{IrregularConfig, Topology};
use iba_workloads::{FaultEvent, FaultSchedule, WorkloadSpec};

/// One point in the fault-mix space the campaign samples from.
#[derive(Clone, Copy, Debug)]
pub struct ChaosMix {
    /// Stable mix name (JSON / CLI vocabulary).
    pub name: &'static str,
    /// Windowed link faults (down, later up).
    pub(crate) link_faults: usize,
    /// Windowed switch deaths (every port dies atomically).
    pub(crate) switch_faults: usize,
    /// Bounded down/up link oscillations.
    pub(crate) flaps: usize,
    /// Per-packet CRC-failure probability at every switch input.
    pub(crate) corrupt_prob: f64,
    /// Per-SMP loss probability for the control-plane side-check.
    pub(crate) smp_loss: f64,
    /// Recovery policy the data plane runs.
    pub policy: RecoveryPolicy,
}

/// The campaign's mix catalogue: single-dimension mixes to localize a
/// failure, plus `everything` to shake interactions loose.
pub const MIXES: [ChaosMix; 7] = [
    ChaosMix {
        name: "links",
        link_faults: 2,
        switch_faults: 0,
        flaps: 0,
        corrupt_prob: 0.0,
        smp_loss: 0.0,
        policy: RecoveryPolicy::SmResweep,
    },
    ChaosMix {
        name: "switch-death",
        link_faults: 0,
        switch_faults: 1,
        flaps: 0,
        corrupt_prob: 0.0,
        smp_loss: 0.0,
        policy: RecoveryPolicy::SmResweep,
    },
    ChaosMix {
        name: "flapping",
        link_faults: 0,
        switch_faults: 0,
        flaps: 1,
        corrupt_prob: 0.0,
        smp_loss: 0.0,
        policy: RecoveryPolicy::SmResweep,
    },
    ChaosMix {
        name: "corruption",
        link_faults: 0,
        switch_faults: 0,
        flaps: 0,
        corrupt_prob: 0.01,
        smp_loss: 0.0,
        policy: RecoveryPolicy::SmResweep,
    },
    ChaosMix {
        name: "smp-loss-20",
        link_faults: 1,
        switch_faults: 0,
        flaps: 0,
        corrupt_prob: 0.0,
        smp_loss: 0.20,
        policy: RecoveryPolicy::SmResweep,
    },
    ChaosMix {
        name: "apm-migrate",
        link_faults: 1,
        switch_faults: 0,
        flaps: 0,
        corrupt_prob: 0.0,
        smp_loss: 0.0,
        policy: RecoveryPolicy::ApmMigrate,
    },
    ChaosMix {
        name: "everything",
        link_faults: 1,
        switch_faults: 1,
        flaps: 1,
        corrupt_prob: 0.005,
        smp_loss: 0.10,
        policy: RecoveryPolicy::SmResweep,
    },
];

/// Find a mix by name.
pub fn mix_by_name(name: &str) -> Option<&'static ChaosMix> {
    MIXES.iter().find(|m| m.name == name)
}

/// Sample a validated fault schedule for `mix` on `topo`. Every fault
/// is windowed (the resource comes back before the horizon) and all
/// faulted resources are pairwise endpoint-disjoint, so the schedule
/// passes [`FaultSchedule`]'s overlapping-window validation by
/// construction and the fabric ends the run whole.
pub(crate) fn sample_schedule(
    topo: &Topology,
    rng: &mut StreamRng,
    mix: &ChaosMix,
    warmup_ns: u64,
) -> Result<FaultSchedule, IbaError> {
    let mut switches: Vec<SwitchId> = topo.switch_ids().collect();
    rng.shuffle(&mut switches);
    let victims: Vec<SwitchId> = switches.iter().copied().take(mix.switch_faults).collect();

    let mut links: Vec<(SwitchId, SwitchId)> = Vec::new();
    for a in topo.switch_ids() {
        for (_, b, _) in topo.switch_neighbors(a) {
            if a.0 < b.0 {
                links.push((a, b));
            }
        }
    }
    rng.shuffle(&mut links);
    let mut used: Vec<SwitchId> = victims.clone();
    let mut faulted: Vec<(SwitchId, SwitchId)> = Vec::new();
    let mut flapped: Vec<(SwitchId, SwitchId)> = Vec::new();
    for (a, b) in links {
        if used.contains(&a) || used.contains(&b) {
            continue;
        }
        if faulted.len() < mix.link_faults {
            faulted.push((a, b));
        } else if flapped.len() < mix.flaps {
            flapped.push((a, b));
        } else {
            break;
        }
        used.push(a);
        used.push(b);
    }
    if faulted.len() < mix.link_faults || flapped.len() < mix.flaps {
        return Err(IbaError::InvalidTopology(format!(
            "fabric too small for mix {:?}: needed {} disjoint links + {} flaps",
            mix.name, mix.link_faults, mix.flaps
        )));
    }

    let mut events: Vec<FaultEvent> = Vec::new();
    for &v in &victims {
        let at = warmup_ns + 2_000 + rng.below(16_000) as u64;
        let dur = 3_000 + rng.below(5_000) as u64;
        events.push(FaultEvent::switch_down(SimTime::from_ns(at), v));
        events.push(FaultEvent::switch_up(SimTime::from_ns(at + dur), v));
    }
    for &(a, b) in &faulted {
        let at = warmup_ns + 2_000 + rng.below(16_000) as u64;
        let dur = 3_000 + rng.below(5_000) as u64;
        events.push(FaultEvent::link_down(SimTime::from_ns(at), a, b));
        events.push(FaultEvent::link_up(SimTime::from_ns(at + dur), a, b));
    }
    for &(a, b) in &flapped {
        let start = warmup_ns + 2_000 + rng.below(10_000) as u64;
        let down = 1_500 + rng.below(1_500) as u64;
        let up = 1_500 + rng.below(1_500) as u64;
        let cycles = 2 + rng.below(2);
        events.extend(FaultSchedule::flapping_events(
            SimTime::from_ns(start),
            a,
            b,
            down,
            up,
            cycles,
        ));
    }
    FaultSchedule::new(events)
}

/// One campaign run: a (mix, size, seed) cell checked on both backends.
#[derive(Clone, Debug)]
pub struct ChaosRun {
    /// Mix name.
    pub(crate) mix: &'static str,
    /// Switch count of the fabric.
    pub size: usize,
    /// Seed of topology, workload and schedule sampling.
    pub seed: u64,
    /// The result (from the `BinaryHeap` backend; the `Calendar` one
    /// must be equal or a violation is filed).
    pub result: RunResult,
    /// Whether the two queue backends produced equal results.
    pub(crate) backends_identical: bool,
    /// Stall-watchdog deadlock verdicts (must be 0).
    pub(crate) wedges: usize,
    /// Control-plane side-check: the SMP-level sweep converged.
    pub(crate) sm_converged: bool,
    /// Retransmits the SMP-level sweep needed.
    pub(crate) sm_retransmits: u64,
    /// Every invariant violation found (empty = clean run).
    pub(crate) violations: Vec<String>,
}

/// Simulate one backend and check the per-run invariants.
fn run_backend(
    topo: &Topology,
    routing: &FaRouting,
    schedule: &FaultSchedule,
    mix: &ChaosMix,
    seed: u64,
    backend: QueueBackend,
) -> Result<(RunResult, usize, Vec<String>), IbaError> {
    let mut cfg = SimConfig::test(seed);
    cfg.queue_backend = backend;
    let horizon = cfg.horizon();
    let mut b = Network::builder(topo, routing)
        .workload(WorkloadSpec::uniform32(0.02))
        .config(cfg)
        // The drop trigger must stay off: drops are *expected* here, and
        // a frozen recorder skips watchdog checks — which would make the
        // no-wedge invariant vacuous.
        .recorder(RecorderOpts {
            capacity_per_switch: 256,
            trigger_on_drop: false,
            latency_threshold_ns: None,
            watchdog: Some(WatchdogOpts {
                check_every_ns: 5_000,
                // Far above the worst legitimate stall (every fault
                // window plus the re-sweep latency), far below the
                // drain deadline.
                stall_after_ns: 60_000,
            }),
        });
    if mix.corrupt_prob > 0.0 {
        b = b.corruption(mix.corrupt_prob);
    }
    if !schedule.is_empty() {
        let resweep_ns = if mix.policy == RecoveryPolicy::SmResweep {
            2_000
        } else {
            0
        };
        b = b.faults(schedule, mix.policy, resweep_ns);
    }
    let mut net = b.build()?;
    let (r, drained) = net.run_until_drained(horizon, horizon.plus_ns(2_000_000));

    let mut v: Vec<String> = Vec::new();
    if !drained {
        v.push("failed to drain within the deadline".into());
    }
    let residual = net.residual_packets() as u64;
    if r.generated != r.delivered + r.source_drops + r.drops_in_transit + residual {
        v.push(format!(
            "conservation: generated {} != delivered {} + source drops {} + transit drops {} + residual {residual}",
            r.generated, r.delivered, r.source_drops, r.drops_in_transit
        ));
    }
    if r.drops_in_transit != r.drops_link_down + r.drops_switch_down + r.drops_corrupted {
        v.push(format!(
            "drop causes: {} in transit but {} + {} + {} attributed",
            r.drops_in_transit, r.drops_link_down, r.drops_switch_down, r.drops_corrupted
        ));
    }
    if r.duplicate_deliveries != 0 {
        v.push(format!("{} duplicate deliveries", r.duplicate_deliveries));
    }
    if drained {
        let audit = net.credit_audit();
        if !audit.is_empty() {
            v.push(format!("credit leak after drain: {}", audit.join("; ")));
        }
    }
    if r.escape_cert_failures != 0 {
        v.push(format!(
            "{} escape tables failed acyclicity certification",
            r.escape_cert_failures
        ));
    }
    let triggers = net.flight_triggers().ok_or_else(|| {
        IbaError::RoutingFailed("chaos run lost its flight recorder (builder arms it)".into())
    })?;
    let wedges = triggers
        .iter()
        .filter(|t| t.cause == TriggerCause::SuspectedWedge)
        .count();
    if wedges > 0 {
        v.push(format!("{wedges} suspected-wedge watchdog verdicts"));
    }
    Ok((r, wedges, v))
}

/// The compiled fabric a chaos cell runs on: the seeded topology plus
/// the FA routing (with or without the APM alternate-path layer).
/// Campaign runs sharing a `(size, seed, apm)` triple share one of
/// these through the [`iba_campaign::ArtifactCache`].
#[derive(Debug)]
pub struct ChaosArtifact {
    /// The seeded irregular fabric.
    pub(crate) topo: Topology,
    /// FA routing compiled over it.
    pub routing: FaRouting,
}

/// Build the shared artifact for a `(size, seed)` fabric; `apm` selects
/// the alternate-path-migration routing build the `apm-migrate` mix
/// needs.
pub fn build_artifact(size: usize, seed: u64, apm: bool) -> Result<ChaosArtifact, IbaError> {
    let topo = IrregularConfig::paper(size, seed).generate()?;
    let routing = if apm {
        FaRouting::build_with_apm(&topo, RoutingConfig::two_options())?
    } else {
        FaRouting::build(&topo, RoutingConfig::two_options())?
    };
    Ok(ChaosArtifact { topo, routing })
}

/// Run one (size, mix, seed) cell on a pre-built (possibly cached)
/// fabric artifact: both backends plus the SM side-check.
pub fn run_one_with(
    artifact: &ChaosArtifact,
    mix: &ChaosMix,
    mix_index: u64,
    seed: u64,
) -> Result<ChaosRun, IbaError> {
    let ChaosArtifact { topo, routing } = artifact;
    let size = topo.num_switches();
    let mut rng = StreamRng::from_seed(seed).derive_indexed(StreamKind::Custom(0xCA05), mix_index);
    let warmup_ns = SimConfig::test(seed).warmup.as_ns();
    let schedule = sample_schedule(topo, &mut rng, mix, warmup_ns)?;

    let (heap, wedges_h, mut violations) = run_backend(
        topo,
        routing,
        &schedule,
        mix,
        seed,
        QueueBackend::BinaryHeap,
    )?;
    let (cal, wedges_c, v_cal) =
        run_backend(topo, routing, &schedule, mix, seed, QueueBackend::Calendar)?;
    for v in v_cal {
        violations.push(format!("[calendar] {v}"));
    }
    let backends_identical = heap == cal;
    if !backends_identical {
        violations.push("queue backends diverged (RunResult mismatch)".into());
    }

    // Control-plane side-check: the SMP-level sweep must converge on
    // this topology under the mix's SMP loss rate with bounded retries.
    let mut fabric = ManagedFabric::new(topo, 2)?;
    if mix.smp_loss > 0.0 {
        fabric.set_smp_faults(mix.smp_loss, seed)?;
    }
    let sm = SubnetManager::new(RoutingConfig::two_options());
    let mut policy = RetryPolicy::default();
    policy.max_attempts = 12;
    let up = sm.initialize_robust(&mut fabric, policy)?;
    let sm_converged = up.report.converged && up.report.unreachable.is_empty();
    if !sm_converged {
        violations.push(format!(
            "SM sweep failed to converge under {} SMP loss (partial: {}, unreachable: {})",
            mix.smp_loss,
            up.report.partial,
            up.report.unreachable.len()
        ));
    }

    Ok(ChaosRun {
        mix: mix.name,
        size,
        seed,
        result: heap,
        backends_identical,
        wedges: wedges_h + wedges_c,
        sm_converged,
        sm_retransmits: up.report.retransmits,
        violations,
    })
}

/// One campaign cell as a JSON object — the `cells[]` element of the
/// results document, and the per-run result a campaign journal record
/// stores. It carries everything the campaign-level summary needs
/// (violations, wedge count, backend identity, SM convergence) so a
/// resumed sweep rebuilds the identical document from journal records
/// alone.
pub fn cell_json(r: &ChaosRun) -> Json {
    Json::obj([
        ("mix", Json::from(r.mix)),
        ("switches", Json::from(r.size)),
        ("seed", Json::from(r.seed)),
        ("faults_injected", Json::from(r.result.faults_injected)),
        ("generated", Json::from(r.result.generated)),
        ("delivered", Json::from(r.result.delivered)),
        ("drops_link_down", Json::from(r.result.drops_link_down)),
        ("drops_switch_down", Json::from(r.result.drops_switch_down)),
        ("drops_corrupted", Json::from(r.result.drops_corrupted)),
        ("resweeps", Json::from(r.result.resweeps)),
        ("resweeps_failed", Json::from(r.result.resweeps_failed)),
        (
            "escape_certifications",
            Json::from(r.result.escape_certifications),
        ),
        ("sm_retransmits", Json::from(r.sm_retransmits)),
        ("sm_converged", Json::from(r.sm_converged)),
        ("backends_identical", Json::from(r.backends_identical)),
        ("wedges", Json::from(r.wedges)),
        (
            "violations",
            Json::arr(r.violations.iter().map(|v| Json::from(v.as_str()))),
        ),
    ])
}

/// Assemble the results document from already-rendered cells (the shape
/// the campaign runner holds after a resume). `mixes` is the mix-name
/// vocabulary the sweep covered.
pub fn document_from_cells(
    sizes: &[usize],
    mixes: &[&str],
    seeds: u64,
    base_seed: u64,
    cells: &[Json],
) -> String {
    let count = |f: &dyn Fn(&Json) -> u64| cells.iter().map(f).sum::<u64>();
    let violations = count(&|c| {
        c.get("violations")
            .and_then(Json::as_arr)
            .map(|v| v.len() as u64)
            .unwrap_or(0)
    });
    let wedges = count(&|c| c.get("wedges").and_then(Json::as_u64).unwrap_or(0));
    let all_true = |key: &str| {
        cells
            .iter()
            .all(|c| c.get(key).and_then(Json::as_bool) == Some(true))
    };
    Json::obj([
        ("experiment", Json::from("chaos")),
        ("sizes", Json::arr(sizes.iter().map(|&s| Json::from(s)))),
        ("mixes", Json::arr(mixes.iter().map(|&m| Json::from(m)))),
        ("seeds", Json::from(seeds)),
        ("base_seed", Json::from(base_seed)),
        ("runs", Json::from(cells.len())),
        ("violations", Json::from(violations)),
        ("suspected_wedges", Json::from(wedges)),
        (
            "backends_identical",
            Json::from(all_true("backends_identical")),
        ),
        ("sm_converged", Json::from(all_true("sm_converged"))),
        ("cells", Json::arr(cells.iter().cloned())),
    ])
    .to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_catalogue_is_wellformed() {
        let mut names: Vec<&str> = MIXES.iter().map(|m| m.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), MIXES.len(), "mix names must be unique");
        let everything = mix_by_name("everything").unwrap();
        assert!(everything.link_faults > 0);
        assert!(everything.switch_faults > 0);
        assert!(everything.flaps > 0);
        assert!(everything.corrupt_prob > 0.0);
        assert!(everything.smp_loss > 0.0);
        assert_eq!(mix_by_name("smp-loss-20").unwrap().smp_loss, 0.20);
        assert_eq!(
            mix_by_name("apm-migrate").unwrap().policy,
            RecoveryPolicy::ApmMigrate
        );
        assert!(mix_by_name("bogus").is_none());
    }

    #[test]
    fn sampled_schedules_validate_and_close_every_window() {
        let topo = IrregularConfig::paper(16, 8).generate().unwrap();
        let everything = mix_by_name("everything").unwrap();
        for i in 0..5u64 {
            let mut rng =
                StreamRng::from_seed(100 + i).derive_indexed(StreamKind::Custom(0xCA05), 6);
            let schedule = sample_schedule(&topo, &mut rng, everything, 10_000).unwrap();
            // 1 switch window + 1 link window + 2–3 flap cycles.
            assert!(schedule.len() >= 2 + 2 + 4, "{}", schedule.len());
            // Down and up flanks balance: the fabric ends whole.
            let downs = schedule
                .events()
                .iter()
                .filter(|e| {
                    matches!(
                        e.kind,
                        iba_workloads::FaultKind::LinkDown | iba_workloads::FaultKind::SwitchDown
                    )
                })
                .count();
            assert_eq!(downs * 2, schedule.len());
        }
    }

    fn run_one(size: usize, mix: &ChaosMix, mix_index: u64, seed: u64) -> ChaosRun {
        let apm = mix.policy == RecoveryPolicy::ApmMigrate;
        let artifact = build_artifact(size, seed, apm).unwrap();
        run_one_with(&artifact, mix, mix_index, seed).unwrap()
    }

    #[test]
    fn single_cell_runs_clean_on_both_backends() {
        let mix = mix_by_name("switch-death").unwrap();
        let run = run_one(8, mix, 1, 42);
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert!(run.backends_identical);
        assert_eq!(run.wedges, 0);
        assert!(run.sm_converged);
        assert!(run.result.faults_injected >= 1);
    }

    #[test]
    fn json_layout_is_wellformed_enough() {
        let mix = mix_by_name("corruption").unwrap();
        let cells = [cell_json(&run_one(8, mix, 3, 7))];
        let j = document_from_cells(&[8], &["corruption"], 1, 7, &cells);
        assert!(j.contains("\"experiment\": \"chaos\""));
        assert!(j.contains("\"mix\": \"corruption\""));
        assert!(j.contains("\"violations\": 0"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
