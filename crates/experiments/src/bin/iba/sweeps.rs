//! The campaign commands: sweeps under the crash-safe runner
//! (DESIGN.md §16), journalled and resumable, each ending in a gate.

use crate::FIDELITY;
use iba_core::Json;
use iba_experiments::campaigns::{self, ChaosPlan, RUNNER_FLAGS};
use iba_experiments::chaos;
use iba_experiments::cli::{Args, Command, Flag};
use iba_experiments::engine_zoo::{self, ZooConfig};
use iba_experiments::recovery::{self, RecoveryPoint};
use iba_experiments::Fidelity;

pub const CHAOS: Command = Command {
    name: "chaos",
    about: "chaos campaign: sampled fault schedules × invariant checks (DESIGN.md §11)",
    positional: &[],
    flags: &[
        &[
            Flag::value("sizes", "a,b", "fabric sizes, switches [8,16]"),
            Flag::value("seeds", "N", "seeds per (size, mix) [15]"),
            Flag::value("seed", "N", "first seed [100]"),
            Flag::value("mixes", "a,b", "fault mixes, e.g. links,everything [all]"),
        ],
        RUNNER_FLAGS,
    ],
    run: chaos_campaign,
};

/// The chaos grid from `--sizes/--seeds/--seed/--mixes`.
pub fn chaos_plan(args: &Args) -> Result<ChaosPlan, String> {
    let all: Vec<String> = chaos::MIXES.iter().map(|m| m.name.to_string()).collect();
    let mixes = args.get_list_or("mixes", &all)?;
    if let Some(bad) = mixes.iter().find(|m| chaos::mix_by_name(m).is_none()) {
        return Err(format!("unknown chaos mix {bad:?}"));
    }
    Ok(ChaosPlan {
        sizes: args.get_list_or("sizes", &[8usize, 16])?,
        seeds: args.get_or("seeds", 15u64)?,
        base_seed: args.get_or("seed", 100u64)?,
        mixes,
    })
}

fn cell_u64(c: &Json, key: &str) -> u64 {
    c.get(key).and_then(Json::as_u64).unwrap_or(0)
}

fn violations(c: &Json) -> &[Json] {
    c.get("violations").and_then(Json::as_arr).unwrap_or(&[])
}

/// Fails when any invariant is violated or a real chaos cell ended
/// poisoned: a cell whose invariants were never checked cannot count
/// toward a green gate.
fn chaos_campaign(args: &Args) -> Result<(), String> {
    let plan = chaos_plan(args)?;
    let campaign = campaigns::chaos_campaign(&plan)?;
    let (executor, cache) = campaigns::chaos_executor();
    eprintln!(
        "chaos: sizes {:?} × {} mixes × {} seeds = {} runs (each on both queue backends)",
        plan.sizes,
        plan.mixes.len(),
        plan.seeds,
        campaign.specs.len()
    );
    let mixes: Vec<&str> = plan.mixes.iter().map(String::as_str).collect();
    let cells = campaigns::drive(args, campaign, executor, |cells| {
        chaos::document_from_cells(&plan.sizes, &mixes, plan.seeds, plan.base_seed, cells)
    })?;
    let (hits, misses) = cache.stats();
    eprintln!("chaos: fabric cache: {hits} hits / {misses} builds");
    let Some(cells) = cells else {
        return Ok(());
    };

    println!(
        "mix            runs faults delivered  d.link    d.sw   d.crc resweeps   sm.retx  viol"
    );
    for mix in &plan.mixes {
        let cell: Vec<&Json> = cells
            .iter()
            .filter(|c| c.get("mix").and_then(Json::as_str) == Some(mix))
            .collect();
        let sum = |key: &str| cell.iter().map(|c| cell_u64(c, key)).sum::<u64>();
        println!(
            "{:<14} {:>4} {:>6} {:>9} {:>7} {:>7} {:>7} {:>8} {:>9} {:>5}",
            mix,
            cell.len(),
            sum("faults_injected"),
            sum("delivered"),
            sum("drops_link_down"),
            sum("drops_switch_down"),
            sum("drops_corrupted"),
            sum("resweeps"),
            sum("sm_retransmits"),
            cell.iter().map(|c| violations(c).len()).sum::<usize>(),
        );
    }
    let violation_count: usize = cells.iter().map(|c| violations(c).len()).sum();
    let wedges: u64 = cells.iter().map(|c| cell_u64(c, "wedges")).sum();
    let identical = cells
        .iter()
        .all(|c| c.get("backends_identical").and_then(Json::as_bool) == Some(true));
    println!(
        "chaos: {} runs, {violation_count} violations, {wedges} suspected wedges, backends identical: {identical}",
        cells.len()
    );
    for c in &cells {
        for v in violations(c) {
            eprintln!(
                "chaos: VIOLATION [{} n={} seed={}]: {}",
                c.get("mix").and_then(Json::as_str).unwrap_or("?"),
                cell_u64(c, "switches"),
                cell_u64(c, "seed"),
                v.as_str().unwrap_or("?")
            );
        }
    }
    if violation_count > 0 {
        return Err(format!("{violation_count} invariant violations"));
    }
    Ok(())
}

pub const ENGINE_ZOO: Command = Command {
    name: "engine-zoo",
    about: "FA over the up*/down*, OutFlank and full-mesh escape engines, Fig.-3-style",
    positional: &[],
    flags: &[
        &[
            FIDELITY,
            Flag::value("sizes", "a,b", "fabric sizes, switches [64,256]"),
            Flag::value("hosts", "N", "hosts per switch [4]"),
            Flag::value("adaptive", "F", "adaptive-traffic fraction [1.0]"),
            Flag::value("seed", "N", "seed [100]"),
        ],
        RUNNER_FLAGS,
    ],
    run: engine_zoo,
};

/// Fails when an escape layer fails its cycle certification, the
/// full-mesh calibration pair diverges, or a real point was poisoned.
fn engine_zoo(args: &Args) -> Result<(), String> {
    let fidelity = args.get_or("fidelity", Fidelity::Quick)?;
    let cfg = ZooConfig {
        sizes: args.get_list_or("sizes", &[64usize, 256])?,
        hosts_per_switch: args.get_or("hosts", 4usize)?,
        adaptive_fraction: args.get_or("adaptive", 1.0f64)?,
        fidelity,
        seed: args.get_or("seed", 100u64)?,
    };
    let (campaign, executor, cache) = campaigns::zoo_campaign(&cfg)?;
    eprintln!(
        "engine_zoo: {:?} fidelity, sizes {:?}, {} hosts/switch, {:.0}% adaptive, {} points",
        fidelity,
        cfg.sizes,
        cfg.hosts_per_switch,
        cfg.adaptive_fraction * 100.0,
        campaign.specs.len()
    );
    let points = campaigns::drive(args, campaign, executor, |points| {
        engine_zoo::document_from_cells(&cfg, points)
    })?;
    let (hits, misses) = cache.stats();
    eprintln!("engine_zoo: topology cache: {hits} hits / {misses} builds");
    let Some(points) = points else {
        return Ok(());
    };

    println!("topology      switches  engine    escape_acyclic  saturation B/ns/sw");
    for p in &points {
        println!(
            "{:<12}  {:>8}  {:<8}  escape_acyclic: {:<5}  {}",
            p.get("topology").and_then(Json::as_str).unwrap_or("?"),
            p.get("switches").and_then(Json::as_u64).unwrap_or(0),
            p.get("engine").and_then(Json::as_str).unwrap_or("?"),
            p.get("escape_acyclic")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            p.get("saturation")
                .and_then(Json::as_f64)
                .map(|s| format!("{s:.4}"))
                .unwrap_or_else(|| "-".into()),
        );
    }
    engine_zoo::verify_cells(&points)
}

pub const RECOVERY_SCALING: Command = Command {
    name: "recovery-scaling",
    about: "full SM rebuild vs incremental re-sweep over fabric size (DESIGN.md §13)",
    positional: &[],
    flags: &[
        &[
            Flag::value("sizes", "a,b", "fabric sizes, switches [8,16,32,64]"),
            Flag::value("seed", "N", "seed [8]"),
            Flag::value("per-smp-ns", "N", "wire cost of one SMP [1000]"),
        ],
        RUNNER_FLAGS,
    ],
    run: recovery_scaling,
};

/// Fails when a hard gate fails (LFT divergence, escape cycle, or an
/// incremental point that saves nothing) or a real size was poisoned.
fn recovery_scaling(args: &Args) -> Result<(), String> {
    let sizes = args.get_list_or("sizes", &[8usize, 16, 32, 64])?;
    let seed = args.get_or("seed", 8u64)?;
    let per_smp_ns = args.get_or("per-smp-ns", 1_000u64)?;
    let (campaign, executor) = campaigns::recovery_campaign(&sizes, seed, per_smp_ns)?;
    eprintln!("recovery_scaling: sizes {sizes:?}, seed {seed}, {per_smp_ns} ns/SMP");
    let Some(cells) = campaigns::drive(args, campaign, executor, |cells| {
        recovery::document_from_cells(&sizes, seed, per_smp_ns, cells)
    })?
    else {
        return Ok(());
    };

    println!("switches  policy       SMPs    blocks(up/total)    rec µs  match  acyclic");
    for cell in &cells {
        let p = RecoveryPoint::from_json(cell)?;
        println!(
            "{:>8}  {:<11} {:>6}  {:>8}/{:<8}  {:>8.1}  {:>5}  {:>7}",
            p.switches,
            p.policy,
            p.smps,
            p.blocks_uploaded,
            p.blocks_total,
            p.recovery_time_ns as f64 / 1_000.0,
            p.lfts_match,
            p.escape_acyclic,
        );
    }
    recovery::verify_cells(&cells)
}
