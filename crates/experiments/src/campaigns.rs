//! Campaign definitions bridging the experiment modules onto the
//! crash-safe [`iba_campaign`] runner (DESIGN.md §16).
//!
//! Each campaign command (`iba chaos`, `iba engine-zoo`,
//! `iba recovery-scaling`) is a thin shell over four pieces defined here:
//!
//! 1. a **declarative campaign** — one [`RunSpec`] per sweep cell, with
//!    a stable id and pure-data parameters, so an interrupted sweep can
//!    be resumed from the journal alone;
//! 2. an **executor** — interprets a spec, runs the experiment cell,
//!    and returns the *rendered* per-cell JSON (the exact `cells[]` /
//!    `points[]` / `curve[]` element of the final document), making a
//!    resumed document byte-identical to an uninterrupted one;
//! 3. a shared [`ArtifactCache`] so cells on the same `(topology,
//!    seed)` fabric compile it once across workers;
//! 4. [`drive`], the one driver: supervision flags, journal, poisoned
//!    runs, the document and the campaign digest.
//!
//! The `--inject-panic` / `--inject-hang` switches append synthetic
//! always-failing specs: CI uses them to pin the supervision contract —
//! a panicking or hanging run must end as a *recorded poisoned run*, not
//! a dead sweep.

use crate::chaos::{self, ChaosArtifact};
use crate::cli::{Args, Flag};
use crate::engine_zoo::{self, ZooConfig};
use crate::recovery;
use iba_campaign::{
    digest_hex, run_campaign, write_atomic, ArtifactCache, Campaign, Executor, FabricKey, RunSpec,
    RunStatus, RunnerOpts,
};
use iba_core::Json;
use iba_sim::RecoveryPolicy;
use iba_topology::Topology;
use std::sync::Arc;

/// The output and supervision flags every campaign command takes.
pub const RUNNER_FLAGS: &[Flag] = &[
    Flag::value("out", "PATH", "results document [results/<campaign>.json]"),
    Flag::value("journal", "PATH", "run journal [<out>.journal.jsonl]"),
    Flag::switch("resume", "continue an interrupted sweep from its journal"),
    Flag::value("workers", "N", "supervised worker threads [one per core]"),
    Flag::value("attempts", "N", "attempts before a run is poisoned [3]"),
    Flag::value("timeout-ms", "N", "per-attempt timeout [600000]"),
    Flag::value("halt-after", "N", "stop after N new runs, journal kept"),
    Flag::switch("quiet", "no per-run progress lines"),
    Flag::switch("inject-panic", "add a run that panics (supervision check)"),
    Flag::switch("inject-hang", "add a run that hangs (supervision check)"),
];

/// Parse the supervision flags into runner options plus the resume
/// switch.
fn runner_opts(args: &Args) -> Result<(RunnerOpts, bool), String> {
    let defaults = RunnerOpts::default();
    let halt_after = args.get_or("halt-after", 0usize)?;
    let opts = RunnerOpts {
        workers: args.get_or("workers", defaults.workers)?,
        max_attempts: args.get_or("attempts", defaults.max_attempts)?,
        timeout_ms: args.get_or("timeout-ms", defaults.timeout_ms)?,
        halt_after: (halt_after > 0).then_some(halt_after),
        quiet: args.switch("quiet"),
        ..defaults
    };
    Ok((opts, args.switch("resume")))
}

/// Append the synthetic failure specs CI's poisoned-run gate drives.
fn push_injected(campaign: &mut Campaign, panic: bool, hang: bool) {
    let prefix = campaign.name.clone();
    for (on, kind) in [(panic, "injected-panic"), (hang, "injected-hang")] {
        if on {
            campaign.push(RunSpec::new(
                format!("{prefix}/{kind}"),
                kind,
                Json::object(),
            ));
        }
    }
}

/// Wrap an executor so the synthetic `injected-panic` / `injected-hang`
/// specs misbehave on purpose; everything else passes through.
fn with_injections(inner: Executor) -> Executor {
    Arc::new(move |spec: &RunSpec| match spec.experiment.as_str() {
        "injected-panic" => panic!("injected panic (spec {})", spec.id),
        "injected-hang" => loop {
            std::thread::sleep(std::time::Duration::from_millis(50));
        },
        _ => inner(spec),
    })
}

/// Run `campaign` under the flags of [`RUNNER_FLAGS`], write the
/// document `document` renders from the completed cells to `--out`, and
/// return those cells — `None` when `--halt-after` stopped the sweep
/// first. A run's result is one cell, or an array of cells flattened in
/// campaign order.
///
/// Poisoned runs are reported and left out of the document. A poisoned
/// run that was not injected is an error once the document is written:
/// the command's gates cannot pass on missing data.
pub fn drive(
    args: &Args,
    mut campaign: Campaign,
    executor: Executor,
    document: impl FnOnce(&[Json]) -> String,
) -> Result<Option<Vec<Json>>, String> {
    let name = campaign.name.clone();
    let out = args
        .get("out")
        .map_or_else(|| format!("results/{name}.json"), str::to_string);
    let journal = args
        .get("journal")
        .map_or_else(|| format!("{out}.journal.jsonl"), str::to_string);
    let (opts, resume) = runner_opts(args)?;
    push_injected(
        &mut campaign,
        args.switch("inject-panic"),
        args.switch("inject-hang"),
    );
    let outcome = run_campaign(
        &campaign,
        with_injections(executor),
        &journal,
        &opts,
        resume,
    )?;
    if outcome.halted {
        eprintln!(
            "{name}: halted after {} new runs; journal kept at {journal}; rerun with --resume",
            outcome.executed
        );
        return Ok(None);
    }

    let poisoned = outcome.poisoned_ids();
    let mut real_poisoned = Vec::new();
    for id in &poisoned {
        let rec = outcome.record_for(id);
        let err = rec.and_then(|r| r.error.clone()).unwrap_or_default();
        eprintln!("{name}: POISONED {id}: {err}");
        if rec.is_some_and(|r| !r.experiment.starts_with("injected-")) {
            real_poisoned.push(id.to_string());
        }
    }
    let cells: Vec<Json> = outcome
        .records
        .iter()
        .filter(|r| r.status == RunStatus::Ok && !r.experiment.starts_with("injected-"))
        .flat_map(|r| match r.result.as_arr() {
            Some(cells) => cells.to_vec(),
            None => vec![r.result.clone()],
        })
        .collect();

    write_atomic(&out, document(&cells)).map_err(|e| e.to_string())?;
    eprintln!(
        "{name}: wrote {out} (campaign digest {})",
        digest_hex(outcome.digest())
    );
    if !poisoned.is_empty() {
        eprintln!(
            "{name}: {} poisoned runs excluded from the document (see journal {journal})",
            poisoned.len()
        );
    }
    if !real_poisoned.is_empty() {
        return Err(format!(
            "{} runs poisoned ({}); the gates cannot pass on missing data",
            real_poisoned.len(),
            real_poisoned.join(", ")
        ));
    }
    Ok(Some(cells))
}

// ---------------------------------------------------------------- chaos

/// The chaos sweep grid, declaratively.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    /// Fabric sizes (switches).
    pub sizes: Vec<usize>,
    /// Seeds per (size, mix) cell.
    pub seeds: u64,
    /// First seed.
    pub base_seed: u64,
    /// Mix-name subset of [`chaos::MIXES`] to run (campaign order).
    pub mixes: Vec<String>,
}

/// One [`RunSpec`] per (size, mix, seed) cell, ids like
/// `chaos/links/n8/s100`.
pub fn chaos_campaign(plan: &ChaosPlan) -> Result<Campaign, String> {
    let mut campaign = Campaign::new("chaos");
    for &size in &plan.sizes {
        for (mix_index, mix) in chaos::MIXES.iter().enumerate() {
            if !plan.mixes.iter().any(|m| m == mix.name) {
                continue;
            }
            for s in 0..plan.seeds {
                let seed = plan.base_seed + s;
                campaign.push(RunSpec::new(
                    format!("chaos/{}/n{size}/s{seed}", mix.name),
                    "chaos-cell",
                    Json::obj([
                        ("mix", Json::from(mix.name)),
                        ("mix_index", Json::from(mix_index as u64)),
                        ("size", Json::from(size)),
                        ("seed", Json::from(seed)),
                    ]),
                ));
            }
        }
    }
    campaign.validate()?;
    Ok(campaign)
}

/// The chaos executor plus its fabric cache (for the final stats line).
/// Cells sharing a `(size, seed, apm?)` fabric compile topology and
/// routing once.
pub fn chaos_executor() -> (Executor, Arc<ArtifactCache<ChaosArtifact>>) {
    let cache: Arc<ArtifactCache<ChaosArtifact>> = Arc::new(ArtifactCache::new());
    let shared = cache.clone();
    let executor: Executor = Arc::new(move |spec: &RunSpec| {
        let mix_name = spec.param_str("mix")?;
        let mix = chaos::mix_by_name(mix_name)
            .ok_or_else(|| format!("{}: unknown mix {mix_name:?}", spec.id))?;
        let mix_index = spec.param_u64("mix_index")?;
        let size = spec.param_u64("size")? as usize;
        let seed = spec.param_u64("seed")?;
        let apm = mix.policy == RecoveryPolicy::ApmMigrate;
        let topo_spec = if apm {
            format!("irregular{size}+apm")
        } else {
            format!("irregular{size}")
        };
        let artifact = shared.get_or_build(&FabricKey::new(topo_spec, seed, 0), || {
            chaos::build_artifact(size, seed, apm).map_err(|e| e.to_string())
        })?;
        let run = chaos::run_one_with(&artifact, mix, mix_index, seed)
            .map_err(|e| format!("{}: {e}", spec.id))?;
        Ok(chaos::cell_json(&run))
    });
    (executor, cache)
}

// ----------------------------------------------------------- engine zoo

/// The zoo as a campaign: one [`RunSpec`] per (topology, engine) point
/// of `engine_zoo::plan` (whose skip rules and stderr notes apply),
/// ids like `zoo/torus4x4/outflank`; its executor; and the topology
/// cache through which both engines of a pair sweep the identical
/// generated fabric.
pub fn zoo_campaign(
    cfg: &ZooConfig,
) -> Result<(Campaign, Executor, Arc<ArtifactCache<Topology>>), String> {
    let grid = engine_zoo::plan(cfg);
    let mut campaign = Campaign::new("engine_zoo");
    for (point, (spec, engine)) in grid.iter().enumerate() {
        let id = format!("zoo/{}/{engine}", spec.name());
        campaign.push(RunSpec::new(id, "zoo-point", Json::obj([("point", point)])));
    }
    campaign.validate()?;
    let cache: Arc<ArtifactCache<Topology>> = Arc::new(ArtifactCache::new());
    let shared = cache.clone();
    let cfg = cfg.clone();
    let executor: Executor = Arc::new(move |spec: &RunSpec| {
        let (topo_spec, engine) = &grid[spec.param_u64("point")? as usize];
        let name = topo_spec.name();
        let topo = shared.get_or_build(&FabricKey::new(name.clone(), cfg.seed, 0), || {
            topo_spec.generate(cfg.seed).map_err(|e| e.to_string())
        })?;
        let point = engine_zoo::run_engine_named(&topo, name, engine, &cfg)
            .map_err(|e| format!("{}: {e}", spec.id))?;
        Ok(engine_zoo::point_json(&point))
    });
    Ok((campaign, executor, cache))
}

// ------------------------------------------------------------- recovery

/// Recovery scaling as a campaign: one [`RunSpec`] per fabric size, ids
/// like `recovery/n16`, and its executor, whose run recovers the twin
/// fabrics of one size under both policies and yields the `(full,
/// incremental)` pair of curve points as a two-element array.
pub fn recovery_campaign(
    sizes: &[usize],
    seed: u64,
    per_smp_ns: u64,
) -> Result<(Campaign, Executor), String> {
    let mut campaign = Campaign::new("recovery_scaling");
    for &size in sizes {
        let id = format!("recovery/n{size}");
        campaign.push(RunSpec::new(
            id,
            "recovery-pair",
            Json::obj([("size", size)]),
        ));
    }
    campaign.validate()?;
    let executor: Executor = Arc::new(move |spec: &RunSpec| {
        let size = spec.param_u64("size")? as usize;
        let (full, inc) =
            recovery::run_size(size, seed, per_smp_ns).map_err(|e| format!("{}: {e}", spec.id))?;
        Ok(Json::arr([
            recovery::point_json(&full),
            recovery::point_json(&inc),
        ]))
    });
    Ok((campaign, executor))
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::cli::Command;

    const CMD: Command = Command {
        name: "campaign",
        about: "test",
        positional: &[],
        flags: &[RUNNER_FLAGS],
        run: |_| Ok(()),
    };

    fn parse(v: &[&str]) -> Args {
        Args::parse(&CMD, v.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn runner_flags_parse() {
        let args = parse(&[
            "--workers",
            "2",
            "--attempts",
            "5",
            "--timeout-ms",
            "1234",
            "--halt-after",
            "3",
            "--resume",
            "--quiet",
        ]);
        let (opts, resume) = runner_opts(&args).unwrap();
        assert_eq!(opts.workers, 2);
        assert_eq!(opts.max_attempts, 5);
        assert_eq!(opts.timeout_ms, 1234);
        assert_eq!(opts.halt_after, Some(3));
        assert!(opts.quiet);
        assert!(resume);
        let (opts, resume) = runner_opts(&parse(&[])).unwrap();
        assert_eq!(opts.halt_after, None);
        assert!(!resume);
        assert!(!opts.quiet);
    }

    #[test]
    fn chaos_campaign_covers_the_grid_with_stable_ids() {
        let plan = ChaosPlan {
            sizes: vec![8, 16],
            seeds: 2,
            base_seed: 100,
            mixes: vec!["links".into(), "everything".into()],
        };
        let c = chaos_campaign(&plan).unwrap();
        assert_eq!(c.specs.len(), 2 * 2 * 2);
        assert_eq!(c.specs[0].id, "chaos/links/n8/s100");
        assert!(c.specs.iter().any(|s| s.id == "chaos/everything/n16/s101"));
        // Mix order follows the MIXES catalogue, not the filter order.
        let plan_rev = ChaosPlan {
            mixes: vec!["everything".into(), "links".into()],
            ..plan
        };
        let c2 = chaos_campaign(&plan_rev).unwrap();
        assert_eq!(
            c.specs.iter().map(|s| &s.id).collect::<Vec<_>>(),
            c2.specs.iter().map(|s| &s.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn injected_specs_misbehave_only_for_their_kinds() {
        let mut c = Campaign::new("t");
        push_injected(&mut c, true, true);
        assert_eq!(c.specs.len(), 2);
        let inner: Executor = Arc::new(|_| Ok(Json::from(1u64)));
        let wrapped = with_injections(inner);
        let normal = RunSpec::new("t/x", "anything", Json::object());
        assert!(wrapped(&normal).is_ok());
        let p = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| wrapped(&c.specs[0])));
        assert!(p.is_err(), "injected-panic spec must panic");
    }

    #[test]
    fn zoo_campaign_matches_the_plan_grid() {
        let cfg = ZooConfig {
            sizes: vec![16],
            hosts_per_switch: 2,
            adaptive_fraction: 1.0,
            fidelity: crate::Fidelity::Quick,
            seed: 3,
        };
        let (c, _, _) = zoo_campaign(&cfg).unwrap();
        let ids: Vec<&str> = c.specs.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "zoo/torus4x4/updown",
                "zoo/torus4x4/outflank",
                "zoo/fullmesh16/updown",
                "zoo/fullmesh16/fullmesh"
            ]
        );
    }

    #[test]
    fn recovery_campaign_is_one_spec_per_size() {
        let (c, _) = recovery_campaign(&[8, 16, 32], 8, 1_000).unwrap();
        let ids: Vec<&str> = c.specs.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(ids, ["recovery/n8", "recovery/n16", "recovery/n32"]);
        assert_eq!(
            c.specs[1].params.get("size").and_then(Json::as_u64),
            Some(16)
        );
    }
}
