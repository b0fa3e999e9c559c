//! Recovery-scaling curve (DESIGN.md §13): full SM rebuild vs
//! incremental re-sweep, SMP wire cost over fabric size — run under the
//! crash-safe campaign runner (DESIGN.md §16).
//!
//! ```text
//! cargo run --release -p iba-experiments --bin recovery_scaling -- \
//!     [--sizes 8,16,32,64] [--seed 8] [--per-smp-ns 1000] \
//!     [--out results/recovery_scaling.json] [--journal <path>] \
//!     [--resume] [--workers N] [--attempts 3] [--timeout-ms 600000] \
//!     [--quiet] [--halt-after N] [--inject-panic] [--inject-hang]
//! ```
//!
//! Exits non-zero when any hard gate fails (LFT divergence, escape
//! cycle, or an incremental point that saves nothing), or when a real
//! (non-injected) size was poisoned — the gates cannot pass on missing
//! data.

use iba_campaign::{digest_hex, run_campaign, write_atomic, RunStatus};
use iba_core::Json;
use iba_experiments::campaigns;
use iba_experiments::cli::Args;
use iba_experiments::recovery::{self, RecoveryPoint};

fn main() {
    if let Err(e) = real_main() {
        eprintln!("recovery_scaling: {e}");
        std::process::exit(1);
    }
}

fn real_main() -> Result<(), String> {
    let args = Args::from_env()?;
    let sizes = args.get_list_or("sizes", &[8usize, 16, 32, 64])?;
    let seed = args.get_or("seed", 8u64)?;
    let per_smp_ns = args.get_or("per-smp-ns", 1_000u64)?;
    let out = args
        .get("out")
        .unwrap_or("results/recovery_scaling.json")
        .to_string();
    let journal = campaigns::journal_path(&args, &out);
    let (opts, resume) = campaigns::runner_opts(&args)?;

    let mut campaign = campaigns::recovery_campaign(&sizes, seed, per_smp_ns)?;
    campaigns::push_injected(
        &mut campaign,
        args.get_bool("inject-panic"),
        args.get_bool("inject-hang"),
    );
    let executor = campaigns::with_injections(campaigns::recovery_executor());

    eprintln!("recovery_scaling: sizes {sizes:?}, seed {seed}, {per_smp_ns} ns/SMP");
    let outcome = run_campaign(&campaign, executor, &journal, &opts, resume)?;
    if outcome.halted {
        eprintln!(
            "recovery_scaling: halted after {} new runs; journal kept at {journal}; \
             rerun with --resume",
            outcome.executed
        );
        return Ok(());
    }

    let mut real_poisoned = Vec::new();
    for id in outcome.poisoned_ids() {
        let rec = outcome.record_for(id);
        let err = rec.and_then(|r| r.error.clone()).unwrap_or_default();
        eprintln!("recovery_scaling: POISONED {id}: {err}");
        if rec
            .map(|r| r.experiment == "recovery-pair")
            .unwrap_or(false)
        {
            real_poisoned.push(id.to_string());
        }
    }
    // Each record's result is the (full, incremental) pair; flatten in
    // campaign (size) order.
    let cells: Vec<Json> = outcome
        .records
        .iter()
        .filter(|r| r.status == RunStatus::Ok && r.experiment == "recovery-pair")
        .flat_map(|r| r.result.as_arr().unwrap_or(&[]).to_vec())
        .collect();

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

    let json = recovery::document_from_cells(&sizes, seed, per_smp_ns, &cells);
    write_atomic(&out, json).map_err(|e| e.to_string())?;
    eprintln!(
        "recovery_scaling: wrote {out} (campaign digest {})",
        digest_hex(outcome.digest())
    );

    if !real_poisoned.is_empty() {
        return Err(format!(
            "{} sizes poisoned ({}); the recovery gates cannot pass on missing data",
            real_poisoned.len(),
            real_poisoned.join(", ")
        ));
    }
    recovery::verify_cells(&cells)?;
    Ok(())
}
