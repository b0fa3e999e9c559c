//! End-to-end crash/resume contract on a real experiment campaign: a
//! chaos sweep interrupted after N runs and resumed must produce a
//! final results document byte-identical to an uninterrupted sweep,
//! re-executing zero completed cells.

use iba_campaign::{run_campaign, Executor, RunStatus, RunnerOpts};
use iba_core::Json;
use iba_experiments::campaigns::{self, ChaosPlan};
use iba_experiments::chaos;
use iba_experiments::cli::{Args, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "iba-exp-resume-{}-{}-{name}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

fn counting(inner: Executor, counter: Arc<AtomicU64>) -> Executor {
    Arc::new(move |spec| {
        counter.fetch_add(1, Ordering::Relaxed);
        inner(spec)
    })
}

fn quick_opts() -> RunnerOpts {
    RunnerOpts {
        workers: 2,
        quiet: true,
        ..RunnerOpts::default()
    }
}

fn document(plan: &ChaosPlan, records: &[iba_campaign::RunRecord]) -> String {
    let cells: Vec<Json> = records
        .iter()
        .filter(|r| r.status == RunStatus::Ok && r.experiment == "chaos-cell")
        .map(|r| r.result.clone())
        .collect();
    let mixes: Vec<&str> = plan.mixes.iter().map(String::as_str).collect();
    chaos::document_from_cells(&plan.sizes, &mixes, plan.seeds, plan.base_seed, &cells)
}

#[test]
fn interrupted_chaos_campaign_resumes_byte_identical() {
    // Small but real: 1 size × 2 mixes × 2 seeds = 4 full chaos cells,
    // each simulating both queue backends to drain.
    let plan = ChaosPlan {
        sizes: vec![8],
        seeds: 2,
        base_seed: 42,
        mixes: vec!["links".into(), "switch-death".into()],
    };
    let campaign = campaigns::chaos_campaign(&plan).unwrap();
    assert_eq!(campaign.specs.len(), 4);

    // Uninterrupted reference sweep.
    let (ref_exec, _) = campaigns::chaos_executor();
    let ref_journal = scratch("ref.jsonl");
    let reference = run_campaign(&campaign, ref_exec, &ref_journal, &quick_opts(), false).unwrap();
    assert_eq!(reference.executed, 4);
    let ref_doc = document(&plan, &reference.records);
    assert!(ref_doc.contains("\"experiment\": \"chaos\""));

    // Interrupted sweep: stop after 2 completed runs (the journal keeps
    // them), then resume with a *fresh* executor and artifact cache —
    // exactly what a new process after a crash has.
    let executions = Arc::new(AtomicU64::new(0));
    let journal = scratch("halted.jsonl");
    let (exec1, _) = campaigns::chaos_executor();
    let halted = run_campaign(
        &campaign,
        counting(exec1, executions.clone()),
        &journal,
        &RunnerOpts {
            workers: 1,
            halt_after: Some(2),
            ..quick_opts()
        },
        false,
    )
    .unwrap();
    assert!(halted.halted);
    assert_eq!(halted.executed, 2);

    let (exec2, cache) = campaigns::chaos_executor();
    let resumed = run_campaign(
        &campaign,
        counting(exec2, executions.clone()),
        &journal,
        &quick_opts(),
        true,
    )
    .unwrap();
    assert_eq!(resumed.resumed, 2, "both journalled runs must be reused");
    assert_eq!(resumed.executed, 2);
    assert_eq!(
        executions.load(Ordering::Relaxed),
        4,
        "every cell executes exactly once across the interruption"
    );
    // The resumed half builds only the fabrics it still needs.
    let (_, misses) = cache.stats();
    assert!(
        misses <= 2,
        "resume must not rebuild completed cells' fabrics"
    );

    // The headline guarantee: byte-identical final document and equal
    // campaign digest.
    assert_eq!(document(&plan, &resumed.records), ref_doc);
    assert_eq!(resumed.digest(), reference.digest());

    std::fs::remove_file(&journal).unwrap();
    std::fs::remove_file(&ref_journal).unwrap();
}

#[test]
fn injected_failures_poison_without_sinking_the_sweep() {
    const CMD: Command = Command {
        name: "chaos",
        about: "",
        positional: &[],
        flags: &[campaigns::RUNNER_FLAGS],
        run: |_| Ok(()),
    };
    let plan = ChaosPlan {
        sizes: vec![8],
        seeds: 1,
        base_seed: 7,
        mixes: vec!["links".into()],
    };
    let campaign = campaigns::chaos_campaign(&plan).unwrap();
    let (exec, _) = campaigns::chaos_executor();
    let out = scratch("poisoned.json");
    let raw = [
        "--out",
        out.to_str().unwrap(),
        "--inject-panic",
        "--inject-hang",
        "--workers",
        "2",
        "--attempts",
        "2",
        "--timeout-ms",
        "300",
        "--quiet",
    ];
    let args = Args::parse(&CMD, raw.map(String::from)).unwrap();
    let mixes: Vec<&str> = plan.mixes.iter().map(String::as_str).collect();
    // The injected runs are poisoned and left out; the real cell is not,
    // so the sweep completes without an error.
    let cells = campaigns::drive(&args, campaign, exec, |cells| {
        chaos::document_from_cells(&plan.sizes, &mixes, plan.seeds, plan.base_seed, cells)
    })
    .unwrap()
    .expect("the sweep ran to the end");
    assert_eq!(cells.len(), 1);
    assert_eq!(cells[0].get("mix").and_then(Json::as_str), Some("links"));
    assert!(std::fs::read_to_string(&out)
        .unwrap()
        .contains("\"experiment\": \"chaos\""));

    let journal = format!("{}.journal.jsonl", out.display());
    let records = std::fs::read_to_string(&journal).unwrap();
    let poisoned: Vec<&str> = records
        .lines()
        .filter(|l| l.contains("\"status\":\"poisoned\""))
        .collect();
    assert_eq!(poisoned.len(), 2, "{records}");
    assert!(
        poisoned[0].contains("chaos/injected-panic")
            || poisoned[1].contains("chaos/injected-panic")
    );
    assert!(records.contains("injected panic"), "{records}");
    assert!(records.contains("timed out"), "{records}");
    std::fs::remove_file(&journal).unwrap();
    std::fs::remove_file(&out).unwrap();
}

#[test]
fn resume_under_another_seed_is_refused() {
    // recovery/n8 is journalled at seed 8; the same ids at seed 9 must
    // not be served the seed-8 cell.
    let journal = scratch("reseeded.jsonl");
    let (campaign, exec) = campaigns::recovery_campaign(&[8, 16], 8, 1_000).unwrap();
    let halted = run_campaign(
        &campaign,
        exec,
        &journal,
        &RunnerOpts {
            workers: 1,
            halt_after: Some(1),
            ..quick_opts()
        },
        false,
    )
    .unwrap();
    assert!(halted.halted);
    assert_eq!(halted.records[0].spec_id, "recovery/n8");

    let (reseeded, exec) = campaigns::recovery_campaign(&[8, 16], 9, 1_000).unwrap();
    let err = run_campaign(&reseeded, exec, &journal, &quick_opts(), true).unwrap_err();
    assert!(
        err.contains("\"recovery/n8\"") && err.contains("\"seed\":9"),
        "{err}"
    );
    std::fs::remove_file(&journal).unwrap();
}
