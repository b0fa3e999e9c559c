//! Supervision contract of the campaign runner: panic isolation,
//! hang containment via wall-clock timeout, retry with backoff,
//! poisoning after budget exhaustion — and the crash/resume identity:
//! an interrupted campaign, resumed, yields byte-identical output to
//! an uninterrupted one with zero re-executed runs.

use iba_campaign::{
    replay, run_campaign, Campaign, Executor, RunRecord, RunSpec, RunStatus, RunnerOpts,
};
use iba_core::Json;
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "iba-runner-{}-{}-{name}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Executor whose behaviour is scripted by the spec's `kind` param;
/// records per-spec execution counts so tests can assert zero re-runs.
fn scripted(counts: Arc<Mutex<HashMap<String, u32>>>) -> Executor {
    Arc::new(move |spec: &RunSpec| {
        let attempt_no = {
            let mut c = counts.lock().unwrap();
            let e = c.entry(spec.id.clone()).or_insert(0);
            *e += 1;
            *e
        };
        match spec.param_str("kind")? {
            "ok" => Ok(Json::obj([
                ("id", Json::from(spec.id.as_str())),
                ("value", Json::from(spec.param_u64("value")?)),
            ])),
            "flaky" => {
                // Fails until the scripted attempt, then succeeds.
                if u64::from(attempt_no) < spec.param_u64("succeed_on")? {
                    Err(format!("{}: transient failure", spec.id))
                } else {
                    Ok(Json::obj([("recovered_after", Json::from(attempt_no))]))
                }
            }
            "panic" => panic!("injected panic in {}", spec.id),
            "hang" => loop {
                std::thread::sleep(std::time::Duration::from_millis(25));
            },
            other => Err(format!("unknown kind {other:?}")),
        }
    })
}

fn ok_spec(i: u64) -> RunSpec {
    RunSpec::new(
        format!("t/ok-{i}"),
        "scripted",
        Json::obj([("kind", Json::from("ok")), ("value", Json::from(i * 10))]),
    )
}

fn quick_opts() -> RunnerOpts {
    RunnerOpts {
        workers: 3,
        max_attempts: 3,
        timeout_ms: 200,
        halt_after: None,
        quiet: true,
    }
}

#[test]
fn panics_hangs_and_flakes_are_contained() {
    let mut campaign = Campaign::new("supervision");
    for i in 0..4 {
        campaign.push(ok_spec(i));
    }
    campaign.push(RunSpec::new(
        "t/flaky",
        "scripted",
        Json::obj([
            ("kind", Json::from("flaky")),
            ("succeed_on", Json::from(3u64)),
        ]),
    ));
    campaign.push(RunSpec::new(
        "t/panicker",
        "scripted",
        Json::obj([("kind", Json::from("panic"))]),
    ));
    campaign.push(RunSpec::new(
        "t/hanger",
        "scripted",
        Json::obj([("kind", Json::from("hang"))]),
    ));

    let counts = Arc::new(Mutex::new(HashMap::new()));
    let journal = scratch("contained.jsonl");
    let outcome = run_campaign(
        &campaign,
        scripted(counts.clone()),
        &journal,
        &quick_opts(),
        false,
    )
    .unwrap();

    assert_eq!(outcome.total, 7);
    assert_eq!(outcome.executed, 7);
    assert_eq!(outcome.resumed, 0);
    assert!(!outcome.halted);
    // Records come back in campaign order regardless of worker timing.
    let ids: Vec<&str> = outcome.records.iter().map(|r| r.spec_id.as_str()).collect();
    assert_eq!(
        ids,
        [
            "t/ok-0",
            "t/ok-1",
            "t/ok-2",
            "t/ok-3",
            "t/flaky",
            "t/panicker",
            "t/hanger"
        ]
    );

    // The flaky run retried to success and no other run lost anything.
    let flaky = outcome.record_for("t/flaky").unwrap();
    assert_eq!(flaky.status, RunStatus::Ok);
    assert_eq!(flaky.attempts, 3);
    assert_eq!(
        flaky.result.get("recovered_after").unwrap().as_u64(),
        Some(3)
    );

    // The panicker is poisoned with its payload, not aborting the sweep.
    let p = outcome.record_for("t/panicker").unwrap();
    assert_eq!(p.status, RunStatus::Poisoned);
    assert_eq!(p.attempts, 3);
    assert!(
        p.error
            .as_deref()
            .unwrap()
            .contains("injected panic in t/panicker"),
        "{:?}",
        p.error
    );
    assert_eq!(
        counts.lock().unwrap()["t/panicker"],
        3,
        "panic retries honour the budget"
    );

    // The hanger is poisoned by the wall-clock timeout.
    let h = outcome.record_for("t/hanger").unwrap();
    assert_eq!(h.status, RunStatus::Poisoned);
    assert!(
        h.error
            .as_deref()
            .unwrap()
            .contains("timed out after 200 ms"),
        "{:?}",
        h.error
    );

    // Every ok run completed exactly once with its result intact.
    for i in 0..4 {
        let r = outcome.record_for(&format!("t/ok-{i}")).unwrap();
        assert_eq!(r.status, RunStatus::Ok);
        assert_eq!(r.result.get("value").unwrap().as_u64(), Some(i * 10));
        assert_eq!(counts.lock().unwrap()[&format!("t/ok-{i}")], 1);
    }
    assert_eq!(outcome.poisoned_ids(), ["t/panicker", "t/hanger"]);
    std::fs::remove_file(&journal).unwrap();
}

/// A failing spec waits out its backoff without holding a worker: with
/// one worker, a spec that fails once and is listed first lets the
/// healthy spec behind it finish — and be journaled — before its retry.
#[test]
fn a_retry_waits_in_the_next_round_not_on_a_worker() {
    let mut campaign = Campaign::new("rounds");
    campaign.push(RunSpec::new(
        "t/flaky",
        "scripted",
        Json::obj([
            ("kind", Json::from("flaky")),
            ("succeed_on", Json::from(2u64)),
        ]),
    ));
    campaign.push(ok_spec(0));
    let journal = scratch("rounds.jsonl");
    let outcome = run_campaign(
        &campaign,
        scripted(Arc::new(Mutex::new(HashMap::new()))),
        &journal,
        &RunnerOpts {
            workers: 1,
            ..quick_opts()
        },
        false,
    )
    .unwrap();
    let journaled: Vec<String> = (replay(&journal).unwrap().records.into_iter())
        .map(|r| r.spec_id)
        .collect();
    assert_eq!(journaled, ["t/ok-0", "t/flaky"]);
    let flaky = outcome.record_for("t/flaky").unwrap();
    assert_eq!(flaky.status, RunStatus::Ok);
    assert_eq!(flaky.attempts, 2);
    let ids: Vec<&str> = outcome.records.iter().map(|r| r.spec_id.as_str()).collect();
    assert_eq!(ids, ["t/flaky", "t/ok-0"], "records stay in campaign order");
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn interrupted_campaign_resumes_byte_identical_with_zero_reruns() {
    let mut campaign = Campaign::new("resume");
    for i in 0..6 {
        campaign.push(ok_spec(i));
    }

    // Uninterrupted reference run.
    let ref_counts = Arc::new(Mutex::new(HashMap::new()));
    let ref_journal = scratch("ref.jsonl");
    let reference = run_campaign(
        &campaign,
        scripted(ref_counts),
        &ref_journal,
        &quick_opts(),
        false,
    )
    .unwrap();
    assert!(!reference.halted);

    // Interrupted run: halt dispatch after 3 journal records, then
    // simulate the crash's torn write by appending half a record.
    let counts = Arc::new(Mutex::new(HashMap::new()));
    let journal = scratch("resumed.jsonl");
    let halted = run_campaign(
        &campaign,
        scripted(counts.clone()),
        &journal,
        &RunnerOpts {
            workers: 1,
            halt_after: Some(3),
            ..quick_opts()
        },
        false,
    )
    .unwrap();
    assert!(halted.halted);
    assert_eq!(halted.executed, 3);
    let executed_before: Vec<String> = counts.lock().unwrap().keys().cloned().collect();
    assert_eq!(executed_before.len(), 3);
    let mut f = OpenOptions::new().append(true).open(&journal).unwrap();
    f.write_all(b"{\"v\":2,\"spec_id\":\"t/ok-3\",\"status\":\"o")
        .unwrap();
    drop(f);

    // Resume: skips the 3 completed specs, executes the other 3.
    let resumed = run_campaign(
        &campaign,
        scripted(counts.clone()),
        &journal,
        &quick_opts(),
        true,
    )
    .unwrap();
    assert!(!resumed.halted);
    assert_eq!(resumed.resumed, 3);
    assert_eq!(resumed.executed, 3);
    // Zero re-executed runs: every spec ran exactly once across both
    // invocations.
    for (id, n) in counts.lock().unwrap().iter() {
        assert_eq!(*n, 1, "{id} was re-executed");
    }

    // Byte-identical final output: identical records, digests and
    // rendered documents.
    assert_eq!(resumed.records, reference.records);
    assert_eq!(resumed.digest(), reference.digest());
    let render = |records: &[RunRecord]| {
        Json::arr(records.iter().map(|r| r.result.clone())).to_string_pretty()
    };
    assert_eq!(render(&resumed.records), render(&reference.records));

    // The resume must have truncated the torn fragment before
    // appending: every line of the post-resume journal is a complete
    // record, so a *second* crash + resume replays clean instead of
    // dying on interior corruption.
    let rp = replay(&journal).unwrap();
    assert!(!rp.torn_tail, "resume left the torn fragment in place");
    assert_eq!(rp.records.len(), 6);
    let again = run_campaign(
        &campaign,
        scripted(counts.clone()),
        &journal,
        &quick_opts(),
        true,
    )
    .unwrap();
    assert_eq!(again.resumed, 6);
    assert_eq!(again.executed, 0);
    assert_eq!(again.records, reference.records);

    std::fs::remove_file(&journal).unwrap();
    std::fs::remove_file(&ref_journal).unwrap();
}

#[cfg(target_os = "linux")]
#[test]
fn journal_write_failure_is_an_error_not_a_clean_halt() {
    // /dev/full accepts opens but fails every write with ENOSPC — the
    // canonical disk-full stand-in. The campaign must surface that as
    // an error so a sweep whose journal stopped persisting can never
    // exit like a deliberate --halt-after stop.
    let mut campaign = Campaign::new("enospc");
    campaign.push(ok_spec(0));
    let counts = Arc::new(Mutex::new(HashMap::new()));
    let err = run_campaign(
        &campaign,
        scripted(counts),
        "/dev/full",
        &quick_opts(),
        false,
    )
    .unwrap_err();
    assert!(err.contains("journal write failed"), "{err}");
}

#[test]
fn fresh_run_refuses_a_populated_journal() {
    let mut campaign = Campaign::new("guard");
    campaign.push(ok_spec(0));
    let counts = Arc::new(Mutex::new(HashMap::new()));
    let journal = scratch("guard.jsonl");
    run_campaign(
        &campaign,
        scripted(counts.clone()),
        &journal,
        &quick_opts(),
        false,
    )
    .unwrap();
    let err = run_campaign(
        &campaign,
        scripted(counts.clone()),
        &journal,
        &quick_opts(),
        false,
    )
    .unwrap_err();
    assert!(err.contains("--resume"), "{err}");
    // Resuming a *complete* journal is a no-op that reproduces the run.
    let resumed = run_campaign(
        &campaign,
        scripted(counts.clone()),
        &journal,
        &quick_opts(),
        true,
    )
    .unwrap();
    assert_eq!(resumed.resumed, 1);
    assert_eq!(resumed.executed, 0);
    assert_eq!(counts.lock().unwrap()["t/ok-0"], 1);
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn journal_from_another_campaign_is_rejected_on_resume() {
    let mut a = Campaign::new("a");
    a.push(ok_spec(0));
    let counts = Arc::new(Mutex::new(HashMap::new()));
    let journal = scratch("foreign.jsonl");
    run_campaign(&a, scripted(counts.clone()), &journal, &quick_opts(), false).unwrap();
    let mut b = Campaign::new("b");
    b.push(ok_spec(1));
    let err = run_campaign(&b, scripted(counts), &journal, &quick_opts(), true).unwrap_err();
    assert!(err.contains("unknown spec"), "{err}");
    std::fs::remove_file(&journal).unwrap();
}
