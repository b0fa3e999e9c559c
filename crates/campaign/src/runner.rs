//! The supervised multi-worker campaign runner.
//!
//! Workers pull specs off a shared queue in campaign order. Every
//! attempt runs the executor on a *sacrificial* thread: a panic is
//! caught (`catch_unwind`) and a hang is abandoned after the per-run
//! wall-clock timeout — the worker simply stops waiting and the
//! runaway thread can never block the sweep. Failures retry with
//! bounded exponential backoff; once the attempt budget is spent the
//! run is journalled as poisoned with its last failure, and the sweep
//! continues. One fsync'd journal record per completed run means a
//! crash (or SIGKILL) loses at most the in-flight runs, never the
//! completed ones.

use crate::journal::{replay, truncate_torn_tail, Journal, RunRecord, RunStatus};
use crate::spec::{Campaign, RunSpec};
use iba_core::Json;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// The executor: interprets a [`RunSpec`] and returns its result
/// document. Shared across workers and cloned into each attempt's
/// sacrificial thread, hence the `Arc`.
pub type Executor = Arc<dyn Fn(&RunSpec) -> Result<Json, String> + Send + Sync>;

/// Supervision knobs.
#[derive(Clone, Debug)]
pub struct RunnerOpts {
    /// Worker threads (≥ 1).
    pub workers: usize,
    /// Attempts per run before it is recorded as poisoned (≥ 1).
    pub max_attempts: u32,
    /// First retry delay; doubles per attempt.
    pub backoff_base_ms: u64,
    /// Retry-delay ceiling.
    pub backoff_cap_ms: u64,
    /// Per-attempt wall-clock timeout.
    pub timeout_ms: u64,
    /// Stop dispatching after this many *new* journal records (test /
    /// CI hook standing in for a crash: the journal stays, the final
    /// output is not written).
    pub halt_after: Option<usize>,
    /// Suppress per-run progress lines.
    pub quiet: bool,
}

impl Default for RunnerOpts {
    fn default() -> RunnerOpts {
        RunnerOpts {
            workers: iba_core::par::default_workers(),
            max_attempts: 3,
            backoff_base_ms: 100,
            backoff_cap_ms: 5_000,
            timeout_ms: 600_000,
            halt_after: None,
            quiet: false,
        }
    }
}

/// What a campaign produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// One record per completed spec, in campaign (spec) order. When
    /// the run halted early, only completed specs are present.
    pub records: Vec<RunRecord>,
    /// Specs in the campaign.
    pub total: usize,
    /// Records recovered from the journal instead of re-executed.
    pub resumed: usize,
    /// Records newly executed by this invocation.
    pub executed: usize,
    /// Whether dispatch stopped early (`halt_after`).
    pub halted: bool,
}

impl CampaignOutcome {
    /// Spec ids of poisoned runs, in spec order.
    pub fn poisoned_ids(&self) -> Vec<&str> {
        self.records
            .iter()
            .filter(|r| r.status == RunStatus::Poisoned)
            .map(|r| r.spec_id.as_str())
            .collect()
    }

    /// The record for a spec id.
    pub fn record_for(&self, spec_id: &str) -> Option<&RunRecord> {
        self.records.iter().find(|r| r.spec_id == spec_id)
    }

    /// Campaign digest: per-run result digests folded in spec order.
    pub fn digest(&self) -> u64 {
        crate::digest::combine(self.records.iter().map(|r| r.digest))
    }
}

/// Exponential backoff with a ceiling: `base << (attempt-1)`, capped.
fn backoff_ms(opts: &RunnerOpts, attempt: u32) -> u64 {
    opts.backoff_base_ms
        .saturating_mul(1u64 << (attempt - 1).min(16))
        .min(opts.backoff_cap_ms)
}

/// Render a panic payload for the journal.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    format!("panicked: {text}")
}

/// One supervised attempt on a sacrificial thread.
///
/// Returns the executor's verdict, or an error string for a panic or a
/// timeout. On timeout the sacrificial thread is *abandoned* (it holds
/// only clones of the spec and executor, so nothing in the campaign
/// waits on it).
fn attempt(executor: &Executor, spec: &RunSpec, timeout: Duration) -> Result<Json, String> {
    let (tx, rx) = mpsc::channel();
    let ex = executor.clone();
    let sp = spec.clone();
    let spawned = std::thread::Builder::new()
        .name(format!("campaign-run-{}", sp.id))
        .spawn(move || {
            // The campaign's workers are the parallel level: a sweep
            // inside a run stays on this thread.
            let _in_pool = iba_core::par::enter_pool();
            let verdict = catch_unwind(AssertUnwindSafe(|| ex(&sp)));
            let _ = tx.send(verdict);
        });
    if let Err(e) = spawned {
        return Err(format!("failed to spawn run thread: {e}"));
    }
    match rx.recv_timeout(timeout) {
        Ok(Ok(Ok(result))) => Ok(result),
        Ok(Ok(Err(e))) => Err(e),
        Ok(Err(payload)) => Err(panic_message(payload)),
        Err(_) => Err(format!("timed out after {} ms", timeout.as_millis())),
    }
}

/// Run one spec to a terminal record: retry with backoff until the
/// attempt budget is spent, then poison.
fn supervise(executor: &Executor, spec: &RunSpec, opts: &RunnerOpts) -> RunRecord {
    let timeout = Duration::from_millis(opts.timeout_ms.max(1));
    let mut last_error = String::new();
    for n in 1..=opts.max_attempts.max(1) {
        match attempt(executor, spec, timeout) {
            Ok(result) => return RunRecord::ok(spec, n, result),
            Err(e) => last_error = e,
        }
        if n < opts.max_attempts {
            std::thread::sleep(Duration::from_millis(backoff_ms(opts, n)));
        }
    }
    RunRecord::poisoned(spec, opts.max_attempts.max(1), last_error)
}

struct Progress {
    journal: Journal,
    done: usize,
    new_records: Vec<RunRecord>,
    /// First journal-append failure, if any. Durability is gone at
    /// that point, so the campaign must end in an error — never be
    /// mistaken for a deliberate `halt_after` stop.
    io_error: Option<String>,
}

/// Execute (or resume) a campaign.
///
/// With `resume = false` the journal at `journal_path` must not hold
/// prior records (pass `--resume`, or remove it, to continue an
/// interrupted sweep — a fresh run never silently discards one).
/// With `resume = true` the journal is replayed (tolerating a torn
/// final line), completed specs are skipped, and the outcome contains
/// the union of recovered and newly executed records in spec order.
pub fn run_campaign(
    campaign: &Campaign,
    executor: Executor,
    journal_path: impl AsRef<Path>,
    opts: &RunnerOpts,
    resume: bool,
) -> Result<CampaignOutcome, String> {
    campaign.validate()?;
    let journal_path = journal_path.as_ref();
    let total = campaign.specs.len();

    // Recover completed work.
    let mut done: HashMap<String, RunRecord> = HashMap::new();
    let journal = if resume {
        let rp = replay(journal_path)?;
        if rp.torn_tail {
            eprintln!(
                "campaign {}: journal had a torn final line (crash mid-write); truncated",
                campaign.name
            );
            // Cut the fragment off before appending: gluing the next
            // record onto it would turn the tolerated torn tail into
            // hard interior corruption on the following replay.
            truncate_torn_tail(journal_path, rp.valid_len).map_err(|e| {
                format!(
                    "{}: truncating torn journal tail: {e}",
                    journal_path.display()
                )
            })?;
        }
        for rec in rp.records {
            if !campaign.specs.iter().any(|s| s.id == rec.spec_id) {
                return Err(format!(
                    "journal {} holds record for unknown spec {:?}; \
                     it belongs to a different campaign definition",
                    journal_path.display(),
                    rec.spec_id
                ));
            }
            done.insert(rec.spec_id.clone(), rec);
        }
        eprintln!(
            "campaign {}: resumed {}/{} runs from journal",
            campaign.name,
            done.len(),
            total
        );
        Journal::append_to(journal_path).map_err(|e| e.to_string())?
    } else {
        if std::fs::metadata(journal_path)
            .map(|m| m.len() > 0)
            .unwrap_or(false)
        {
            return Err(format!(
                "journal {} already holds records; pass --resume to continue the \
                 interrupted sweep or remove the file to start over",
                journal_path.display()
            ));
        }
        Journal::create(journal_path).map_err(|e| e.to_string())?
    };
    let resumed = done.len();

    let pending: VecDeque<RunSpec> = campaign
        .specs
        .iter()
        .filter(|s| !done.contains_key(&s.id))
        .cloned()
        .collect();
    let queue = Mutex::new(pending);
    let stop = AtomicBool::new(false);
    let progress = Mutex::new(Progress {
        journal,
        done: resumed,
        new_records: Vec::new(),
        io_error: None,
    });

    let workers = opts.workers.max(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let executor = executor.clone();
            let queue = &queue;
            let stop = &stop;
            let progress = &progress;
            let name = campaign.name.as_str();
            scope.spawn(move || loop {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Some(spec) = queue.lock().expect("queue lock poisoned").pop_front() else {
                    break;
                };
                let record = supervise(&executor, &spec, opts);
                let mut p = progress.lock().expect("progress lock poisoned");
                // A journal-append failure means durability is gone —
                // stop dispatching; completed records stay on disk and
                // the campaign ends in an error (not a clean halt).
                if let Err(e) = p.journal.append(&record) {
                    eprintln!("campaign {name}: journal write failed: {e}; halting");
                    if p.io_error.is_none() {
                        p.io_error = Some(e.to_string());
                    }
                    stop.store(true, Ordering::SeqCst);
                    break;
                }
                p.done += 1;
                let executed_now = p.new_records.len() + 1;
                if !opts.quiet {
                    let note = match record.status {
                        RunStatus::Ok => "ok".to_string(),
                        RunStatus::Poisoned => format!(
                            "POISONED after {} attempts: {}",
                            record.attempts,
                            record.error.as_deref().unwrap_or("")
                        ),
                    };
                    eprintln!("campaign {name}: [{}/{total}] {} {note}", p.done, spec.id);
                }
                p.new_records.push(record);
                if opts.halt_after.is_some_and(|n| executed_now >= n) {
                    stop.store(true, Ordering::SeqCst);
                    break;
                }
            });
        }
    });

    let halted = stop.load(Ordering::SeqCst);
    let progress = progress.into_inner().expect("progress lock poisoned");
    if let Some(e) = progress.io_error {
        return Err(format!(
            "journal write failed: {e}; {} completed runs remain in {}; \
             rerun with --resume once the journal is writable again",
            progress.done,
            journal_path.display()
        ));
    }
    for rec in progress.new_records {
        done.insert(rec.spec_id.clone(), rec);
    }
    let executed = done.len() - resumed;
    let records: Vec<RunRecord> = campaign
        .specs
        .iter()
        .filter_map(|s| done.remove(&s.id))
        .collect();
    Ok(CampaignOutcome {
        records,
        total,
        resumed,
        executed,
        halted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let opts = RunnerOpts {
            backoff_base_ms: 100,
            backoff_cap_ms: 1_000,
            ..RunnerOpts::default()
        };
        assert_eq!(backoff_ms(&opts, 1), 100);
        assert_eq!(backoff_ms(&opts, 2), 200);
        assert_eq!(backoff_ms(&opts, 4), 800);
        assert_eq!(backoff_ms(&opts, 5), 1_000);
        assert_eq!(backoff_ms(&opts, 40), 1_000, "shift must not overflow");
    }

    #[test]
    fn panic_messages_cover_both_payload_shapes() {
        let p = catch_unwind(|| panic!("static str")).unwrap_err();
        assert_eq!(panic_message(p), "panicked: static str");
        let p = catch_unwind(|| panic!("{}", String::from("formatted"))).unwrap_err();
        assert_eq!(panic_message(p), "panicked: formatted");
    }

    /// Whether an 8-item, 4-worker map called here stays on this thread.
    fn runs_inline() -> bool {
        let me = std::thread::current().id();
        iba_core::par::par_map_on(4, &[0u8; 8], |_| std::thread::current().id())
            .iter()
            .all(|&id| id == me)
    }

    #[test]
    fn a_par_map_inside_a_campaign_run_is_inline() {
        let journal = std::env::temp_dir().join(format!("iba-par-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&journal);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let executor: Executor = {
            let seen = seen.clone();
            Arc::new(move |_: &RunSpec| {
                seen.lock().expect("no panic under it").push(runs_inline());
                Ok(Json::Null)
            })
        };
        let campaign = Campaign {
            name: "par".into(),
            specs: (0..3)
                .map(|i| RunSpec::new(format!("cell{i}"), "test", Json::Null))
                .collect(),
        };
        let opts = RunnerOpts {
            workers: 2,
            quiet: true,
            ..RunnerOpts::default()
        };
        run_campaign(&campaign, executor, &journal, &opts, false).unwrap();
        std::fs::remove_file(&journal).unwrap();
        assert_eq!(*seen.lock().unwrap(), [true; 3]);
    }
}
