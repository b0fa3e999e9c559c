//! The supervised campaign runner.
//!
//! The specs are shared out over the workers of
//! [`iba_core::par::par_map_on`], in campaign order; one the journal
//! already holds passes straight through. Every attempt runs
//! the executor on a *sacrificial* thread ([`iba_core::par::isolated`]):
//! a panic is caught and a hang is abandoned after the per-run
//! wall-clock timeout — the worker simply stops waiting and the runaway
//! thread can never block the sweep. Failures retry in rounds with
//! bounded exponential backoff between them, slept by the calling
//! thread so no worker idles while cells wait; once the attempt budget
//! is spent the run is journalled as poisoned with its last failure,
//! and the sweep continues. One fsync'd journal record per completed
//! run means a crash (or SIGKILL) loses at most the in-flight runs,
//! never the completed ones.

use crate::journal::{replay, truncate_torn_tail, Journal, RunRecord, RunStatus};
use crate::spec::{Campaign, RunSpec};
use iba_core::par::{isolated, par_map_on};
use iba_core::Json;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
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

/// First retry delay; it doubles per attempt up to [`BACKOFF_CAP_MS`].
const BACKOFF_BASE_MS: u64 = 100;
/// Retry-delay ceiling.
const BACKOFF_CAP_MS: u64 = 5_000;

/// Exponential backoff with a ceiling: `base << (attempt-1)`, capped.
fn backoff_ms(attempt: u32) -> u64 {
    BACKOFF_BASE_MS
        .saturating_mul(1u64 << (attempt - 1).min(16))
        .min(BACKOFF_CAP_MS)
}

/// One attempt of one spec, on an [`isolated`] thread holding only
/// clones of the spec and executor: its result, or why it failed.
fn attempt(executor: &Executor, spec: &RunSpec, timeout: Duration) -> Result<Json, String> {
    let (ex, sp) = (executor.clone(), spec.clone());
    let name = format!("campaign-run-{}", spec.id);
    isolated(name, timeout, move || ex(&sp)).and_then(|result| result)
}

struct Progress {
    journal: Journal,
    done: usize,
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
            let Some(spec) = campaign.specs.iter().find(|s| s.id == rec.spec_id) else {
                return Err(format!(
                    "journal {} holds record for unknown spec {:?}; \
                     it belongs to a different campaign definition",
                    journal_path.display(),
                    rec.spec_id
                ));
            };
            // Rendered, not `==`: a parsed `1.0` reads back as an integer.
            let ran = rec.params.to_string_compact();
            let asked = spec.params.to_string_compact();
            if ran != asked {
                return Err(format!(
                    "journal {} ran spec {:?} with params {ran}, not {asked}; resume with \
                     the interrupted sweep's flags or remove the journal to start over",
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

    let stop = AtomicBool::new(false);
    let progress = Mutex::new(Progress {
        journal,
        done: resumed,
        io_error: None,
    });

    let name = campaign.name.as_str();
    // A record is journaled when it is terminal: ok, or poisoned once
    // the attempt budget is spent.
    let finish = |spec: &RunSpec, record: RunRecord| -> Option<RunRecord> {
        let mut p = progress.lock().expect("progress lock poisoned");
        // A journal-append failure means durability is gone — stop
        // dispatching; completed records stay on disk and the campaign
        // ends in an error (not a clean halt).
        if let Err(e) = p.journal.append(&record) {
            eprintln!("campaign {name}: journal write failed: {e}; halting");
            p.io_error.get_or_insert_with(|| e.to_string());
            stop.store(true, Ordering::SeqCst);
            return None;
        }
        p.done += 1;
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
        if opts.halt_after.is_some_and(|n| p.done - resumed >= n) {
            stop.store(true, Ordering::SeqCst);
        }
        Some(record)
    };
    // Spec order in, spec order out: a resumed record is passed through.
    let mut records: Vec<Option<RunRecord>> = (campaign.specs.iter())
        .map(|spec| done.get(&spec.id).cloned())
        .collect();
    // Retries run in rounds: round `n` maps attempt `n` over the specs
    // still failing, and this thread — not a pool worker, which would
    // hold up the cells behind it — sleeps the backoff between rounds.
    let timeout = Duration::from_millis(opts.timeout_ms.max(1));
    let max_attempts = opts.max_attempts.max(1);
    let mut failing: Vec<usize> = (0..total).filter(|&i| records[i].is_none()).collect();
    for n in 1..=max_attempts {
        if failing.is_empty() || stop.load(Ordering::SeqCst) {
            break;
        }
        if n > 1 {
            std::thread::sleep(Duration::from_millis(backoff_ms(n - 1)));
        }
        // `Some` when the spec is done with — its record, or none once
        // dispatch stopped — and `None` when it tries again next round.
        let round = par_map_on(opts.workers.max(1), &failing, |&i| {
            let spec = &campaign.specs[i];
            if stop.load(Ordering::SeqCst) {
                return Some(None);
            }
            match attempt(&executor, spec, timeout) {
                Ok(result) => Some(finish(spec, RunRecord::ok(spec, n, result))),
                Err(e) if n == max_attempts => Some(finish(spec, RunRecord::poisoned(spec, n, e))),
                Err(_) => None,
            }
        });
        let mut still = Vec::new();
        for (i, outcome) in failing.into_iter().zip(round) {
            match outcome {
                Some(record) => records[i] = record,
                None => still.push(i),
            }
        }
        failing = still;
    }

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
    Ok(CampaignOutcome {
        records: records.into_iter().flatten().collect(),
        total,
        resumed,
        executed: progress.done - resumed,
        halted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff_ms(1), 100);
        assert_eq!(backoff_ms(2), 200);
        assert_eq!(backoff_ms(4), 800);
        assert_eq!(backoff_ms(6), 3_200);
        assert_eq!(backoff_ms(7), 5_000);
        assert_eq!(backoff_ms(40), 5_000, "shift must not overflow");
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
