//! Append-only JSONL journal of completed runs.
//!
//! One compact JSON line per completed run, fsync'd before the runner
//! moves on, so a crash (or SIGKILL) can lose at most the line being
//! written — and that torn final line is tolerated on replay. Every
//! record carries an FNV-1a digest of its result document; replay
//! recomputes and checks it, so silent corruption of a *complete* line
//! is detected rather than resumed over.

use crate::digest::fnv1a64;
use crate::spec::RunSpec;
use iba_core::Json;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Journal format version.
pub(crate) const JOURNAL_VERSION: u64 = 1;

/// Terminal status of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunStatus {
    /// The executor returned a result.
    Ok,
    /// Every attempt failed (error, panic or timeout); the run is
    /// recorded with its last failure instead of aborting the sweep.
    Poisoned,
}

impl RunStatus {
    /// Stable JSON vocabulary.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            RunStatus::Ok => "ok",
            RunStatus::Poisoned => "poisoned",
        }
    }

    /// Parse the JSON vocabulary.
    pub(crate) fn parse(s: &str) -> Option<RunStatus> {
        match s {
            "ok" => Some(RunStatus::Ok),
            "poisoned" => Some(RunStatus::Poisoned),
            _ => None,
        }
    }
}

/// One journal line: the durable record of a completed run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunRecord {
    /// [`RunSpec::id`] of the run.
    pub spec_id: String,
    /// [`RunSpec::experiment`] kind.
    pub experiment: String,
    /// Terminal status.
    pub status: RunStatus,
    /// Attempts spent (1 = first try succeeded).
    pub attempts: u32,
    /// Last failure message (panic payload, executor error or timeout)
    /// for poisoned runs; `None` for ok runs.
    pub error: Option<String>,
    /// FNV-1a digest of the compact rendering of `result`.
    pub(crate) digest: u64,
    /// The run's result document (`Json::Null` for poisoned runs).
    pub result: Json,
}

impl RunRecord {
    /// A successful record.
    pub fn ok(spec: &RunSpec, attempts: u32, result: Json) -> RunRecord {
        let digest = fnv1a64(result.to_string_compact().as_bytes());
        RunRecord {
            spec_id: spec.id.clone(),
            experiment: spec.experiment.clone(),
            status: RunStatus::Ok,
            attempts,
            error: None,
            digest,
            result,
        }
    }

    /// A poisoned record carrying the last failure.
    pub fn poisoned(spec: &RunSpec, attempts: u32, error: String) -> RunRecord {
        RunRecord {
            spec_id: spec.id.clone(),
            experiment: spec.experiment.clone(),
            status: RunStatus::Poisoned,
            attempts,
            error: Some(error),
            digest: fnv1a64(Json::Null.to_string_compact().as_bytes()),
            result: Json::Null,
        }
    }

    /// The journal line (compact JSON, newline-terminated).
    pub fn to_line(&self) -> String {
        let mut line = Json::obj([
            ("v", Json::from(JOURNAL_VERSION)),
            ("spec_id", Json::from(self.spec_id.as_str())),
            ("experiment", Json::from(self.experiment.as_str())),
            ("status", Json::from(self.status.as_str())),
            ("attempts", Json::from(self.attempts as u64)),
            (
                "error",
                self.error.as_deref().map(Json::from).unwrap_or(Json::Null),
            ),
            ("digest", Json::from(crate::digest::digest_hex(self.digest))),
            ("result", self.result.clone()),
        ])
        .to_string_compact();
        line.push('\n');
        line
    }

    /// Parse and validate a journal line's document.
    pub(crate) fn from_json(j: &Json) -> Result<RunRecord, String> {
        let version = j
            .get("v")
            .and_then(Json::as_u64)
            .ok_or("record missing version")?;
        if version != JOURNAL_VERSION {
            return Err(format!("unsupported journal version {version}"));
        }
        let field = |k: &str| j.get(k).ok_or_else(|| format!("record missing {k:?}"));
        let spec_id = field("spec_id")?
            .as_str()
            .ok_or("spec_id not a string")?
            .to_string();
        let experiment = field("experiment")?
            .as_str()
            .ok_or("experiment not a string")?
            .to_string();
        let status = field("status")?
            .as_str()
            .and_then(RunStatus::parse)
            .ok_or_else(|| format!("{spec_id}: invalid status"))?;
        let attempts = field("attempts")?
            .as_u64()
            .ok_or_else(|| format!("{spec_id}: attempts not an integer"))?
            as u32;
        let error = match field("error")? {
            Json::Null => None,
            e => Some(
                e.as_str()
                    .ok_or_else(|| format!("{spec_id}: error not a string"))?
                    .to_string(),
            ),
        };
        let digest_text = field("digest")?
            .as_str()
            .ok_or_else(|| format!("{spec_id}: digest not a string"))?;
        let digest = digest_text
            .strip_prefix("0x")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| format!("{spec_id}: malformed digest {digest_text:?}"))?;
        let result = field("result")?.clone();
        let recomputed = fnv1a64(result.to_string_compact().as_bytes());
        if recomputed != digest {
            return Err(format!(
                "{spec_id}: result digest mismatch (journal {digest:#x}, recomputed {recomputed:#x})"
            ));
        }
        Ok(RunRecord {
            spec_id,
            experiment,
            status,
            attempts,
            error,
            digest,
            result,
        })
    }
}

/// An open journal, appending one fsync'd record per completed run.
pub struct Journal {
    file: File,
}

impl Journal {
    /// Create a fresh journal, truncating any existing file.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Journal> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = File::create(path)?;
        Ok(Journal { file })
    }

    /// Open an existing journal for appending (creating it if absent).
    pub(crate) fn append_to(path: impl AsRef<Path>) -> io::Result<Journal> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal { file })
    }

    /// Append one record and fsync it to disk before returning.
    pub fn append(&mut self, record: &RunRecord) -> io::Result<()> {
        self.file.write_all(record.to_line().as_bytes())?;
        self.file.sync_data()
    }
}

/// Result of replaying a journal.
#[derive(Debug)]
pub struct Replay {
    /// Every complete, validated record, in append order.
    pub records: Vec<RunRecord>,
    /// Whether a torn (unterminated) final line was dropped — the
    /// signature of a crash mid-write.
    pub torn_tail: bool,
    /// Byte length of the valid prefix: everything up to and including
    /// the last newline-terminated line. When [`Replay::torn_tail`] is
    /// set the file must be truncated to this length (see
    /// `truncate_torn_tail`) before appending, or the next record
    /// would be concatenated onto the torn fragment and corrupt the
    /// journal's interior.
    pub valid_len: u64,
}

/// Truncate a journal to the valid prefix reported by [`replay`],
/// discarding a torn final line so the next append starts on a fresh
/// line instead of being glued onto the crash's partial record (which
/// would turn a tolerated torn tail into hard interior corruption on
/// the following replay).
pub(crate) fn truncate_torn_tail(path: impl AsRef<Path>, valid_len: u64) -> io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(valid_len)?;
    file.sync_data()
}

/// Replay a journal file.
///
/// A missing file replays as empty. Every newline-terminated line must
/// parse and validate (a corrupt *interior* line is a hard error — the
/// journal is append-only, so only its very tail can legitimately be
/// incomplete); a final line without a terminating newline is the torn
/// write of a crash and is dropped, reported via [`Replay::torn_tail`].
/// Callers that go on to append must first cut the torn fragment off
/// the file with `truncate_torn_tail` at [`Replay::valid_len`].
pub fn replay(path: impl AsRef<Path>) -> Result<Replay, String> {
    let path = path.as_ref();
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(Replay {
                records: Vec::new(),
                torn_tail: false,
                valid_len: 0,
            })
        }
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let mut records = Vec::new();
    let mut torn_tail = false;
    let mut valid_len = 0u64;
    for (idx, chunk) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        let line_no = idx + 1;
        let Some(line) = chunk.strip_suffix(b"\n") else {
            // Unterminated tail: the record being written when the
            // process died. By append-only construction it is the last
            // chunk; drop it.
            torn_tail = true;
            break;
        };
        valid_len += chunk.len() as u64;
        if line.is_empty() {
            continue;
        }
        let text = std::str::from_utf8(line)
            .map_err(|_| format!("{}: line {line_no}: invalid UTF-8", path.display()))?;
        let doc = Json::parse(text)
            .map_err(|e| format!("{}: line {line_no}: corrupt journal: {e}", path.display()))?;
        let rec = RunRecord::from_json(&doc)
            .map_err(|e| format!("{}: line {line_no}: corrupt journal: {e}", path.display()))?;
        records.push(rec);
    }
    Ok(Replay {
        records,
        torn_tail,
        valid_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("iba-journal-{}-{name}", std::process::id()))
    }

    fn spec(id: &str) -> RunSpec {
        RunSpec::new(id, "test", Json::obj([("n", Json::from(1u64))]))
    }

    #[test]
    fn record_round_trips_through_a_line() {
        let ok = RunRecord::ok(&spec("a"), 2, Json::obj([("x", Json::from(7u64))]));
        let line = ok.to_line();
        assert!(line.ends_with('\n'));
        assert!(!line.trim_end().contains('\n'), "records must be one line");
        let parsed = RunRecord::from_json(&Json::parse(line.trim_end()).unwrap()).unwrap();
        assert_eq!(parsed, ok);

        let bad = RunRecord::poisoned(&spec("b"), 3, "panicked: injected".into());
        let parsed = RunRecord::from_json(&Json::parse(bad.to_line().trim_end()).unwrap()).unwrap();
        assert_eq!(parsed, bad);
        assert_eq!(parsed.status, RunStatus::Poisoned);
        assert!(parsed.result.is_null());
    }

    #[test]
    fn digest_mismatch_is_detected() {
        let ok = RunRecord::ok(&spec("a"), 1, Json::obj([("x", Json::from(7u64))]));
        let line = ok.to_line().replace("\"x\":7", "\"x\":8");
        let err = RunRecord::from_json(&Json::parse(line.trim_end()).unwrap()).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
    }

    #[test]
    fn append_replay_round_trip_and_torn_tail() {
        let path = scratch("roundtrip");
        let _ = std::fs::remove_file(&path);
        let recs = vec![
            RunRecord::ok(&spec("a"), 1, Json::obj([("v", Json::from(1u64))])),
            RunRecord::poisoned(&spec("b"), 2, "boom".into()),
            RunRecord::ok(&spec("c"), 1, Json::obj([("v", Json::from(3u64))])),
        ];
        let mut j = Journal::create(&path).unwrap();
        for r in &recs {
            j.append(r).unwrap();
        }
        drop(j);
        let rp = replay(&path).unwrap();
        assert_eq!(rp.records, recs);
        assert!(!rp.torn_tail);
        let intact_len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(rp.valid_len, intact_len);

        // Simulate a crash mid-write: append half a record.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"v\":1,\"spec_id\":\"d\",\"st").unwrap();
        drop(f);
        let rp = replay(&path).unwrap();
        assert_eq!(rp.records, recs, "torn tail must not hide complete records");
        assert!(rp.torn_tail);
        assert_eq!(
            rp.valid_len, intact_len,
            "valid prefix excludes the torn tail"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_torn_tail_accepts_appends_and_replays_clean() {
        let path = scratch("truncate-resume");
        let _ = std::fs::remove_file(&path);
        let first = RunRecord::ok(&spec("a"), 1, Json::obj([("v", Json::from(1u64))]));
        let mut j = Journal::create(&path).unwrap();
        j.append(&first).unwrap();
        drop(j);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"v\":1,\"spec_id\":\"b\",\"st").unwrap();
        drop(f);

        // Resume protocol: replay, truncate the torn tail, append.
        let rp = replay(&path).unwrap();
        assert!(rp.torn_tail);
        truncate_torn_tail(&path, rp.valid_len).unwrap();
        let second = RunRecord::ok(&spec("b"), 2, Json::obj([("v", Json::from(2u64))]));
        let mut j = Journal::append_to(&path).unwrap();
        j.append(&second).unwrap();
        drop(j);

        // The appended record must be a fresh interior-clean line, not
        // a continuation of the torn fragment.
        let rp = replay(&path).unwrap();
        assert_eq!(rp.records, vec![first, second]);
        assert!(!rp.torn_tail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interior_corruption_is_a_hard_error() {
        let path = scratch("corrupt");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::create(&path).unwrap();
        j.append(&RunRecord::ok(&spec("a"), 1, Json::Null)).unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0xFF;
        bytes.extend_from_slice(
            RunRecord::ok(&spec("b"), 1, Json::Null)
                .to_line()
                .as_bytes(),
        );
        std::fs::write(&path, bytes).unwrap();
        assert!(replay(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_journal_replays_empty() {
        let rp = replay(scratch("never-created")).unwrap();
        assert!(rp.records.is_empty());
        assert!(!rp.torn_tail);
    }
}
