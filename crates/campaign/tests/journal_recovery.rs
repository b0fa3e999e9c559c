//! Journal crash-recovery property: truncating the JSONL journal at an
//! *arbitrary byte offset* — the on-disk state after a crash or
//! SIGKILL mid-write — must replay exactly the set of complete
//! (newline-terminated) records, flagging a torn tail when one was
//! dropped, and never erroring.

use iba_campaign::{replay, Journal, RunRecord, RunSpec};
use iba_core::Json;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

fn scratch() -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "iba-journal-prop-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Deterministically varied record for case `i`: a mix of ok and
/// poisoned records with string payloads that exercise JSON escaping
/// (quotes, backslashes, newlines) inside a single journal line.
fn record(i: u64, poisoned: bool) -> RunRecord {
    let spec = RunSpec::new(
        format!("prop/run-{i}"),
        "prop-cell",
        Json::obj([("i", Json::from(i))]),
    );
    if poisoned {
        RunRecord::poisoned(&spec, 3, format!("panicked: \"boom\\{i}\"\nline two"))
    } else {
        RunRecord::ok(
            &spec,
            1,
            Json::obj([
                ("i", Json::from(i)),
                ("latency_ns", Json::from(i * 997)),
                ("note", Json::from(format!("q\"{i}\" and \\slash"))),
            ]),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn truncation_recovers_exactly_the_complete_records(
        n in 0usize..8,
        poison_mask in any::<u8>(),
        cut_frac in 0.0f64..1.0,
    ) {
        let path = scratch();
        let records: Vec<RunRecord> = (0..n as u64)
            .map(|i| record(i, poison_mask >> (i % 8) & 1 == 1))
            .collect();
        let mut journal = Journal::create(&path).unwrap();
        for r in &records {
            journal.append(r).unwrap();
        }
        drop(journal);

        let bytes = std::fs::read(&path).unwrap();
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();

        // Expected floor: records whose full line (incl. newline) fits.
        let mut offset = 0usize;
        let mut expected = Vec::new();
        for r in &records {
            offset += r.to_line().len();
            if offset <= cut {
                expected.push(r.clone());
            } else {
                break;
            }
        }
        let valid_len = expected.iter().map(|r| r.to_line().len()).sum::<usize>();
        let tail_torn = cut > valid_len;

        let rp = replay(&path).unwrap();
        prop_assert_eq!(&rp.records, &expected);
        prop_assert_eq!(rp.torn_tail, tail_torn);
        prop_assert_eq!(rp.valid_len as usize, valid_len);
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn truncation_sweep_is_exhaustive_for_a_small_journal() {
    // Every byte offset of a 3-record journal, not just sampled ones.
    let records: Vec<RunRecord> = (0..3).map(|i| record(i, i == 1)).collect();
    let path = scratch();
    let mut journal = Journal::create(&path).unwrap();
    for r in &records {
        journal.append(r).unwrap();
    }
    drop(journal);
    let bytes = std::fs::read(&path).unwrap();
    let line_ends: Vec<usize> = records
        .iter()
        .scan(0usize, |acc, r| {
            *acc += r.to_line().len();
            Some(*acc)
        })
        .collect();
    for cut in 0..=bytes.len() {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let rp = replay(&path).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        let complete = line_ends.iter().filter(|&&e| e <= cut).count();
        let valid_len = line_ends
            .get(complete.wrapping_sub(1))
            .copied()
            .unwrap_or(0);
        assert_eq!(rp.records.len(), complete, "cut at byte {cut}");
        assert_eq!(rp.records[..], records[..complete], "cut at byte {cut}");
        assert_eq!(rp.torn_tail, cut > valid_len, "cut at byte {cut}");
        assert_eq!(rp.valid_len as usize, valid_len, "cut at byte {cut}");
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn an_attempt_count_past_u32_is_a_corrupt_journal() {
    let path = scratch();
    let line = record(0, false).to_line();
    std::fs::write(
        &path,
        line.replace("\"attempts\":1", "\"attempts\":4294967297"),
    )
    .unwrap();
    let err = replay(&path).unwrap_err();
    assert!(
        err.contains("corrupt journal") && err.contains("attempts"),
        "{err}"
    );
    std::fs::remove_file(&path).unwrap();
}
