//! Tests of the driver as a whole: the names it emits against
//! `BENCHMARK.json`, and a `--smoke` run of every workload.

use crate::names::{MetricDef, END_TO_END, PER_LAYER};
use crate::runner::Opts;
use crate::{parse, run_named, trace, workloads};
use iba_core::Json;

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

fn manifest() -> Json {
    Json::parse(MANIFEST).expect("BENCHMARK.json parses")
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry lacks {key}: {entry}"))
}

fn listed<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
}

/// A name as the contract allows it: a letter or digit, then up to 63
/// letters, digits, `_`, `.` and `-`.
fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn names_and_units_keep_to_the_charset_and_are_used_once() {
    let mut seen: Vec<&str> = workloads::NAMES.to_vec();
    for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(is_unit(unit), "unit {unit:?} of {name}");
        assert!(["higher", "lower"].contains(better), "{name}: {better}");
        seen.push(name);
    }
    for name in &seen {
        assert!(is_name(name), "name {name:?}");
    }
    let total = seen.len();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), total, "a name is used twice");
    assert!(!is_name("-x") && !is_name("a b") && !is_name(&"x".repeat(65)));
}

/// Both ways: every name of the manifest is one the driver emits, with
/// the same unit and direction, and the other way round.
#[test]
fn manifest_and_driver_agree_on_every_name() {
    let doc = manifest();
    let same = |key: &str, table: &[MetricDef]| {
        let in_manifest: Vec<(&str, &str, &str)> = listed(&doc, key)
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        assert_eq!(in_manifest, table, "{key}");
    };
    same("end_to_end", &END_TO_END);
    same("per_layer", &PER_LAYER);
    let names: Vec<&str> = listed(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(names, workloads::NAMES);
    for w in listed(&doc, "workloads") {
        let why = text(w, "why");
        assert!(!why.contains('\n') && why.len() <= 200, "why of {w}");
    }
}

#[test]
fn manifest_keeps_the_contract_limits() {
    let doc = manifest();
    let mut setup_bound = 0.0;
    let mut largest: f64 = 0.0;
    for m in listed(&doc, "end_to_end") {
        let bound = m.get("bound").and_then(Json::as_f64).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound of {m}");
        largest = largest.max(bound);
        if text(m, "name") == "setup_s" {
            setup_bound = bound;
        }
    }
    assert_eq!(setup_bound, largest, "setup_s carries the largest bound");
    let seconds = doc.get("run_seconds").and_then(Json::as_u64).unwrap();
    assert!((1..=60).contains(&seconds));
    assert!(MANIFEST.len() <= 64 * 1024);
    let paths: Vec<&str> = listed(&doc, "paths")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["perfbench"]);
}

#[test]
fn command_line_is_checked() {
    let args = |v: &[&str]| {
        v.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    };
    let cli = parse(args(&[
        "--workload",
        "sm_recovery",
        "--seed",
        "7",
        "--seconds",
        "3",
        "--trace",
        "1",
    ]))
    .unwrap();
    assert_eq!(cli.workload.as_deref(), Some("sm_recovery"));
    assert_eq!(
        (cli.opts.seed, cli.opts.seconds, cli.opts.trace),
        (7, 3.0, true)
    );
    assert!(parse(args(&["--workload", "nope"])).is_err());
    assert!(parse(args(&["--trace", "2"])).is_err());
    assert!(parse(args(&["--seconds", "0"])).is_err());
    assert!(parse(args(&["--seed"])).is_err());
    assert!(parse(args(&["--aa", "1"])).is_err());
    assert!(parse(args(&["--smoke"])).unwrap().opts.smoke);
}

/// `--smoke`: all four workloads on 8- and 16-switch fabrics with one
/// repetition, both with and without `--trace`, through every check, the
/// traced pass and every probe.
#[test]
fn smoke_runs_every_workload_traced_and_untraced() {
    // The span recorder is process-wide.
    let _recorder = trace::TEST_LOCK.lock().unwrap();
    let scratch = std::env::temp_dir().join(format!("iba-perfbench-test-{}", std::process::id()));
    for name in workloads::NAMES {
        for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let opts = Opts {
                seed: 7,
                seconds: 0.1,
                trace,
                smoke: true,
                scratch: scratch.clone(),
            };
            let report = run_named(name, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                report.checks.failed, 0,
                "{name}: {:?}",
                report.checks.messages
            );
            assert!(report.checks.attempted >= 5, "{name} ran too few checks");
            let emitted: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.0, m.2)).collect();
            let expected: Vec<(&str, &str)> = table.iter().map(|m| (m.0, m.1)).collect();
            assert_eq!(emitted, expected, "{name} trace {trace}");
            if !trace {
                assert!(
                    report.metrics.iter().all(|m| m.1 > 0.0),
                    "{name}: an end-to-end metric is zero: {:?}",
                    report.metrics
                );
            }

            let line = Json::parse(&report.contract_line()).unwrap();
            let keys: Vec<&str> = line
                .members()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        }
        let trace_file = scratch.join(format!("trace-{name}.jsonl"));
        let spans = std::fs::read_to_string(&trace_file).unwrap();
        assert!(spans.lines().count() > 3, "{name}: an empty trace");
        assert!(spans.lines().all(|l| Json::parse(l).is_ok()));
    }
    std::fs::remove_dir_all(&scratch).unwrap();
}
