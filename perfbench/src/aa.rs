//! `--aa N`: the acceptance test the benchmark itself has to pass, run on
//! one commit. Two sets of N runs per workload, one process per run and
//! another seed each, alternating between the sets. A metric passes when
//! the spread of each set (first to third quartile, as a share of the
//! median) is within its bound and the second set's median is not worse
//! than the first's by more than the bound. `setup_s` is exempt from the
//! spread test only.

use crate::names::END_TO_END;
use crate::stats::{iqr_share, median};
use crate::workloads::NAMES;
use iba_core::Json;
use std::process::{Command, Stdio};

/// `(name, better, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds(benchmark_json: &str) -> Result<Vec<(String, String, f64)>, String> {
    let doc = Json::parse(benchmark_json).map_err(|e| e.to_string())?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Json::as_str).map(str::to_string);
            Some((text("name")?, text("better")?, m.get("bound")?.as_f64()?))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: an end_to_end entry lacks name, better or bound".into())
}

/// One untraced run in a process of its own; the metrics of its last line.
fn one_run(workload: &str, seed: u64, seconds: f64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // `output` waits for the child to end.
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stderr(Stdio::null())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(line).map_err(|e| format!("{workload} seed {seed}: {e}"))?;
    if !out.status.success() || doc.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!(
            "{workload} seed {seed}: the run was not correct: {line}"
        ));
    }
    doc.get("metrics")
        .and_then(Json::members)
        .ok_or_else(|| format!("{workload} seed {seed}: no metrics"))?
        .iter()
        .map(|(name, m)| {
            let v = m.get("value").and_then(Json::as_f64);
            v.map(|v| (name.clone(), v))
                .ok_or_else(|| format!("{workload} seed {seed}: {name} has no value"))
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a`.
fn worsening(better: &str, a: f64, b: f64) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// Returns whether every metric of every workload passed.
pub fn run(n: usize, base_seed: u64, seconds: f64) -> Result<bool, String> {
    let manifest = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let bounds = bounds(&manifest)?;
    if bounds.len() != END_TO_END.len() {
        return Err("BENCHMARK.json and the driver disagree on the end-to-end metrics".into());
    }
    let mut pass = true;
    println!("| workload | metric | bound | spread A | spread B | median A | median B | B worse by | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    for workload in NAMES {
        let mut sets: [Vec<Vec<(String, f64)>>; 2] = [Vec::new(), Vec::new()];
        for i in 0..n {
            // Alternate which set goes first, so a slow phase of the host
            // does not fall on one set only.
            for set in if i % 2 == 0 { [0, 1] } else { [1, 0] } {
                eprintln!("aa: {workload} set {} run {}/{n}", ["A", "B"][set], i + 1);
                sets[set].push(one_run(workload, base_seed + i as u64, seconds)?);
            }
        }
        for (name, better, bound) in &bounds {
            let values = |set: &Vec<Vec<(String, f64)>>| -> Result<Vec<f64>, String> {
                set.iter()
                    .map(|run| {
                        run.iter()
                            .find(|(n, _)| n == name)
                            .map(|m| m.1)
                            .ok_or_else(|| format!("{workload}: a run lacks {name}"))
                    })
                    .collect()
            };
            let (a, b) = (values(&sets[0])?, values(&sets[1])?);
            let (spread_a, spread_b) = (iqr_share(&a), iqr_share(&b));
            let worse = worsening(better, median(&a), median(&b));
            let steady = name == "setup_s" || (spread_a <= *bound && spread_b <= *bound);
            let ok = steady && worse <= *bound;
            pass &= ok;
            println!(
                "| {workload} | {name} | {bound} | {:.1} % | {:.1} % | {:.6} | {:.6} | {:+.1} % | {} |",
                spread_a * 100.0,
                spread_b * 100.0,
                median(&a),
                median(&b),
                worse * 100.0,
                if ok { "ok" } else { "MISS" }
            );
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_direction() {
        assert!((worsening("lower", 2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((worsening("higher", 2.0, 2.2) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn bounds_are_read_from_the_manifest() {
        let b = bounds(include_str!("../../BENCHMARK.json")).unwrap();
        assert!(b
            .iter()
            .any(|(n, better, bound)| n == "setup_s" && better == "lower" && *bound > 0.0));
    }
}
