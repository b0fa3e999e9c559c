//! What the numbers were taken on, and the process's own resource use.

use iba_core::Json;
use std::process::Command;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Value of a `key: value` line of a `/proc` file.
fn proc_field(text: &str, key: &str) -> Option<String> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.trim_start().strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// First line a command prints, or "unknown". `output` waits for the child.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host, toolchain and commit, attached to every report and trace file.
pub fn fingerprint() -> Json {
    let cpuinfo = read("/proc/cpuinfo");
    Json::obj([
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        (
            "cpu_model",
            Json::from(proc_field(&cpuinfo, "model name").unwrap_or_else(|| "unknown".into())),
        ),
        (
            "kernel",
            Json::from(read("/proc/sys/kernel/osrelease").trim()),
        ),
        ("rustc", Json::from(first_line("rustc", &["--version"]))),
        (
            "git_commit",
            Json::from(first_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "profile",
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ])
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field(&read("/proc/self/status"), "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds of this process so far. The kernel
/// reports clock ticks; `USER_HZ` is 100 on every Linux this runs on.
pub fn cpu_seconds() -> f64 {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_fields_parse() {
        let text = "Name:\tx\nVmHWM:\t   5120 kB\nmodel name\t: Some CPU @ 2GHz\n";
        assert_eq!(proc_field(text, "VmHWM").as_deref(), Some("5120 kB"));
        assert_eq!(
            proc_field(text, "model name").as_deref(),
            Some("Some CPU @ 2GHz")
        );
        assert_eq!(proc_field(text, "VmPeak"), None);
    }

    #[test]
    fn own_process_is_measurable() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        let fp = fingerprint();
        assert!(fp.get("nproc").and_then(Json::as_u64).unwrap() >= 1);
    }
}
