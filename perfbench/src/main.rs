//! `iba-perfbench`: the repository's benchmark driver.
//!
//! ```text
//! iba-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! iba-perfbench --smoke [--workload <name>]
//! iba-perfbench --aa <N> [--seconds <s>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; everything else goes to standard
//! error. See `README.md` for what is measured and why.

mod aa;
mod alloc;
mod host;
mod names;
mod probes;
mod runner;
mod stats;
mod trace;
mod workloads;

use runner::{Opts, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{ChaosCampaign, FabricSharded, Fig3Quick, SmRecovery};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

struct Cli {
    workload: Option<String>,
    aa: Option<usize>,
    opts: Opts,
}

const USAGE: &str = "usage: iba-perfbench --workload <fig3_quick|fabric256_sharded|sm_recovery|\
chaos_campaign> [--seed N] [--seconds S] [--trace 0|1] | --smoke [--workload W] | --aa N";

/// Scratch files go under the build directory, which `.gitignore` names.
fn scratch_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("iba-perfbench")
}

fn parse(args: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        aa: None,
        opts: Opts {
            seed: 100,
            seconds: 20.0,
            trace: false,
            smoke: false,
            scratch: scratch_dir(),
        },
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            cli.opts.smoke = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                if !workloads::NAMES.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}\n{USAGE}"));
                }
                cli.workload = Some(value);
            }
            "--seed" => cli.opts.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                cli.opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number of seconds"))?
            }
            "--trace" => {
                cli.opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--aa" => {
                cli.aa = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|n| *n >= 2)
                        .ok_or_else(|| bad("a count of at least 2"))?,
                )
            }
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    Ok(cli)
}

fn run_named(name: &str, opts: &Opts) -> Result<Report, String> {
    let (seed, smoke) = (opts.seed, opts.smoke);
    match name {
        "fig3_quick" => runner::run(&Fig3Quick::new(seed, smoke), opts),
        "fabric256_sharded" => runner::run(&FabricSharded::new(seed, smoke), opts),
        "sm_recovery" => runner::run(&SmRecovery::new(seed, smoke), opts),
        "chaos_campaign" => {
            runner::run(&ChaosCampaign::new(seed, smoke, opts.scratch.clone()), opts)
        }
        _ => Err(format!("unknown workload {name:?}")),
    }
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = cli.aa {
        return match aa::run(n, cli.opts.seed, cli.opts.seconds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("iba-perfbench --aa: {e}");
                ExitCode::from(2)
            }
        };
    }
    let names: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None if cli.opts.smoke => workloads::NAMES.to_vec(),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut correct = true;
    for name in names {
        match run_named(name, &cli.opts) {
            Ok(report) => {
                correct &= report.checks.failed == 0;
                println!("{}", report.contract_line());
            }
            Err(e) => {
                eprintln!("iba-perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // A printed result line carries its own `correct`; only `--smoke`,
    // which people and CI run by hand, turns a failed check into an exit code.
    if correct || !cli.opts.smoke {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests;
