//! `iba` — every experiment and query of the reproduction as one
//! subcommand; `iba help` lists them, `iba <command> --help` their flags.

mod paper;
mod query;
mod runs;
mod sweeps;

use iba_experiments::cli::{Args, Command, Flag};
use std::process::ExitCode;

/// Every subcommand, in the order `iba help` lists them.
const COMMANDS: &[Command] = &[
    paper::FIG3,
    paper::TABLE1,
    paper::TABLE2,
    paper::ABLATION,
    runs::EXPLORE,
    runs::HEATMAP,
    runs::FAULTS,
    sweeps::CHAOS,
    sweeps::ENGINE_ZOO,
    sweeps::RECOVERY_SCALING,
    runs::TELEMETRY,
    runs::METRICS,
    runs::FLIGHTREC,
    query::TRACE,
    query::METRICS_REPORT,
    HELP,
];

/// The fidelity flag, declared once for every command that takes it.
const FIDELITY: Flag = Flag::value("fidelity", "quick|full", "full: the paper's method [quick]");

const HELP: Command = Command {
    name: "help",
    about: "list the commands, or show one command's flags",
    positional: &[("[command]", "the command to describe")],
    flags: &[],
    run: help,
};

fn help(args: &Args) -> Result<(), String> {
    match args.positional.first() {
        Some(name) => print!("{}", find(name)?.usage()),
        None => print!("{}", overview()),
    }
    Ok(())
}

fn overview() -> String {
    let mut out = String::from(
        "usage: iba <command> [arguments] [flags]\n\
         `iba <command> --help` lists a command's arguments and flags.\n\ncommands:\n",
    );
    for cmd in COMMANDS {
        out.push_str(&format!("  {:<18} {}\n", cmd.name, cmd.about));
    }
    out
}

fn find(name: &str) -> Result<&'static Command, String> {
    COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command {name:?}; `iba help` lists the commands"))
}

fn main() -> ExitCode {
    let mut raw = std::env::args().skip(1);
    let Some(name) = raw.next() else {
        eprint!("{}", overview());
        return ExitCode::FAILURE;
    };
    let rest: Vec<String> = raw.collect();
    let outcome = match find(&name) {
        Ok(cmd) if rest.iter().any(|a| a == "--help") => {
            print!("{}", cmd.usage());
            Ok(())
        }
        Ok(cmd) => Args::parse(cmd, rest).and_then(|args| (cmd.run)(&args)),
        Err(e) => Err(e),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("iba {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cmd: &str, v: &[&str]) -> Result<Args, String> {
        Args::parse(find(cmd).unwrap(), v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn names_are_unique_and_every_command_renders_its_help() {
        for (i, cmd) in COMMANDS.iter().enumerate() {
            assert!(
                COMMANDS[..i].iter().all(|c| c.name != cmd.name),
                "{} is declared twice",
                cmd.name
            );
            assert!(cmd.usage().starts_with(&format!("iba {} — ", cmd.name)));
            assert!(overview().contains(&format!("  {:<18} {}\n", cmd.name, cmd.about)));
        }
    }

    #[test]
    fn a_mistyped_flag_fails_and_names_the_declared_ones() {
        let err = parse("fig3", &["--size", "8"]).unwrap_err();
        assert!(err.contains("unknown flag --size"), "{err}");
        assert!(err.contains("--sizes"), "{err}");
        assert!(parse("fig3", &["--sizes", "8"]).is_ok());
    }

    #[test]
    fn switches_take_no_value() {
        let args = parse("table2", &["--include-local"]).unwrap();
        assert!(args.switch("include-local"));
        assert!(parse("table2", &["--include-local", "true"]).is_err());
    }

    #[test]
    fn chaos_mixes_are_checked() {
        let args = parse("chaos", &["--mixes", "links,bogus"]).unwrap();
        assert!(sweeps::chaos_plan(&args).unwrap_err().contains("bogus"));
        let args = parse("chaos", &["--mixes", "links"]).unwrap();
        assert_eq!(sweeps::chaos_plan(&args).unwrap().mixes, ["links"]);
    }
}
