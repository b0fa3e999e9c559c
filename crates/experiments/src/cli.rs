//! Declared-flag argument parsing for the `iba` subcommands (kept
//! dependency-free on purpose).
//!
//! A [`Command`] declares every flag and positional argument it takes.
//! [`Args::parse`] accepts exactly those, and [`Command::usage`] renders
//! the help from the same declarations, so the help cannot name a flag
//! the parser refuses or leave out one it accepts.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::str::FromStr;

/// One declared `--flag`.
#[derive(Debug)]
pub struct Flag {
    /// The name after `--`.
    pub name: &'static str,
    /// Placeholder for the value it takes; `None` declares a switch.
    pub(crate) value: Option<&'static str>,
    /// One help line.
    pub(crate) help: &'static str,
}

impl Flag {
    /// A flag that takes the next token, verbatim, as its value.
    pub const fn value(name: &'static str, value: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: Some(value),
            help,
        }
    }

    /// A switch: present or absent, never followed by a value.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: None,
            help,
        }
    }
}

/// A subcommand of the `iba` binary: what it is called, what it takes
/// and what it runs.
#[derive(Debug)]
pub struct Command {
    /// The one name it is invoked by.
    pub name: &'static str,
    /// One-line description.
    pub about: &'static str,
    /// Positional arguments as `(usage, help)`, in order; all optional
    /// to the parser, the command checks what it requires.
    pub positional: &'static [(&'static str, &'static str)],
    /// Declared flags, in groups (the campaign commands share one).
    pub flags: &'static [&'static [Flag]],
    /// The command. An `Err` is printed and exits non-zero.
    pub run: fn(&Args) -> Result<(), String>,
}

impl Command {
    fn declared(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    /// The help text, rendered from the declarations.
    pub fn usage(&self) -> String {
        let (name, about) = (self.name, self.about);
        let args: String = self
            .positional
            .iter()
            .map(|(a, _)| format!(" {a}"))
            .collect();
        let mut out = format!("iba {name} — {about}\n\nusage: iba {name}{args} [flags]\n\n");
        let positional = self.positional.iter().map(|&(a, h)| (a.to_string(), h));
        let flags = self
            .declared()
            .map(|f| (format!("--{} {}", f.name, f.value.unwrap_or("")), f.help));
        for (left, help) in positional.chain(flags) {
            out.push_str(&format!("  {left:<28} {help}\n"));
        }
        out
    }
}

/// Parsed flags plus positional arguments, checked against a
/// [`Command`]'s declarations.
#[derive(Debug)]
pub struct Args {
    flags: BTreeMap<&'static str, String>,
    cmd: &'static Command,
    /// Positional arguments in order.
    pub positional: Vec<String>,
}

impl Args {
    /// Parse raw arguments (after the subcommand name) against `cmd`'s
    /// declarations. An undeclared flag, a value flag without its value
    /// and a surplus positional argument are errors; a switch never
    /// consumes the token after it.
    pub fn parse(
        cmd: &'static Command,
        raw: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut args = Args {
            flags: BTreeMap::new(),
            cmd,
            positional: Vec::new(),
        };
        let mut raw = raw.into_iter();
        while let Some(token) = raw.next() {
            let Some(key) = token.strip_prefix("--") else {
                args.positional.push(token);
                continue;
            };
            let Some(flag) = cmd.declared().find(|f| f.name == key) else {
                let names: Vec<String> = cmd.declared().map(|f| format!("--{}", f.name)).collect();
                let names = names.join(", ");
                return Err(format!("unknown flag --{key}; {} takes {names}", cmd.name));
            };
            let value = match flag.value {
                None => String::new(),
                Some(_) => raw
                    .next()
                    .ok_or_else(|| format!("--{key} requires a value"))?,
            };
            args.flags.insert(flag.name, value);
        }
        if let Some(extra) = args.positional.get(cmd.positional.len()) {
            return Err(format!("unexpected argument {extra:?}"));
        }
        Ok(args)
    }

    /// Raw flag value.
    pub fn get(&self, key: &str) -> Option<&str> {
        debug_assert!(
            self.cmd.declared().any(|f| f.name == key),
            "--{key} is read but not declared"
        );
        self.flags.get(key).map(String::as_str)
    }

    /// Flag parsed as `T`, if given.
    pub fn opt<T: FromStr<Err: Display>>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|e| format!("invalid value {v:?} for --{key}: {e}"))
            })
            .transpose()
    }

    /// Flag parsed as `T`, or `default`.
    pub fn get_or<T: FromStr<Err: Display>>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    /// Whether a switch was given.
    pub fn switch(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Comma-separated list flag, or `default`.
    pub fn get_list_or<T: FromStr + Clone>(
        &self,
        key: &str,
        default: &[T],
    ) -> Result<Vec<T>, String> {
        match self.get(key) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| format!("invalid element {s:?} in --{key}"))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CMD: Command = Command {
        name: "demo",
        about: "a test command",
        positional: &[("[mode]", "what to run")],
        flags: &[
            &[
                Flag::value("seed", "N", "seed"),
                Flag::value("sizes", "a,b", "sizes"),
                Flag::value("out", "PATH", "output"),
            ],
            &[
                Flag::switch("resume", "resume"),
                Flag::switch("quiet", "quiet"),
            ],
        ],
        run: |_| Ok(()),
    };

    fn try_parse(v: &[&str]) -> Result<Args, String> {
        Args::parse(&CMD, v.iter().map(|s| s.to_string()))
    }

    fn parse(v: &[&str]) -> Args {
        try_parse(v).unwrap()
    }

    #[test]
    fn flags_and_positionals() {
        let a = parse(&["run", "--seed", "7", "--sizes", "8,16"]);
        assert_eq!(a.positional, vec!["run"]);
        assert_eq!(a.get("seed"), Some("7"));
        assert_eq!(a.get_or("seed", 0u64).unwrap(), 7);
        assert_eq!(a.opt::<u64>("out").unwrap(), None);
        assert_eq!(a.get_list_or("sizes", &[64usize]).unwrap(), vec![8, 16]);
        let a = parse(&[]);
        assert_eq!(a.get_or("seed", 3u64).unwrap(), 3);
        assert_eq!(a.get_list_or("sizes", &[64usize]).unwrap(), vec![64]);
    }

    #[test]
    fn boolean_switches() {
        let a = parse(&["--resume", "--seed", "7", "--quiet"]);
        assert!(a.switch("resume"));
        assert!(a.switch("quiet"));
        assert_eq!(a.get_or("seed", 0u64).unwrap(), 7);
        assert!(!parse(&["--seed", "7"]).switch("resume"));
    }

    #[test]
    fn a_switch_never_swallows_the_next_token() {
        // The token after a switch is a positional argument, whatever
        // it spells — `true` included.
        let a = parse(&["--quiet", "true"]);
        assert!(a.switch("quiet"));
        assert_eq!(a.positional, vec!["true"]);
        let a = parse(&["--resume", "run", "--quiet"]);
        assert!(a.switch("resume") && a.switch("quiet"));
        assert_eq!(a.positional, vec!["run"]);
        // With the one declared positional taken, a second is an error.
        let err = try_parse(&["--resume", "false", "run"]).unwrap_err();
        assert!(err.contains("unexpected argument \"run\""), "{err}");
    }

    #[test]
    fn value_flags_take_the_next_token_verbatim() {
        // A value flag consumes the following token even when it looks
        // like a flag.
        let a = parse(&["--out", "--weird-name.json", "--resume"]);
        assert_eq!(a.get("out"), Some("--weird-name.json"));
        assert!(a.switch("resume"));
    }

    #[test]
    fn undeclared_flags_are_errors_that_list_the_declared_ones() {
        let err = try_parse(&["--size", "8"]).unwrap_err();
        assert!(err.contains("unknown flag --size"), "{err}");
        assert!(
            err.contains("--seed, --sizes, --out, --resume, --quiet"),
            "{err}"
        );
    }

    #[test]
    fn errors() {
        // A value-less trailing value flag fails at parse time, not at
        // first typed access.
        let err = try_parse(&["--seed"]).unwrap_err();
        assert!(err.contains("--seed requires a value"), "{err}");
        let a = parse(&["--seed", "x"]);
        assert!(a.get_or("seed", 0u64).is_err());
        assert!(a.get_list_or("seed", &[1u64]).is_err());
    }

    #[test]
    fn usage_lists_every_declaration() {
        let text = CMD.usage();
        assert!(text.starts_with("iba demo — a test command\n\nusage: iba demo [mode] [flags]\n"));
        for needle in [
            "[mode]",
            "--seed N",
            "--sizes a,b",
            "--out PATH",
            "--resume ",
            "--quiet ",
        ] {
            assert!(text.contains(needle), "{needle} missing from\n{text}");
        }
    }
}
