//! The strict command line every binary of the workspace shares. A binary
//! declares its flags as a usage line (`"--seeded --jobs N"`: a value flag
//! is followed by its placeholder). An undeclared argument, a stray
//! positional included, and a value flag followed by nothing or by another
//! `--flag` are errors; a repeated flag keeps its last value, or all of
//! them through [`Args::values`]. Typed reads reject malformed values;
//! `--jobs 0` means 1, and `u64` values are decimal or `0x` hex. A usage
//! error exits 2 through [`from_env`], before any work starts.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::path::Path;

/// A command line parsed against a binary's usage line.
#[derive(Debug)]
pub struct Args {
    given: BTreeMap<String, Vec<String>>,
}

impl Args {
    /// Parses `argv`, the arguments after the program name, against the
    /// usage line `flags`.
    pub fn parse(argv: &[String], flags: &str) -> Result<Args, String> {
        let spec: Vec<&str> = flags.split_whitespace().collect();
        let mut given: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            let Some(at) = spec.iter().position(|f| f.starts_with('-') && f == arg) else {
                let takes = if flags.is_empty() { "no arguments" } else { flags };
                return Err(format!("unknown argument {arg:?} (takes {takes})"));
            };
            let values = given.entry(arg.clone()).or_default();
            if let Some(placeholder) = spec.get(at + 1).filter(|p| !p.starts_with('-')) {
                let value = argv.next().filter(|v| !v.starts_with("--"));
                let missing = || format!("{arg} needs a value ({arg} {placeholder})");
                values.push(value.ok_or_else(missing)?.clone());
            }
        }
        Ok(Args { given })
    }

    /// Whether `flag` was given.
    #[must_use]
    pub fn has(&self, flag: &str) -> bool {
        self.given.contains_key(flag)
    }

    /// Every value given for `flag`, in command-line order.
    #[must_use]
    pub fn values(&self, flag: &str) -> &[String] {
        self.given.get(flag).map_or(&[], Vec::as_slice)
    }

    /// The last value given for `flag`.
    #[must_use]
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values(flag).last().map(String::as_str)
    }

    /// The last value of `flag`, converted by `parse`; a value `parse`
    /// rejects is an error naming the flag and the reason.
    pub fn get<T, E: Display>(
        &self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<Option<T>, String> {
        let Some(value) = self.value(flag) else { return Ok(None) };
        parse(value).map(Some).map_err(|e| format!("bad {flag} {value:?}: {e}"))
    }

    /// The `--jobs N` worker count: 1 when absent or 0.
    pub fn jobs(&self) -> Result<usize, String> {
        Ok(self.get("--jobs", str::parse::<usize>)?.unwrap_or(1).max(1))
    }

    /// A `u64` flag's value (a seed, count or index), decimal or `0x` hex.
    pub fn u64(&self, flag: &str) -> Result<Option<u64>, String> {
        self.get(flag, |v| match v.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => v.parse(),
        })
    }
}

/// Runs a binary's parser `read` over this process's arguments after the
/// program name. A usage error, a non-UTF-8 argument included, prints one
/// line on stderr, prefixed with the program name, and exits 2.
pub fn from_env<T>(read: impl FnOnce(&[String]) -> Result<T, String>) -> T {
    let mut argv = std::env::args_os();
    let program = argv.next().unwrap_or_default();
    let argv = argv.map(|arg| arg.into_string().map_err(|arg| format!("{arg:?} is not UTF-8")));
    argv.collect::<Result<Vec<_>, _>>().and_then(|argv| read(&argv)).unwrap_or_else(|msg| {
        let name = Path::new(&program).file_name().unwrap_or_default().to_string_lossy();
        eprintln!("{name}: {msg}");
        std::process::exit(2)
    })
}

/// Writes `contents` to `path`, as given; a failure prints `cannot write
/// …` on stderr and returns false.
#[must_use]
pub fn write(path: &str, contents: &str) -> bool {
    std::fs::write(path, contents).map_err(|e| eprintln!("cannot write {path}: {e}")).is_ok()
}
