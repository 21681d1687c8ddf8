//! One declarative argv parser for every flag-style binary.
//!
//! A binary declares its flags as a table of [`Flag`] rows (name,
//! value placeholder or none, one help line) and hands it to
//! [`Args::parse`] or [`main`]. Any token not in the table is a typed
//! `Io(InvalidInput)` error naming it, so a misspelled flag can never
//! silently change which experiment runs; `--help`/`-h` prints the
//! usage generated from the same table.

use std::error::Error;
use std::process::ExitCode;
use std::str::FromStr;

use crate::WcmsError;

/// One row of a binary's flag table: the flag as typed, its value's
/// placeholder (`None` for a switch), and one line of help.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    name: &'static str,
    value: Option<&'static str>,
    help: &'static str,
}

impl Flag {
    /// A switch: present or absent, no value.
    #[must_use]
    pub const fn switch(name: &'static str, help: &'static str) -> Self {
        Flag { name, value: None, help }
    }

    /// A flag taking the next token as its value.
    #[must_use]
    pub const fn value(name: &'static str, placeholder: &'static str, help: &'static str) -> Self {
        Flag { name, value: Some(placeholder), help }
    }
}

/// An `Io(InvalidInput)` error carrying `msg` — the typed rejection of
/// bad input arriving from the command line or the files it names.
pub fn invalid(msg: impl Into<String>) -> WcmsError {
    WcmsError::Io(std::io::Error::new(std::io::ErrorKind::InvalidInput, msg.into()))
}

/// The flags an argv named, in order, each checked against the tables.
#[derive(Debug, Clone)]
pub struct Args {
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parse `argv` (without the program name) against `tables`. A value
    /// flag takes the next token verbatim (so `--timeout -1` reaches the
    /// caller's range check). `--help`/`-h` prints the usage to stdout
    /// and exits the process with status 0.
    ///
    /// # Errors
    ///
    /// `Io(InvalidInput)` naming the first token that is not in a table,
    /// or a value flag with no token after it.
    pub fn parse(program: &str, tables: &[&[Flag]], argv: &[String]) -> Result<Args, WcmsError> {
        let mut given = Vec::new();
        let mut tokens = argv.iter();
        while let Some(token) = tokens.next() {
            if token == "--help" || token == "-h" {
                print!("{}", usage(program, tables));
                std::process::exit(0);
            }
            let flag = tables.iter().flat_map(|t| t.iter()).find(|f| f.name == token);
            let flag = flag.ok_or_else(|| {
                invalid(format!("unknown flag '{token}' (run `{program} --help` for the list)"))
            })?;
            let value = flag.value.map(|placeholder| {
                let missing = || invalid(format!("{token}: missing value <{placeholder}>"));
                tokens.next().cloned().ok_or_else(missing)
            });
            given.push((flag.name, value.transpose()?));
        }
        Ok(Args { given })
    }

    /// Add the switch `name` as if it were given last — for a binary that
    /// always runs in one mode its table also offers.
    pub fn force(&mut self, name: &'static str) {
        self.given.push((name, None));
    }

    /// Was the switch (or value flag) `name` given?
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// Every value given for the repeatable flag `name`, in order.
    pub fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.given.iter().filter(move |(n, _)| *n == name).filter_map(|(_, v)| v.as_deref())
    }

    /// The value of `name` (the last one, when given more than once).
    #[must_use]
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given.iter().rev().find(|(n, _)| *n == name).and_then(|(_, v)| v.as_deref())
    }

    /// The value of the mandatory flag `name`.
    ///
    /// # Errors
    ///
    /// `Io(InvalidInput)` when `name` is absent or empty.
    pub fn required(&self, name: &str) -> Result<&str, WcmsError> {
        let value = self.value(name).filter(|v| !v.is_empty());
        value.ok_or_else(|| invalid(format!("{name} is required")))
    }

    /// The value of `name` parsed as `T`.
    ///
    /// # Errors
    ///
    /// `Io(InvalidInput)` naming the flag, the value and the parse error.
    pub fn get<T>(&self, name: &str) -> Result<Option<T>, WcmsError>
    where
        T: FromStr,
        T::Err: Error,
    {
        let Some(v) = self.value(name) else { return Ok(None) };
        v.parse().map(Some).map_err(|e: T::Err| {
            // Name the cause, not its wrapper: a `WcmsError::Io` parse
            // error would otherwise repeat "i/o error:".
            let cause = e.source().map_or_else(|| e.to_string(), ToString::to_string);
            invalid(format!("{name} {v}: {cause}"))
        })
    }

    /// [`Args::get`] with a default for an absent flag.
    ///
    /// # Errors
    ///
    /// As [`Args::get`].
    pub fn get_or<T>(&self, name: &str, default: T) -> Result<T, WcmsError>
    where
        T: FromStr,
        T::Err: Error,
    {
        Ok(self.get(name)?.unwrap_or(default))
    }
}

/// The usage text generated from `tables`: one aligned line per flag.
fn usage(program: &str, tables: &[&[Flag]]) -> String {
    let rows: Vec<(String, &str)> = tables
        .iter()
        .flat_map(|t| t.iter())
        .map(|f| (f.value.map_or(f.name.into(), |p| format!("{} <{p}>", f.name)), f.help))
        .chain([("-h, --help".to_string(), "print this help and exit")])
        .collect();
    let width = rows.iter().map(|(s, _)| s.len()).max().unwrap_or(0);
    let mut out = format!("usage: {program} [flags]\n");
    for (spelled, help) in rows {
        out.push_str(&format!("  {spelled:width$}  {help}\n"));
    }
    out
}

/// The whole `main` of a flag-style binary: parse the process arguments
/// against `tables`, run `body`, and map an error to `EXIT_FAILURE` with
/// `program` attached. `program` is every word before the flags, so a
/// subcommand (`wcms sort`) skips its own word too.
pub fn main(
    program: &str,
    tables: &[&[Flag]],
    body: impl FnOnce(&Args) -> Result<(), WcmsError>,
) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(program.split(' ').count()).collect();
    match Args::parse(program, tables, &argv).and_then(|args| body(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{program}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &[Flag] = &[
        Flag::switch("--quick", "small grid"),
        Flag::value("--jobs", "n", "worker threads"),
        Flag::value("--from", "dir", "repeatable"),
    ];

    fn parse(argv: &[&str]) -> Result<Args, WcmsError> {
        let argv: Vec<String> = argv.iter().map(|s| (*s).to_string()).collect();
        Args::parse("prog", &[TABLE], &argv)
    }

    #[test]
    fn values_are_taken_verbatim_and_parsed_on_demand() {
        let args = parse(&["--jobs", "-1", "--from", "a", "--quick", "--from", "--quick"]).unwrap();
        assert!(args.flag("--quick") && !args.flag("--nope"));
        assert_eq!(args.value("--jobs"), Some("-1"));
        assert_eq!(args.values("--from").collect::<Vec<_>>(), ["a", "--quick"]);
        let err = args.get::<usize>("--jobs").unwrap_err().to_string();
        assert!(err.contains("--jobs -1: invalid digit"), "{err}");
        assert_eq!(parse(&["--jobs", "4"]).unwrap().get_or("--jobs", 1usize).unwrap(), 4);
        assert_eq!(parse(&[]).unwrap().get_or("--jobs", 1usize).unwrap(), 1);
        assert!(parse(&["--from", ""]).unwrap().required("--from").is_err());
    }

    #[test]
    fn usage_lists_every_row() {
        let text = usage("prog", &[TABLE]);
        for needle in ["usage: prog", "--quick", "--jobs <n>", "worker threads", "--help"] {
            assert!(text.contains(needle), "{needle} missing from\n{text}");
        }
    }
}
