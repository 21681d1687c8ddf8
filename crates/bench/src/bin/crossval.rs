//! Cross-validate the analytic backend against the cycle-accurate
//! simulator: run both over the Fig. 4 presets and the §III worst-case
//! families, demand integer-identical outputs and reports, and print
//! the wall-clock speedup. Exits non-zero on any divergence, so CI can
//! use it as a gate.
//!
//! Run with `--help` for the flags.

use std::process::ExitCode;

use wcms_bench::cliargs::{sweep_size, SIZE_FLAGS};
use wcms_bench::crossval::{cross_validate, default_jobs};
use wcms_error::cli::{self, invalid};

fn main() -> ExitCode {
    cli::main("crossval", &[SIZE_FLAGS], |args| {
        let report = cross_validate(&default_jobs(&sweep_size(args)?)?)?;
        print!("{}", report.render());
        if !report.all_equal() {
            return Err(invalid(format!("{} cell(s) diverged", report.mismatches().len())));
        }
        Ok(())
    })
}
