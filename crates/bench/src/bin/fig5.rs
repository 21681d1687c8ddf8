//! Regenerate Figure 5: throughput vs. N on the (simulated) RTX 2080 Ti —
//! Thrust (left) and Modern GPU (right), each with E=15/b=512 and
//! E=17/b=256, random vs. constructed worst-case inputs.
//!
//! Run with `--help` for the flags.

use std::process::ExitCode;

use wcms_bench::panel::figure_binary_main;

fn main() -> ExitCode {
    figure_binary_main("fig5")
}
