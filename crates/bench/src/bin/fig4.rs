//! Regenerate Figure 4: throughput vs. N on the (simulated) Quadro
//! M4000 — Thrust (E=15, b=512) and Modern GPU (E=15, b=128), random vs.
//! constructed worst-case inputs.
//!
//! Run with `--help` for the flags.

use std::process::ExitCode;

use wcms_bench::panel::figure_binary_main;

fn main() -> ExitCode {
    figure_binary_main("fig4")
}
