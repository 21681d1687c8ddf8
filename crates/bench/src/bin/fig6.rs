//! Regenerate Figure 6: runtime per element and bank conflicts per
//! element vs. N for Thrust on the (simulated) RTX 2080 Ti, worst-case
//! inputs, both parameter sets. The paper's point: the conflict curve
//! predicts the runtime curve, and both grow logarithmically with N.
//!
//! Run with `--help` for the flags.

use std::process::ExitCode;

use wcms_bench::panel::figure_binary_main;

fn main() -> ExitCode {
    figure_binary_main("fig6")
}
