//! Sort the paper's adversarial input on a simulated machine that keeps
//! faulting, and show the recovery ledger: transient faults are retried,
//! hard faults degrade to the CPU reference path, and the output is
//! exact either way.
//!
//! ```sh
//! cargo run --release --example fault_demo
//! ```

use wcms::adversary::WorstCaseBuilder;
use wcms::gpu::fault::{FaultConfig, FaultInjector};
use wcms::mergesort::{sort_resilient_on, RecoveryPolicy, SimBackend, SortParams, SortSpec};
use wcms::WcmsError;

fn main() -> Result<(), WcmsError> {
    let params = SortParams::new(8, 3, 16)?;
    let n = params.block_elems() * 16;
    let input = WorstCaseBuilder::new(params.w, params.e, params.b)?.build(n)?;

    for (label, cfg) in [
        ("no faults   ", FaultConfig::default()),
        (
            "transient   ",
            FaultConfig {
                seed: 42,
                tile_bitflip_rate: 0.25,
                corank_rate: 0.25,
                ..FaultConfig::default()
            },
        ),
        (
            "hard (tile) ",
            FaultConfig { seed: 42, tile_bitflip_rate: 1.0, ..FaultConfig::default() },
        ),
    ] {
        let injector = FaultInjector::new(cfg);
        let (out, _, faults) = sort_resilient_on(
            &input,
            &params,
            &SimBackend,
            &SortSpec::default(),
            &injector,
            &RecoveryPolicy::default(),
        )?;
        let sorted = out.windows(2).all(|w| w[0] <= w[1]);
        println!(
            "{label} sorted={sorted} injected={} detected={} retries={} cpu_fallbacks={}",
            faults.counters.tile_faults + faults.counters.corank_faults,
            faults.counters.detected,
            faults.counters.retries,
            faults.counters.cpu_fallbacks,
        );
    }
    Ok(())
}
