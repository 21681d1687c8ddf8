//! Quickstart: construct the paper's worst-case input for Thrust's
//! tuning, sort it on the simulated GPU, and compare its bank-conflict
//! profile against a random input.
//!
//! Run with: `cargo run --release --example quickstart`

use wcms::adversary::WorstCaseBuilder;
use wcms::gpu::{CostModel, DeviceSpec, Occupancy};
use wcms::mergesort::{sort_on, SimBackend, SortParams, SortSpec};
use wcms::workloads::random::random_permutation;
use wcms::WcmsError;

fn main() -> Result<(), WcmsError> {
    // Thrust's tuning for the Quadro M4000: E = 15 elements per thread,
    // b = 512 threads per block (§IV-A of the paper).
    let device = DeviceSpec::quadro_m4000();
    let params = SortParams::thrust(&device)?;
    println!(
        "device: {} (cc {}.{})",
        device.name, device.compute_capability.0, device.compute_capability.1
    );
    println!(
        "params: E = {}, b = {}, tile = {} elements\n",
        params.e,
        params.b,
        params.block_elems()
    );

    // Sizes must be bE·2^m; 64 blocks → 6 global merge rounds.
    let n = params.block_elems() * 64;

    // The adversarial permutation: every warp of every global merge round
    // degenerates to E-way bank conflicts.
    let builder = WorstCaseBuilder::new(params.w, params.e, params.b)?;
    let worst = builder.build(n)?;
    let random = random_permutation(n, 42);

    let occ = Occupancy::compute(&device, params.b, params.shared_bytes())?;
    println!(
        "occupancy: {} blocks/SM, {} threads/SM ({:.0}%), limited by {}\n",
        occ.blocks_per_sm,
        occ.threads_per_sm,
        occ.fraction * 100.0,
        occ.limiter
    );

    let model = CostModel::default();
    let mut times = Vec::new();
    for (label, input) in [("random", &random), ("worst-case", &worst)] {
        let (sorted, report) = sort_on(input, &params, &SimBackend, &SortSpec::default())?;
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "output must be sorted");
        let t = model.estimate(&device, &occ, &report.kernel_counters(), report.blocks_launched());
        times.push(t.total_s);
        println!("{label} input, N = {n}:");
        println!("  global rounds:        {}", report.rounds.len());
        println!("  beta1 (partitioning): {:.2}", report.global_beta1().unwrap());
        println!(
            "  beta2 (merging):      {:.2}   <- the paper drives this to E = {}",
            report.global_beta2().unwrap(),
            params.e
        );
        println!("  conflicts / element:  {:.3}", report.conflicts_per_element());
        println!(
            "  modelled time:        {:.3} ms ({:.0} ME/s)\n",
            t.total_s * 1e3,
            n as f64 / t.total_s / 1e6
        );
    }
    println!(
        "slowdown of the constructed input vs. random: {:.1}%",
        (times[1] / times[0] - 1.0) * 100.0
    );
    Ok(())
}
