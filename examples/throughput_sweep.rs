//! A miniature Figure-4-style sweep from the public API: throughput vs. N
//! for random, worst-case, conflict-heavy, sorted and reverse inputs on a
//! chosen device.
//!
//! Run with: `cargo run --release --example throughput_sweep [m4000|rtx]`

use wcms::adversary::WorstCaseBuilder;
use wcms::gpu::{CostModel, DeviceSpec, Occupancy};
use wcms::mergesort::{sort_on, SimBackend, SortParams, SortSpec};
use wcms::workloads::random::random_permutation;
use wcms::workloads::sorted::{reverse_sorted, sorted};
use wcms::WcmsError;

fn main() -> Result<(), WcmsError> {
    let device = match std::env::args().nth(1).as_deref() {
        Some("rtx") => DeviceSpec::rtx_2080_ti(),
        _ => DeviceSpec::quadro_m4000(),
    };
    let params = SortParams::thrust(&device)?;
    let occ = Occupancy::compute(&device, params.b, params.shared_bytes())?;
    let model = CostModel::default();
    let builder = WorstCaseBuilder::new(params.w, params.e, params.b)?;

    println!("device={}, E={}, b={}", device.name, params.e, params.b);
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "N", "random", "worst", "heavy", "sorted", "reverse"
    );
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "", "(ME/s)", "(ME/s)", "(ME/s)", "(ME/s)", "(ME/s)"
    );

    let heavy_builder = WorstCaseBuilder::conflict_heavy(params.w, params.e, params.b, 8)?;
    for doublings in 1..=6u32 {
        let n = params.block_elems() << doublings;
        let inputs: Vec<(&str, Vec<u32>)> = vec![
            ("random", random_permutation(n, 7)),
            ("worst", builder.build(n)?),
            ("heavy", heavy_builder.build(n)?),
            ("sorted", sorted(n)),
            ("reverse", reverse_sorted(n)),
        ];
        print!("{n:>10}");
        for (_, input) in &inputs {
            let (_, report) = sort_on(input, &params, &SimBackend, &SortSpec::default())?;
            let t =
                model.estimate(&device, &occ, &report.kernel_counters(), report.blocks_launched());
            print!(" {:>12.0}", n as f64 / t.total_s / 1e6);
        }
        println!();
    }
    println!("\n(worst < heavy < random, sorted fastest: the paper's ordering)");
    Ok(())
}
