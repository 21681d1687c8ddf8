//! Sweep the tuning parameter `E` end-to-end — the §III-C trade-off
//! quantified: small `E` caps the adversary at `E² ≤ w²/4` conflicts but
//! multiplies partitioning work (more merge-path searches per element);
//! large `E` approaches `w²/2` worst-case conflicts. The sweep measures,
//! for each co-prime `E`, random vs. worst-case modelled throughput on
//! the simulated device, exposing where the libraries' `E = 15/17`
//! choices sit.
//!
//! Usage: `esweep [--quick] [--rtx] [--backend <sim|analytic|reference>]
//!                [--algorithm <pairwise|multiway>] [--jobs <n>]`

use std::process::ExitCode;

use wcms_bench::experiment::measure;
use wcms_bench::panel::adhoc_binary_main;
use wcms_error::CancelToken;
use wcms_gpu_sim::DeviceSpec;
use wcms_mergesort::{SortParams, SortSpec};
use wcms_workloads::WorkloadSpec;

fn main() -> ExitCode {
    adhoc_binary_main("esweep", |args| {
        let device = if args.has_flag("--rtx") {
            DeviceSpec::rtx_2080_ti()
        } else {
            DeviceSpec::quadro_m4000()
        };
        let doublings = if args.quick { 4 } else { 6 };
        let b = 128usize;
        let (backend, algorithm) = (args.backend, args.algorithm);
        let sort = SortSpec { algorithm, ..SortSpec::default() };
        let never = CancelToken::never();

        println!(
            "device = {}, b = {b}, N = bE·2^{doublings}, backend = {backend}, algorithm = {algorithm}",
            device.name
        );
        println!(
            "{:>4} {:>10} {:>14} {:>14} {:>10} {:>12}",
            "E", "N", "random ME/s", "worst ME/s", "slowdown", "worst beta2"
        );
        // Rows computed in parallel (`--jobs`), printed strictly in E
        // order so the output is byte-identical to the sequential path.
        args.emit_rows((3..32).step_by(2).collect(), |e| {
            let params = SortParams::new(32, e, b)?;
            let n = params.block_elems() << doublings;
            let spec = WorkloadSpec::RandomPermutation { seed: 3 };
            let random = measure(&device, &params, spec, n, 2, backend, &sort, &never)?;
            let worst =
                measure(&device, &params, WorkloadSpec::WorstCase, n, 1, backend, &sort, &never)?;
            Ok(format!(
                "{e:>4} {n:>10} {:>14.1} {:>14.1} {:>9.1}% {:>12.2}",
                random.throughput / 1e6,
                worst.throughput / 1e6,
                (random.throughput / worst.throughput - 1.0) * 100.0,
                worst.beta2
            ))
        })?;
        println!();
        println!("Reading (§III-C): worst-case beta2 tracks E (small case exactly E, large");
        println!("case the Theorem 9 fraction); random throughput peaks at mid-range E where");
        println!("partitioning work and per-round conflicts balance — the libraries' E=15/17.");
        Ok(())
    })
}
