//! The price of conflict-freedom (§I): compare the merge sort (pairwise
//! by default, k-way multiway with `--algorithm multiway`) against a
//! data-oblivious bitonic network on random and worst-case inputs.
//! Bitonic's conflicts cannot be influenced by any input — but it pays
//! Θ(log N) extra passes. This quantifies the paper's remark that
//! conflict-free algorithms "come at a price of … more overall work".
//!
//! Run with `--help` for the flags; `--backend` and `--algorithm` apply
//! to the merge sort, bitonic always simulates.

use std::process::ExitCode;

use wcms_bench::cliargs::{ADHOC_FLAGS, SWEEP_FLAGS};
use wcms_bench::experiment::model_time;
use wcms_bench::panel::AdhocArgs;
use wcms_error::{cli, CancelToken, WcmsError};
use wcms_gpu_sim::DeviceSpec;
use wcms_mergesort::bitonic::bitonic_sort_with_report;
use wcms_mergesort::{SortParams, SortReport, SortSpec};
use wcms_workloads::random::random_permutation;

fn main() -> ExitCode {
    cli::main("compare_sorts", &[ADHOC_FLAGS, SWEEP_FLAGS], |argv| {
        let args = AdhocArgs::from_args(argv)?;
        let device = DeviceSpec::quadro_m4000();
        // Power-of-two tile so both sorts accept the same sizes. With a
        // power-of-two E, the pairwise sort's worst case is *sorted order*
        // itself (§III: gcd(w, E) = E) — no constructed permutation needed.
        let params = SortParams::new(32, 16, 128)?; // bE = 2048
        let doublings = if args.quick { 3..=6 } else { 3..=9 };
        let worst_input = |n: usize| -> Vec<u32> { (0..n as u32).collect() };
        let (backend, algorithm) = (args.backend, args.algorithm);
        let spec = SortSpec { algorithm, ..SortSpec::default() };
        let never = CancelToken::never();

        println!(
            "device = {}, {algorithm} E=16/b=128 (backend = {backend}) vs bitonic (same tile)",
            device.name
        );
        println!("(worst input for E = 16 is sorted order: gcd(w, E) = E, Fig. 1's case)");
        println!(
            "{:>10} {:>16} {:>16} {:>16} {:>16}",
            "N", "merge rnd", "merge worst", "bitonic rnd", "bitonic worst"
        );
        println!("{:>10} {:>16} {:>16} {:>16} {:>16}", "", "(ms)", "(ms)", "(ms)", "(ms)");
        // Rows computed in parallel (`--jobs`), printed in N order so
        // output bytes never depend on the worker count.
        args.emit_rows(doublings.collect(), |d| {
            let n = params.block_elems() << d;
            let random = random_permutation(n, 17);
            let worst = worst_input(n);
            let time = |report: &SortReport| -> Result<f64, WcmsError> {
                Ok(model_time(&device, &params, report)? * 1e3)
            };

            let (_, pr) = backend.sort(&random, &params, &spec, &never)?;
            let (_, pw) = backend.sort(&worst, &params, &spec, &never)?;
            let (_, br) = bitonic_sort_with_report(&random, &params)?;
            let (_, bw) = bitonic_sort_with_report(&worst, &params)?;
            assert_eq!(
                br.total().shared,
                bw.total().shared,
                "bitonic conflicts must be input-independent"
            );
            Ok(format!(
                "{n:>10} {:>16.4} {:>16.4} {:>16.4} {:>16.4}",
                time(&pr)?,
                time(&pw)?,
                time(&br)?,
                time(&bw)?
            ))
        })?;
        println!();
        println!("bitonic's two columns are identical (data-oblivious: immune to the");
        println!("adversary) but both sit above the merge-sort random column — the log N");
        println!("extra passes the paper's intro calls the price of conflict-freedom.");
        Ok(())
    })
}
