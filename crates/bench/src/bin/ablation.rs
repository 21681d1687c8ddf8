//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Near-worst-case dial** (Conclusion, point 3) — slowdown as a
//!    function of how many global rounds are adversarial.
//! 2. **Worst-case family** (Conclusion, point 2) — throughput variance
//!    across family members (should be ~zero).
//! 3. **Base-block order** — the default shuffled base vs. the ascending
//!    base (`build_sorted_base`) that under-charges the base case.
//! 4. **Cost-model overlap** — how the modelled slowdown responds to the
//!    overlap knob (0 = perfect overlap … 1 = additive).
//!
//! Usage: `ablation [--quick] [--backend <sim|analytic|reference>]
//!                  [--algorithm <pairwise|multiway>] [--jobs <n>]`

use std::process::ExitCode;

use wcms_bench::experiment::model_time;
use wcms_bench::panel::adhoc_binary_main;
use wcms_bench::supervisor::parallel_map;
use wcms_core::{WorstCaseBuilder, WorstCaseFamily};
use wcms_error::{CancelToken, WcmsError};
use wcms_gpu_sim::{CostModel, DeviceSpec, Occupancy};
use wcms_mergesort::{SortParams, SortReport, SortSpec};
use wcms_workloads::random::random_permutation;

fn main() -> ExitCode {
    adhoc_binary_main("ablation", |args| {
        let device = DeviceSpec::quadro_m4000();
        let params = SortParams::new(32, 15, 128)?;
        let doublings = if args.quick { 4 } else { 6 };
        let n = params.block_elems() << doublings;
        let builder = WorstCaseBuilder::new(params.w, params.e, params.b)?;
        let (backend, algorithm) = (args.backend, args.algorithm);
        let spec = SortSpec { algorithm, ..SortSpec::default() };
        let never = CancelToken::never();

        let report_of = |input: &[u32]| -> Result<SortReport, WcmsError> {
            let (out, report) = backend.sort(input, &params, &spec, &never)?;
            assert!(out.windows(2).all(|w| w[0] <= w[1]));
            Ok(report)
        };
        let time_of = |report: &SortReport| model_time(&device, &params, report);

        let random_report = report_of(&random_permutation(n, 11))?;
        let random_t = time_of(&random_report)?;
        println!(
            "device={}, E={}, b={}, N={n}, backend={backend}, algorithm={algorithm}, \
             random baseline {:.3} ms\n",
            device.name,
            params.e,
            params.b,
            random_t * 1e3
        );

        // --- 1. Near-worst-case dial.
        println!("## adversarial rounds dial (of {} global rounds)", params.global_rounds(n));
        println!("{:>8} {:>12} {:>12} {:>10}", "rounds", "beta2", "time (ms)", "slowdown");
        // Dial positions measured in parallel (`--jobs`), printed in order.
        args.emit_rows((0..=params.global_rounds(n)).collect(), |k| {
            let r = report_of(&builder.build_partial(n, k)?)?;
            let t = time_of(&r)?;
            Ok(format!(
                "{k:>8} {:>12.2} {:>12.3} {:>9.1}%",
                r.global_beta2().unwrap_or(1.0),
                t * 1e3,
                (t / random_t - 1.0) * 100.0
            ))
        })?;

        // --- 2. Family variance.
        println!("\n## worst-case family variance (5 members)");
        let members: Vec<Vec<u32>> =
            WorstCaseFamily::new(params.w, params.e, params.b, n, 100)?.take(5).collect();
        let times: Vec<f64> = parallel_map(members, args.jobs, |_, m| time_of(&report_of(&m)?))
            .into_iter()
            .collect::<Result<_, _>>()?;
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let spread = times.iter().map(|t| (t / mean - 1.0).abs()).fold(0.0, f64::max);
        println!(
            "mean {:.3} ms, max relative deviation {:.4}% (conflicts identical by construction)",
            mean * 1e3,
            spread * 100.0
        );

        // --- 3. Base-block order.
        println!("\n## base-block order");
        for (label, input) in [
            ("shuffled base (default)", builder.build(n)?),
            ("ascending base", builder.build_sorted_base(n)?),
        ] {
            let r = report_of(&input)?;
            println!(
                "{label:>26}: base-case shared cycles {:>10}, global-round beta2 {:.2}, time {:.3} ms",
                r.base.shared.combined().cycles,
                r.global_beta2().unwrap_or(1.0),
                time_of(&r)? * 1e3
            );
        }

        // --- 3b. Shared-memory padding (the Dotsenko mitigation).
        println!("\n## shared-memory padding mitigation");
        let padded_params = SortParams::new(params.w, params.e, params.b)?.with_padding();
        let worst_input = builder.build(n)?;
        for (label, p) in [("flat tiles", &params), ("padded tiles", &padded_params)] {
            let (out, r) = backend.sort(&worst_input, p, &spec, &never)?;
            assert!(out.windows(2).all(|w| w[0] <= w[1]));
            println!(
                "{label:>14}: beta2 {:.2}, conflicts/elem {:.3}, tile {} B",
                r.global_beta2().unwrap_or(1.0),
                r.conflicts_per_element(),
                p.shared_bytes()
            );
        }

        // --- 4. Cost-model overlap knob.
        println!("\n## cost-model overlap sensitivity");
        let worst_report = report_of(&builder.build(n)?)?;
        let occ = Occupancy::compute(&device, params.b, params.shared_bytes())?;
        println!("{:>8} {:>14} {:>14} {:>10}", "overlap", "random (ms)", "worst (ms)", "slowdown");
        for overlap in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let model = CostModel { overlap, ..CostModel::default() };
            let t = |r: &SortReport| {
                model.estimate(&device, &occ, &r.kernel_counters(), r.blocks_launched()).total_s
            };
            let (tr, tw) = (t(&random_report), t(&worst_report));
            println!(
                "{overlap:>8.2} {:>14.3} {:>14.3} {:>9.1}%",
                tr * 1e3,
                tw * 1e3,
                (tw / tr - 1.0) * 100.0
            );
        }
        Ok(())
    })
}
