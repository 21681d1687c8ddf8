//! Do the paper's worst-case constructions transfer to the k-way
//! multiway mergesort?
//!
//! Karsin et al. hand-crafted conflict-heavy inputs without analysis and
//! saw them misfire; this paper's §III constructions are provably worst
//! — *for the pairwise sort*. This binary asks the natural follow-up:
//! run the three families (small-E Theorem 3, large-E Theorem 9, and
//! power-of-two E where sorted order is the worst case) under both
//! algorithms and compare each family's conflict profile against a
//! random baseline measured under the same tuning and algorithm. A
//! family "transfers" when it stays more adversarial than random under
//! multiway; the commentary also names multiway's empirically-worst
//! family.
//!
//! Every cell runs through the sweep supervisor: `--jobs` workers,
//! per-cell deadlines/retries, and resumable checkpoints (`--resume`;
//! cells are keyed by family × workload × algorithm × N).
//!
//! Usage: `karsin [--quick|--standard|--full] [--backend <sim|analytic|reference>]
//!               [--jobs <n>] [--resume] [--timeout <secs>] [--retries <k>]
//!               [--checkpoint-dir <dir>] [--no-checkpoint]`

use std::process::ExitCode;

use wcms_bench::checkpoint::CellResult;
use wcms_bench::cliargs::figure_args_from_env;
use wcms_bench::experiment::{measure, Measurement};
use wcms_bench::figures::RANDOM_SEED;
use wcms_bench::supervisor::run_sweep;
use wcms_error::WcmsError;
use wcms_gpu_sim::DeviceSpec;
use wcms_mergesort::{AlgorithmKind, SortParams, SortSpec};
use wcms_workloads::WorkloadSpec;

type Cell = (String, &'static str, SortParams, WorkloadSpec, AlgorithmKind, usize);

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("karsin: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), WcmsError> {
    let args = figure_args_from_env("karsin")?;
    let device = DeviceSpec::quadro_m4000();
    let families = [
        ("small-E (Thm 3)", SortParams::new(32, 3, 64)?, WorkloadSpec::WorstCase),
        ("large-E (Thm 9)", SortParams::new(32, 17, 64)?, WorkloadSpec::WorstCase),
        ("pow2-E (sorted)", SortParams::new(32, 16, 64)?, WorkloadSpec::Sorted),
    ];

    let mut cells: Vec<Cell> = Vec::new();
    for (family, params, spec) in families {
        for algorithm in AlgorithmKind::ALL {
            for n in args.opts.sweep.sizes(&params) {
                cells.push((family.to_string(), "family", params, spec, algorithm, n));
                cells.push((
                    family.to_string(),
                    "random",
                    params,
                    WorkloadSpec::RandomPermutation { seed: RANDOM_SEED },
                    algorithm,
                    n,
                ));
            }
        }
    }

    let runs = args.opts.sweep.runs;
    let obs = args.opts.resilience.obs.clone();
    let dev = device.clone();
    let sweep = run_sweep(
        cells,
        &args.opts,
        |(family, wl, _, _, algorithm, n)| format!("karsin/{family}/{wl}/{algorithm}/{n}"),
        move |(_, _, params, spec, algorithm, n), backend, token| {
            let sort = SortSpec { algorithm, obs: &obs };
            measure(&dev, &params, spec, n, runs, backend, &sort, token)
        },
    );

    eprintln!(
        "# karsin transfer study — device = {}, backend = {} (both algorithms per cell)",
        device.name,
        args.backend()
    );
    println!("family,workload,algorithm,n,beta1,beta2,conflicts_per_element");
    let mut done: Vec<(Cell, Measurement)> = Vec::new();
    for (cell, outcome) in &sweep.cells {
        let (family, wl, _, _, algorithm, n) = cell;
        match &outcome.result {
            CellResult::Done(m) | CellResult::Demoted { m, .. } => {
                println!(
                    "{family},{wl},{algorithm},{n},{:.6},{:.6},{:.6}",
                    m.beta1, m.beta2, m.conflicts_per_element
                );
                done.push((cell.clone(), m.clone()));
            }
            CellResult::Skipped { reason, attempts } => {
                eprintln!(
                    "# gap: karsin/{family}/{wl}/{algorithm}/{n}: {reason} ({attempts} attempts)"
                );
            }
        }
    }
    eprintln!("{}", sweep.stats.summary_line("karsin"));

    // The transfer question: per (family, algorithm), how much worse
    // than the random baseline is the constructed family, averaged over
    // the common sizes?
    let ratio = |family: &str, algorithm: AlgorithmKind| -> Option<f64> {
        let of = |wl: &str, n: usize| {
            done.iter()
                .find(|((f, w, _, _, a, m), _)| {
                    f == family && *w == wl && *a == algorithm && *m == n
                })
                .map(|(_, m)| m.conflicts_per_element)
        };
        let mut ratios = Vec::new();
        for ((f, w, _, _, a, n), m) in &done {
            if f == family && *w == "family" && *a == algorithm {
                if let Some(base) = of("random", *n) {
                    if base > 0.0 {
                        ratios.push(m.conflicts_per_element / base);
                    }
                }
            }
        }
        (!ratios.is_empty()).then(|| ratios.iter().sum::<f64>() / ratios.len() as f64)
    };

    let mut worst: Option<(&str, f64)> = None;
    for (family, _, _) in &families {
        for algorithm in AlgorithmKind::ALL {
            match ratio(family, algorithm) {
                Some(r) => {
                    let verdict = match algorithm {
                        AlgorithmKind::Pairwise => String::new(),
                        AlgorithmKind::Multiway => {
                            if r > 1.05 {
                                " — the construction TRANSFERS".to_string()
                            } else {
                                " — the construction does NOT transfer".to_string()
                            }
                        }
                    };
                    eprintln!(
                        "# {algorithm}: {family}: conflicts/elem {r:.2}x the random baseline{verdict}"
                    );
                    if algorithm == AlgorithmKind::Multiway
                        && worst.is_none_or(|(_, best)| r > best)
                    {
                        worst = Some((family, r));
                    }
                }
                None => eprintln!(
                    "# {algorithm}: {family}: no conflict counters on this backend — verdict n/a"
                ),
            }
        }
    }
    if let Some((family, r)) = worst {
        eprintln!("# multiway empirically-worst family: {family} ({r:.2}x random)");
    }
    args.export_observability()?;
    Ok(())
}
