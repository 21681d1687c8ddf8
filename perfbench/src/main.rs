//! `perfbench` — the repository's benchmark.
//!
//! Usage: `perfbench --workload <figs-analytic|fig4-sim|serve-mix>
//!   --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run through `bash perfbench/run.sh ...` from the repository root,
//! which builds this binary and the `wcms-serve` daemon first. The
//! last line of stdout is the result object (`correct`, `attempted`,
//! `failed`, `metrics`); the line before it is the detail object with
//! every metric's sample count, median and quartiles plus `nproc` and
//! the source revision. With `--trace 0` the result line holds exactly
//! the manifest's end-to-end metrics, with `--trace 1` exactly its
//! per-layer ones; every workload reports all of them, and whatever
//! else a workload measures goes to the detail line. A failed
//! correctness gate prints `"correct":false` and exits 1.

mod awake;
mod grid;
mod loadgen;
mod serve;
mod stats;
mod timed;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use wcms_error::WcmsError;
use wcms_mergesort::BackendKind;

use crate::stats::{jstr, RunResult};

/// The end-to-end metrics of `BENCHMARK.json`, in its order: the ones
/// every workload measures with tracing off.
const END_TO_END: [&str; 3] = ["keys_per_s", "peak_rss_mib", "setup_s"];

/// The per-layer metrics of `BENCHMARK.json`, in its order: the layers
/// every workload runs. Layers only some workloads run (the partition
/// unit, supervision, sweep scheduling, the daemon's) are reported in
/// the detail line of those workloads.
const PER_LAYER: [&str; 18] = [
    "core.worst_case.ns_per_key",
    "core.worst_case.keys",
    "workloads.random.ns_per_key",
    "workloads.random.keys",
    "mergesort.base_block.calls",
    "mergesort.base_block.busy_s",
    "mergesort.base_block.ns_per_key",
    "mergesort.base_block.shared_steps",
    "mergesort.base_block.conflict_cycles",
    "mergesort.merge_unit.calls",
    "mergesort.merge_unit.busy_s",
    "mergesort.merge_unit.ns_per_merge_step",
    "mergesort.merge_unit.merge_steps",
    "mergesort.merge_unit.conflict_cycles",
    "mergesort.driver.self_s",
    "mergesort.driver.bytes_moved",
    "mergesort.sort.busy_s",
    "trace_overhead_pct",
];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn bad(msg: String) -> WcmsError {
    WcmsError::Io(std::io::Error::new(std::io::ErrorKind::InvalidInput, msg))
}

fn parse_args(argv: &[String]) -> Result<Args, WcmsError> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| bad(format!("{flag} needs a value")))?;
        let parse_err = || bad(format!("bad value for {flag}: {value}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| parse_err())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| parse_err())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(format!("--trace takes 0 or 1, not {value}"))),
                }
            }
            _ => return Err(bad(format!("unknown flag {flag}"))),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(bad(format!("--seconds {} outside (0, 600]", args.seconds)));
    }
    Ok(args)
}

/// Peak resident set (`VmHWM`) of a process, in MiB; `pid` is a number
/// or `self`.
pub fn peak_rss_mib(pid: &str) -> Result<f64, WcmsError> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| bad(format!("no VmHWM in /proc/{pid}/status")))?;
    Ok(kib / 1024.0)
}

/// The source revision: `git rev-parse HEAD` where the tree is a git
/// checkout, else `unknown`.
fn revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn run(args: &Args, scratch: &Path) -> Result<RunResult, WcmsError> {
    match args.workload.as_str() {
        "figs-analytic" => grid::GridWorkload {
            figures: &["fig4", "fig5", "fig6"],
            backend: BackendKind::Analytic,
            jobs: nproc(),
        }
        .run(args.seconds, args.trace, scratch),
        "fig4-sim" => grid::GridWorkload { figures: &["fig4"], backend: BackendKind::Sim, jobs: 1 }
            .run(args.seconds, args.trace, scratch),
        "serve-mix" => awake::with_cores_awake(nproc(), || {
            serve::run(args.seed, args.seconds, args.trace, scratch)
        }),
        other => Err(bad(format!(
            "unknown workload {other:?} (expected figs-analytic, fig4-sim or serve-mix)"
        ))),
    }
}

/// Put exactly the manifest's metrics for this mode in the result line,
/// in the manifest's order, and move every other metric to the detail
/// line. A manifest metric the workload did not produce, or produced
/// without a finite value, is an error.
fn select(result: &mut RunResult, trace: bool) -> Result<(), WcmsError> {
    let names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut rest = std::mem::take(&mut result.metrics);
    for name in names {
        let i = rest
            .iter()
            .position(|m| m.name == *name)
            .ok_or_else(|| bad(format!("the workload did not measure {name}")))?;
        let m = rest.remove(i);
        if !m.value.is_finite() {
            return Err(bad(format!("{name} has no finite value: {}", m.value)));
        }
        result.metrics.push(m);
    }
    rest.append(&mut result.extra);
    result.extra = rest;
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Scratch space inside the checkout, one directory per process.
    let scratch = PathBuf::from(".perfbench-tmp").join(std::process::id().to_string());
    let outcome = std::fs::create_dir_all(&scratch)
        .map_err(WcmsError::from)
        .and_then(|()| run(&args, &scratch))
        .and_then(|mut r| select(&mut r, args.trace).map(|()| r));
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".perfbench-tmp"); // only if no other run uses it
    match outcome {
        Ok(mut result) => {
            result.context.insert(0, ("workload", jstr(&args.workload)));
            result.context.insert(1, ("seed", args.seed.to_string()));
            result.context.insert(2, ("trace", args.trace.to_string()));
            result.context.insert(3, ("nproc", nproc().to_string()));
            result.context.insert(4, ("revision", jstr(&revision())));
            println!("{}", result.detail_json());
            println!("{}", result.result_json(true));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            println!("{}", RunResult::default().result_json(false));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Metric;

    /// The metric names listed under `key` in the manifest, in order.
    fn manifest_names(key: &str) -> Vec<String> {
        let manifest = include_str!("../../BENCHMARK.json");
        let start = manifest.find(&format!("\"{key}\"")).expect("manifest key");
        let section = &manifest[start..];
        let section = &section[..section.find(']').expect("list end")];
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|r| r[..r.find('"').expect("name end")].to_string())
            .collect()
    }

    #[test]
    fn metric_lists_match_the_manifest() {
        assert_eq!(manifest_names("end_to_end"), END_TO_END);
        assert_eq!(manifest_names("per_layer"), PER_LAYER);
    }

    #[test]
    fn select_keeps_the_manifest_metrics_and_moves_the_rest() {
        let mut r = RunResult {
            metrics: vec![
                Metric::single("setup_s", "s", 0.5),
                Metric::single("paper_gap_pp", "pp", 20.0),
                Metric::single("peak_rss_mib", "MiB", 9.0),
                Metric::single("keys_per_s", "1/s", 1e6),
            ],
            ..RunResult::default()
        };
        select(&mut r, false).expect("all present");
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END);
        assert_eq!(r.extra.len(), 1);
        assert_eq!(r.extra[0].name, "paper_gap_pp");

        let mut missing = RunResult {
            metrics: vec![Metric::single("setup_s", "s", 0.5)],
            ..RunResult::default()
        };
        assert!(select(&mut missing, false).is_err());
        let mut nan = RunResult {
            metrics: END_TO_END.iter().map(|n| Metric::single(n, "s", f64::NAN)).collect(),
            ..RunResult::default()
        };
        assert!(select(&mut nan, false).is_err());
    }
}
