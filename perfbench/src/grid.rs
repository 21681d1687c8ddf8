//! The figure-grid workloads: `figs-analytic` (Figs. 4, 5 and 6 on the
//! analytic backend, one worker per core) and `fig4-sim` (Fig. 4 on the
//! cycle-accurate sim backend, one worker).
//!
//! Untraced passes take the figure binaries' own path
//! (`parse_figure_args` → `build_figure_panels` → `run_sweep` with a
//! fresh checkpoint store) and render the CSV, which must match the
//! committed golden byte for byte. Traced passes run the same cells
//! through `run_sweep` with the benchmark's own cell body
//! ([`crate::timed::measure_timed`]) and must reproduce every untraced
//! measurement exactly. The grids are the fixed quick paper grids pinned
//! by those goldens, so they take no seed.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wcms_bench::cliargs::parse_figure_args;
use wcms_bench::experiment::{measure_on, Measurement, SweepConfig};
use wcms_bench::figures::RANDOM_SEED;
use wcms_bench::panel::build_figure_panels;
use wcms_bench::summary::slowdown_table;
use wcms_bench::supervisor::{run_sweep, SweepOptions};
use wcms_bench::{CellResult, SweepReport};
use wcms_error::WcmsError;
use wcms_gpu_sim::DeviceSpec;
use wcms_mergesort::params::SortVariant;
use wcms_mergesort::{BackendKind, SortParams};
use wcms_obs::{Clock, Obs};
use wcms_workloads::WorkloadSpec;

use crate::stats::{Metric, RunResult};
use crate::timed::{fail, measure_timed, pipeline_metrics, CellClock, LayerTotals};

/// The committed golden CSV of each quick figure grid.
const GOLDEN: [(&str, &str); 3] = [
    ("fig4", include_str!("../../crates/bench/tests/golden/fig4_quick.csv")),
    ("fig5", include_str!("../../crates/bench/tests/golden/fig5_quick.csv")),
    ("fig6", include_str!("../../crates/bench/tests/golden/fig6_quick.csv")),
];

/// The paper's peak worst-vs-random slowdown (%) per Fig. 4/5 series,
/// keyed by (sub-grid, series prefix).
const PAPER_PEAKS: [(&str, &str, f64); 6] = [
    ("fig4", "Thrust E=15 b=512", 50.49),
    ("fig4", "ModernGPU E=15 b=128", 33.82),
    ("fig5-thrust", "Thrust E=15 b=512", 42.43),
    ("fig5-thrust", "Thrust E=17 b=256", 22.94),
    ("fig5-mgpu", "ModernGPU E=15 b=512", 42.62),
    ("fig5-mgpu", "ModernGPU E=17 b=256", 20.34),
];

/// One grid workload.
pub struct GridWorkload {
    pub figures: &'static [&'static str],
    pub backend: BackendKind,
    pub jobs: usize,
}

/// One cell of a sub-grid, exactly as `wcms_bench::figures` builds it.
#[derive(Debug, Clone)]
struct Cell {
    series: String,
    params: SortParams,
    spec: WorkloadSpec,
    n: usize,
}

/// A sub-grid: one `run_sweep` call of the figure path.
struct SubGrid {
    name: &'static str,
    device: DeviceSpec,
    runs: u64,
    cells: Vec<Cell>,
}

impl SubGrid {
    /// Keys sorted by one pass: every seeded run of every cell.
    fn keys(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| {
                let runs = if c.spec == WorkloadSpec::WorstCase { 1 } else { self.runs };
                (c.n as u64) * runs
            })
            .sum()
    }
}

fn label(name: &str, p: &SortParams, wl: &str) -> String {
    format!("{name} E={} b={} {wl}", p.e, p.b)
}

/// The sub-grids of one figure, rebuilt from the same presets as
/// `wcms_bench::figures` (a drift shows up as a gate failure: the
/// traced cells would no longer match the figure path's).
fn subgrids(figure: &str, sweep: SweepConfig) -> Result<Vec<SubGrid>, WcmsError> {
    let m4000 = DeviceSpec::quadro_m4000();
    let rtx = DeviceSpec::rtx_2080_ti();
    let mgpu = |e, b| SortParams::new(32, e, b).map(|p| p.with_variant(SortVariant::ModernGpu));
    let throughput = |name, device: DeviceSpec, configs: Vec<(&str, SortParams)>| {
        let mut cells = Vec::new();
        for (lib, params) in configs {
            for (wl, spec) in [
                ("worst-case", WorkloadSpec::WorstCase),
                ("random", WorkloadSpec::RandomPermutation { seed: RANDOM_SEED }),
            ] {
                for n in sweep.sizes(&params) {
                    cells.push(Cell { series: label(lib, &params, wl), params, spec, n });
                }
            }
        }
        SubGrid { name, device, runs: sweep.runs, cells }
    };
    Ok(match figure {
        "fig4" => vec![throughput(
            "fig4",
            m4000.clone(),
            vec![("Thrust", SortParams::thrust(&m4000)?), ("ModernGPU", SortParams::mgpu(&m4000)?)],
        )],
        "fig5" => vec![
            throughput(
                "fig5-thrust",
                rtx.clone(),
                vec![
                    ("Thrust", SortParams::thrust_e15_b512(&rtx)?),
                    ("Thrust", SortParams::thrust(&rtx)?),
                ],
            ),
            throughput(
                "fig5-mgpu",
                rtx.clone(),
                vec![("ModernGPU", mgpu(15, 512)?), ("ModernGPU", mgpu(17, 256)?)],
            ),
        ],
        "fig6" => {
            let mut cells = Vec::new();
            for params in [SortParams::new(32, 15, 512)?, SortParams::new(32, 17, 256)?] {
                for n in sweep.sizes(&params) {
                    let series = label("Thrust", &params, "worst-case");
                    cells.push(Cell { series, params, spec: WorkloadSpec::WorstCase, n });
                }
            }
            vec![SubGrid { name: "fig6", device: rtx, runs: 1, cells }]
        }
        other => return Err(fail(format!("no grid for figure {other}"))),
    })
}

/// Untraced measurements keyed by (sub-grid, series, n).
type MeasurementMap = HashMap<(String, String, usize), Measurement>;

/// What one untraced pass over the workload's figures produced.
struct UntracedPass {
    wall_s: f64,
    cells: u64,
    failed: u64,
    measurements: MeasurementMap,
    reports: Vec<(&'static str, SweepReport)>,
}

/// Sweep options exactly as the figure binaries parse them, with a
/// fresh checkpoint store in `dir`.
fn figure_options(
    figure: &str,
    backend: BackendKind,
    jobs: usize,
    dir: &Path,
) -> Result<SweepOptions, WcmsError> {
    let args: Vec<String> = [
        "--quick",
        "--backend",
        backend.name(),
        "--jobs",
        &jobs.to_string(),
        "--checkpoint-dir",
        &dir.to_string_lossy(),
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();
    Ok(parse_figure_args(figure, &args)?.opts)
}

impl GridWorkload {
    fn plan(&self) -> Result<Vec<(&'static str, Vec<SubGrid>)>, WcmsError> {
        self.figures.iter().map(|f| Ok((*f, subgrids(f, SweepConfig::quick())?))).collect()
    }

    /// One pass down the figure binaries' path; every CSV is gated
    /// against its golden.
    fn untraced_pass(
        &self,
        plan: &[(&'static str, Vec<SubGrid>)],
        dir: &Path,
    ) -> Result<UntracedPass, WcmsError> {
        let mut pass = UntracedPass {
            wall_s: 0.0,
            cells: 0,
            failed: 0,
            measurements: HashMap::new(),
            reports: Vec::new(),
        };
        for (figure, grids) in plan {
            let t0 = Instant::now();
            let opts = figure_options(figure, self.backend, self.jobs, &dir.join(figure))?;
            let panels = build_figure_panels(figure, &opts)?;
            let csv: String = panels.iter().map(|p| p.render(self.backend, false).0).collect();
            pass.wall_s += t0.elapsed().as_secs_f64();

            let golden = GOLDEN.iter().find(|(f, _)| f == figure).map(|(_, g)| *g).unwrap_or("");
            if csv != golden {
                return Err(fail(format!("{figure} CSV differs from its committed quick golden")));
            }
            if panels.len() != grids.len() {
                return Err(fail(format!(
                    "{figure}: {} panels for {} sub-grids",
                    panels.len(),
                    grids.len()
                )));
            }
            for (panel, grid) in panels.into_iter().zip(grids) {
                let s = &panel.report.stats;
                pass.cells += s.cells as u64;
                pass.failed += ((s.skipped + s.demoted + s.panicked) as u64).min(s.cells as u64);
                for series in &panel.report.series {
                    for m in &series.points {
                        let key = (grid.name.to_string(), series.label.clone(), m.n);
                        pass.measurements.insert(key, m.clone());
                    }
                }
                pass.reports.push((grid.name, panel.report));
            }
        }
        Ok(pass)
    }

    /// One traced pass: the same cells through `run_sweep` with the
    /// benchmark's timed body. Every cell must reproduce the untraced
    /// pass's measurement exactly.
    fn traced_pass(
        &self,
        plan: &[(&'static str, Vec<SubGrid>)],
        dir: &Path,
        untraced: &MeasurementMap,
    ) -> Result<TracedPass, WcmsError> {
        let mut out = TracedPass::default();
        let sink = Arc::new(Mutex::new(LayerTotals::default()));
        let clock = CellClock::new();
        for (figure, grids) in plan {
            let t0 = Instant::now();
            let mut opts = figure_options(figure, self.backend, self.jobs, &dir.join(figure))?;
            opts.resilience.obs = Obs::with_recorder(clock.clone(), Clock::wall());
            for grid in grids {
                let (device, runs, sink) = (grid.device.clone(), grid.runs, sink.clone());
                let g0 = Instant::now();
                let swept = run_sweep(
                    grid.cells.clone(),
                    &opts,
                    |c| format!("{}/{}/{}", grid.name, c.series, c.n),
                    move |c, backend, token| {
                        measure_timed(&device, &c.params, c.spec, c.n, runs, backend, token, &sink)
                    },
                );
                let sweep_s = g0.elapsed().as_secs_f64();
                let walls: Vec<f64> = clock.take().iter().map(|ns| *ns as f64 * 1e-9).collect();
                out.sweep_s += sweep_s;
                out.largest_cell_s += walls.iter().copied().fold(0.0, f64::max);
                out.cell_wall_s += walls.iter().sum::<f64>();
                out.worker_idle_s +=
                    (self.jobs as f64 * sweep_s - walls.iter().sum::<f64>()).max(0.0);
                for (cell, outcome) in &swept.cells {
                    let key = (grid.name.to_string(), cell.series.clone(), cell.n);
                    let CellResult::Done(m) = &outcome.result else {
                        return Err(fail(format!(
                            "traced cell {key:?} did not complete: {:?}",
                            outcome.result
                        )));
                    };
                    if untraced.get(&key) != Some(m) {
                        return Err(fail(format!(
                            "traced cell {key:?} measured {m:?}, the untraced pass {:?}",
                            untraced.get(&key)
                        )));
                    }
                }
                out.cells += swept.cells.len();
            }
            out.wall_s += t0.elapsed().as_secs_f64();
        }
        if out.cells != untraced.len() {
            return Err(fail(format!(
                "traced pass ran {} cells, untraced {}",
                out.cells,
                untraced.len()
            )));
        }
        out.layers = sink.lock().expect("cell body panicked holding the layer totals").clone();
        Ok(out)
    }

    /// Set-up: open a fresh checkpoint store per figure and measure the
    /// smallest cell of every series once (warm-up).
    fn setup(&self, plan: &[(&'static str, Vec<SubGrid>)], dir: &Path) -> Result<f64, WcmsError> {
        let t0 = Instant::now();
        for (figure, grids) in plan {
            figure_options(figure, self.backend, self.jobs, &dir.join(figure))?;
            for grid in grids {
                let mut seen: Vec<&str> = Vec::new();
                for c in &grid.cells {
                    if !seen.contains(&c.series.as_str()) {
                        seen.push(&c.series);
                        measure_on(&grid.device, &c.params, c.spec, c.n, grid.runs, self.backend)?;
                    }
                }
            }
        }
        Ok(t0.elapsed().as_secs_f64())
    }

    /// Run the workload for `seconds`; `trace` selects per-layer output.
    pub fn run(&self, seconds: f64, trace: bool, scratch: &Path) -> Result<RunResult, WcmsError> {
        let plan = self.plan()?;
        let keys_per_pass: u64 = plan.iter().flat_map(|(_, g)| g).map(SubGrid::keys).sum();
        let mut result = RunResult::default();
        let mut setup_s = Vec::new();
        let mut untraced_kps = Vec::new();
        let mut traced = Vec::new();
        let mut first_reports = None;
        // Start another round only if one more (as long as the last)
        // still ends within `seconds`, so a run never overshoots by a pass.
        // Each round sets up afresh before its passes: set-ups spread over
        // the whole run, so a burst of load on the host moves one of them,
        // not the reported median.
        let t0 = Instant::now();
        let mut k = 0;
        let mut round_s = 0.0;
        while k == 0 || t0.elapsed().as_secs_f64() + round_s <= seconds {
            let r0 = Instant::now();
            setup_s.push(self.setup(&plan, &scratch.join(format!("setup-{k}")))?);
            let pass = self.untraced_pass(&plan, &scratch.join(format!("pass-{k}")))?;
            result.attempted += pass.cells;
            result.failed += pass.failed;
            untraced_kps.push(keys_per_pass as f64 / pass.wall_s);
            if trace {
                let tp = self.traced_pass(
                    &plan,
                    &scratch.join(format!("traced-{k}")),
                    &pass.measurements,
                )?;
                traced.push((tp, pass.wall_s));
            }
            first_reports.get_or_insert(pass.reports);
            k += 1;
            round_s = r0.elapsed().as_secs_f64();
        }

        if trace {
            result.metrics = layer_metrics(traced);
        } else {
            result.metrics.push(Metric::median_of("keys_per_s", "1/s", untraced_kps));
            result.metrics.push(Metric::median_of("setup_s", "s", setup_s));
            result.metrics.push(Metric::single(
                "peak_rss_mib",
                "MiB",
                crate::peak_rss_mib("self")?,
            ));
            if let Some(gap) = paper_gap_pp(first_reports.as_deref().unwrap_or(&[])) {
                result.metrics.push(Metric::single("paper_gap_pp", "pp", gap));
            }
        }
        result.context.push(("backend", crate::stats::jstr(self.backend.name())));
        result.context.push(("jobs", self.jobs.to_string()));
        result.context.push(("passes", k.to_string()));
        result.context.push((
            "error_rate",
            format!("{}", result.failed as f64 / result.attempted.max(1) as f64),
        ));
        Ok(result)
    }
}

/// What a traced pass measured.
#[derive(Debug, Default)]
struct TracedPass {
    wall_s: f64,
    sweep_s: f64,
    cell_wall_s: f64,
    largest_cell_s: f64,
    worker_idle_s: f64,
    cells: usize,
    layers: LayerTotals,
}

/// Per-layer metrics from the traced pass with the median wall time
/// (one pass, so the sort-time decomposition adds up exactly), plus the
/// tracing overhead over all (untraced, traced) pairs.
fn layer_metrics(mut passes: Vec<(TracedPass, f64)>) -> Vec<Metric> {
    let overhead: Vec<f64> = passes.iter().map(|(t, u)| (t.wall_s / u - 1.0) * 100.0).collect();
    passes.sort_by(|a, b| a.0.wall_s.total_cmp(&b.0.wall_s));
    let (p, _) = &passes[(passes.len() - 1) / 2];
    let gen_and_sort_s = p.layers.gen_and_sort_ns() as f64 * 1e-9;
    let mut m = pipeline_metrics(&p.layers);
    m.extend([
        Metric::single("bench.cell.self_s", "s", (p.cell_wall_s - gen_and_sort_s).max(0.0)),
        Metric::single("bench.sweep.largest_cell_share", "ratio", p.largest_cell_s / p.sweep_s),
        Metric::single("bench.sweep.worker_idle_s", "s", p.worker_idle_s),
        Metric::median_of("trace_overhead_pct", "%", overhead),
    ]);
    m
}

/// Mean absolute gap (percentage points) between the modelled peak
/// worst-vs-random slowdown and the paper's, over the Fig. 4/5 series
/// the run measured. `None` when the run covered none of them.
fn paper_gap_pp(reports: &[(&'static str, SweepReport)]) -> Option<f64> {
    let mut gaps = Vec::new();
    for (grid, report) in reports {
        for (series, slowdown) in slowdown_table(&report.series) {
            if let Some((_, _, paper)) =
                PAPER_PEAKS.iter().find(|(g, s, _)| g == grid && *s == series)
            {
                gaps.push((slowdown.peak_percent - paper).abs());
            }
        }
    }
    (gaps.len() == PAPER_PEAKS.len()).then(|| gaps.iter().sum::<f64>() / gaps.len() as f64)
}
