//! Shared command-line parsing for the figure binaries: the flag
//! tables (run any binary with `--help` for the generated list) and
//! their meaning.
//!
//! The shard modes (`--shard-index/--shard-count`, `--steal`,
//! `--replay`) make n independent *processes* cooperate on one grid
//! through a shared checkpoint directory; they imply `--resume` (a
//! fresh-run clear would wipe the other workers' cells), require
//! checkpointing, and turn metrics recording on so each shard can
//! export its counters for the `merge` step.
//!
//! Checkpoints are written on every run (they are tiny), so `--resume`
//! on the next invocation picks up whatever a killed sweep finished.
//! Without `--resume` the figure's checkpoint directory is cleared
//! first — stale cells from an older configuration must not leak in.
//! The directory carries a manifest fingerprinting the configuration
//! that wrote it (figure, backend, grid, seed, schema); `--resume`
//! validates the manifest and refuses with a
//! [`WcmsError::CheckpointMismatch`] rather than stitch foreign cells
//! into the sweep. (`--jobs` is deliberately *not* in the fingerprint:
//! the worker count changes scheduling, never results, so resuming a
//! `--jobs 1` sweep with `--jobs 8` is fine.)

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use wcms_error::cli::{invalid, Args, Flag};
use wcms_error::WcmsError;
use wcms_mergesort::{AlgorithmKind, BackendKind};
use wcms_obs::{Clock, Obs, RingCollector, TraceContext};

use crate::checkpoint::{CheckpointStore, SweepFingerprint};
use crate::experiment::SweepConfig;
use crate::figures::RANDOM_SEED;
use crate::panel::AdhocArgs;
use crate::resilient::ResilienceConfig;
use crate::shard::{RetryJitter, ShardPolicy, DEFAULT_LEASE_TTL};
use crate::supervisor::SweepOptions;

/// Sweep size, shared by the figure family and `crossval`.
pub const SIZE_FLAGS: &[Flag] = &[
    Flag::switch("--quick", "smallest grid, for CI and smoke runs"),
    Flag::switch("--standard", "the default grid"),
    Flag::switch("--full", "the paper-scale grid"),
];

/// The surface every sweeping binary speaks, ad-hoc studies included.
pub const SWEEP_FLAGS: &[Flag] = &[
    Flag::value("--backend", "sim|analytic|reference", "execution backend (default sim)"),
    Flag::value("--algorithm", "pairwise|multiway", "sort algorithm (default pairwise)"),
    Flag::value("--jobs", "n", "worker threads (default 1)"),
    Flag::value("--shard-index", "i", "static sharding: run cells i, i+count, ..."),
    Flag::value("--shard-count", "n", "...of an n-way split of the grid"),
];

/// The checkpointed sweeps' flags (figures, `summary`, `karsin`, `merge`).
pub const FIGURE_FLAGS: &[Flag] = &[
    Flag::switch("--markdown", "markdown tables instead of CSV"),
    Flag::switch("--resume", "reuse checkpointed cells from a prior run"),
    Flag::value("--timeout", "secs", "per-cell wall-clock budget"),
    Flag::value("--retries", "k", "extra attempts per failed or timed-out cell"),
    Flag::value("--checkpoint-dir", "dir", "override results/.checkpoint/<figure>/<backend>"),
    Flag::switch("--no-checkpoint", "disable checkpointing entirely"),
    Flag::value("--trace", "path", "write a JSONL span/event journal of the run"),
    Flag::value("--trace-parent", "t/s", "adopt a caller's trace context (wire form)"),
    Flag::value("--metrics", "path", "write a Prometheus text metrics snapshot"),
    Flag::switch("--steal", "dynamic work stealing over the shared store"),
    Flag::value("--worker-id", "id", "stable worker name for --steal (required)"),
    Flag::value("--lease-ttl", "secs", "steal leases after this long (default 30)"),
    Flag::switch("--replay", "render entirely from checkpointed cells"),
];

/// Every table a figure binary accepts.
pub const FIGURE_TABLES: &[&[Flag]] = &[SIZE_FLAGS, SWEEP_FLAGS, FIGURE_FLAGS];

/// `merge`'s own flags, read ahead of [`FIGURE_TABLES`].
pub const MERGE_FLAGS: &[Flag] = &[
    Flag::value("--figure", "fig4|fig5|fig6", "the figure to re-render (required)"),
    Flag::value("--from", "dir", "join this per-shard checkpoint dir first (repeatable)"),
];

/// With [`SWEEP_FLAGS`], the ad-hoc studies' whole shared surface.
pub const ADHOC_FLAGS: &[Flag] = &[Flag::switch("--quick", "smaller grids for CI and smoke runs")];

/// Parsed figure-binary arguments.
#[derive(Debug, Clone)]
pub struct FigureArgs {
    /// How to run the sweep: grid, per-cell policy, backend, workers.
    pub opts: SweepOptions,
    /// Render markdown instead of CSV.
    pub markdown: bool,
    /// `--trace`: where to write the JSONL span/event journal.
    pub trace: Option<PathBuf>,
    /// `--metrics`: where to write the Prometheus text snapshot.
    pub metrics: Option<PathBuf>,
    /// The trace ring the sweep's recorder fills (present iff `--trace`).
    pub ring: Option<Arc<RingCollector>>,
}

impl FigureArgs {
    /// The execution backend (shorthand for `opts.backend`).
    #[must_use]
    pub fn backend(&self) -> BackendKind {
        self.opts.backend
    }

    /// The sweep's observability bundle (shorthand for
    /// `opts.resilience.obs`).
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.opts.resilience.obs
    }

    /// Flush the `--trace` journal and `--metrics` snapshot to their
    /// paths. The panel scaffolding calls this once, after the last
    /// panel rendered; without either flag it is a no-op.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when an output path cannot be
    /// written.
    pub fn export_observability(&self) -> Result<(), WcmsError> {
        if let (Some(path), Some(ring)) = (&self.trace, &self.ring) {
            let (records, dropped) = ring.drain();
            if dropped > 0 {
                // Count the loss *before* the metrics snapshot renders,
                // so `obs_dropped_spans_total` and the journal's
                // dropped-records meta line always agree.
                self.obs().metrics.counter("obs_dropped_spans_total").add(dropped);
            }
            std::fs::write(path, wcms_obs::journal_jsonl(&records, dropped))?;
        }
        if let Some(path) = &self.metrics {
            std::fs::write(path, self.obs().metrics.prometheus_text())?;
        }
        Ok(())
    }
}

/// Parse `args` (without the program name) for the figure `figure`.
///
/// # Errors
///
/// Argument errors are reported as `Io(InvalidInput)` with the message;
/// a `--resume` against a foreign checkpoint directory as
/// [`WcmsError::CheckpointMismatch`]; checkpoint-directory failures as
/// their underlying I/O error.
pub fn parse_figure_args(figure: &str, args: &[String]) -> Result<FigureArgs, WcmsError> {
    figure_args(figure, &Args::parse(figure, FIGURE_TABLES, args)?)
}

/// The sweep size `--quick`, `--standard` (the default) or `--full`.
///
/// # Errors
///
/// Rejects more than one of the three.
pub fn sweep_size(args: &Args) -> Result<SweepConfig, WcmsError> {
    match (args.flag("--quick"), args.flag("--standard"), args.flag("--full")) {
        (false, _, false) => Ok(SweepConfig::standard()),
        (true, false, false) => Ok(SweepConfig::quick()),
        (false, false, true) => Ok(SweepConfig::full()),
        _ => Err(invalid("--quick, --standard and --full are mutually exclusive")),
    }
}

/// [`FigureArgs`] from parsed [`FIGURE_TABLES`] flags.
///
/// # Errors
///
/// As [`parse_figure_args`].
pub fn figure_args(figure: &str, args: &Args) -> Result<FigureArgs, WcmsError> {
    let sweep = sweep_size(args)?;
    let AdhocArgs { backend, algorithm, jobs, shard, .. } = AdhocArgs::from_args(args)?;

    let mut resilience = ResilienceConfig::none();
    if let Some(secs) = args.get::<f64>("--timeout")? {
        if !(secs.is_finite() && secs > 0.0) {
            return Err(invalid(format!("--timeout {secs}: must be positive and finite")));
        }
        resilience.timeout = Some(Duration::from_secs_f64(secs));
        resilience.backoff = Duration::from_millis(100);
    }
    if let Some(k) = args.get("--retries")? {
        resilience.retries = k;
        if resilience.backoff.is_zero() {
            resilience.backoff = Duration::from_millis(100);
        }
    }

    let trace = args.value("--trace").map(PathBuf::from);
    let metrics = args.value("--metrics").map(PathBuf::from);
    let mut ring = None;
    if trace.is_some() {
        // Tracing implies metrics recording; both share one bundle.
        let collector = Arc::new(RingCollector::new());
        ring = Some(collector.clone());
        resilience.obs = Obs::with_recorder(collector, Clock::wall());
    } else if metrics.is_some() {
        resilience.obs = Obs::enabled(Clock::wall());
    }
    if let Some(parent) = args.value("--trace-parent") {
        // A daemon (or a wrapping script) hands its context to the
        // worker here; the sweep span then parents to the caller's
        // span and the whole fleet joins into one causal tree.
        let ctx = TraceContext::decode(parent)
            .map_err(|e| invalid(format!("--trace-parent {parent}: {e}")))?;
        resilience.obs = resilience.obs.with_context(ctx);
    }
    if ring.is_some() {
        // The epoch record anchors this journal's monotonic timestamps
        // to wall time, so `wcms-trace join` can align it with the
        // other processes' journals.
        let process =
            shard.worker_label().map_or_else(|| figure.to_string(), |w| format!("{figure}/{w}"));
        resilience.obs.emit_epoch(&process);
    }

    if !shard.is_off() {
        if args.flag("--no-checkpoint") {
            return Err(invalid(
                "--no-checkpoint: shard modes coordinate through the checkpoint store",
            ));
        }
        // Per-shard metrics are the merge step's input — always record
        // them in shard mode, even without --metrics/--trace.
        if !resilience.obs.is_active() {
            resilience.obs = Obs::enabled(Clock::wall());
        }
        // Co-scheduled workers retrying the same flaky cell must not
        // synchronize; jitter streams key on the pid-independent
        // worker label, so any one worker still replays exactly.
        if let Some(stream) = shard.worker_label() {
            resilience.jitter = Some(RetryJitter { seed: RANDOM_SEED, stream });
        }
    }
    // Shard modes imply --resume: the store is shared, and a fresh-run
    // clear() here would destroy cells the other workers committed.
    let resume = args.flag("--resume") || !shard.is_off();
    if !args.flag("--no-checkpoint") {
        // Namespace the default per backend: sim and analytic sweeps of
        // the same figure must never share (or clear) each other's cells.
        // The algorithm joins the namespace the same way — but pairwise
        // keeps the historical un-suffixed directory, so existing
        // pairwise checkpoints survive this flag's introduction.
        let dir = args.value("--checkpoint-dir").map(String::from).unwrap_or_else(|| {
            if algorithm == AlgorithmKind::Pairwise {
                format!("results/.checkpoint/{figure}/{backend}")
            } else {
                format!("results/.checkpoint/{figure}/{backend}-{algorithm}")
            }
        });
        let fingerprint = SweepFingerprint {
            figure: figure.to_string(),
            backend: backend.name().to_string(),
            algorithm: algorithm.name().to_string(),
            min_doublings: sweep.min_doublings,
            max_doublings: sweep.max_doublings,
            runs: sweep.runs,
            seed: RANDOM_SEED,
        };
        resilience.checkpoint = Some(CheckpointStore::open_for(dir, &fingerprint, resume)?);
    }

    Ok(FigureArgs {
        opts: SweepOptions { sweep, resilience, backend, algorithm, jobs, shard },
        markdown: args.flag("--markdown"),
        trace,
        metrics,
        ring,
    })
}

/// Parse the multi-process sharding flags: `--shard-index <i>
/// --shard-count <n>` (static), `--steal --worker-id <id> [--lease-ttl
/// <secs>]` (dynamic), or `--replay` (render from checkpoints only). A
/// binary whose table lacks the lease-based flags gets static sharding
/// or none.
///
/// # Errors
///
/// Rejects mixed modes, a lone `--shard-index`/`--shard-count`, an
/// out-of-range index, `--steal` without a worker id, a lease TTL that
/// is not positive or exceeds 1e9 s, and `--worker-id`/`--lease-ttl`
/// outside `--steal`.
pub fn shard_from_args(args: &Args) -> Result<ShardPolicy, WcmsError> {
    /// Longest `--lease-ttl`: keeps every lease deadline (epoch ms)
    /// inside the 2^53 range lease files store exactly.
    const MAX_LEASE_TTL_S: f64 = 1e9;
    let steal = args.flag("--steal");
    let replay = args.flag("--replay");
    let static_mode = args.flag("--shard-index") || args.flag("--shard-count");
    if usize::from(steal) + usize::from(replay) + usize::from(static_mode) > 1 {
        return Err(invalid(
            "--shard-index/--shard-count, --steal and --replay are mutually exclusive",
        ));
    }
    if !steal {
        for flag in ["--worker-id", "--lease-ttl"] {
            if args.flag(flag) {
                return Err(invalid(format!("{flag} only makes sense with --steal")));
            }
        }
    }
    if replay {
        return Ok(ShardPolicy::Replay);
    }
    if steal {
        let worker = args
            .value("--worker-id")
            .ok_or_else(|| {
                invalid(
                    "--steal requires --worker-id <id>: a stable, pid-independent worker \
                     name (lease ownership and jitter must survive restarts)",
                )
            })?
            .to_string();
        if worker.is_empty() || worker.starts_with("--") {
            return Err(invalid(format!("--worker-id {worker}: not a worker name")));
        }
        let ttl = match args.get::<f64>("--lease-ttl")? {
            None => DEFAULT_LEASE_TTL,
            Some(secs) if secs > 0.0 && secs <= MAX_LEASE_TTL_S => Duration::from_secs_f64(secs),
            Some(secs) => {
                return Err(invalid(format!(
                    "--lease-ttl {secs}: must be positive and at most {MAX_LEASE_TTL_S:e} s"
                )))
            }
        };
        return Ok(ShardPolicy::Steal { worker, ttl });
    }
    if static_mode {
        let (Some(index), Some(count)) =
            (args.get::<usize>("--shard-index")?, args.get::<usize>("--shard-count")?)
        else {
            return Err(invalid("--shard-index and --shard-count must be given together"));
        };
        if count == 0 {
            return Err(invalid("--shard-count 0: need at least one shard"));
        }
        if index >= count {
            return Err(invalid(format!(
                "--shard-index {index}: out of range for --shard-count {count}"
            )));
        }
        return Ok(ShardPolicy::Static { index, count });
    }
    Ok(ShardPolicy::Off)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CellResult, LoadOutcome};
    use std::io::ErrorKind;

    fn strs(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn defaults_are_standard_sequential_and_checkpointed() {
        let dir = std::env::temp_dir().join(format!("wcms-cli-{}", std::process::id()));
        let a =
            parse_figure_args("figX", &strs(&["--checkpoint-dir", dir.to_str().unwrap()])).unwrap();
        assert_eq!(a.opts.sweep.max_doublings, SweepConfig::standard().max_doublings);
        assert_eq!(a.backend(), BackendKind::Sim);
        assert_eq!(a.opts.algorithm, AlgorithmKind::Pairwise, "default is the paper's sort");
        assert_eq!(a.opts.jobs, 1);
        assert!(!a.markdown);
        assert!(a.opts.resilience.timeout.is_none());
        assert!(a.opts.resilience.checkpoint.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn timeout_and_retries_parse() {
        let a = parse_figure_args(
            "figX",
            &strs(&["--quick", "--no-checkpoint", "--timeout", "2.5", "--retries", "4"]),
        )
        .unwrap();
        assert_eq!(a.opts.resilience.timeout, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(a.opts.resilience.retries, 4);
        assert!(a.opts.resilience.checkpoint.is_none());
    }

    #[test]
    fn sweep_flags_parse() {
        let argv = ["--no-checkpoint", "--backend", "analytic", "--algorithm", "multiway"];
        let a = parse_figure_args("figX", &strs(&[&argv[..], &["--jobs", "4"]].concat())).unwrap();
        assert_eq!(a.backend(), BackendKind::Analytic);
        assert_eq!(a.opts.algorithm, AlgorithmKind::Multiway);
        assert_eq!(a.opts.jobs, 4);
    }

    /// A checkpoint written under one algorithm refuses to resume under
    /// another, naming the differing field — multiway cells must never
    /// be stitched into a pairwise sweep.
    #[test]
    fn resume_across_algorithms_refuses_naming_the_field() {
        let dir = std::env::temp_dir().join(format!("wcms-cli-algo-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let _ = parse_figure_args(
            "figX",
            &strs(&["--quick", "--checkpoint-dir", dir.to_str().unwrap()]),
        )
        .unwrap();
        let err = parse_figure_args(
            "figX",
            &strs(&[
                "--quick",
                "--resume",
                "--algorithm",
                "multiway",
                "--checkpoint-dir",
                dir.to_str().unwrap(),
            ]),
        )
        .unwrap_err();
        assert!(
            matches!(err, WcmsError::CheckpointMismatch { field: "algorithm", .. }),
            "expected an algorithm mismatch, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_and_metrics_flags_enable_the_obs_bundle() {
        let base = strs(&["--no-checkpoint"]);
        let a = parse_figure_args("figX", &base).unwrap();
        assert!(!a.obs().is_active(), "no flag: observability stays off");
        assert!(a.ring.is_none());

        let a = parse_figure_args("figX", &strs(&["--no-checkpoint", "--metrics", "/tmp/m.prom"]))
            .unwrap();
        assert!(a.obs().is_active() && !a.obs().is_tracing(), "--metrics: metrics only");
        assert_eq!(a.metrics.as_deref(), Some(std::path::Path::new("/tmp/m.prom")));

        let a = parse_figure_args("figX", &strs(&["--no-checkpoint", "--trace", "/tmp/t.jsonl"]))
            .unwrap();
        assert!(a.obs().is_tracing(), "--trace installs a recorder");
        assert!(a.obs().is_active(), "--trace implies metrics");
        assert!(a.ring.is_some());
    }

    #[test]
    fn trace_parent_adopts_the_wire_context_and_rejects_garbage() {
        let ctx = TraceContext::root(0xC0FFEE, "fleet-obs");
        let wire = ctx.encode();
        let a = parse_figure_args(
            "figX",
            &strs(&["--no-checkpoint", "--trace", "/tmp/t.jsonl", "--trace-parent", &wire]),
        )
        .unwrap();
        let adopted = a.obs().context().expect("--trace-parent must set a context");
        assert_eq!(adopted.trace, ctx.trace);
        assert_eq!(adopted.span, ctx.span);

        // Even without --trace, the context is adopted (a metrics-only
        // worker still stamps leases it claims).
        let a = parse_figure_args("figX", &strs(&["--no-checkpoint", "--trace-parent", &wire]))
            .unwrap();
        assert!(a.obs().context().is_some());

        let err = parse_figure_args(
            "figX",
            &strs(&["--no-checkpoint", "--trace-parent", "not-a-context"]),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--trace-parent"), "{err}");
    }

    /// Bad flags of every kind are typed errors, before any work runs.
    #[test]
    fn bad_flags_are_typed_errors() {
        let adhoc: &[&[Flag]] = &[ADHOC_FLAGS, SWEEP_FLAGS];
        let merge: &[&[Flag]] = &[MERGE_FLAGS, SIZE_FLAGS, SWEEP_FLAGS, FIGURE_FLAGS];
        for (tables, argv, needle) in [
            (FIGURE_TABLES, &["--backend", "gpu"][..], "--backend gpu: unknown backend"),
            (FIGURE_TABLES, &["--algorithm", "bitonic"], "unknown algorithm 'bitonic'"),
            (FIGURE_TABLES, &["--timeout", "soon"], "--timeout soon"),
            (FIGURE_TABLES, &["--timeout", "-1"], "positive"),
            (FIGURE_TABLES, &["--timeout", "inf"], "finite"),
            (FIGURE_TABLES, &["--jobs", "0"], "--jobs 0"),
            (FIGURE_TABLES, &["--jobs"], "--jobs: missing value"),
            (FIGURE_TABLES, &["--jobs=4"], "'--jobs=4'"),
            (FIGURE_TABLES, &["--quik"], "'--quik'"),
            (FIGURE_TABLES, &["--quick", "stray"], "'stray'"),
            (FIGURE_TABLES, &["--quick", "--full"], "mutually exclusive"),
            (FIGURE_TABLES, &["--standard", "--full"], "mutually exclusive"),
            (adhoc, &["--steal"], "'--steal'"),
            (FIGURE_TABLES, &["--steal", "--worker-id", "w", "--lease-ttl", "1e12"], "at most"),
            (FIGURE_TABLES, &["--steal", "--worker-id", "w", "--lease-ttl", "0"], "positive"),
            (merge, &["--figure", "fig4", "--bogus"], "'--bogus'"),
        ] {
            let argv = strs(argv);
            let err = Args::parse("figX", tables, &argv)
                .and_then(|a| figure_args("figX", &a))
                .unwrap_err();
            assert!(matches!(&err, WcmsError::Io(e) if e.kind() == ErrorKind::InvalidInput));
            assert!(err.to_string().contains(needle), "{argv:?}: {err}");
        }
    }

    #[test]
    fn resume_keeps_existing_cells() {
        let dir = std::env::temp_dir().join(format!("wcms-cli-res-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        // Fresh run writes the manifest...
        let a =
            parse_figure_args("figX", &strs(&["--checkpoint-dir", dir.to_str().unwrap()])).unwrap();
        let store = a.opts.resilience.checkpoint.as_ref().unwrap();
        store.store("cell", &CellResult::Skipped { reason: "x".into(), attempts: 1 }).unwrap();
        // ...a fresh re-run clears the cells...
        let a2 =
            parse_figure_args("figX", &strs(&["--checkpoint-dir", dir.to_str().unwrap()])).unwrap();
        let store2 = a2.opts.resilience.checkpoint.as_ref().unwrap();
        assert_eq!(store2.load("cell"), LoadOutcome::Absent);
        store2.store("cell", &CellResult::Skipped { reason: "x".into(), attempts: 1 }).unwrap();
        // ...and a resumed run keeps them.
        let a3 = parse_figure_args(
            "figX",
            &strs(&["--resume", "--checkpoint-dir", dir.to_str().unwrap()]),
        )
        .unwrap();
        let store3 = a3.opts.resilience.checkpoint.as_ref().unwrap();
        assert!(matches!(store3.load("cell"), LoadOutcome::Cached(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_against_a_different_configuration_refuses() {
        let dir = std::env::temp_dir().join(format!("wcms-cli-mis-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let _ = parse_figure_args(
            "figX",
            &strs(&["--quick", "--checkpoint-dir", dir.to_str().unwrap()]),
        )
        .unwrap();
        // Same directory, resumed under a different grid → typed refusal.
        let err = parse_figure_args(
            "figX",
            &strs(&["--full", "--resume", "--checkpoint-dir", dir.to_str().unwrap()]),
        )
        .unwrap_err();
        assert!(
            matches!(err, WcmsError::CheckpointMismatch { field: "grid", .. }),
            "expected a grid mismatch, got {err}"
        );
        // And resuming a sim checkpoint as analytic also refuses.
        let err = parse_figure_args(
            "figX",
            &strs(&[
                "--quick",
                "--resume",
                "--backend",
                "analytic",
                "--checkpoint-dir",
                dir.to_str().unwrap(),
            ]),
        )
        .unwrap_err();
        assert!(
            matches!(err, WcmsError::CheckpointMismatch { field: "backend", .. }),
            "expected a backend mismatch, got {err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
