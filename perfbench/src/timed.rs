//! Per-layer timing from outside the program: a timing wrapper around
//! any `ExecBackend`, a traced cell body for `run_sweep`, and a span
//! recorder that clocks the supervisor's existing `cell` spans.
//!
//! The drivers are generic over `ExecBackend`, so wrapping the backend
//! times every `base_block`, `merge_unit` and `partition_unit` call and
//! sums the `RoundCounters` each returns. The round loop's own cost
//! (buffer assembly and copies between rounds) is the sort's wall time
//! minus those calls, so the four parts add up to the sort time by
//! construction.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use wcms_bench::experiment::{model_time, Measurement};
use wcms_dmm::stats::Summary;
use wcms_error::{CancelToken, WcmsError};
use wcms_gpu_sim::{DeviceSpec, GpuKey};
use wcms_mergesort::backend::{
    AnalyticBackend, Cancellable, ExecBackend, ReferenceBackend, SimBackend,
};
use wcms_mergesort::driver::sort_with_report_on;
use wcms_mergesort::{BackendKind, RoundCounters, SortParams, SortReport};
use wcms_obs::{current_tid, Phase, Record, Recorder};
use wcms_workloads::WorkloadSpec;

use crate::stats::Metric;

/// Elapsed nanoseconds since `t0`.
fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Totals of one unit kind (all counts exact, times in nanoseconds).
#[derive(Debug, Default)]
struct UnitClock {
    calls: AtomicU64,
    ns: AtomicU64,
    keys: AtomicU64,
    steps: AtomicU64,
    conflict_cycles: AtomicU64,
}

impl UnitClock {
    fn add(&self, t0: Instant, keys: usize, steps: usize, c: &RoundCounters) {
        // Statistics only: no other data is published through these.
        self.ns.fetch_add(ns_since(t0), Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.keys.fetch_add(keys as u64, Ordering::Relaxed);
        self.steps.fetch_add(steps as u64, Ordering::Relaxed);
        self.conflict_cycles.fetch_add(c.shared.combined().extra_cycles as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> UnitTotals {
        UnitTotals {
            calls: self.calls.load(Ordering::Relaxed),
            ns: self.ns.load(Ordering::Relaxed),
            keys: self.keys.load(Ordering::Relaxed),
            steps: self.steps.load(Ordering::Relaxed),
            conflict_cycles: self.conflict_cycles.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of one unit kind's totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UnitTotals {
    pub calls: u64,
    pub ns: u64,
    /// Keys handed to the unit (base blocks: the tile size).
    pub keys: u64,
    /// Shared-memory steps: all phases for base blocks, the merge
    /// phase for merge units.
    pub steps: u64,
    /// Bank-conflict extra cycles (all shared-memory phases).
    pub conflict_cycles: u64,
}

impl UnitTotals {
    fn absorb(&mut self, o: &UnitTotals) {
        self.calls += o.calls;
        self.ns += o.ns;
        self.keys += o.keys;
        self.steps += o.steps;
        self.conflict_cycles += o.conflict_cycles;
    }
}

/// Any backend, with every work unit timed and its counters summed.
pub struct TimedBackend<B> {
    inner: B,
    base: UnitClock,
    merge: UnitClock,
    partition: UnitClock,
}

impl<B: ExecBackend> TimedBackend<B> {
    pub fn new(inner: B) -> Self {
        TimedBackend {
            inner,
            base: UnitClock::default(),
            merge: UnitClock::default(),
            partition: UnitClock::default(),
        }
    }
}

impl<B: ExecBackend> ExecBackend for TimedBackend<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn base_block<K: GpuKey>(
        &self,
        chunk: &[K],
        global_offset: usize,
        params: &SortParams,
    ) -> Result<(Vec<K>, RoundCounters), WcmsError> {
        let t0 = Instant::now();
        let (out, c) = self.inner.base_block(chunk, global_offset, params)?;
        self.base.add(t0, chunk.len(), c.shared.combined().steps, &c);
        Ok((out, c))
    }

    fn merge_unit<K: GpuKey>(
        &self,
        a: &[K],
        b: &[K],
        a_offset: usize,
        b_offset: usize,
        block_index: usize,
        params: &SortParams,
        precomputed: Option<(usize, usize)>,
    ) -> Result<(Vec<K>, RoundCounters), WcmsError> {
        let t0 = Instant::now();
        let (out, c) =
            self.inner.merge_unit(a, b, a_offset, b_offset, block_index, params, precomputed)?;
        self.merge.add(t0, out.len(), c.shared.merge.steps, &c);
        Ok((out, c))
    }

    fn partition_unit<K: GpuKey>(
        &self,
        a: &[K],
        b: &[K],
        num_blocks: usize,
        params: &SortParams,
    ) -> (Vec<(usize, usize)>, RoundCounters) {
        let t0 = Instant::now();
        let (pairs, c) = self.inner.partition_unit(a, b, num_blocks, params);
        self.partition.add(t0, a.len() + b.len(), c.shared.combined().steps, &c);
        (pairs, c)
    }

    fn merge_unit_multi<K: GpuKey>(
        &self,
        runs: &[&[K]],
        run_offsets: &[usize],
        out_offset: usize,
        block_index: usize,
        params: &SortParams,
        precomputed: Option<&[(usize, usize)]>,
    ) -> Result<(Vec<K>, RoundCounters), WcmsError> {
        let t0 = Instant::now();
        let (out, c) = self.inner.merge_unit_multi(
            runs,
            run_offsets,
            out_offset,
            block_index,
            params,
            precomputed,
        )?;
        self.merge.add(t0, out.len(), c.shared.merge.steps, &c);
        Ok((out, c))
    }

    fn partition_unit_multi<K: GpuKey>(
        &self,
        runs: &[&[K]],
        num_blocks: usize,
        params: &SortParams,
    ) -> (Vec<Vec<(usize, usize)>>, RoundCounters) {
        let t0 = Instant::now();
        let (pairs, c) = self.inner.partition_unit_multi(runs, num_blocks, params);
        let keys = runs.iter().map(|r| r.len()).sum();
        self.partition.add(t0, keys, c.shared.combined().steps, &c);
        (pairs, c)
    }
}

/// Everything the traced cell bodies measured, summed over cells.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    pub base: UnitTotals,
    pub merge: UnitTotals,
    pub partition: UnitTotals,
    /// Wall time of every traced sort call.
    pub sort_ns: u64,
    /// Keys copied by the round loop: `(1 + global rounds) · n` keys of
    /// 4 bytes per sort — computed from the schedule, not measured.
    pub bytes_moved: u64,
    pub worst_case_ns: u64,
    pub worst_case_keys: u64,
    pub random_ns: u64,
    pub random_keys: u64,
}

impl LayerTotals {
    pub fn absorb(&mut self, o: &LayerTotals) {
        self.base.absorb(&o.base);
        self.merge.absorb(&o.merge);
        self.partition.absorb(&o.partition);
        self.sort_ns += o.sort_ns;
        self.bytes_moved += o.bytes_moved;
        self.worst_case_ns += o.worst_case_ns;
        self.worst_case_keys += o.worst_case_keys;
        self.random_ns += o.random_ns;
        self.random_keys += o.random_keys;
    }

    /// The round loop's self time: sort wall minus the three unit kinds.
    pub fn driver_self_ns(&self) -> u64 {
        self.sort_ns.saturating_sub(self.base.ns + self.merge.ns + self.partition.ns)
    }

    /// Input construction plus sorting (the part of a cell that is not
    /// supervision, cost model or checkpointing).
    pub fn gen_and_sort_ns(&self) -> u64 {
        self.worst_case_ns + self.random_ns + self.sort_ns
    }
}

/// The sort pipeline's per-layer metrics: input construction, the three
/// unit kinds, and the round loop around them.
pub fn pipeline_metrics(l: &LayerTotals) -> Vec<Metric> {
    let s = |ns: u64| ns as f64 * 1e-9;
    let per = |ns: u64, count: u64| if count == 0 { 0.0 } else { ns as f64 / count as f64 };
    let count = |name: &str, c: u64| Metric::single(name, "count", c as f64);
    vec![
        Metric::single("core.worst_case.ns_per_key", "ns", per(l.worst_case_ns, l.worst_case_keys)),
        count("core.worst_case.keys", l.worst_case_keys),
        Metric::single("workloads.random.ns_per_key", "ns", per(l.random_ns, l.random_keys)),
        count("workloads.random.keys", l.random_keys),
        count("mergesort.base_block.calls", l.base.calls),
        Metric::single("mergesort.base_block.busy_s", "s", s(l.base.ns)),
        Metric::single("mergesort.base_block.ns_per_key", "ns", per(l.base.ns, l.base.keys)),
        count("mergesort.base_block.shared_steps", l.base.steps),
        count("mergesort.base_block.conflict_cycles", l.base.conflict_cycles),
        count("mergesort.merge_unit.calls", l.merge.calls),
        Metric::single("mergesort.merge_unit.busy_s", "s", s(l.merge.ns)),
        Metric::single(
            "mergesort.merge_unit.ns_per_merge_step",
            "ns",
            per(l.merge.ns, l.merge.steps),
        ),
        count("mergesort.merge_unit.merge_steps", l.merge.steps),
        count("mergesort.merge_unit.conflict_cycles", l.merge.conflict_cycles),
        count("mergesort.partition_unit.calls", l.partition.calls),
        Metric::single("mergesort.partition_unit.busy_s", "s", s(l.partition.ns)),
        Metric::single(
            "mergesort.partition_unit.ns_per_call",
            "ns",
            per(l.partition.ns, l.partition.calls),
        ),
        Metric::single("mergesort.driver.self_s", "s", s(l.driver_self_ns())),
        Metric::single("mergesort.driver.bytes_moved", "bytes-computed", l.bytes_moved as f64),
        Metric::single("mergesort.sort.busy_s", "s", s(l.sort_ns)),
    ]
}

/// One sort through the timing wrapper. Besides the sort's own checks,
/// verifies that the wrapper's summed conflict counters equal the
/// report's totals exactly.
fn timed_sort<B: ExecBackend>(
    inner: B,
    input: &[u32],
    params: &SortParams,
    totals: &mut LayerTotals,
) -> Result<(Vec<u32>, SortReport), WcmsError> {
    let timed = TimedBackend::new(inner);
    let t0 = Instant::now();
    let (out, report) = sort_with_report_on(input, params, &timed)?;
    let sort_ns = ns_since(t0);
    let (base, merge, partition) =
        (timed.base.snapshot(), timed.merge.snapshot(), timed.partition.snapshot());
    let summed = base.conflict_cycles + merge.conflict_cycles + partition.conflict_cycles;
    let reported = report.total().shared.combined().extra_cycles as u64;
    if summed != reported {
        return Err(fail(format!(
            "per-unit conflict cycles sum to {summed}, the sort report says {reported}"
        )));
    }
    totals.base.absorb(&base);
    totals.merge.absorb(&merge);
    totals.partition.absorb(&partition);
    totals.sort_ns += sort_ns;
    totals.bytes_moved += ((1 + report.rounds.len()) * input.len() * 4) as u64;
    Ok((out, report))
}

/// A failed correctness gate (or a broken harness step), as an error
/// the run aborts on.
pub fn fail(msg: String) -> WcmsError {
    WcmsError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, msg))
}

/// The traced cell body: `experiment::measure_algo_traced` for the
/// pairwise algorithm, step for step, with input construction and each
/// sort timed and the backend wrapped. Produces the identical
/// `Measurement` (the traced-vs-untraced gate compares them exactly).
#[allow(clippy::too_many_arguments)] // the cell tuple plus token and sink
pub fn measure_timed(
    device: &DeviceSpec,
    params: &SortParams,
    spec: WorkloadSpec,
    n: usize,
    runs: u64,
    backend: BackendKind,
    token: &CancelToken,
    sink: &Mutex<LayerTotals>,
) -> Result<Measurement, WcmsError> {
    let mut totals = LayerTotals::default();
    let runs = runs.max(1);
    let mut times = Vec::with_capacity(runs as usize);
    let mut beta1 = Vec::new();
    let mut beta2 = Vec::new();
    let mut cpe = Vec::new();
    for run in 0..runs {
        token.check()?;
        let t0 = Instant::now();
        let input = spec.with_run_seed(run).generate(n, params.w, params.e, params.b)?;
        let gen_ns = ns_since(t0);
        match spec {
            WorkloadSpec::WorstCase => {
                totals.worst_case_ns += gen_ns;
                totals.worst_case_keys += n as u64;
            }
            _ => {
                totals.random_ns += gen_ns;
                totals.random_keys += n as u64;
            }
        }
        let t = token.clone();
        let (out, report) = match backend {
            BackendKind::Sim => {
                timed_sort(Cancellable::new(SimBackend, t), &input, params, &mut totals)?
            }
            BackendKind::Analytic => {
                timed_sort(Cancellable::new(AnalyticBackend, t), &input, params, &mut totals)?
            }
            BackendKind::Reference => {
                timed_sort(Cancellable::new(ReferenceBackend, t), &input, params, &mut totals)?
            }
        };
        if !out.windows(2).all(|w| w[0] <= w[1]) {
            return Err(fail(format!("{} sort of n={n} returned unsorted output", backend.name())));
        }
        times.push(if backend == BackendKind::Reference {
            0.0
        } else {
            model_time(device, params, &report)?
        });
        beta1.push(report.global_beta1().unwrap_or(1.0));
        beta2.push(report.global_beta2().unwrap_or(1.0));
        cpe.push(report.conflicts_per_element());
        if matches!(
            spec,
            WorkloadSpec::Sorted
                | WorkloadSpec::Reverse
                | WorkloadSpec::WorstCase
                | WorkloadSpec::ConflictHeavy { .. }
                | WorkloadSpec::Sawtooth { .. }
        ) {
            break;
        }
    }
    let throughputs: Vec<f64> =
        times.iter().map(|t| if *t > 0.0 { n as f64 / t } else { 0.0 }).collect();
    let spread = Summary::of(&throughputs).ok_or(WcmsError::ZeroParam { name: "runs" })?;
    let mean_time = times.iter().sum::<f64>() / times.len() as f64;
    sink.lock().expect("a cell body panicked while holding the layer totals").absorb(&totals);
    Ok(Measurement {
        n,
        throughput: spread.mean,
        ms: mean_time * 1e3,
        throughput_spread: spread,
        beta1: beta1.iter().sum::<f64>() / beta1.len() as f64,
        beta2: beta2.iter().sum::<f64>() / beta2.len() as f64,
        conflicts_per_element: cpe.iter().sum::<f64>() / cpe.len() as f64,
        ms_per_element: mean_time * 1e3 / n as f64,
    })
}

/// Clocks the supervisor's `cell` spans (opened and closed on the
/// worker thread that runs the cell) with `Instant`, ignoring every
/// other record. Installed as the sweep's `Obs` recorder.
#[derive(Debug, Default)]
pub struct CellClock {
    open: Mutex<HashMap<u32, Instant>>,
    walls_ns: Mutex<Vec<u64>>,
}

impl CellClock {
    pub fn new() -> Arc<Self> {
        Arc::new(CellClock::default())
    }

    /// Wall time of every cell closed so far, clearing the list.
    pub fn take(&self) -> Vec<u64> {
        std::mem::take(&mut *self.walls_ns.lock().expect("cell clock lock poisoned"))
    }
}

impl Recorder for CellClock {
    fn record(&self, record: Record) {
        if record.name != "cell" {
            return;
        }
        let tid = current_tid();
        match record.phase {
            Phase::Begin => {
                self.open.lock().expect("cell clock lock poisoned").insert(tid, Instant::now());
            }
            Phase::End => {
                let start = self.open.lock().expect("cell clock lock poisoned").remove(&tid);
                if let Some(t0) = start {
                    self.walls_ns.lock().expect("cell clock lock poisoned").push(ns_since(t0));
                }
            }
            Phase::Event | Phase::Meta => {}
        }
    }
}
