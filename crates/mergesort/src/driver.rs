//! The end-to-end simulated sort: base case, then `log₂(N/bE)` global
//! merge rounds, with all counters aggregated into a
//! [`crate::instrument::SortReport`] value.
//!
//! Thread blocks are mutually independent within a kernel (each owns a
//! disjoint output window), so the simulation fans blocks out with Rayon
//! and reduces the counters with plain integer addition — results are
//! bit-identical to the sequential order.
//!
//! Both public drivers run this one pipeline; [`sort_resilient_on`] adds
//! fault injection, checks, retry and CPU degradation as a layer over
//! its work units.

use rayon::prelude::*;
use wcms_error::WcmsError;
use wcms_gpu_sim::fault::FaultInjector;
use wcms_gpu_sim::{FaultCounters, GpuKey};
use wcms_mergepath::diagonal::merge_path;
use wcms_mergepath::multiway::multiway_select;
use wcms_obs::{event, span, Obs};

use crate::algorithm::{AlgorithmKind, SortAlgorithm};
use crate::backend::{ExecBackend, ReferenceBackend, SimBackend};
use crate::instrument::{RoundCounters, SortReport};
use crate::params::{SortParams, SortVariant};
use crate::verify::{check_round_output, multiset_hash};

/// The global rounds' view of the working buffer: each sorted run as its
/// `(offset, len)` span. Groups of consecutive runs merge per round;
/// `runs.chunks(fan_in)` is the round's group decomposition.
type RunSpan = (usize, usize);

/// The fault layer of one sort: the injector that strikes its kernels
/// and the policy that recovers from the strikes. `None` is the plain
/// pipeline.
type Faults<'a> = Option<(&'a FaultInjector, &'a RecoveryPolicy)>;

/// The runs of one group as slices of `buf`, which starts at word
/// offset `base` of the working buffer.
fn runs_of<'a, K>(buf: &'a [K], grp: &[RunSpan], base: usize) -> Vec<&'a [K]> {
    grp.iter().map(|&(off, len)| &buf[off - base..off - base + len]).collect()
}

/// What one sort runs and where it reports: the merge algorithm of the
/// global rounds and the [`Obs`] bundle that receives its spans, events
/// and metric counters. The default is the paper's pairwise sort,
/// unobserved — every probe is then a single untaken branch.
#[derive(Debug, Clone, Copy)]
pub struct SortSpec<'a> {
    /// How many runs each global round merges per group.
    pub algorithm: AlgorithmKind,
    /// Where spans, events and counters go ([`Obs::noop`] for none).
    pub obs: &'a Obs,
}

impl Default for SortSpec<'_> {
    fn default() -> Self {
        SortSpec { algorithm: AlgorithmKind::Pairwise, obs: Obs::noop() }
    }
}

/// Sort `input` on `backend` and return the sorted output with the full
/// instrumentation report.
///
/// The round loop and Rayon fan-out live here, the per-unit execution
/// in `backend`. Every backend sees the identical decomposition into
/// work units, so backends can only differ in how a unit executes — the
/// property the analytic/sim cross-validation rests on. `spec.algorithm`
/// picks each round's fan-in: 2-way groups run the pairwise work units,
/// wider groups the k-way units.
///
/// Under an active `spec.obs`, a `sort` span wraps the whole pipeline,
/// each global round runs inside a `merge-round` span, per-round
/// `round-counters` events carry the merge-step and bank-conflict totals
/// (round 0 is the base case), and the accepted totals feed the `sort_*`
/// metric counters.
///
/// ```
/// use wcms_mergesort::{sort_on, SimBackend, SortParams, SortSpec};
///
/// let params = SortParams::new(8, 3, 16)?; // tiny tile for the example
/// let n = params.block_elems() * 4;
/// let input: Vec<u32> = (0..n as u32).rev().collect();
/// let (sorted, report) = sort_on(&input, &params, &SimBackend, &SortSpec::default())?;
/// assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
/// assert_eq!(report.rounds.len(), 2); // log2(4) global merge rounds
/// # Ok::<(), wcms_error::WcmsError>(())
/// ```
///
/// # Errors
///
/// Returns [`WcmsError::InvalidLength`] if `input.len()` is not `bE·2^m`
/// (see [`SortParams::valid_len`]), and propagates any kernel-detected
/// corruption (CREW violations, out-of-bounds tiles, bad co-ranks) or
/// the backend's own errors (e.g. [`WcmsError::Cancelled`]).
pub fn sort_on<K: GpuKey>(
    input: &[K],
    params: &SortParams,
    backend: &impl ExecBackend,
    spec: &SortSpec<'_>,
) -> Result<(Vec<K>, SortReport), WcmsError> {
    let (out, report, _) =
        run_sort(input, params, spec.algorithm.instance(), backend, spec.obs, None)?;
    Ok((out, report))
}

/// [`sort_on`] with [`SortSpec::default`]. Kept with this exact
/// signature because the benchmark in `perfbench/` calls it.
///
/// # Errors
///
/// Same conditions as [`sort_on`].
pub fn sort_with_report_on<K: GpuKey>(
    input: &[K],
    params: &SortParams,
    backend: &impl ExecBackend,
) -> Result<(Vec<K>, SortReport), WcmsError> {
    sort_on(input, params, backend, &SortSpec::default())
}

/// The one pipeline behind [`sort_on`] (`faults` = `None`) and
/// [`sort_resilient_on`], for any [`SortAlgorithm`] — not just the
/// [`AlgorithmKind`] instances. It owns the base case, the round loop,
/// the run list, every span and event, and the metric counters; the
/// fault layer only wraps its work units ([`Pipeline::unit`]).
fn run_sort<K: GpuKey>(
    input: &[K],
    params: &SortParams,
    algo: &dyn SortAlgorithm,
    backend: &impl ExecBackend,
    obs: &Obs,
    faults: Faults<'_>,
) -> Result<(Vec<K>, SortReport, FaultReport), WcmsError> {
    let n = input.len();
    if !params.valid_len(n) {
        return Err(WcmsError::InvalidLength { n, block_elems: params.block_elems() });
    }
    let be = params.block_elems();
    let name = if faults.is_some() { "sort-resilient" } else { "sort" };
    let _sort_span = span!(obs, name, n => n, backend => backend.name());
    let pipe = Pipeline { params, backend, obs, faults };
    let mut fault = FaultReport::default();

    // --- Base case: every block sorts its tile.
    let base_span = span!(obs, "base-case", blocks => n / be);
    let mut cur = vec![K::default(); n];
    let block_results: Vec<(RoundCounters, FaultReport)> = cur
        .par_chunks_mut(be)
        .zip(input.par_chunks(be))
        .enumerate()
        .map(|(j, (out, chunk))| {
            pipe.unit(
                (0, j),
                chunk,
                out,
                |attempt, out, f| pipe.base_block(j, chunk, attempt, out, f),
                || ReferenceBackend.base_block(chunk, j * be, params).map(|(keys, _)| keys),
            )
        })
        .collect::<Result<_, _>>()?;
    let base = tally(block_results, &mut fault);
    drop(base_span);
    event!(obs, "round-counters",
        round => 0usize,
        merge_steps => base.shared.merge.steps,
        extra_cycles => base.shared.combined().extra_cycles,
        blocks => base.blocks);

    // --- Global merge rounds: `algo` picks each round's fan-in, the
    // run list tracks the surviving sorted runs' spans.
    let mut runs: Vec<RunSpan> = (0..n / be).map(|i| (i * be, be)).collect();
    let mut rounds = Vec::with_capacity(params.global_rounds(n));
    let mut round = 0usize;
    while runs.len() > 1 {
        round += 1;
        let g = algo.fan_in(runs.len()).clamp(2, runs.len());
        let groups: Vec<&[RunSpan]> = runs.chunks(g).collect();
        let merged: Vec<RunSpan> =
            groups.iter().map(|grp| (grp[0].0, grp.iter().map(|r| r.1).sum())).collect();
        let _round_span = span!(obs, "merge-round", round => round, list_len => runs[0].1);

        // Each group merges into its own disjoint window of `next`.
        let mut next = vec![K::default(); n];
        let mut outs = Vec::with_capacity(groups.len());
        let mut rest = next.as_mut_slice();
        for &(_, len) in &merged {
            let (out, tail) = std::mem::take(&mut rest).split_at_mut(len);
            outs.push(out);
            rest = tail;
        }
        let group_results: Vec<(RoundCounters, FaultReport)> = groups
            .par_iter()
            .zip(outs)
            .enumerate()
            .map(|(gi, (grp, out))| {
                let (base, len) = merged[gi];
                pipe.unit(
                    (round, gi),
                    &cur[base..base + len],
                    out,
                    |attempt, out, f| pipe.merge_group(&cur, grp, round, attempt, out, f),
                    || Ok(ReferenceBackend.merge_group(&runs_of(&cur, grp, 0))),
                )
            })
            .collect::<Result<_, _>>()?;
        let round_counters = tally(group_results, &mut fault);
        event!(obs, "round-counters",
            round => round,
            merge_steps => round_counters.shared.merge.steps,
            extra_cycles => round_counters.shared.combined().extra_cycles,
            blocks => round_counters.blocks);
        rounds.push(round_counters);
        cur = next;
        runs = merged;
    }

    let report = SortReport { params: *params, n, base, rounds };
    observe_report(obs, &report, faults.map(|_| &fault));
    Ok((cur, report, fault))
}

/// Sum one kernel's accepted unit counters, and move the units' fault
/// ledgers into `fault` in unit order.
fn tally(results: Vec<(RoundCounters, FaultReport)>, fault: &mut FaultReport) -> RoundCounters {
    let mut total = RoundCounters::default();
    for (c, f) in results {
        total.absorb(&c);
        fault.absorb(&f);
    }
    total
}

/// Feed one accepted [`SortReport`] into the metric counters. The
/// invariant the observability tests pin: `sort_merge_steps_total`
/// advances by exactly `report.total().shared.merge.steps` and
/// `sort_conflict_extra_cycles_total` by exactly
/// `report.total().shared.combined().extra_cycles`, on every backend.
/// A resilient sort's fault totals feed the `fault_*` counters.
fn observe_report(obs: &Obs, report: &SortReport, fault: Option<&FaultReport>) {
    if !obs.is_active() {
        return;
    }
    let total = report.total();
    obs.metrics.counter("sorts_total").inc();
    obs.metrics.counter("sort_rounds_total").add(report.rounds.len() as u64);
    obs.metrics.counter("sort_merge_steps_total").add(total.shared.merge.steps as u64);
    obs.metrics.counter("sort_blocks_launched_total").add(report.blocks_launched() as u64);
    total.to_kernel().observe(&obs.metrics, "sort");
    if let Some(FaultReport { counters: c, .. }) = fault {
        obs.metrics.counter("faults_injected_total").add((c.tile_faults + c.corank_faults) as u64);
        obs.metrics.counter("faults_detected_total").add(c.detected as u64);
        obs.metrics.counter("fault_retries_total").add(c.retries as u64);
        obs.metrics.counter("fault_cpu_fallbacks_total").add(c.cpu_fallbacks as u64);
    }
}

/// What every work unit of one sort shares.
struct Pipeline<'a, B> {
    params: &'a SortParams,
    backend: &'a B,
    obs: &'a Obs,
    faults: Faults<'a>,
}

impl<B: ExecBackend> Pipeline<'_, B> {
    /// Run one work unit into `out`: base-case block `unit` of round 0,
    /// or group `unit` of a global round, whose immutable input is
    /// `input`.
    ///
    /// Without a fault layer this is one `attempt`, unchecked, with its
    /// errors propagated unchanged. With one, the unit gets up to
    /// `max_retries + 1` attempts, each checked by
    /// [`check_round_output`] against `input`'s multiset fingerprint. A
    /// failed check or a kernel-fault error (a bad co-rank, an
    /// out-of-bounds tile, a CREW violation, corrupt output) is a
    /// detected fault; every other error, cancellation included,
    /// propagates. Past the budget the unit degrades to `fallback` (the
    /// CPU reference path, no GPU counters) or fails with
    /// [`WcmsError::FaultUnrecoverable`].
    fn unit<K: GpuKey>(
        &self,
        (round, unit): (usize, usize),
        input: &[K],
        out: &mut [K],
        mut attempt: impl FnMut(usize, &mut [K], &mut FaultCounters) -> Result<RoundCounters, WcmsError>,
        fallback: impl FnOnce() -> Result<Vec<K>, WcmsError>,
    ) -> Result<(RoundCounters, FaultReport), WcmsError> {
        let mut f = FaultReport::default();
        let Some((_, policy)) = self.faults else {
            return Ok((attempt(0, out, &mut f.counters)?, f));
        };
        let expect_hash = multiset_hash(input);
        for a in 0..=policy.max_retries {
            if a > 0 {
                f.counters.retries += 1;
            }
            match attempt(a, out, &mut f.counters) {
                Ok(c) if check_round_output(out, input.len(), expect_hash, round, unit).is_ok() => {
                    return Ok((c, f));
                }
                Ok(_)
                | Err(
                    WcmsError::PartitionValidation { .. }
                    | WcmsError::SmemOutOfBounds { .. }
                    | WcmsError::CrewViolation { .. }
                    | WcmsError::CorruptOutput { .. },
                ) => f.counters.detected += 1,
                Err(other) => return Err(other),
            }
        }
        if !policy.cpu_fallback {
            return Err(WcmsError::FaultUnrecoverable {
                round,
                block: unit,
                retries: policy.max_retries,
            });
        }
        f.counters.cpu_fallbacks += 1;
        f.degraded.push((round, unit));
        out.copy_from_slice(&fallback()?);
        Ok((RoundCounters::default(), f))
    }

    /// One attempt at base-case block `j`: sort `chunk` into `out`.
    fn base_block<K: GpuKey>(
        &self,
        j: usize,
        chunk: &[K],
        attempt: usize,
        out: &mut [K],
        f: &mut FaultCounters,
    ) -> Result<RoundCounters, WcmsError> {
        let mut hooks = self.hooks(0, j, attempt);
        let tile = hooks.flip_tile(chunk);
        hooks.record(f, self.obs);
        let be = self.params.block_elems();
        let (keys, c) =
            self.backend.base_block(tile.as_deref().unwrap_or(chunk), j * be, self.params)?;
        out.copy_from_slice(&keys);
        Ok(c)
    }

    /// One attempt at merging one group of runs (spans of `cur`) into
    /// `out`. A 1-run group passes through. A wider group runs its
    /// partition kernel (Modern GPU only; Thrust blocks search their own
    /// co-ranks), then one merge unit per `bE` output window — kernel
    /// block `base / bE + j` for window `j`.
    ///
    /// Windows fan out with Rayon; their counters and fault strikes fold
    /// in block order, up to the first failing window, so the ledger is
    /// that of a kernel that stops at its first fault.
    fn merge_group<K: GpuKey>(
        &self,
        cur: &[K],
        grp: &[RunSpan],
        round: usize,
        attempt: usize,
        out: &mut [K],
        f: &mut FaultCounters,
    ) -> Result<RoundCounters, WcmsError> {
        let (params, backend) = (self.params, self.backend);
        let be = params.block_elems();
        let base = grp[0].0;
        let input = &cur[base..base + out.len()];
        if grp.len() == 1 {
            out.copy_from_slice(input);
            return Ok(RoundCounters::default());
        }
        let runs = runs_of(input, grp, base);
        let offs: Vec<usize> = grp.iter().map(|r| r.0).collect();
        let (blocks, pairwise) = (out.len() / be, runs.len() == 2);
        let modern = params.variant == SortVariant::ModernGpu;
        let pair_cuts =
            (modern && pairwise).then(|| backend.partition_unit(runs[0], runs[1], blocks, params));
        let multi_cuts =
            (modern && !pairwise).then(|| backend.partition_unit_multi(&runs, blocks, params));
        let cut_counters = pair_cuts.as_ref().map(|p| p.1).or(multi_cuts.as_ref().map(|p| p.1));
        let mut counters = cut_counters.unwrap_or_default();

        let windows: Vec<(Result<RoundCounters, WcmsError>, Hooks<'_>)> = out
            .par_chunks_mut(be)
            .enumerate()
            .map(|(j, window)| {
                let mut hooks = self.hooks(round, base / be + j, attempt);
                let mut pre_pair = pair_cuts.as_ref().map(|(cuts, _)| cuts[j]);
                let mut pre_multi = multi_cuts.as_ref().map(|(cuts, _)| cuts[j].as_slice());
                let corrupted: Vec<(usize, usize)>;
                if hooks.corank_struck() {
                    if pairwise {
                        let (a, b) = (runs[0], runs[1]);
                        let cut = |d: usize| merge_path(d, a.len(), b.len(), |i| a[i], |x| b[x]);
                        let correct = pre_pair.unwrap_or_else(|| (cut(j * be), cut(j * be + be)));
                        pre_pair = Some(hooks.corrupt(correct));
                    } else {
                        let lens: Vec<usize> = runs.iter().map(|r| r.len()).collect();
                        let cut = |d: usize| multiway_select(&lens, d, |i, x| runs[i][x]);
                        let mut pairs = pre_multi.map_or_else(
                            || cut(j * be).into_iter().zip(cut(j * be + be)).collect(),
                            <[_]>::to_vec,
                        );
                        pairs[0] = hooks.corrupt(pairs[0]);
                        corrupted = pairs;
                        pre_multi = Some(&corrupted);
                    }
                }
                let tile = hooks.flip_tile(input);
                let tile_runs = tile.as_deref().map(|t| runs_of(t, grp, base));
                let src = tile_runs.as_deref().unwrap_or(&runs);
                let result = if pairwise {
                    backend.merge_unit(src[0], src[1], offs[0], offs[1], j, params, pre_pair)
                } else {
                    backend.merge_unit_multi(src, &offs, base, j, params, pre_multi)
                };
                let accepted = result.map(|(keys, c)| {
                    window.copy_from_slice(&keys);
                    c
                });
                (accepted, hooks)
            })
            .collect();
        for (result, hooks) in windows {
            hooks.record(f, self.obs);
            counters.absorb(&result?);
        }
        Ok(counters)
    }

    /// The fault hooks of kernel block `block` in `round`, at `attempt`.
    fn hooks(&self, round: usize, block: usize, attempt: usize) -> Hooks<'_> {
        let injector = self.faults.map(|(inj, _)| inj);
        Hooks { injector, at: (round, block, attempt), corank: false, flipped: None }
    }
}

/// The two fault hooks of one kernel block's attempt and what they
/// struck. Without an injector neither hook ever fires.
struct Hooks<'a> {
    injector: Option<&'a FaultInjector>,
    /// The strike's replayable coordinates `(round, block, attempt)`.
    at: (usize, usize, usize),
    corank: bool,
    flipped: Option<usize>,
}

impl Hooks<'_> {
    /// The co-rank hook: does the block run with a corrupted co-rank
    /// pair (a faulty partition kernel or a torn read of the partition
    /// array)? If so, it reads [`Hooks::corrupt`] of run 0's pair.
    fn corank_struck(&mut self) -> bool {
        let (round, block, attempt) = self.at;
        self.corank = self.injector.is_some_and(|inj| inj.corank_fault_at(round, block, attempt));
        self.corank
    }

    /// The struck block's view of a `correct` co-rank pair.
    fn corrupt(&self, correct: (usize, usize)) -> (usize, usize) {
        let (round, block, attempt) = self.at;
        self.injector.map_or(correct, |inj| inj.corrupt_corank(correct, round, block, attempt))
    }

    /// The tile hook: when it strikes, the keys the block loads are a
    /// copy of `keys` with bits flipped.
    fn flip_tile<K: GpuKey>(&mut self, keys: &[K]) -> Option<Vec<K>> {
        let (round, block, attempt) = self.at;
        let inj = self.injector.filter(|inj| inj.tile_fault_at(round, block, attempt))?;
        let mut tile = keys.to_vec();
        self.flipped = Some(inj.flip_tile_bits(&mut tile, round, block, attempt));
        Some(tile)
    }

    /// Count the strikes into `f`, with one `fault-injected` event each
    /// carrying the injector seed and the coordinates that replay it.
    fn record(&self, f: &mut FaultCounters, obs: &Obs) {
        f.corank_faults += usize::from(self.corank);
        f.tile_faults += usize::from(self.flipped.is_some());
        f.bits_flipped += self.flipped.unwrap_or(0);
        let (round, unit, attempt) = self.at;
        let kinds = [self.corank.then_some("corank"), self.flipped.map(|_| "tile-bitflip")];
        for kind in kinds.into_iter().flatten() {
            event!(obs, "fault-injected",
                kind => kind,
                seed => self.injector.map_or(0, |inj| inj.config().seed),
                round => round,
                unit => unit,
                attempt => attempt);
        }
    }
}

/// Sort an arbitrary-length input on the simulated GPU by padding with
/// max-value sentinels up to the next valid length and truncating
/// afterwards. The reported `n` is the padded length.
///
/// # Errors
///
/// Propagates kernel-detected corruption from [`sort_on`] (the length
/// itself is always made valid by padding).
pub fn sort_padded<K: GpuKey>(
    input: &[K],
    params: &SortParams,
) -> Result<(Vec<K>, SortReport), WcmsError> {
    let spec = SortSpec::default();
    if params.valid_len(input.len()) {
        return sort_on(input, params, &SimBackend, &spec);
    }
    let target = params.next_valid_len(input.len());
    let mut padded = input.to_vec();
    padded.resize(target, K::max_value());
    let (mut out, report) = sort_on(&padded, params, &SimBackend, &spec)?;
    out.truncate(input.len());
    Ok((out, report))
}

/// How the resilient driver reacts to detected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Retries per work unit after the first failed attempt (each retry
    /// restarts from the unit's immutable, checkpointed input).
    pub max_retries: usize,
    /// After the retry budget: recompute the unit on the trusted CPU
    /// reference path (`true`), or give up with
    /// [`WcmsError::FaultUnrecoverable`] (`false`).
    pub cpu_fallback: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { max_retries: 2, cpu_fallback: true }
    }
}

/// What happened fault-wise during one resilient sort.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Injection and recovery totals.
    pub counters: FaultCounters,
    /// Work units that fell back to the CPU reference path, as
    /// `(round, unit)` — unit is the block index in round 0 (base case)
    /// and the group index in global merge rounds.
    pub degraded: Vec<(usize, usize)>,
}

impl FaultReport {
    /// True if no fault fired and no recovery work happened — the
    /// GPU-side counters then match a plain [`sort_on`] run
    /// bit-for-bit.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.counters == FaultCounters::default() && self.degraded.is_empty()
    }

    fn absorb(&mut self, other: &FaultReport) {
        self.counters.merge(&other.counters);
        self.degraded.extend_from_slice(&other.degraded);
    }
}

/// [`sort_on`] hardened against transient faults: every kernel runs
/// under a [`FaultInjector`] and every work unit's output is checked
/// (sortedness + multiset fingerprint against its immutable input)
/// before it is accepted. It is the same pipeline as [`sort_on`], with
/// the fault layer over its work units.
///
/// Detection and recovery per work unit — a thread block in the base
/// case, a merged group in a global round (the group of runs merged
/// together is the smallest unit whose output multiset is known in
/// advance — the pair, for the pairwise algorithm):
///
/// 1. a typed kernel error (CREW violation, out-of-bounds tile, invalid
///    co-rank, corrupt output) or a failed [`check_round_output`] marks
///    the attempt bad; any other error (e.g. [`WcmsError::Cancelled`])
///    propagates unretried;
/// 2. the unit retries from its checkpointed input up to
///    [`RecoveryPolicy::max_retries`] times — transient faults (keyed by
///    attempt) clear, hard faults do not;
/// 3. on exhaustion the unit degrades to the trusted CPU reference path
///    ([`ReferenceBackend`], whatever the primary `backend`) and is
///    recorded in the [`FaultReport`], or fails with
///    [`WcmsError::FaultUnrecoverable`] if `cpu_fallback` is off.
///
/// The [`SortReport`] counts only the *accepted* GPU work (a degraded
/// unit contributes no GPU counters); wasted attempts show up in the
/// [`FaultReport`] instead. With [`FaultInjector::disabled`] the output,
/// the report and the `round-counters` events are bit-identical to
/// [`sort_on`] and the fault report is [`FaultReport::clean`].
///
/// Under an active `spec.obs` the pipeline runs in a `sort-resilient`
/// span (with [`sort_on`]'s round spans and events inside), every
/// injected fault becomes a `fault-injected` event carrying the injector
/// seed and the fault's exact coordinates (round, unit, attempt) —
/// enough to replay it — and the fault totals feed the `fault_*` metric
/// counters.
///
/// ```
/// use wcms_gpu_sim::fault::{FaultConfig, FaultInjector};
/// use wcms_mergesort::{sort_resilient_on, RecoveryPolicy, SimBackend, SortParams, SortSpec};
///
/// let params = SortParams::new(8, 3, 16)?;
/// let input: Vec<u32> = (0..params.block_elems() as u32 * 8).rev().collect();
/// let inj = FaultInjector::new(FaultConfig {
///     seed: 7,
///     tile_bitflip_rate: 0.5,
///     ..FaultConfig::default()
/// });
/// let spec = SortSpec::default();
/// let (out, _report, faults) =
///     sort_resilient_on(&input, &params, &SimBackend, &spec, &inj, &RecoveryPolicy::default())?;
/// assert!(out.windows(2).all(|w| w[0] <= w[1]));
/// assert!(faults.counters.detected >= 1); // faults fired and were caught
/// # Ok::<(), wcms_error::WcmsError>(())
/// ```
///
/// # Errors
///
/// [`WcmsError::InvalidLength`] for a non-`bE·2^m` input,
/// [`WcmsError::FaultUnrecoverable`] when a unit exhausts its retries
/// with CPU fallback disabled, and the backend's own non-fault errors
/// (e.g. [`WcmsError::Cancelled`]). With `cpu_fallback` on, injected
/// faults never surface as errors — only as entries in the
/// [`FaultReport`].
pub fn sort_resilient_on<K: GpuKey>(
    input: &[K],
    params: &SortParams,
    backend: &impl ExecBackend,
    spec: &SortSpec<'_>,
    injector: &FaultInjector,
    policy: &RecoveryPolicy,
) -> Result<(Vec<K>, SortReport, FaultReport), WcmsError> {
    run_sort(input, params, spec.algorithm.instance(), backend, spec.obs, Some((injector, policy)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SortParams {
        SortParams::new(8, 3, 16).unwrap() // bE = 48
    }

    fn sim_sort(input: &[u32], p: &SortParams) -> Result<(Vec<u32>, SortReport), WcmsError> {
        sort_on(input, p, &SimBackend, &SortSpec::default())
    }

    fn sim_resilient(
        input: &[u32],
        p: &SortParams,
        injector: &FaultInjector,
        policy: &RecoveryPolicy,
    ) -> Result<(Vec<u32>, SortReport, FaultReport), WcmsError> {
        sort_resilient_on(input, p, &SimBackend, &SortSpec::default(), injector, policy)
    }

    fn multiway() -> SortSpec<'static> {
        SortSpec { algorithm: AlgorithmKind::Multiway, ..SortSpec::default() }
    }

    fn check_sorts(input: &[u32], p: &SortParams) {
        let mut want = input.to_vec();
        want.sort_unstable();
        let (out, report) = sim_sort(input, p).unwrap();
        assert_eq!(out, want);
        assert_eq!(report.n, input.len());
        assert_eq!(report.total().shared.combined().crew_violations, 0);
    }

    #[test]
    fn sorts_single_block() {
        let p = params();
        let input: Vec<u32> = (0..48u32).rev().collect();
        check_sorts(&input, &p);
    }

    #[test]
    fn sorts_multiple_rounds() {
        let p = params();
        let n = p.block_elems() * 8; // 3 global rounds
        let input: Vec<u32> =
            (0..n as u32).map(|i| i.wrapping_mul(2_654_435_761) % 10_007).collect();
        check_sorts(&input, &p);
        let (_, report) = sim_sort(&input, &p).unwrap();
        assert_eq!(report.rounds.len(), 3);
        assert_eq!(report.base.blocks, 8);
        assert!(report.rounds.iter().all(|r| r.blocks == 8));
    }

    #[test]
    fn sorts_adversarial_shapes() {
        let p = params();
        let n = p.block_elems() * 4;
        for input in [
            (0..n as u32).collect::<Vec<_>>(),
            (0..n as u32).rev().collect::<Vec<_>>(),
            vec![3u32; n],
            (0..n as u32).map(|i| i % 7).collect::<Vec<_>>(),
        ] {
            check_sorts(&input, &p);
        }
    }

    use crate::algorithm::{MultiwayMerge, PairwiseMerge};
    use crate::backend::{AnalyticBackend, BackendKind, Cancellable};
    use wcms_error::CancelToken;

    #[test]
    fn default_spec_runs_the_pairwise_merge() {
        for p in [params(), params().with_variant(SortVariant::ModernGpu)] {
            let n = p.block_elems() * 8;
            let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
            let default = sim_sort(&input, &p).unwrap();
            let (out, report, _) =
                run_sort(&input, &p, &PairwiseMerge, &SimBackend, Obs::noop(), None).unwrap();
            assert_eq!(
                default,
                (out, report),
                "the default spec must be the paper's pairwise sort"
            );
        }
    }

    #[test]
    fn multiway_sorts_with_fewer_rounds() {
        let p = params();
        let n = p.block_elems() * 16; // pairwise: 4 rounds; 4-way: 2
        let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(48_271) % 9973).collect();
        let mut want = input.clone();
        want.sort_unstable();
        let (out, report) = sort_on(&input, &p, &SimBackend, &multiway()).unwrap();
        assert_eq!(out, want);
        assert_eq!(report.rounds.len(), 2);
        let (_, pair_report) = sim_sort(&input, &p).unwrap();
        assert_eq!(pair_report.rounds.len(), 4);
    }

    #[test]
    fn multiway_backends_agree_integer_exactly() {
        for p in [params(), params().with_variant(SortVariant::ModernGpu), params().with_padding()]
        {
            let n = p.block_elems() * 8;
            let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(31) % 4096).collect();
            let (sim_out, sim_rep) = sort_on(&input, &p, &SimBackend, &multiway()).unwrap();
            let (ana_out, ana_rep) = sort_on(&input, &p, &AnalyticBackend, &multiway()).unwrap();
            let (ref_out, ref_rep) = sort_on(&input, &p, &ReferenceBackend, &multiway()).unwrap();
            assert_eq!(ana_out, sim_out);
            assert_eq!(ref_out, sim_out);
            assert_eq!(ana_rep, sim_rep, "analytic counters must be integer-identical");
            assert_eq!(ref_rep.total().shared.combined().conflicting_accesses, 0);
        }
    }

    #[test]
    fn multiway_handles_non_power_of_k_run_counts() {
        // 8 runs under k = 3: groups of 3, 3, 2 → runs of 3bE, 3bE, 2bE,
        // then one final 3-way group of unequal runs.
        let p = params();
        let n = p.block_elems() * 8;
        let input: Vec<u32> = (0..n as u32).rev().collect();
        let mut want = input.clone();
        want.sort_unstable();
        let algo = MultiwayMerge { k: 3 };
        let (out, report, _) = run_sort(&input, &p, &algo, &SimBackend, Obs::noop(), None).unwrap();
        assert_eq!(out, want);
        assert_eq!(report.rounds.len(), 2);
    }

    #[test]
    fn multiway_resilient_disabled_injector_matches_plain() {
        let p = params();
        let n = p.block_elems() * 16;
        let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(7) % 512).collect();
        let (plain_out, plain_rep) = sort_on(&input, &p, &SimBackend, &multiway()).unwrap();
        let (out, rep, faults) = sort_resilient_on(
            &input,
            &p,
            &SimBackend,
            &multiway(),
            &FaultInjector::disabled(),
            &RecoveryPolicy::default(),
        )
        .unwrap();
        assert_eq!(out, plain_out);
        assert_eq!(rep, plain_rep);
        assert!(faults.clean(), "{faults:?}");
    }

    #[test]
    fn multiway_resilient_recovers_from_faults() {
        let p = params();
        let n = p.block_elems() * 16;
        let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(48_271) % 9973).collect();
        let mut want = input.clone();
        want.sort_unstable();
        for (tile, corank) in [(0.3, 0.0), (0.0, 0.5), (1.0, 0.0)] {
            let inj = faulty(7, tile, corank);
            let (out, _, faults) = sort_resilient_on(
                &input,
                &p,
                &SimBackend,
                &multiway(),
                &inj,
                &RecoveryPolicy { max_retries: 4, cpu_fallback: true },
            )
            .unwrap();
            assert_eq!(out, want, "tile={tile} corank={corank}");
            assert!(faults.counters.any_injected(), "tile={tile} corank={corank} fired nothing");
            assert!(faults.counters.detected > 0, "tile={tile} corank={corank}");
        }
    }

    #[test]
    fn backend_kind_algo_dispatch_matches_generic_drivers() {
        let p = params();
        let n = p.block_elems() * 8;
        let input: Vec<u32> = (0..n as u32).rev().collect();
        let direct = sort_on(&input, &p, &SimBackend, &multiway()).unwrap();
        let never = CancelToken::never();
        let kind = BackendKind::Sim.sort(&input, &p, &multiway(), &never).unwrap();
        assert_eq!(direct, kind);
        let pairwise = BackendKind::Sim.sort(&input, &p, &SortSpec::default(), &never).unwrap();
        assert_eq!(pairwise, sim_sort(&input, &p).unwrap());
    }

    #[test]
    fn deterministic_counters_across_runs() {
        let p = params();
        let n = p.block_elems() * 4;
        let input: Vec<u32> = (0..n as u32).map(|i| (i * 31) % 257).collect();
        let (_, r1) = sim_sort(&input, &p).unwrap();
        let (_, r2) = sim_sort(&input, &p).unwrap();
        assert_eq!(r1, r2, "Rayon reduction must be deterministic");
    }

    #[test]
    fn padded_sort_handles_ragged_sizes() {
        let p = params();
        let input: Vec<u32> = (0..100u32).rev().collect();
        let (out, report) = sort_padded(&input, &p).unwrap();
        let mut want = input.clone();
        want.sort_unstable();
        assert_eq!(out, want);
        assert_eq!(report.n, p.next_valid_len(100));
    }

    #[test]
    fn rejects_invalid_length() {
        let err = sim_sort(&[1u32, 2, 3], &params()).unwrap_err();
        assert!(matches!(err, WcmsError::InvalidLength { n: 3, .. }), "{err}");
    }

    use wcms_gpu_sim::fault::FaultConfig;

    fn faulty(seed: u64, tile: f64, corank: f64) -> FaultInjector {
        FaultInjector::new(FaultConfig {
            seed,
            tile_bitflip_rate: tile,
            corank_rate: corank,
            ..FaultConfig::default()
        })
    }

    /// The acceptance property of the fault subsystem: with the injector
    /// disabled, output AND counters are bit-identical to the plain
    /// driver, and the fault report is clean.
    #[test]
    fn disabled_injector_is_bit_identical_to_plain_driver() {
        for p in [params(), params().with_variant(SortVariant::ModernGpu)] {
            let n = p.block_elems() * 8;
            let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
            let (plain_out, plain_rep) = sim_sort(&input, &p).unwrap();
            let (out, rep, faults) =
                sim_resilient(&input, &p, &FaultInjector::disabled(), &RecoveryPolicy::default())
                    .unwrap();
            assert_eq!(out, plain_out);
            assert_eq!(rep, plain_rep, "counters must match bit-for-bit");
            assert!(faults.clean(), "{faults:?}");
        }
    }

    /// Transient faults at moderate rates: the output is still the exact
    /// sorted permutation (zero silent corruption), faults are detected,
    /// and retries recover without exhausting the budget.
    #[test]
    fn recovers_from_transient_faults() {
        let p = params();
        let n = p.block_elems() * 8;
        let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(48_271) % 9973).collect();
        let mut want = input.clone();
        want.sort_unstable();
        let inj = faulty(7, 0.3, 0.3);
        let (out, _, faults) =
            sim_resilient(&input, &p, &inj, &RecoveryPolicy { max_retries: 6, cpu_fallback: true })
                .unwrap();
        assert_eq!(out, want);
        assert!(faults.counters.any_injected(), "rates of 0.3 must fire somewhere");
        assert!(faults.counters.detected > 0);
        assert!(faults.counters.retries > 0);
    }

    /// A hard fault (rate 1.0) defeats every retry; the driver degrades
    /// the affected units to the CPU path and still returns the exact
    /// sorted permutation.
    #[test]
    fn hard_faults_degrade_to_cpu_and_stay_correct() {
        let p = params();
        let n = p.block_elems() * 4;
        let input: Vec<u32> = (0..n as u32).rev().collect();
        let mut want = input.clone();
        want.sort_unstable();
        let inj = faulty(3, 1.0, 0.0);
        let policy = RecoveryPolicy { max_retries: 2, cpu_fallback: true };
        let (out, rep, faults) = sim_resilient(&input, &p, &inj, &policy).unwrap();
        assert_eq!(out, want);
        // A base block reads its whole chunk, so its flip is always
        // consumed: all 4 base blocks must degrade. (A merge-round flip
        // can land in pair data outside the block's window — injected
        // but harmless — so pairs may legitimately recover.)
        for j in 0..4 {
            assert!(faults.degraded.contains(&(0, j)), "{faults:?}");
        }
        assert!(faults.counters.cpu_fallbacks >= 4);
        // Degraded units contribute no GPU counters.
        assert_eq!(rep.base.blocks, 0);
        // Every degraded unit burned its full retry budget first.
        assert!(faults.counters.retries >= faults.counters.cpu_fallbacks * policy.max_retries);
    }

    /// With CPU fallback disabled, a hard fault surfaces as the typed
    /// unrecoverable error instead of bad data.
    #[test]
    fn hard_fault_without_fallback_is_a_typed_error() {
        let p = params();
        let input: Vec<u32> = (0..p.block_elems() as u32 * 2).rev().collect();
        let inj = faulty(3, 1.0, 0.0);
        let err = sim_resilient(
            &input,
            &p,
            &inj,
            &RecoveryPolicy { max_retries: 1, cpu_fallback: false },
        )
        .unwrap_err();
        assert!(matches!(err, WcmsError::FaultUnrecoverable { round: 0, retries: 1, .. }), "{err}");
    }

    /// Cancellation is not a fault: a fired token stops the resilient
    /// sort with `Cancelled` at the first unit, unretried and never
    /// degraded to the CPU, for one block as for many. A live token
    /// leaves the fault ledger clean.
    #[test]
    fn cancellation_is_not_retried_as_a_fault() {
        let p = params();
        let (inj, policy) = (FaultInjector::disabled(), RecoveryPolicy::default());
        for blocks in [1, 4] {
            let input: Vec<u32> = (0..(p.block_elems() * blocks) as u32).rev().collect();
            let fired = CancelToken::new("cell");
            fired.cancel();
            let backend = Cancellable::new(SimBackend, fired);
            let err = sort_resilient_on(&input, &p, &backend, &SortSpec::default(), &inj, &policy)
                .unwrap_err();
            assert!(matches!(err, WcmsError::Cancelled { .. }), "{blocks} blocks: {err}");

            let backend = Cancellable::new(SimBackend, CancelToken::new("cell"));
            let (out, rep, faults) =
                sort_resilient_on(&input, &p, &backend, &SortSpec::default(), &inj, &policy)
                    .unwrap();
            assert_eq!((out, rep), sim_sort(&input, &p).unwrap(), "{blocks} blocks");
            assert!(faults.clean(), "{blocks} blocks: {faults:?}");
        }
    }

    /// Co-rank corruption — whether it trips the kernel's structural
    /// validation or survives to the round check — never corrupts the
    /// output, on both kernel structures.
    #[test]
    fn corank_corruption_is_always_caught() {
        for p in [params(), params().with_variant(SortVariant::ModernGpu)] {
            let n = p.block_elems() * 8;
            let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(31) % 4096).collect();
            let mut want = input.clone();
            want.sort_unstable();
            for seed in 0..4 {
                let inj = faulty(seed, 0.0, 0.5);
                let (out, _, faults) =
                    sim_resilient(&input, &p, &inj, &RecoveryPolicy::default()).unwrap();
                assert_eq!(out, want, "seed {seed}");
                assert!(faults.counters.corank_faults > 0, "seed {seed} fired nothing");
            }
        }
    }

    /// Same seed ⇒ same injected faults ⇒ same fault report, end to end.
    #[test]
    fn fault_runs_replay_deterministically() {
        let p = params();
        let n = p.block_elems() * 8;
        let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(7) % 512).collect();
        let inj = faulty(99, 0.4, 0.4);
        let policy = RecoveryPolicy::default();
        let (out1, rep1, f1) = sim_resilient(&input, &p, &inj, &policy).unwrap();
        let (out2, rep2, f2) = sim_resilient(&input, &p, &inj, &policy).unwrap();
        assert_eq!(out1, out2);
        assert_eq!(rep1, rep2);
        assert_eq!(f1, f2);
    }

    /// The Modern GPU variant sorts identically but pays for its separate
    /// partition kernels: more global requests and more blocks launched.
    #[test]
    fn mgpu_variant_sorts_with_extra_partition_cost() {
        let thrust = params();
        let mgpu = params().with_variant(SortVariant::ModernGpu);
        let n = thrust.block_elems() * 8;
        let input: Vec<u32> = (0..n as u32).rev().collect();

        let (out_t, rep_t) = sim_sort(&input, &thrust).unwrap();
        let (out_m, rep_m) = sim_sort(&input, &mgpu).unwrap();
        assert_eq!(out_t, out_m, "variants must agree on the output");
        // Shared-memory conflicts are identical: the tile work is the same.
        assert_eq!(
            rep_t.total().shared.merge,
            rep_m.total().shared.merge,
            "merging-stage conflicts are variant-independent"
        );
        // The partition kernels add global requests and launches.
        assert!(rep_m.total().global.requests > rep_t.total().global.requests);
        assert!(rep_m.blocks_launched() > rep_t.blocks_launched());
    }
}
