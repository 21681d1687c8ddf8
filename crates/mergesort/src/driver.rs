//! The end-to-end simulated sort: base case, then `log₂(N/bE)` global
//! merge rounds, with all counters aggregated into a
//! [`crate::instrument::SortReport`] value.
//!
//! Thread blocks are mutually independent within a kernel (each owns a
//! disjoint output window), so the simulation fans blocks out with Rayon
//! and reduces the counters with plain integer addition — results are
//! bit-identical to the sequential order.

use rayon::prelude::*;
use wcms_error::WcmsError;
use wcms_gpu_sim::fault::FaultInjector;
use wcms_gpu_sim::FaultCounters;
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

/// One round group's precomputed co-ranks (the Modern GPU structure):
/// pairwise groups carry per-block pairs, multiway groups per-block
/// per-run vectors, passthrough groups nothing.
enum GroupCoranks {
    Pair(Vec<(usize, usize)>),
    Multi(Vec<Vec<(usize, usize)>>),
    None,
}

fn group_refs<'a, K>(cur: &'a [K], grp: &[RunSpan]) -> Vec<&'a [K]> {
    grp.iter().map(|&(off, len)| &cur[off..off + len]).collect()
}

fn split_runs<'a, K>(data: &'a [K], lens: &[usize]) -> Vec<&'a [K]> {
    let mut out = Vec::with_capacity(lens.len());
    let mut off = 0usize;
    for &l in lens {
        out.push(&data[off..off + l]);
        off += l;
    }
    out
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
pub fn sort_on<K: wcms_gpu_sim::GpuKey>(
    input: &[K],
    params: &SortParams,
    backend: &impl ExecBackend,
    spec: &SortSpec<'_>,
) -> Result<(Vec<K>, SortReport), WcmsError> {
    run_sort(input, params, spec.algorithm.instance(), backend, spec.obs)
}

/// [`sort_on`] with [`SortSpec::default`]. Kept with this exact
/// signature because the benchmark in `perfbench/` calls it.
///
/// # Errors
///
/// Same conditions as [`sort_on`].
pub fn sort_with_report_on<K: wcms_gpu_sim::GpuKey>(
    input: &[K],
    params: &SortParams,
    backend: &impl ExecBackend,
) -> Result<(Vec<K>, SortReport), WcmsError> {
    sort_on(input, params, backend, &SortSpec::default())
}

/// The pipeline behind [`sort_on`], for any [`SortAlgorithm`] — not
/// just the [`AlgorithmKind`] instances.
fn run_sort<K: wcms_gpu_sim::GpuKey>(
    input: &[K],
    params: &SortParams,
    algo: &dyn SortAlgorithm,
    backend: &impl ExecBackend,
    obs: &Obs,
) -> Result<(Vec<K>, SortReport), WcmsError> {
    let n = input.len();
    if !params.valid_len(n) {
        return Err(WcmsError::InvalidLength { n, block_elems: params.block_elems() });
    }
    let be = params.block_elems();
    let _sort_span = span!(obs, "sort", n => n, backend => backend.name());

    // --- Base case: every block sorts its tile.
    let base_span = span!(obs, "base-case", blocks => n / be);
    let block_results: Vec<(Vec<K>, RoundCounters)> = input
        .par_chunks(be)
        .enumerate()
        .map(|(j, chunk)| backend.base_block(chunk, j * be, params))
        .collect::<Result<_, _>>()?;
    let mut base = RoundCounters::default();
    let mut cur = Vec::with_capacity(n);
    for (chunk, c) in block_results {
        base.absorb(&c);
        cur.extend(chunk);
    }
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
        let list_len = runs[0].1;
        let _round_span = span!(obs, "merge-round", round => round, list_len => list_len);

        // Modern GPU structure: a separate partition kernel per round
        // computes every block's co-ranks up front.
        let partitions: Option<(Vec<GroupCoranks>, RoundCounters)> =
            (params.variant == SortVariant::ModernGpu).then(|| {
                let per_group: Vec<(GroupCoranks, RoundCounters)> = groups
                    .par_iter()
                    .map(|grp| {
                        let blocks = grp.iter().map(|r| r.1).sum::<usize>() / be;
                        match grp.len() {
                            1 => (GroupCoranks::None, RoundCounters::default()),
                            2 => {
                                let (off0, len0) = grp[0];
                                let a = &cur[off0..off0 + len0];
                                let b = &cur[grp[1].0..grp[1].0 + grp[1].1];
                                let (pairs, c) = backend.partition_unit(a, b, blocks, params);
                                (GroupCoranks::Pair(pairs), c)
                            }
                            _ => {
                                let refs = group_refs(&cur, grp);
                                let (pairs, c) =
                                    backend.partition_unit_multi(&refs, blocks, params);
                                (GroupCoranks::Multi(pairs), c)
                            }
                        }
                    })
                    .collect();
                let mut counters = RoundCounters::default();
                let mut coranks = Vec::with_capacity(per_group.len());
                for (pairs, c) in per_group {
                    counters.absorb(&c);
                    coranks.push(pairs);
                }
                (coranks, counters)
            });

        // One work unit per bE output window of every merging group, in
        // group-major order (the kernel's block order).
        let units: Vec<(usize, usize)> = groups
            .iter()
            .enumerate()
            .flat_map(|(gi, grp)| {
                let blocks =
                    if grp.len() == 1 { 0 } else { grp.iter().map(|r| r.1).sum::<usize>() / be };
                (0..blocks).map(move |j| (gi, j))
            })
            .collect();
        let results: Vec<(Vec<K>, RoundCounters)> = units
            .par_iter()
            .map(|&(gi, j)| {
                let grp = groups[gi];
                if grp.len() == 2 {
                    let (off0, len0) = grp[0];
                    let a = &cur[off0..off0 + len0];
                    let b = &cur[grp[1].0..grp[1].0 + grp[1].1];
                    let pre = partitions.as_ref().and_then(|(cor, _)| match &cor[gi] {
                        GroupCoranks::Pair(pairs) => Some(pairs[j]),
                        _ => None,
                    });
                    backend.merge_unit(a, b, off0, grp[1].0, j, params, pre)
                } else {
                    let refs = group_refs(&cur, grp);
                    let offs: Vec<usize> = grp.iter().map(|r| r.0).collect();
                    let pre = partitions.as_ref().and_then(|(cor, _)| match &cor[gi] {
                        GroupCoranks::Multi(pairs) => Some(pairs[j].as_slice()),
                        _ => None,
                    });
                    backend.merge_unit_multi(&refs, &offs, grp[0].0, j, params, pre)
                }
            })
            .collect::<Result<_, _>>()?;

        let mut round_counters = partitions.map(|(_, c)| c).unwrap_or_default();
        let mut next = Vec::with_capacity(n);
        let mut next_runs = Vec::with_capacity(groups.len());
        let mut merged = results.into_iter();
        for grp in &groups {
            let base = grp[0].0;
            let total: usize = grp.iter().map(|r| r.1).sum();
            next_runs.push((base, total));
            if grp.len() == 1 {
                next.extend_from_slice(&cur[base..base + total]);
                continue;
            }
            for _ in 0..total / be {
                let (chunk, c) = merged.next().expect("one unit per output window");
                round_counters.absorb(&c);
                next.extend(chunk);
            }
        }
        event!(obs, "round-counters",
            round => round,
            merge_steps => round_counters.shared.merge.steps,
            extra_cycles => round_counters.shared.combined().extra_cycles,
            blocks => round_counters.blocks);
        rounds.push(round_counters);
        cur = next;
        runs = next_runs;
    }

    let report = SortReport { params: *params, n, base, rounds };
    observe_report(obs, &report);
    Ok((cur, report))
}

/// Feed one accepted [`SortReport`] into the metric counters. The
/// invariant the observability tests pin: `sort_merge_steps_total`
/// advances by exactly `report.total().shared.merge.steps` and
/// `sort_conflict_extra_cycles_total` by exactly
/// `report.total().shared.combined().extra_cycles`, on every backend.
fn observe_report(obs: &Obs, report: &SortReport) {
    if !obs.is_active() {
        return;
    }
    let total = report.total();
    obs.metrics.counter("sorts_total").inc();
    obs.metrics.counter("sort_rounds_total").add(report.rounds.len() as u64);
    obs.metrics.counter("sort_merge_steps_total").add(total.shared.merge.steps as u64);
    obs.metrics.counter("sort_blocks_launched_total").add(report.blocks_launched() as u64);
    total.to_kernel().observe(&obs.metrics, "sort");
}

/// Sort an arbitrary-length input on the simulated GPU by padding with
/// max-value sentinels up to the next valid length and truncating
/// afterwards. The reported `n` is the padded length.
///
/// # Errors
///
/// Propagates kernel-detected corruption from [`sort_on`] (the length
/// itself is always made valid by padding).
pub fn sort_padded<K: wcms_gpu_sim::GpuKey>(
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
    /// and the pair index in global merge rounds.
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
/// before it is accepted.
///
/// Detection and recovery per work unit — a thread block in the base
/// case, a merged group in a global round (the group of runs merged
/// together is the smallest unit whose output multiset is known in
/// advance — the pair, for the pairwise algorithm):
///
/// 1. a typed kernel error (CREW violation, out-of-bounds tile, invalid
///    co-rank) or a failed [`check_round_output`] marks the attempt bad;
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
/// [`FaultReport`] instead. With [`FaultInjector::disabled`] the output
/// and report are bit-identical to [`sort_on`] and the fault report is
/// [`FaultReport::clean`].
///
/// Under an active `spec.obs` the pipeline runs in a `sort-resilient`
/// span, every injected fault becomes a `fault-injected` event carrying
/// the injector seed and the fault's exact coordinates (round, unit,
/// attempt) — enough to replay it — and the fault totals feed the
/// `fault_*` metric counters.
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
/// [`WcmsError::InvalidLength`] for a non-`bE·2^m` input, and
/// [`WcmsError::FaultUnrecoverable`] when a unit exhausts its retries
/// with CPU fallback disabled. With `cpu_fallback` on, injected faults
/// never surface as errors — only as entries in the [`FaultReport`].
pub fn sort_resilient_on<K: wcms_gpu_sim::GpuKey>(
    input: &[K],
    params: &SortParams,
    backend: &impl ExecBackend,
    spec: &SortSpec<'_>,
    injector: &FaultInjector,
    policy: &RecoveryPolicy,
) -> Result<(Vec<K>, SortReport, FaultReport), WcmsError> {
    let (algo, obs) = (spec.algorithm.instance(), spec.obs);
    let n = input.len();
    if !params.valid_len(n) {
        return Err(WcmsError::InvalidLength { n, block_elems: params.block_elems() });
    }
    let be = params.block_elems();
    let mut fault = FaultReport::default();
    let _sort_span = span!(obs, "sort-resilient", n => n, backend => backend.name());

    // --- Base case: block-granular retry, round index 0.
    let block_results: Vec<(Vec<K>, RoundCounters, FaultReport)> = input
        .par_chunks(be)
        .enumerate()
        .map(|(j, chunk)| resilient_base_block(chunk, j, params, injector, policy, backend, obs))
        .collect::<Result<_, _>>()?;
    let mut base = RoundCounters::default();
    let mut cur = Vec::with_capacity(n);
    for (chunk, c, f) in block_results {
        base.absorb(&c);
        fault.absorb(&f);
        cur.extend(chunk);
    }

    // --- Global merge rounds: group-granular retry (the merged group is
    // the smallest unit whose output multiset is known in advance).
    let mut runs: Vec<RunSpan> = (0..n / be).map(|i| (i * be, be)).collect();
    let mut rounds = Vec::with_capacity(params.global_rounds(n));
    let mut round = 0usize;
    while runs.len() > 1 {
        round += 1;
        let g = algo.fan_in(runs.len()).clamp(2, runs.len());
        let groups: Vec<&[RunSpan]> = runs.chunks(g).collect();

        let group_results: Vec<(Vec<K>, RoundCounters, FaultReport)> = groups
            .par_iter()
            .enumerate()
            .map(|(gi, grp)| {
                let base = grp[0].0;
                let total: usize = grp.iter().map(|r| r.1).sum();
                let group_input = &cur[base..base + total];
                match grp.len() {
                    1 => {
                        Ok((group_input.to_vec(), RoundCounters::default(), FaultReport::default()))
                    }
                    2 => resilient_merge_pair(
                        group_input,
                        grp[0].1,
                        gi,
                        round,
                        params,
                        injector,
                        policy,
                        backend,
                        obs,
                    ),
                    _ => {
                        let lens: Vec<usize> = grp.iter().map(|r| r.1).collect();
                        resilient_merge_multi(
                            group_input,
                            &lens,
                            base,
                            gi,
                            round,
                            params,
                            injector,
                            policy,
                            backend,
                            obs,
                        )
                    }
                }
            })
            .collect::<Result<_, _>>()?;

        let mut round_counters = RoundCounters::default();
        let mut next = Vec::with_capacity(n);
        let mut next_runs = Vec::with_capacity(groups.len());
        for (grp, (chunk, c, f)) in groups.iter().zip(group_results) {
            next_runs.push((grp[0].0, chunk.len()));
            round_counters.absorb(&c);
            fault.absorb(&f);
            next.extend(chunk);
        }
        rounds.push(round_counters);
        cur = next;
        runs = next_runs;
    }

    let report = SortReport { params: *params, n, base, rounds };
    observe_report(obs, &report);
    if obs.is_active() {
        let c = &fault.counters;
        obs.metrics.counter("faults_injected_total").add((c.tile_faults + c.corank_faults) as u64);
        obs.metrics.counter("faults_detected_total").add(c.detected as u64);
        obs.metrics.counter("fault_retries_total").add(c.retries as u64);
        obs.metrics.counter("fault_cpu_fallbacks_total").add(c.cpu_fallbacks as u64);
    }
    Ok((cur, report, fault))
}

/// One base-case block under injection: sort the chunk, check the
/// output, retry from the immutable `chunk` on detection.
#[allow(clippy::too_many_arguments)] // internal retry-loop plumbing
fn resilient_base_block<K: wcms_gpu_sim::GpuKey>(
    chunk: &[K],
    j: usize,
    params: &SortParams,
    injector: &FaultInjector,
    policy: &RecoveryPolicy,
    backend: &impl ExecBackend,
    obs: &Obs,
) -> Result<(Vec<K>, RoundCounters, FaultReport), WcmsError> {
    let be = params.block_elems();
    let expect_hash = multiset_hash(chunk);
    let mut f = FaultReport::default();

    for attempt in 0..=policy.max_retries {
        if attempt > 0 {
            f.counters.retries += 1;
        }
        // Inject: bit-flips in the keys this block loads into its tile.
        let result = if injector.tile_fault_at(0, j, attempt) {
            let mut tile = chunk.to_vec();
            f.counters.tile_faults += 1;
            f.counters.bits_flipped += injector.flip_tile_bits(&mut tile, 0, j, attempt);
            event!(obs, "fault-injected",
                kind => "tile-bitflip",
                seed => injector.config().seed,
                round => 0usize,
                unit => j,
                attempt => attempt);
            backend.base_block(&tile, j * be, params)
        } else {
            backend.base_block(chunk, j * be, params)
        };
        match result {
            Ok((out, c)) => {
                if check_round_output(&out, chunk.len(), expect_hash, 0, j).is_ok() {
                    return Ok((out, c, f));
                }
                f.counters.detected += 1;
            }
            Err(_kernel_fault) => f.counters.detected += 1,
        }
    }

    if !policy.cpu_fallback {
        return Err(WcmsError::FaultUnrecoverable {
            round: 0,
            block: j,
            retries: policy.max_retries,
        });
    }
    f.counters.cpu_fallbacks += 1;
    f.degraded.push((0, j));
    let (out, _) = ReferenceBackend.base_block(chunk, j * be, params)?;
    Ok((out, RoundCounters::default(), f))
}

/// One merged pair of one global round under injection: run every block
/// of the pair, check the assembled pair output, retry the whole pair
/// from the immutable round input on detection.
#[allow(clippy::too_many_arguments)] // internal retry-loop plumbing
fn resilient_merge_pair<K: wcms_gpu_sim::GpuKey>(
    pair_input: &[K],
    list_len: usize,
    pair: usize,
    round: usize,
    params: &SortParams,
    injector: &FaultInjector,
    policy: &RecoveryPolicy,
    backend: &impl ExecBackend,
    obs: &Obs,
) -> Result<(Vec<K>, RoundCounters, FaultReport), WcmsError> {
    let be = params.block_elems();
    let pair_len = pair_input.len();
    let blocks_per_pair = pair_len / be;
    let a = &pair_input[..list_len];
    let b = &pair_input[list_len..];
    let pair_base = pair * pair_len;
    let expect_hash = multiset_hash(pair_input);
    let mut f = FaultReport::default();

    for attempt in 0..=policy.max_retries {
        if attempt > 0 {
            f.counters.retries += 1;
        }
        // The Modern GPU partition kernel reruns with the rest of the
        // attempt (its co-ranks are inputs to every merge block).
        let partitions = (params.variant == SortVariant::ModernGpu)
            .then(|| backend.partition_unit(a, b, blocks_per_pair, params));
        let mut counters = partitions.as_ref().map(|(_, c)| *c).unwrap_or_default();
        let mut out = Vec::with_capacity(pair_len);
        let mut kernel_fault = false;

        for j in 0..blocks_per_pair {
            let block = pair * blocks_per_pair + j; // kernel-wide block id
            let mut pre = partitions.as_ref().map(|(coranks, _)| coranks[j]);

            // Inject: corrupt the block's co-rank pair (models a faulty
            // partition kernel or a torn read of the partition array).
            if injector.corank_fault_at(round, block, attempt) {
                let correct = pre.unwrap_or_else(|| {
                    let diag = j * be;
                    (
                        merge_path(diag, a.len(), b.len(), |i| a[i], |x| b[x]),
                        merge_path(diag + be, a.len(), b.len(), |i| a[i], |x| b[x]),
                    )
                });
                pre = Some(injector.corrupt_corank(correct, round, block, attempt));
                f.counters.corank_faults += 1;
                event!(obs, "fault-injected",
                    kind => "corank",
                    seed => injector.config().seed,
                    round => round,
                    unit => block,
                    attempt => attempt);
            }

            // Inject: bit-flips in the pair data this block reads.
            let result = if injector.tile_fault_at(round, block, attempt) {
                let mut tile = pair_input.to_vec();
                f.counters.tile_faults += 1;
                f.counters.bits_flipped +=
                    injector.flip_tile_bits(&mut tile, round, block, attempt);
                event!(obs, "fault-injected",
                    kind => "tile-bitflip",
                    seed => injector.config().seed,
                    round => round,
                    unit => block,
                    attempt => attempt);
                let (ta, tb) = tile.split_at(list_len);
                backend.merge_unit(ta, tb, pair_base, pair_base + list_len, j, params, pre)
            } else {
                backend.merge_unit(a, b, pair_base, pair_base + list_len, j, params, pre)
            };
            match result {
                Ok((chunk, c)) => {
                    counters.absorb(&c);
                    out.extend(chunk);
                }
                Err(
                    WcmsError::PartitionValidation { .. }
                    | WcmsError::SmemOutOfBounds { .. }
                    | WcmsError::CrewViolation { .. }
                    | WcmsError::CorruptOutput { .. },
                ) => {
                    f.counters.detected += 1;
                    kernel_fault = true;
                    break;
                }
                Err(other) => return Err(other),
            }
        }

        if !kernel_fault {
            if check_round_output(&out, pair_len, expect_hash, round, pair).is_ok() {
                return Ok((out, counters, f));
            }
            f.counters.detected += 1;
        }
    }

    if !policy.cpu_fallback {
        return Err(WcmsError::FaultUnrecoverable {
            round,
            block: pair,
            retries: policy.max_retries,
        });
    }
    f.counters.cpu_fallbacks += 1;
    f.degraded.push((round, pair));
    Ok((ReferenceBackend.merge_pair(a, b), RoundCounters::default(), f))
}

/// One merged *multiway* group of one global round under injection — the
/// k-way analogue of [`resilient_merge_pair`]: run every block of the
/// group, check the assembled group output, retry the whole group from
/// the immutable round input on detection, degrade to the CPU k-way
/// merge on exhaustion.
#[allow(clippy::too_many_arguments)] // internal retry-loop plumbing
fn resilient_merge_multi<K: wcms_gpu_sim::GpuKey>(
    group_input: &[K],
    member_lens: &[usize],
    group_base: usize,
    group: usize,
    round: usize,
    params: &SortParams,
    injector: &FaultInjector,
    policy: &RecoveryPolicy,
    backend: &impl ExecBackend,
    obs: &Obs,
) -> Result<(Vec<K>, RoundCounters, FaultReport), WcmsError> {
    let be = params.block_elems();
    let total = group_input.len();
    let blocks = total / be;
    let refs = split_runs(group_input, member_lens);
    let run_offsets: Vec<usize> = {
        let mut offs = Vec::with_capacity(member_lens.len());
        let mut off = group_base;
        for &l in member_lens {
            offs.push(off);
            off += l;
        }
        offs
    };
    let expect_hash = multiset_hash(group_input);
    let mut f = FaultReport::default();

    for attempt in 0..=policy.max_retries {
        if attempt > 0 {
            f.counters.retries += 1;
        }
        let partitions = (params.variant == SortVariant::ModernGpu)
            .then(|| backend.partition_unit_multi(&refs, blocks, params));
        let mut counters = partitions.as_ref().map(|(_, c)| *c).unwrap_or_default();
        let mut out = Vec::with_capacity(total);
        let mut kernel_fault = false;

        for j in 0..blocks {
            let block = group_base / be + j; // kernel-wide block id
            let mut pre: Option<Vec<(usize, usize)>> =
                partitions.as_ref().map(|(coranks, _)| coranks[j].clone());

            // Inject: corrupt one run's co-rank pair (models a faulty
            // partition kernel or a torn read of the partition array).
            if injector.corank_fault_at(round, block, attempt) {
                let mut pairs = pre.take().unwrap_or_else(|| {
                    let starts = multiway_select(member_lens, j * be, |i, x| refs[i][x]);
                    let ends = multiway_select(member_lens, (j + 1) * be, |i, x| refs[i][x]);
                    starts.into_iter().zip(ends).collect()
                });
                pairs[0] = injector.corrupt_corank(pairs[0], round, block, attempt);
                f.counters.corank_faults += 1;
                event!(obs, "fault-injected",
                    kind => "corank",
                    seed => injector.config().seed,
                    round => round,
                    unit => block,
                    attempt => attempt);
                pre = Some(pairs);
            }

            // Inject: bit-flips in the group data this block reads.
            let result = if injector.tile_fault_at(round, block, attempt) {
                let mut tile = group_input.to_vec();
                f.counters.tile_faults += 1;
                f.counters.bits_flipped +=
                    injector.flip_tile_bits(&mut tile, round, block, attempt);
                event!(obs, "fault-injected",
                    kind => "tile-bitflip",
                    seed => injector.config().seed,
                    round => round,
                    unit => block,
                    attempt => attempt);
                let trefs = split_runs(&tile, member_lens);
                backend.merge_unit_multi(
                    &trefs,
                    &run_offsets,
                    group_base,
                    j,
                    params,
                    pre.as_deref(),
                )
            } else {
                backend.merge_unit_multi(&refs, &run_offsets, group_base, j, params, pre.as_deref())
            };
            match result {
                Ok((chunk, c)) => {
                    counters.absorb(&c);
                    out.extend(chunk);
                }
                Err(
                    WcmsError::PartitionValidation { .. }
                    | WcmsError::SmemOutOfBounds { .. }
                    | WcmsError::CrewViolation { .. }
                    | WcmsError::CorruptOutput { .. },
                ) => {
                    f.counters.detected += 1;
                    kernel_fault = true;
                    break;
                }
                Err(other) => return Err(other),
            }
        }

        if !kernel_fault {
            if check_round_output(&out, total, expect_hash, round, group).is_ok() {
                return Ok((out, counters, f));
            }
            f.counters.detected += 1;
        }
    }

    if !policy.cpu_fallback {
        return Err(WcmsError::FaultUnrecoverable {
            round,
            block: group,
            retries: policy.max_retries,
        });
    }
    f.counters.cpu_fallbacks += 1;
    f.degraded.push((round, group));
    Ok((ReferenceBackend.merge_group(&refs), RoundCounters::default(), f))
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
    use crate::backend::{AnalyticBackend, BackendKind};
    use wcms_error::CancelToken;

    #[test]
    fn default_spec_runs_the_pairwise_merge() {
        for p in [params(), params().with_variant(SortVariant::ModernGpu)] {
            let n = p.block_elems() * 8;
            let input: Vec<u32> = (0..n as u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
            let default = sim_sort(&input, &p).unwrap();
            let algo = run_sort(&input, &p, &PairwiseMerge, &SimBackend, Obs::noop()).unwrap();
            assert_eq!(default, algo, "the default spec must be the paper's pairwise sort");
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
        let (out, report) = run_sort(&input, &p, &algo, &SimBackend, Obs::noop()).unwrap();
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
