//! The blocking daemon: accept loop, connection workers, compute
//! workers, and the request lifecycle connecting them.
//!
//! ```text
//!                    accept loop (bounded hand-off, sheds on full)
//!                        │
//!                conn workers ──(read frame, deadline-armed socket)
//!                        │
//!          status/health ┤  compute requests
//!           answered     │      │
//!           inline       │   result cache ──hit──▶ cached bytes
//!                        │      │ miss
//!                        │   job journal (queued, durable)
//!                        │      │
//!                        │   admission queue ──full──▶ Overloaded
//!                        │      │
//!                compute workers: journal(running) → supervise_cell
//!                        │      (budget → CancelToken → demotion ladder)
//!                        │   cache.store → journal.complete → reply
//! ```
//!
//! There is no clean-shutdown path: SIGKILL is the normal stop, and the
//! journal + cache are the only state the next incarnation trusts
//! (crash-only, like the PR-3 sweep supervisor this reuses). The
//! in-process `ctrl` token exists so tests can stop an embedded server;
//! it does no state finalisation a crash would skip.

use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;

use wcms_bench::experiment::{measure, SweepConfig};
use wcms_bench::resilient::ResilienceConfig;
use wcms_bench::supervisor::{run_sweep, supervise_cell, SweepOptions};
use wcms_error::{CancelToken, WcmsError};
use wcms_gpu_sim::DeviceSpec;
use wcms_mergesort::{SortParams, SortSpec};
use wcms_obs::{fields, Obs, TraceContext, LATENCY_BUCKETS_S, TRACE_SEED};

use crate::admission::AdmissionQueue;
use crate::cache::{CacheOutcome, ResultCache};
use crate::deadline::{
    apply_deadlines, clamp_budget, DEFAULT_READ_DEADLINE, DEFAULT_WRITE_DEADLINE,
};
use crate::journal::JobJournal;
use crate::wire::{
    read_frame, write_frame, Request, Response, StatusBody, MAX_INLINE_KEYS, MAX_REQUEST_FRAME,
    MAX_RESPONSE_FRAME, PROTOCOL_VERSION,
};

/// Largest size-grid exponent a `grid` request may ask for (`n = bE·2^m`
/// overflows usize far above this; the cap keeps one request from
/// asking for a year of work).
pub const MAX_DOUBLINGS: u32 = 24;

/// Absolute ceiling on the input length any single request may name,
/// regardless of tuning (2^27 keys = 512 MiB of u32s). `generate`
/// allocates `n` keys up front and oblivious families never fail, so
/// without a ceiling one hostile frame is an OOM abort.
pub const MAX_REQUEST_N: usize = 1 << 27;

/// Ceiling on `runs` for `measure`/`grid` — averaging buys nothing
/// past this, and an unbounded count pins a compute worker.
pub const MAX_RUNS: u64 = 256;

/// Histogram bounds for queue-depth observations (jobs waiting). The
/// default queue capacity is 64, so the top bucket is "at capacity".
const QUEUE_DEPTH_BUCKETS: [f64; 8] = [0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// The per-request input-length ceiling: the grid ceiling for this
/// tuning (`bE << MAX_DOUBLINGS`), clamped by [`MAX_REQUEST_N`].
/// Degenerate tunings (overflowing `b·E`) fall back to the absolute cap
/// — `SortParams` validation rejects them anyway where it applies.
fn request_n_ceiling(tuning: &crate::wire::Tuning) -> usize {
    tuning
        .b
        .checked_mul(tuning.e)
        .and_then(|tile| tile.checked_shl(MAX_DOUBLINGS))
        .unwrap_or(usize::MAX)
        .min(MAX_REQUEST_N)
}

/// Reject hostile-scale parameters *before* any journaling, queueing or
/// allocation (the `Err` is the `bad-request` message). Called at
/// admission and again in `execute` so recovered journal records (which
/// bypass dispatch) get the same screening — a tampered record must not
/// be able to OOM the daemon on every restart.
fn validate_limits(req: &Request) -> Result<(), String> {
    let check_n = |n: usize, tuning: &crate::wire::Tuning| {
        let ceiling = request_n_ceiling(tuning);
        if n > ceiling {
            return Err(format!("n={n} exceeds the server ceiling {ceiling} for this tuning"));
        }
        Ok(())
    };
    let check_runs = |runs: u64| {
        if runs > MAX_RUNS {
            return Err(format!("runs={runs} exceeds the server ceiling {MAX_RUNS}"));
        }
        Ok(())
    };
    match req {
        Request::Generate { tuning, n, .. } => check_n(*n, tuning),
        Request::Measure { tuning, n, runs, .. } => {
            check_n(*n, tuning)?;
            check_runs(*runs)
        }
        Request::Grid { runs, .. } => check_runs(*runs),
        Request::Status | Request::Health | Request::Metrics => Ok(()),
    }
}

/// Everything the daemon needs to know about *how* to serve.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Compute worker threads draining the admission queue.
    pub workers: usize,
    /// Connection worker threads (each owns one socket at a time).
    pub conn_workers: usize,
    /// Bounded hand-off between the accept loop and connection workers;
    /// a full backlog sheds the connection with `Overloaded`.
    pub conn_backlog: usize,
    /// Admission queue capacity (jobs, not connections).
    pub queue_cap: usize,
    /// Result cache directory.
    pub cache_dir: PathBuf,
    /// Job journal directory.
    pub journal_dir: PathBuf,
    /// Per-connection socket read deadline.
    pub read_deadline: Duration,
    /// Per-connection socket write deadline.
    pub write_deadline: Duration,
    /// Ceiling on client-requested compute budgets (and the default
    /// when a request carries none).
    pub max_budget: Duration,
    /// Estimated per-job cost used for the `Overloaded` retry-after
    /// hint.
    pub est_job_ms: u64,
    /// Observability bundle (metrics always on; tracing optional).
    pub obs: Obs,
}

impl ServerConfig {
    /// Defaults for the given state directories.
    #[must_use]
    pub fn new(cache_dir: impl Into<PathBuf>, journal_dir: impl Into<PathBuf>) -> Self {
        ServerConfig {
            workers: 2,
            conn_workers: 4,
            conn_backlog: 16,
            queue_cap: 64,
            cache_dir: cache_dir.into(),
            journal_dir: journal_dir.into(),
            read_deadline: DEFAULT_READ_DEADLINE,
            write_deadline: DEFAULT_WRITE_DEADLINE,
            max_budget: crate::deadline::DEFAULT_BUDGET,
            est_job_ms: 200,
            obs: Obs::enabled(wcms_obs::Clock::wall()),
        }
    }
}

/// Resolve a wire device name to a preset.
#[must_use]
pub fn resolve_device(name: &str) -> Option<DeviceSpec> {
    match name {
        "test" | "test-device" => Some(DeviceSpec::test_device()),
        "quadro_m4000" => Some(DeviceSpec::quadro_m4000()),
        "rtx_2080_ti" => Some(DeviceSpec::rtx_2080_ti()),
        "gtx_770" => Some(DeviceSpec::gtx_770()),
        other => DeviceSpec::presets().into_iter().find(|d| d.name == other),
    }
}

/// One admitted compute job.
struct Job {
    id: u64,
    request: Request,
    req_text: String,
    key: String,
    budget: Duration,
    /// The request's trace identity: the client's propagated context,
    /// or a fresh root derived from the job id.
    ctx: TraceContext,
    /// Carries the encoded response plus whether it was a success —
    /// dispatch owns the ok/error counters, the worker just reports.
    reply: mpsc::SyncSender<(String, bool)>,
    token: CancelToken,
}

/// How long dispatch waits for a job's reply: the compute budget, plus
/// the expected queue wait for the position it was admitted at (a full
/// queue at defaults is ~12.8 s of work — jobs deep in it must not be
/// declared dead before a worker ever picks them up), plus a small
/// fixed grace for reply plumbing.
fn reply_wait(
    budget: Duration,
    queued_ahead: usize,
    est_job_ms: u64,
    max_budget: Duration,
) -> Duration {
    let queue_wait = Duration::from_millis((queued_ahead as u64).saturating_mul(est_job_ms));
    budget + queue_wait + max_budget.min(Duration::from_secs(5))
}

struct Server {
    cfg: ServerConfig,
    cache: ResultCache,
    journal: JobJournal,
    queue: AdmissionQueue<Job>,
    inflight: AtomicU64,
    start_us: u64,
}

fn error_response(kind: &str, message: String) -> Response {
    Response::Error { kind: kind.into(), message }
}

impl Server {
    fn count(&self, name: &str) {
        self.cfg.obs.metrics.counter(name).inc();
    }

    fn counter_value(&self, name: &str) -> u64 {
        self.cfg.obs.metrics.counter(name).get()
    }

    /// Execute a compute request to completion (or typed failure).
    /// Pure given the request — everything nondeterministic (wall
    /// time, attempt counts under timeouts) is kept out of cacheable
    /// payloads by [`cacheable`].
    fn execute(
        &self,
        req: &Request,
        budget: Duration,
        client: &CancelToken,
        ctx: TraceContext,
    ) -> Response {
        if let Err(msg) = validate_limits(req) {
            return error_response("bad-request", msg);
        }
        // The request span carries the propagated identity verbatim: a
        // client-supplied context makes this daemon's work a child of
        // the client's causal tree, and every cell the request fans out
        // into parents back to this span.
        let _request = self.cfg.obs.span("request", || {
            let mut f = fields![op => req.op()];
            ctx.stamp(&mut f);
            f
        });
        match req {
            Request::Generate { tuning, n, family, include_data, .. } => {
                if client.check().is_err() {
                    return error_response("deadline", "client went away before generation".into());
                }
                match family.generate(*n, tuning.w, tuning.e, tuning.b) {
                    Ok(keys) => Response::Generate {
                        n: keys.len(),
                        fingerprint: crate::wire::keys_fingerprint(&keys),
                        keys: (*include_data && keys.len() <= MAX_INLINE_KEYS).then_some(keys),
                    },
                    Err(e) => error_response("compute", e.to_string()),
                }
            }
            Request::Measure { tuning, n, family, runs, backend, algorithm, device, .. } => {
                let Some(device) = resolve_device(device) else {
                    return error_response("bad-request", format!("unknown device `{device}`"));
                };
                let params = match SortParams::new(tuning.w, tuning.e, tuning.b) {
                    Ok(p) => p,
                    Err(e) => return error_response("bad-request", e.to_string()),
                };
                let cell = format!("serve/measure/{n}");
                let resilience = self.request_resilience(budget, ctx);
                let cell_obs = resilience.obs.clone();
                let (family, n, runs, algorithm, outer) =
                    (*family, *n, *runs, *algorithm, client.clone());
                let outcome = supervise_cell(&cell, *backend, &resilience, move |rung, token| {
                    outer.check()?;
                    let sort = SortSpec { algorithm, obs: &cell_obs };
                    measure(&device, &params, family, n, runs, rung, &sort, token)
                });
                Response::Measure { cell: outcome.result }
            }
            Request::Grid {
                tuning,
                family,
                min_doublings,
                max_doublings,
                runs,
                backend,
                algorithm,
                device,
                ..
            } => {
                let Some(device) = resolve_device(device) else {
                    return error_response("bad-request", format!("unknown device `{device}`"));
                };
                let params = match SortParams::new(tuning.w, tuning.e, tuning.b) {
                    Ok(p) => p,
                    Err(e) => return error_response("bad-request", e.to_string()),
                };
                if *max_doublings > MAX_DOUBLINGS || min_doublings > max_doublings {
                    return error_response(
                        "bad-request",
                        format!(
                            "doublings {min_doublings}..{max_doublings} outside 0..{MAX_DOUBLINGS}"
                        ),
                    );
                }
                let tile = tuning.b * tuning.e;
                let sizes: Vec<usize> =
                    (*min_doublings..=*max_doublings).filter_map(|m| tile.checked_shl(m)).collect();
                let mut resilience = self.request_resilience(budget, ctx);
                let cell_obs = resilience.obs.clone();
                // Per-request grid checkpoints: the directory is keyed
                // by the canonical request key, so the key *is* the
                // configuration fingerprint and a bare store suffices.
                // A daemon killed mid-grid resumes from the committed
                // cells on the retried request; a completed grid lands
                // in the result cache and its checkpoint dir is removed.
                let grid_ckpt = req.canonical_key().map(|key| {
                    self.cfg
                        .journal_dir
                        .join("grid-ckpt")
                        .join(wcms_bench::checkpoint::sanitize(&key))
                });
                if let Some(dir) = &grid_ckpt {
                    match wcms_bench::checkpoint::CheckpointStore::open(dir) {
                        Ok(store) => resilience.checkpoint = Some(store),
                        Err(e) => {
                            // Degraded but correct: run without resume.
                            self.cfg.obs.warn("grid-ckpt-unavailable", &format!(
                                "serve: grid checkpoint dir unavailable ({e}); running without resume"
                            ), Vec::new);
                        }
                    }
                }
                let opts = SweepOptions {
                    sweep: SweepConfig {
                        min_doublings: *min_doublings,
                        max_doublings: *max_doublings,
                        runs: *runs,
                    },
                    resilience,
                    backend: *backend,
                    algorithm: *algorithm,
                    jobs: 1, // within-request: sequential; across requests: the worker pool
                    shard: wcms_bench::shard::ShardPolicy::Off,
                };
                let (family, runs, algorithm, outer) = (*family, *runs, *algorithm, client.clone());
                let swept = run_sweep(
                    sizes,
                    &opts,
                    |n| format!("serve/grid/{n}"),
                    move |n, rung, token| {
                        outer.check()?;
                        let sort = SortSpec { algorithm, obs: &cell_obs };
                        measure(&device, &params, family, n, runs, rung, &sort, token)
                    },
                );
                let complete = swept
                    .cells
                    .iter()
                    .all(|(_, o)| matches!(o.result, wcms_bench::checkpoint::CellResult::Done(_)));
                if complete {
                    if let Some(dir) = &grid_ckpt {
                        // The result cache is the durable layer from
                        // here on; the checkpoint dir only needs to
                        // survive an *interrupted* grid.
                        let _ = std::fs::remove_dir_all(dir);
                    }
                }
                Response::Grid {
                    cells: swept.cells.into_iter().map(|(n, o)| (n, o.result)).collect(),
                }
            }
            Request::Status | Request::Health | Request::Metrics => {
                error_response("bad-request", "not a compute request".into())
            }
        }
    }

    /// Per-request supervision policy: the whole client budget bounds
    /// each attempt, one retry, fast backoff, no checkpointing (the
    /// cache is the durable layer here). The request's trace context
    /// rides the obs bundle, so supervisor cells parent to it.
    fn request_resilience(&self, budget: Duration, ctx: TraceContext) -> ResilienceConfig {
        ResilienceConfig {
            timeout: Some(budget),
            retries: 1,
            backoff: Duration::from_millis(50),
            checkpoint: None,
            obs: self.cfg.obs.with_context(ctx),
            ..ResilienceConfig::none()
        }
    }

    fn status_body(&self) -> StatusBody {
        StatusBody {
            queue_depth: self.queue.depth() as u64,
            queue_cap: self.queue.capacity() as u64,
            inflight: self.inflight.load(Ordering::Relaxed),
            requests_total: self.counter_value("serve_requests_total"),
            ok_total: self.counter_value("serve_ok_total"),
            error_total: self.counter_value("serve_error_total"),
            overloaded_total: self.counter_value("serve_overloaded_total"),
            deadline_total: self.counter_value("serve_deadline_total"),
            cache_hits: self.counter_value("serve_cache_hits"),
            cache_misses: self.counter_value("serve_cache_misses"),
            cache_quarantined: self.counter_value("serve_cache_quarantined"),
            jobs_recovered: self.counter_value("serve_jobs_recovered"),
            jobs_tombstoned: self.counter_value("serve_jobs_tombstoned"),
            journal_quarantined: self.counter_value("serve_journal_quarantined"),
            uptime_s: self.cfg.obs.clock.elapsed_s(self.start_us),
        }
    }

    /// Handle one request document end-to-end; returns the response
    /// payload to frame back. This wrapper owns the per-request
    /// histograms so every path through [`Server::dispatch_inner`] —
    /// typed errors, sheds, cache hits, computes — lands in them.
    fn dispatch(&self, req_text: &str) -> String {
        let t0 = self.cfg.obs.clock.now_us();
        self.cfg
            .obs
            .metrics
            .histogram("serve_queue_depth", &QUEUE_DEPTH_BUCKETS)
            .observe(self.queue.depth() as f64);
        let payload = self.dispatch_inner(req_text);
        self.cfg
            .obs
            .metrics
            .histogram("serve_request_latency_seconds", &LATENCY_BUCKETS_S)
            .observe(self.cfg.obs.clock.elapsed_s(t0));
        payload
    }

    fn dispatch_inner(&self, req_text: &str) -> String {
        self.count("serve_requests_total");
        let req = match Request::decode(req_text) {
            Ok(req) => req,
            Err(e) => {
                self.count("serve_error_total");
                return error_response("bad-request", e.to_string()).encode();
            }
        };
        match &req {
            // Control-plane ops are answered inline and never shed —
            // an overloaded daemon must still be observable.
            Request::Status => {
                self.count("serve_ok_total");
                return Response::Status(self.status_body()).encode();
            }
            Request::Health => {
                self.count("serve_ok_total");
                return Response::Health { version: PROTOCOL_VERSION }.encode();
            }
            Request::Metrics => {
                // Scrapes are control-plane too: answered inline even
                // at saturation, so the overloaded daemon can still be
                // diagnosed from its own numbers.
                self.count("serve_ok_total");
                return Response::Metrics { text: self.cfg.obs.metrics.prometheus_text() }.encode();
            }
            _ => {}
        }
        if let Err(msg) = validate_limits(&req) {
            self.count("serve_error_total");
            return error_response("bad-request", msg).encode();
        }
        // canonical_key() is Some for every compute op by construction.
        let Some(key) = req.canonical_key() else {
            self.count("serve_error_total");
            return error_response("bad-request", "request has no canonical key".into()).encode();
        };
        match self.cache.lookup(&key) {
            CacheOutcome::Hit(payload) => {
                self.count("serve_cache_hits");
                self.count("serve_ok_total");
                return payload;
            }
            CacheOutcome::Quarantined { reason } => {
                self.count("serve_cache_quarantined");
                let evicted = self.cache.take_quarantine_evictions();
                self.cfg.obs.metrics.counter("serve_quarantine_evicted_total").add(evicted);
                self.cfg.obs.warn(
                    "cache-quarantined",
                    &format!("cache entry for {key} quarantined: {reason}; recomputing"),
                    Vec::new,
                );
            }
            CacheOutcome::Miss => {}
        }
        self.count("serve_cache_misses");

        let budget = match &req {
            Request::Measure { budget_ms, .. } | Request::Grid { budget_ms, .. } => {
                clamp_budget(*budget_ms, self.cfg.max_budget)
            }
            _ => clamp_budget(None, self.cfg.max_budget),
        };
        let id = match self.journal.record_queued(req_text) {
            Ok(id) => id,
            Err(e) => {
                self.count("serve_error_total");
                return error_response("journal", format!("could not journal the job: {e}"))
                    .encode();
            }
        };
        let token = CancelToken::new(format!("serve/job-{id:016x}"));
        // Adopt the client's propagated context verbatim — the daemon's
        // request span then *is* the span the client named, and remote
        // workers see one causal tree. An untraced client gets a fresh
        // deterministic root derived from the job id.
        let ctx = req
            .trace()
            .unwrap_or_else(|| TraceContext::root(TRACE_SEED, &format!("serve/job-{id:016x}")));
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let job = Job {
            id,
            request: req,
            req_text: req_text.to_string(),
            key,
            budget,
            ctx,
            reply: reply_tx,
            token: token.clone(),
        };
        let queued_ahead = match self.queue.try_submit(job, self.cfg.est_job_ms) {
            Ok(ahead) => ahead,
            Err(e) => {
                // Never admitted: the journal record would otherwise be
                // "recovered" after a crash for a job the client was
                // told was shed.
                let _ = self.journal.complete(id);
                return match e {
                    WcmsError::Overloaded { queue_depth, retry_after_ms } => {
                        self.count("serve_overloaded_total");
                        // The shed-time depth distribution answers "how
                        // deep does the queue get before we shed?".
                        self.cfg
                            .obs
                            .metrics
                            .histogram("serve_shed_queue_depth", &QUEUE_DEPTH_BUCKETS)
                            .observe(queue_depth as f64);
                        Response::Overloaded { retry_after_ms, queue_depth: queue_depth as u64 }
                            .encode()
                    }
                    other => {
                        self.count("serve_error_total");
                        error_response("shutting-down", other.to_string()).encode()
                    }
                };
            }
        };
        // The budget bounds compute; the wait additionally covers the
        // queue position and reply plumbing. On expiry, cancel the
        // token so the backends' merge loops stop cooperatively.
        let wait = reply_wait(budget, queued_ahead, self.cfg.est_job_ms, self.cfg.max_budget);
        match reply_rx.recv_timeout(wait) {
            Ok((payload, ok)) => {
                // The single ok/error tally point for admitted jobs:
                // the worker reports, dispatch counts, so a request can
                // never land in both buckets.
                self.count(if ok { "serve_ok_total" } else { "serve_error_total" });
                payload
            }
            Err(_) => {
                token.cancel();
                self.count("serve_deadline_total");
                self.count("serve_error_total");
                error_response("deadline", format!("job {id:016x} exceeded its budget")).encode()
            }
        }
    }

    fn compute_worker(&self) {
        while let Some(job) = self.queue.pop() {
            self.inflight.fetch_add(1, Ordering::Relaxed);
            let _ = self.journal.mark_running(job.id, &job.req_text);
            // The supervision stack already isolates cell panics; this
            // guard catches bugs in the serve layer itself, because a
            // daemon worker must never die with jobs queued.
            let response = catch_unwind(AssertUnwindSafe(|| {
                self.execute(&job.request, job.budget, &job.token, job.ctx)
            }))
            .unwrap_or_else(|_| error_response("compute", "job handler panicked".into()));
            let payload = response.encode();
            let ok = cacheable(&response);
            if ok {
                if let Err(e) = self.cache.store(&job.key, &payload) {
                    self.cfg.obs.warn(
                        "cache-store-failed",
                        &format!("result for {} not cached: {e}", job.key),
                        Vec::new,
                    );
                }
            }
            let _ = self.journal.complete(job.id);
            let _ = job.reply.send((payload, ok)); // receiver may have timed out
            self.inflight.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn handle_conn(&self, stream: &TcpStream) {
        if apply_deadlines(stream, self.cfg.read_deadline, self.cfg.write_deadline).is_err() {
            return;
        }
        let mut reader = stream;
        loop {
            match read_frame(&mut reader, MAX_REQUEST_FRAME) {
                Ok(None) => break,
                Ok(Some(payload)) => {
                    let Ok(text) = String::from_utf8(payload) else {
                        let resp = error_response("bad-request", "request is not UTF-8".into());
                        let _ = self.write_response(stream, &resp.encode());
                        break;
                    };
                    let payload = self.dispatch(&text);
                    if self.write_response(stream, &payload).is_err() {
                        break; // slow or dead client: the write deadline fired
                    }
                }
                Err(WcmsError::WireMalformed { reason }) => {
                    // The stream is desynchronised; answer once, close.
                    let resp = error_response("bad-request", reason);
                    let _ = self.write_response(stream, &resp.encode());
                    break;
                }
                Err(_) => break, // read deadline or connection reset
            }
        }
    }

    fn write_response(&self, stream: &TcpStream, payload: &str) -> Result<(), WcmsError> {
        let mut writer = stream;
        write_frame(&mut writer, payload.as_bytes(), MAX_RESPONSE_FRAME)
    }

    /// Re-execute every journaled-but-unstarted job from the previous
    /// incarnation into the cache, before the listener opens.
    fn recover(&self) -> Result<(), WcmsError> {
        let recovery = self.journal.recover()?;
        self.cfg.obs.metrics.counter("serve_jobs_tombstoned").add(recovery.tombstoned);
        self.cfg.obs.metrics.counter("serve_journal_quarantined").add(recovery.quarantined);
        for job in recovery.recovered {
            // Claim the record *before* re-executing it: if this job is
            // the thing that killed the previous incarnation, a still-
            // `queued` record would be re-run on every restart — a
            // permanent crash loop. Marked `running`, a crash during
            // recovery tombstones it on the next start instead. If even
            // the claim fails, skip execution: an unclaimable record
            // must not run without that protection.
            if self.journal.mark_running(job.id, &job.request).is_err() {
                self.cfg.obs.warn(
                    "journal-claim-failed",
                    &format!(
                        "could not claim recovered job {:016x}; left for next restart",
                        job.id
                    ),
                    Vec::new,
                );
                continue;
            }
            let Ok(req) = Request::decode(&job.request) else {
                // Journaled before the admission-time decode succeeded:
                // impossible unless the record was tampered with inside
                // a valid checksum; drop it.
                let _ = self.journal.complete(job.id);
                continue;
            };
            if let Some(key) = req.canonical_key() {
                if matches!(self.cache.lookup(&key), CacheOutcome::Miss) {
                    let budget = self.cfg.max_budget;
                    // Recovered jobs replay under the same job-id root a
                    // fresh admission would have derived; the client's
                    // original context died with the old incarnation.
                    let ctx = req.trace().unwrap_or_else(|| {
                        TraceContext::root(TRACE_SEED, &format!("serve/job-{:016x}", job.id))
                    });
                    let response = self.execute(&req, budget, &CancelToken::never(), ctx);
                    if cacheable(&response) {
                        let _ = self.cache.store(&key, &response.encode());
                    }
                }
                self.cfg.obs.metrics.counter("serve_jobs_recovered").inc();
            }
            let _ = self.journal.complete(job.id);
        }
        // Both quarantine dirs are bounded; count what recovery evicted.
        let evicted = recovery.evicted + self.cache.take_quarantine_evictions();
        self.cfg.obs.metrics.counter("serve_quarantine_evicted_total").add(evicted);
        Ok(())
    }
}

/// Make a shed connection's response actually arrive. Dropping a
/// `TcpStream` while the client's request bytes sit unread in the
/// receive buffer makes Linux close with RST, which can discard the
/// buffered `Overloaded` frame — the client would see a bare connection
/// reset instead of the typed reply. So: stop sending (FIN), then read
/// the pending request until the client finishes, a byte ceiling is
/// hit, or the read deadline fires, and only then drop.
fn drain_then_drop(stream: &TcpStream) {
    use std::io::Read;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut reader = stream;
    let mut buf = [0u8; 4096];
    // A hostile client streaming bytes forever must not pin the accept
    // loop; one request frame's worth is all a well-behaved client has.
    let mut remaining = MAX_REQUEST_FRAME + 4;
    while remaining > 0 {
        match reader.read(&mut buf) {
            Ok(0) => break, // client closed its half: buffer is drained
            Ok(k) => remaining = remaining.saturating_sub(k),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break, // read deadline fired or peer reset
        }
    }
}

/// A response worth replaying byte-for-byte later: complete results
/// only. Budget-starved grids (skipped cells) and typed errors are
/// answered but never cached — a generous retry must get to recompute
/// them.
fn cacheable(response: &Response) -> bool {
    use wcms_bench::checkpoint::CellResult;
    let complete = |cell: &CellResult| !matches!(cell, CellResult::Skipped { .. });
    match response {
        Response::Generate { .. } => true,
        Response::Measure { cell } => complete(cell),
        Response::Grid { cells } => !cells.is_empty() && cells.iter().all(|(_, c)| complete(c)),
        _ => false,
    }
}

/// Run the daemon on `listener` until `ctrl` fires.
///
/// Performs journal recovery *before* accepting the first connection,
/// then serves with `cfg.conn_workers` connection threads and
/// `cfg.workers` compute threads, all inside one `thread::scope`.
///
/// `ctrl` is checked between accepts; tests stop an embedded server by
/// cancelling it and poking one wake-up connection. The production
/// binary simply never cancels — SIGKILL is the supported stop.
///
/// # Errors
///
/// [`WcmsError::Io`] if the state directories cannot be opened or the
/// journal is unreadable as a directory (individual bad records are
/// quarantined, not fatal).
pub fn serve(
    listener: &TcpListener,
    cfg: ServerConfig,
    ctrl: &CancelToken,
) -> Result<(), WcmsError> {
    let cache = ResultCache::open(&cfg.cache_dir)?;
    let journal = JobJournal::open(&cfg.journal_dir)?;
    let start_us = cfg.obs.clock.now_us();
    let queue = AdmissionQueue::new(cfg.queue_cap);
    let server = Server { cfg, cache, journal, queue, inflight: AtomicU64::new(0), start_us };
    server.recover()?;

    let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(server.cfg.conn_backlog.max(1));
    let conn_rx = Mutex::new(conn_rx);
    std::thread::scope(|s| {
        for _ in 0..server.cfg.workers.max(1) {
            s.spawn(|| server.compute_worker());
        }
        for _ in 0..server.cfg.conn_workers.max(1) {
            s.spawn(|| loop {
                let received = {
                    let guard = conn_rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    guard.recv()
                };
                match received {
                    Ok(stream) => server.handle_conn(&stream),
                    Err(_) => break, // accept loop gone: drain and exit
                }
            });
        }
        for stream in listener.incoming() {
            if ctrl.is_cancelled() {
                break;
            }
            let Ok(stream) = stream else { continue };
            if let Err(mpsc::TrySendError::Full(stream)) = conn_tx.try_send(stream) {
                // Connection backlog full: shed at the door, honestly.
                server.count("serve_overloaded_total");
                let resp = Response::Overloaded {
                    retry_after_ms: crate::admission::retry_after_ms(
                        server.cfg.conn_backlog,
                        server.cfg.est_job_ms,
                    ),
                    queue_depth: server.queue.depth() as u64,
                };
                if apply_deadlines(&stream, server.cfg.read_deadline, server.cfg.write_deadline)
                    .is_ok()
                    && server.write_response(&stream, &resp.encode()).is_ok()
                {
                    drain_then_drop(&stream);
                }
            }
        }
        drop(conn_tx);
        server.queue.close();
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::Tuning;
    use std::io::Write;
    use std::net::SocketAddr;
    use wcms_workloads::WorkloadSpec;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wcms-serve-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quick_cfg(root: &std::path::Path) -> ServerConfig {
        let mut cfg = ServerConfig::new(root.join("cache"), root.join("journal"));
        cfg.read_deadline = Duration::from_secs(5);
        cfg.write_deadline = Duration::from_secs(5);
        cfg.max_budget = Duration::from_secs(10);
        cfg
    }

    fn roundtrip(addr: SocketAddr, req: &Request) -> Response {
        let stream = TcpStream::connect(addr).unwrap();
        apply_deadlines(&stream, Duration::from_secs(10), Duration::from_secs(10)).unwrap();
        let mut w = &stream;
        write_frame(&mut w, req.encode().as_bytes(), MAX_REQUEST_FRAME).unwrap();
        let mut r = &stream;
        let payload = read_frame(&mut r, MAX_RESPONSE_FRAME).unwrap().unwrap();
        Response::decode(std::str::from_utf8(&payload).unwrap()).unwrap()
    }

    fn with_server(cfg: ServerConfig, f: impl FnOnce(SocketAddr)) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let ctrl = CancelToken::new("test-server");
        std::thread::scope(|s| {
            let handle = {
                let ctrl = ctrl.clone();
                let listener = &listener;
                s.spawn(move || serve(listener, cfg, &ctrl))
            };
            // If `f` panics the scope still joins the server thread, so
            // the shutdown sequence must run unconditionally or the test
            // hangs in the accept loop instead of reporting the panic.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(addr)));
            ctrl.cancel();
            let _ = TcpStream::connect(addr); // wake the accept loop
            let served = handle.join().unwrap();
            if let Err(panic) = outcome {
                std::panic::resume_unwind(panic);
            }
            served.unwrap();
        });
    }

    fn generate_req() -> Request {
        Request::Generate {
            tuning: Tuning { w: 16, e: 3, b: 32 },
            n: 16 * 3 * 32 * 2,
            family: WorkloadSpec::WorstCase,
            include_data: false,
            trace: None,
        }
    }

    #[test]
    fn generate_measure_grid_round_trip() {
        let root = scratch("roundtrip");
        with_server(quick_cfg(&root), |addr| {
            match roundtrip(addr, &Request::Health) {
                Response::Health { version } => assert_eq!(version, PROTOCOL_VERSION),
                other => unreachable!("{other:?}"),
            }
            match roundtrip(addr, &generate_req()) {
                Response::Generate { n, fingerprint, keys } => {
                    assert_eq!(n, 16 * 3 * 32 * 2);
                    assert_ne!(fingerprint, 0);
                    assert!(keys.is_none());
                }
                other => unreachable!("{other:?}"),
            }
            let measure = Request::Measure {
                tuning: Tuning { w: 16, e: 3, b: 32 },
                n: 16 * 3 * 32 * 2,
                family: WorkloadSpec::WorstCase,
                runs: 1,
                backend: wcms_mergesort::BackendKind::Reference,
                algorithm: wcms_mergesort::AlgorithmKind::Pairwise,
                device: "test".into(),
                budget_ms: Some(5_000),
                trace: None,
            };
            match roundtrip(addr, &measure) {
                Response::Measure { cell } => {
                    assert!(
                        matches!(cell, wcms_bench::checkpoint::CellResult::Done(_)),
                        "{cell:?}"
                    );
                }
                other => unreachable!("{other:?}"),
            }
            let grid = Request::Grid {
                tuning: Tuning { w: 16, e: 3, b: 32 },
                family: WorkloadSpec::Sorted,
                min_doublings: 1,
                max_doublings: 2,
                runs: 1,
                backend: wcms_mergesort::BackendKind::Reference,
                algorithm: wcms_mergesort::AlgorithmKind::Multiway,
                device: "test".into(),
                budget_ms: Some(5_000),
                trace: None,
            };
            match roundtrip(addr, &grid) {
                Response::Grid { cells } => {
                    assert_eq!(cells.len(), 2);
                    // Sizes follow the sweep convention: bE * 2^m.
                    assert_eq!(cells[0].0, 32 * 3 * 2);
                    assert_eq!(cells[1].0, 32 * 3 * 4);
                }
                other => unreachable!("{other:?}"),
            }
            match roundtrip(addr, &Request::Status) {
                Response::Status(body) => {
                    assert_eq!(body.cache_misses, 3);
                    assert_eq!(body.jobs_tombstoned, 0);
                    // Every request lands in exactly one outcome bucket.
                    assert_eq!(body.ok_total + body.error_total, body.requests_total, "{body:?}");
                }
                other => unreachable!("{other:?}"),
            }
        });
    }

    #[test]
    fn grid_requests_resume_from_per_cell_checkpoints() {
        use wcms_bench::checkpoint::{sanitize, CellResult, CheckpointStore};
        let root = scratch("grid-resume");
        let grid = Request::Grid {
            tuning: Tuning { w: 16, e: 3, b: 32 },
            family: WorkloadSpec::Reverse,
            min_doublings: 1,
            max_doublings: 2,
            runs: 1,
            backend: wcms_mergesort::BackendKind::Reference,
            algorithm: wcms_mergesort::AlgorithmKind::Pairwise,
            device: "test".into(),
            budget_ms: Some(5_000),
            trace: None,
        };
        // Seed the per-key grid checkpoint dir exactly as a daemon
        // killed mid-grid would have left it: the first cell committed,
        // the second never started. The planted throughput is one no
        // real measurement produces, so seeing it in the response
        // proves the cell was *replayed*, not recomputed.
        let key = grid.canonical_key().unwrap();
        let ckpt_dir = root.join("journal").join("grid-ckpt").join(sanitize(&key));
        let store = CheckpointStore::open(&ckpt_dir).unwrap();
        let planted = wcms_bench::experiment::Measurement {
            n: 192,
            throughput: 42.0,
            ms: 1.0,
            throughput_spread: wcms_dmm::stats::Summary {
                n: 1,
                mean: 42.0,
                min: 42.0,
                max: 42.0,
                stddev: 0.0,
            },
            beta1: 1.0,
            beta2: 1.0,
            conflicts_per_element: 0.0,
            ms_per_element: 0.0,
        };
        store.store("serve/grid/192", &CellResult::Done(planted)).unwrap();
        with_server(quick_cfg(&root), |addr| match roundtrip(addr, &grid) {
            Response::Grid { cells } => {
                assert_eq!(cells.len(), 2);
                match &cells[0].1 {
                    CellResult::Done(m) => assert_eq!(m.throughput, 42.0),
                    other => unreachable!("{other:?}"),
                }
                match &cells[1].1 {
                    CellResult::Done(m) => assert_ne!(m.throughput, 42.0),
                    other => unreachable!("{other:?}"),
                }
            }
            other => unreachable!("{other:?}"),
        });
        // A completed grid removes its checkpoint dir — the result
        // cache is the durable layer from here on.
        assert!(!ckpt_dir.exists(), "completed grid should clean its checkpoint dir");
    }

    #[test]
    fn hostile_scale_requests_are_rejected_before_admission() {
        let root = scratch("ceiling");
        with_server(quick_cfg(&root), |addr| {
            // A generate just past the ceiling: would be a half-GiB-plus
            // allocation, and larger values are equally rejected.
            let huge = Request::Generate {
                tuning: Tuning { w: 16, e: 3, b: 32 },
                n: MAX_REQUEST_N + 1,
                family: WorkloadSpec::Sorted,
                include_data: false,
                trace: None,
            };
            match roundtrip(addr, &huge) {
                Response::Error { kind, message } => {
                    assert_eq!(kind, "bad-request");
                    assert!(message.contains("ceiling"), "{message}");
                }
                other => unreachable!("{other:?}"),
            }
            // A measure with an unbounded run count.
            let spun = Request::Measure {
                tuning: Tuning { w: 16, e: 3, b: 32 },
                n: 16 * 3 * 32,
                family: WorkloadSpec::Sorted,
                runs: MAX_RUNS + 1,
                backend: wcms_mergesort::BackendKind::Reference,
                algorithm: wcms_mergesort::AlgorithmKind::Pairwise,
                device: "test".into(),
                budget_ms: Some(1_000),
                trace: None,
            };
            match roundtrip(addr, &spun) {
                Response::Error { kind, .. } => assert_eq!(kind, "bad-request"),
                other => unreachable!("{other:?}"),
            }
            match roundtrip(addr, &Request::Status) {
                Response::Status(body) => {
                    // Both rejections happened before the cache/journal/
                    // queue path (no misses) and were counted exactly once.
                    assert_eq!(body.error_total, 2, "{body:?}");
                    assert_eq!(body.cache_misses, 0, "{body:?}");
                    assert_eq!(body.ok_total + body.error_total, body.requests_total, "{body:?}");
                }
                other => unreachable!("{other:?}"),
            }
        });
    }

    #[test]
    fn n_ceiling_tracks_tuning_and_clamps_absolutely() {
        let small = Tuning { w: 4, e: 1, b: 2 };
        assert_eq!(request_n_ceiling(&small), 2 << MAX_DOUBLINGS);
        // Large tiles clamp to the absolute cap…
        let big = Tuning { w: 16, e: 3, b: 32 };
        assert_eq!(request_n_ceiling(&big), MAX_REQUEST_N);
        // …and so do tunings whose tile arithmetic would overflow.
        let absurd = Tuning { w: 1, e: usize::MAX, b: usize::MAX };
        assert_eq!(request_n_ceiling(&absurd), MAX_REQUEST_N);
    }

    #[test]
    fn reply_wait_covers_the_admitted_queue_position() {
        let grace = Duration::from_secs(5);
        let max_budget = Duration::from_secs(60);
        let budget = Duration::from_secs(1);
        assert_eq!(reply_wait(budget, 0, 200, max_budget), budget + grace);
        // 64 jobs ahead at 200 ms each: the 12.8 s of expected queue
        // wait is part of the deadline, so a job deep in a full queue
        // is not declared dead before a worker ever dequeues it.
        assert_eq!(
            reply_wait(budget, 64, 200, max_budget),
            budget + Duration::from_millis(12_800) + grace
        );
        // A small server ceiling shrinks the fixed grace, never the
        // queue term.
        assert_eq!(
            reply_wait(budget, 2, 100, Duration::from_secs(2)),
            budget + Duration::from_millis(200) + Duration::from_secs(2)
        );
    }

    #[test]
    fn repeat_requests_hit_the_cache_with_identical_bytes() {
        let root = scratch("cachehit");
        with_server(quick_cfg(&root), |addr| {
            let first = roundtrip(addr, &generate_req());
            let second = roundtrip(addr, &generate_req());
            assert_eq!(first.encode(), second.encode());
            match roundtrip(addr, &Request::Status) {
                Response::Status(body) => {
                    assert_eq!(body.cache_misses, 1);
                    assert_eq!(body.cache_hits, 1);
                }
                other => unreachable!("{other:?}"),
            }
        });
        // Across a "crash" (scope exit is as abrupt as the daemon
        // gets): same bytes again, now from the persisted cache. A fresh
        // config gives the restarted daemon its own metrics registry.
        with_server(quick_cfg(&root), |addr| {
            let replay = roundtrip(addr, &generate_req());
            assert_eq!(replay.encode(), roundtrip(addr, &generate_req()).encode());
            match roundtrip(addr, &Request::Status) {
                Response::Status(body) => assert_eq!(body.cache_misses, 0, "{body:?}"),
                other => unreachable!("{other:?}"),
            }
        });
    }

    #[test]
    fn malformed_frames_get_a_typed_rejection_never_a_hang() {
        let root = scratch("malformed");
        with_server(quick_cfg(&root), |addr| {
            let stream = TcpStream::connect(addr).unwrap();
            apply_deadlines(&stream, Duration::from_secs(5), Duration::from_secs(5)).unwrap();
            // A frame whose declared length exceeds the request cap.
            (&stream)
                .write_all(&u32::try_from(MAX_REQUEST_FRAME + 1).unwrap().to_be_bytes())
                .unwrap();
            (&stream).flush().unwrap();
            let mut r = &stream;
            let payload = read_frame(&mut r, MAX_RESPONSE_FRAME).unwrap().unwrap();
            match Response::decode(std::str::from_utf8(&payload).unwrap()).unwrap() {
                Response::Error { kind, .. } => assert_eq!(kind, "bad-request"),
                other => unreachable!("{other:?}"),
            }
            // Well-formed frame, hostile payload.
            match roundtrip_raw(addr, b"{\"op\":\"nope\"}") {
                Response::Error { kind, .. } => assert_eq!(kind, "bad-request"),
                other => unreachable!("{other:?}"),
            }
        });
    }

    fn roundtrip_raw(addr: SocketAddr, payload: &[u8]) -> Response {
        let stream = TcpStream::connect(addr).unwrap();
        apply_deadlines(&stream, Duration::from_secs(5), Duration::from_secs(5)).unwrap();
        let mut w = &stream;
        write_frame(&mut w, payload, MAX_REQUEST_FRAME).unwrap();
        let mut r = &stream;
        let got = read_frame(&mut r, MAX_RESPONSE_FRAME).unwrap().unwrap();
        Response::decode(std::str::from_utf8(&got).unwrap()).unwrap()
    }

    #[test]
    fn saturation_shed_is_typed_and_prompt() {
        let root = scratch("shed");
        let mut cfg = quick_cfg(&root);
        cfg.workers = 1;
        cfg.queue_cap = 1;
        with_server(cfg, |addr| {
            // One slow-ish job occupies the worker; the queue holds one
            // more; the rest must shed with `overloaded`.
            let mut shed = 0;
            let mut streams = Vec::new();
            for i in 0..8 {
                let stream = TcpStream::connect(addr).unwrap();
                apply_deadlines(&stream, Duration::from_secs(10), Duration::from_secs(10)).unwrap();
                let req = Request::Measure {
                    tuning: Tuning { w: 16, e: 3, b: 32 },
                    n: 16 * 3 * 32 * 8,
                    family: WorkloadSpec::WorstCaseFamily { seed: i },
                    runs: 2,
                    backend: wcms_mergesort::BackendKind::Sim,
                    algorithm: wcms_mergesort::AlgorithmKind::Pairwise,
                    device: "test".into(),
                    budget_ms: Some(8_000),
                    trace: None,
                };
                let mut w = &stream;
                write_frame(&mut w, req.encode().as_bytes(), MAX_REQUEST_FRAME).unwrap();
                streams.push(stream);
            }
            for stream in &streams {
                let mut r = stream;
                let payload = read_frame(&mut r, MAX_RESPONSE_FRAME).unwrap().unwrap();
                match Response::decode(std::str::from_utf8(&payload).unwrap()).unwrap() {
                    Response::Overloaded { retry_after_ms, .. } => {
                        shed += 1;
                        assert!(retry_after_ms >= 50);
                    }
                    Response::Measure { .. } | Response::Error { .. } => {}
                    other => unreachable!("{other:?}"),
                }
            }
            assert!(shed >= 1, "saturated server never shed load");
        });
    }

    #[test]
    fn queued_jobs_survive_a_crash_and_recover_into_the_cache() {
        let root = scratch("recover");
        let cfg = quick_cfg(&root);
        // Simulate the previous incarnation dying with one queued and
        // one running job journaled.
        let journal = JobJournal::open(&cfg.journal_dir).unwrap();
        let queued = generate_req().encode();
        let qid = journal.record_queued(&queued).unwrap();
        let rid = journal.record_queued(&queued).unwrap();
        journal.mark_running(rid, &queued).unwrap();
        assert!(qid < rid);
        drop(journal);

        with_server(cfg, |addr| {
            match roundtrip(addr, &Request::Status) {
                Response::Status(body) => {
                    assert_eq!(body.jobs_recovered, 1, "{body:?}");
                    assert_eq!(body.jobs_tombstoned, 1, "{body:?}");
                }
                other => unreachable!("{other:?}"),
            }
            // The recovered job pre-warmed the cache: the same request
            // is a hit now.
            let _ = roundtrip(addr, &generate_req());
            match roundtrip(addr, &Request::Status) {
                Response::Status(body) => {
                    assert_eq!(body.cache_hits, 1, "{body:?}");
                    assert_eq!(body.cache_misses, 0, "{body:?}");
                }
                other => unreachable!("{other:?}"),
            }
        });
    }

    #[test]
    fn recovery_consumes_hostile_records_instead_of_relooping_them() {
        let root = scratch("recover-hostile");
        let cfg = quick_cfg(&root);
        let journal_dir = cfg.journal_dir.clone();
        // A queued record naming an over-ceiling n, as if tampered
        // with inside a valid checksum — the shape that would OOM the
        // previous incarnation. Recovery must screen it (no allocation)
        // and consume it, never leave it queued for the next restart.
        let hostile = Request::Generate {
            tuning: Tuning { w: 16, e: 3, b: 32 },
            n: MAX_REQUEST_N + 1,
            family: WorkloadSpec::Sorted,
            include_data: false,
            trace: None,
        };
        let journal = JobJournal::open(&journal_dir).unwrap();
        journal.record_queued(&hostile.encode()).unwrap();
        drop(journal);

        with_server(cfg, |addr| match roundtrip(addr, &Request::Status) {
            Response::Status(body) => {
                assert_eq!(body.jobs_recovered, 1, "{body:?}");
                assert_eq!(body.jobs_tombstoned, 0, "{body:?}");
            }
            other => unreachable!("{other:?}"),
        });
        // A second restart finds a clean journal: the record was
        // claimed and completed, not re-run forever.
        let journal = JobJournal::open(&journal_dir).unwrap();
        assert_eq!(journal.recover().unwrap(), crate::journal::Recovery::default());
    }

    #[test]
    fn metrics_frame_returns_consistent_prometheus_text() {
        let root = scratch("metrics-frame");
        with_server(quick_cfg(&root), |addr| {
            let _ = roundtrip(addr, &generate_req());
            let _ = roundtrip(addr, &Request::Health);
            match roundtrip(addr, &Request::Metrics) {
                Response::Metrics { text } => {
                    let registry = wcms_obs::parse_prometheus_text(&text).unwrap();
                    let ok = registry.counter("serve_ok_total").get();
                    let err = registry.counter("serve_error_total").get();
                    let total = registry.counter("serve_requests_total").get();
                    // The scrape itself is counted ok *before* the text
                    // renders, so the scraped numbers already balance.
                    assert_eq!(ok + err, total, "{text}");
                    assert_eq!(total, 3, "{text}");
                    assert!(text.contains("serve_request_latency_seconds"), "{text}");
                    assert!(text.contains("serve_queue_depth"), "{text}");
                    assert!(text.contains("serve_quarantine_evicted_total 0"), "{text}");
                }
                other => unreachable!("{other:?}"),
            }
        });
    }

    #[test]
    fn traced_requests_adopt_the_wire_context_as_the_request_span() {
        use std::sync::Arc;
        use wcms_obs::{Clock, FieldValue, Phase, RingCollector};
        let root = scratch("traced-request");
        let ring = Arc::new(RingCollector::new());
        let mut cfg = quick_cfg(&root);
        cfg.obs = Obs::with_recorder(ring.clone(), Clock::wall());
        let ctx = TraceContext::root(0xC0FFEE, "test-client");
        with_server(cfg, |addr| {
            let req = Request::Generate {
                tuning: Tuning { w: 16, e: 3, b: 32 },
                n: 16 * 3 * 32 * 2,
                family: WorkloadSpec::WorstCase,
                include_data: false,
                trace: Some(ctx),
            };
            match roundtrip(addr, &req) {
                Response::Generate { .. } => {}
                other => unreachable!("{other:?}"),
            }
        });
        let (records, _) = ring.drain();
        let request = records
            .iter()
            .find(|r| r.phase == Phase::Begin && r.name == "request")
            .expect("a traced daemon must emit the request span");
        let field = |key: &str| {
            request.fields.iter().find(|f| f.key == key).map(|f| match &f.value {
                FieldValue::Str(s) => s.clone(),
                other => unreachable!("{other:?}"),
            })
        };
        // The span *is* the identity the client named — adopted, not
        // derived — so the client's journal and this one join on it.
        assert_eq!(field("trace").as_deref(), Some(TraceContext::hex(ctx.trace.0).as_str()));
        assert_eq!(field("span").as_deref(), Some(TraceContext::hex(ctx.span.0).as_str()));
    }

    #[test]
    fn untraced_requests_get_a_deterministic_job_id_root() {
        // The fallback root is pure in the job id: two daemons that
        // admit the same id derive the same root, so replayed journals
        // agree without any wall-clock or entropy input.
        let a = TraceContext::root(TRACE_SEED, "serve/job-0000000000000001");
        let b = TraceContext::root(TRACE_SEED, "serve/job-0000000000000001");
        assert_eq!(a, b);
        assert_ne!(a.trace, TraceContext::root(TRACE_SEED, "serve/job-0000000000000002").trace);
    }
}
