//! The `serve-mix` workload: a `wcms-serve` daemon subprocess under
//! open-loop traffic of two request classes, one connection and one
//! generator thread each.
//!
//! * `warm` — `generate` requests over a small fixed set of worst-case
//!   family inputs, primed during set-up, so every one is a cache hit.
//! * `cold` — analytic `measure` requests at `n = 2·bE`, each with a
//!   fresh random seed: every one misses, computes, stores a cache
//!   entry and journals the job.
//!
//! Everything the traffic sends — the warm set, the cold seeds and both
//! arrival timetables — is generated from `--seed` before the clock
//! starts. The run holds a base rate (warm 2,000 rps, cold 20 rps), then
//! climbs a ladder of warm rates to find the capacity knee.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wcms_bench::experiment::measure_on;
use wcms_bench::CellResult;
use wcms_error::{CancelToken, WcmsError};
use wcms_gpu_sim::DeviceSpec;
use wcms_mergesort::{BackendKind, SortParams};
use wcms_serve::cache::ResultCache;
use wcms_serve::journal::JobJournal;
use wcms_serve::wire::{Request, Response, Tuning};
use wcms_workloads::WorkloadSpec;

use crate::loadgen::{drive, latencies, Arrival, Sample, Trace, Verdict};
use crate::stats::{median, percentile, Metric, RunResult};
use crate::timed::{fail, measure_timed, pipeline_metrics, LayerTotals};

/// Base offered rates.
const WARM_RPS: f64 = 2_000.0;
const COLD_RPS: f64 = 20.0;
/// Distinct inputs in the warm set.
const WARM_SET: usize = 8;
/// The capacity knee's latency limit, on the warm median. A p99 limit
/// cannot work on a small shared VM: generator wake-up lateness alone
/// reaches a p99 of 4-6 ms on 2 vCPUs with heavy steal, so a 1 ms p99
/// fails at any rate and a looser one trips at random. The median stays
/// near 0.1 ms until the connection saturates, then grows with the
/// backlog, so it marks the knee without tracking the host's jitter.
const WARM_P50_LIMIT_MS: f64 = 1.0;
/// Length of one ladder step.
const STEP: Duration = Duration::from_secs(1);
/// The cold class's tuning and device: Thrust on the Quadro M4000.
const COLD_TUNING: Tuning = Tuning { w: 32, e: 15, b: 512 };
const COLD_DEVICE: &str = "quadro_m4000";

/// SplitMix64: the benchmark's own seeded stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential gap with mean 1 (Poisson arrivals).
    fn exp(&mut self) -> f64 {
        -(1.0 - self.unit()).ln()
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A Poisson timetable at `rps` over `span`, payloads drawn by `pick`.
fn poisson(
    rng: &mut Rng,
    rps: f64,
    span: Duration,
    mut pick: impl FnMut(&mut Rng) -> usize,
) -> Vec<Arrival> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exp() / rps;
        if t >= span.as_secs_f64() {
            return out;
        }
        out.push(Arrival { due: Duration::from_secs_f64(t), payload: pick(rng) });
    }
}

/// Everything the traffic will send, fixed by the seed.
struct Fixture {
    warm: Vec<Request>,
    warm_text: Vec<String>,
    /// Cold cells' seeds, one per cold request ever sent.
    cold_seeds: Vec<u64>,
    cold_text: Vec<String>,
    base_warm: Vec<Arrival>,
    base_cold: Vec<Arrival>,
    /// Unit-rate warm arrivals, scaled per ladder step.
    ladder_warm: Vec<Arrival>,
    /// Cold arrivals of each ladder step (at the base cold rate).
    ladder_cold: Vec<Vec<Arrival>>,
}

fn cold_request(seed: u64) -> Request {
    Request::Measure {
        tuning: COLD_TUNING,
        n: 2 * COLD_TUNING.b * COLD_TUNING.e,
        family: WorkloadSpec::RandomPermutation { seed },
        runs: 1,
        backend: BackendKind::Analytic,
        algorithm: wcms_mergesort::AlgorithmKind::Pairwise,
        device: COLD_DEVICE.into(),
        budget_ms: None,
        trace: None,
    }
}

impl Fixture {
    fn new(seed: u64, base: Duration, ladder_steps: usize) -> Self {
        let mut rng = Rng(seed ^ 0x5EED_5E4F_0000_0000);
        // Seeded worst-case family members for the three Fig. 4/5
        // tunings in turn, at 128 tiles each (0.25-1M keys): priming is
        // then dominated by construction, not by the eight jobs' fsyncs,
        // whose latency drifts with the host's disk load. The replies
        // carry the fingerprint only, so warm hits stay small.
        let tunings = [(15, 512), (15, 128), (17, 256)];
        let warm: Vec<Request> = (0..WARM_SET)
            .map(|i| {
                let (e, b) = tunings[i % tunings.len()];
                Request::Generate {
                    tuning: Tuning { w: 32, e, b },
                    n: (b * e) << 7,
                    family: WorkloadSpec::WorstCaseFamily { seed: rng.next() },
                    include_data: false,
                    trace: None,
                }
            })
            .collect();
        let base_warm = poisson(&mut rng, WARM_RPS, base, |r| r.below(WARM_SET));
        let mut next_cold = 0;
        let mut cold = |_: &mut Rng| {
            next_cold += 1;
            next_cold - 1
        };
        let base_cold = poisson(&mut rng, COLD_RPS, base, &mut cold);
        let ladder_cold: Vec<Vec<Arrival>> =
            (0..ladder_steps).map(|_| poisson(&mut rng, COLD_RPS, STEP, &mut cold)).collect();
        // Enough unit-rate arrivals for a step at 200k rps.
        let ladder_warm = poisson(&mut rng, 1.0, STEP * 200_000, |r| r.below(WARM_SET));
        let cold_seeds: Vec<u64> = (0..next_cold).map(|_| rng.next()).collect();
        Fixture {
            warm_text: warm.iter().map(Request::encode).collect(),
            warm,
            cold_text: cold_seeds.iter().map(|s| cold_request(*s).encode()).collect(),
            cold_seeds,
            base_warm,
            base_cold,
            ladder_warm,
            ladder_cold,
        }
    }

    /// The warm timetable of one ladder step at `rps`.
    fn step_warm(&self, rps: f64) -> Vec<Arrival> {
        self.ladder_warm
            .iter()
            .map(|a| Arrival { due: a.due.div_f64(rps), payload: a.payload })
            .take_while(|a| a.due < STEP)
            .collect()
    }
}

/// A running daemon; killed (SIGKILL, its supported stop) and reaped on
/// drop.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn call_once(addr: SocketAddr, req: &str) -> Result<String, WcmsError> {
    let mut client = wcms_serve::load::Client::connect(addr, crate::loadgen::CALL_DEADLINE)?;
    client.call_text(req)
}

/// Launch a daemon on fresh state in `dir`, wait until it answers
/// `health`, and prime the warm set. Returns the daemon, the elapsed
/// set-up time and the priming replies.
fn launch(bin: &Path, dir: &Path, fx: &Fixture) -> Result<(Daemon, f64, Vec<String>), WcmsError> {
    let t0 = Instant::now();
    let mut child = Command::new(bin)
        .args(["--addr", "127.0.0.1:0", "--cache-dir"])
        .arg(dir.join("cache"))
        .arg("--journal-dir")
        .arg(dir.join("journal"))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()?;
    let stdout = child.stdout.take().ok_or_else(|| fail("daemon stdout not captured".into()))?;
    // Owned by the guard from here on, so every error path reaps it.
    let mut daemon = Daemon { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line)?;
    daemon.addr = line
        .trim()
        .strip_prefix("listening on ")
        .and_then(|a| a.parse().ok())
        .ok_or_else(|| fail(format!("daemon did not report its address: {line:?}")))?;
    let health = Request::Health.encode();
    loop {
        match call_once(daemon.addr, &health) {
            Ok(reply) if matches!(Response::decode(&reply), Ok(Response::Health { .. })) => break,
            _ if t0.elapsed() > Duration::from_secs(10) => {
                return Err(fail("daemon never became healthy".into()))
            }
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    let mut primed = Vec::with_capacity(fx.warm_text.len());
    let mut client = wcms_serve::load::Client::connect(daemon.addr, crate::loadgen::CALL_DEADLINE)?;
    for req in &fx.warm_text {
        let reply = client.call_text(req)?;
        if !matches!(Response::decode(&reply), Ok(Response::Generate { .. })) {
            return Err(fail(format!("priming {req} failed: {reply}")));
        }
        primed.push(reply);
    }
    Ok((daemon, t0.elapsed().as_secs_f64(), primed))
}

/// What one phase recorded for each request class.
struct Phase {
    warm: Trace,
    cold: Trace,
}

/// Run one phase: both classes, each on its own connection and thread,
/// against the same start instant. Warm replies are gated against their
/// priming replies here; cold replies are appended to `cold_replies`.
fn phase(
    addr: SocketAddr,
    fx: &Fixture,
    primed: &[String],
    warm: &[Arrival],
    cold: &[Arrival],
    cold_replies: &Mutex<Vec<(usize, String)>>,
) -> Result<Phase, WcmsError> {
    // Give both threads time to connect before the first arrival.
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let w = s.spawn(|| {
            drive(addr, start, warm, &fx.warm_text, |i, reply| {
                let expected = &primed[warm[i].payload];
                if reply == expected {
                    return Ok(Verdict::Ok);
                }
                match Response::decode(reply) {
                    Ok(Response::Error { .. } | Response::Overloaded { .. }) => Ok(Verdict::Failed),
                    _ => Err(fail(format!("warm reply differs from its priming reply: {reply}"))),
                }
            })
        });
        let c = s.spawn(|| {
            drive(addr, start, cold, &fx.cold_text, |i, reply| {
                Ok(match Response::decode(reply) {
                    Ok(Response::Measure { cell: CellResult::Done(_) }) => {
                        cold_replies
                            .lock()
                            .expect("cold reply list poisoned")
                            .push((cold[i].payload, reply.to_string()));
                        Verdict::Ok
                    }
                    Ok(
                        Response::Measure { .. }
                        | Response::Error { .. }
                        | Response::Overloaded { .. },
                    ) => Verdict::Failed,
                    _ => return Err(fail(format!("cold reply is not a measure reply: {reply}"))),
                })
            })
        });
        let warm = w.join().expect("warm generator thread panicked")?;
        let cold = c.join().expect("cold generator thread panicked")?;
        Ok(Phase { warm, cold })
    })
}

/// Does a ladder step meet the knee's conditions: warm median within
/// the limit, no failed request, and generator lateness not growing
/// (the last quarter's median no more than 0.25 ms above the first's)?
fn step_passes(p: &Phase) -> bool {
    let w = &p.warm.samples;
    if w.is_empty() || w.iter().chain(&p.cold.samples).any(|s| !s.ok) {
        return false;
    }
    let quarter = (w.len() / 4).max(1);
    let late = |xs: &[Sample]| median(&xs.iter().map(|s| s.lateness_ms).collect::<Vec<_>>());
    percentile(&latencies(w), 50.0) <= WARM_P50_LIMIT_MS
        && late(&w[w.len() - quarter..]) <= late(&w[..quarter]) + 0.25
}

/// The `p`th percentile of each of `windows` equal slices of a phase's
/// latencies (in arrival order); the median of these is reported, so
/// one burst of host jitter or one slow fsync moves one window, not the
/// metric.
fn windowed(lat: &[f64], windows: usize, p: f64) -> Vec<f64> {
    let per = lat.len().div_ceil(windows.max(1)).max(1);
    lat.chunks(per).map(|w| percentile(w, p)).collect()
}

/// The cell a cold request measures.
fn cold_cell(seed: u64) -> Result<(DeviceSpec, SortParams, WorkloadSpec, usize), WcmsError> {
    let device = wcms_serve::server::resolve_device(COLD_DEVICE)
        .ok_or_else(|| fail(format!("unknown device {COLD_DEVICE}")))?;
    let params = SortParams::new(COLD_TUNING.w, COLD_TUNING.e, COLD_TUNING.b)?;
    let n = 2 * params.block_elems();
    Ok((device, params, WorkloadSpec::RandomPermutation { seed }, n))
}

/// Prometheus sample value of `name` (first match) in a metrics text.
fn prom(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Upper bound of the lowest histogram bucket that holds every
/// observation of `name` (the largest value observed, to bucket
/// resolution).
fn prom_max(text: &str, name: &str) -> f64 {
    let count = prom(text, &format!("{name}_count"));
    let prefix = format!("{name}_bucket{{le=\"");
    text.lines()
        .filter_map(|l| l.strip_prefix(prefix.as_str()))
        .filter_map(|r| r.split_once("\"} "))
        .find(|(_, c)| c.trim().parse::<f64>().ok() == Some(count))
        .and_then(|(le, _)| le.parse().ok())
        .unwrap_or(f64::INFINITY)
}

/// Median wall time of `f` over `reps` calls, in nanoseconds.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut xs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        xs.push(t0.elapsed().as_nanos() as f64);
    }
    median(&xs)
}

pub fn run(seed: u64, seconds: f64, trace: bool, scratch: &Path) -> Result<RunResult, WcmsError> {
    let bin: PathBuf = std::env::current_exe()?.with_file_name("wcms-serve");
    let base = Duration::from_secs_f64(seconds * 0.5);
    let ladder_budget = Duration::from_secs_f64(seconds * 0.25);
    // At least this long is spent re-measuring the cold cells in-process
    // (`keys_per_s`): one pass over them takes a few seconds, within
    // which the host's speed drifts by up to ±15%.
    let compute_budget = Duration::from_secs_f64(seconds * 0.2);
    let max_steps = (ladder_budget.as_secs_f64() / STEP.as_secs_f64()).floor() as usize;
    let fx = Fixture::new(seed, base, max_steps.max(1));

    // Set up five times on fresh state: twice before the traffic, keeping
    // the second daemon, and three times after it, so the reported median
    // spans the run rather than one moment of the host's load.
    let mut setup_s = Vec::new();
    let (_, s, _) = launch(&bin, &scratch.join("serve-0"), &fx)?;
    setup_s.push(s);
    let (daemon, s, primed) = launch(&bin, &scratch.join("serve-1"), &fx)?;
    setup_s.push(s);

    let cold_replies = Mutex::new(Vec::new());
    let base_phase = phase(daemon.addr, &fx, &primed, &fx.base_warm, &fx.base_cold, &cold_replies)?;
    let mut attempted = (base_phase.warm.samples.len() + base_phase.cold.samples.len()) as u64;
    let mut failed =
        base_phase.warm.samples.iter().chain(&base_phase.cold.samples).filter(|s| !s.ok).count()
            as u64;

    // Ladder: ×2 per step from twice the base rate until a step fails,
    // then bisect (in log space) between the last pass and the first
    // fail until they are within 5%.
    let mut pass_rps = 0.0_f64;
    let mut fail_rps = f64::INFINITY;
    let mut steps = 0;
    let mut rate = 2.0 * WARM_RPS;
    while steps < max_steps {
        let p = phase(
            daemon.addr,
            &fx,
            &primed,
            &fx.step_warm(rate),
            &fx.ladder_cold[steps],
            &cold_replies,
        )?;
        steps += 1;
        attempted += (p.warm.samples.len() + p.cold.samples.len()) as u64;
        failed += p.warm.samples.iter().chain(&p.cold.samples).filter(|s| !s.ok).count() as u64;
        if step_passes(&p) {
            pass_rps = pass_rps.max(rate);
        } else {
            fail_rps = fail_rps.min(rate);
        }
        if fail_rps / pass_rps.max(1.0) < 1.05 {
            break;
        }
        rate = if fail_rps.is_infinite() {
            rate * 2.0
        } else if pass_rps == 0.0 {
            rate / 2.0
        } else {
            (pass_rps * fail_rps).sqrt()
        };
    }

    let metrics_text = match Response::decode(&call_once(daemon.addr, &Request::Metrics.encode())?)?
    {
        Response::Metrics { text } => text,
        other => return Err(fail(format!("metrics frame expected, got {other:?}"))),
    };
    let daemon_rss = crate::peak_rss_mib(&daemon.child.id().to_string())?;
    drop(daemon);
    for i in 2..5 {
        let (_, s, _) = launch(&bin, &scratch.join(format!("serve-{i}")), &fx)?;
        setup_s.push(s);
    }

    // Gate: every cold reply equals an in-process measure of its cell.
    // Timed: the daemon's miss path run in-process, one call per cold
    // request, is the workload's `keys_per_s`; the passes over the cold
    // cells repeat until `compute_budget` has passed.
    let cold_replies = cold_replies.into_inner().expect("cold reply list poisoned");
    let mut measure_ms = Vec::new();
    let mut keys_per_s = Vec::new();
    let gate_start = Instant::now();
    loop {
        for (idx, reply) in &cold_replies {
            let (device, params, spec, n) = cold_cell(fx.cold_seeds[*idx])?;
            let t0 = Instant::now();
            let m = measure_on(&device, &params, spec, n, 1, BackendKind::Analytic)?;
            let elapsed_s = t0.elapsed().as_secs_f64();
            measure_ms.push(elapsed_s * 1e3);
            keys_per_s.push(n as f64 / elapsed_s);
            if (Response::Measure { cell: CellResult::Done(m) }).encode() != *reply {
                return Err(fail(format!(
                    "cold reply for seed {} differs from measure_on",
                    fx.cold_seeds[*idx]
                )));
            }
        }
        if cold_replies.is_empty() || gate_start.elapsed() >= compute_budget {
            break;
        }
    }

    let mut result = RunResult { attempted, failed, ..RunResult::default() };
    let warm_lat = latencies(&base_phase.warm.samples);
    let cold_lat = latencies(&base_phase.cold.samples);
    // The result line takes the manifest's metrics from these; the rest,
    // the latency percentiles and the capacity knee among them, go to the
    // detail line (their spread on a small shared VM is in the README).
    result.metrics = vec![
        Metric::median_of("keys_per_s", "1/s", keys_per_s),
        Metric {
            samples: warm_lat.clone(),
            ..Metric::single("warm_p50_ms", "ms", percentile(&warm_lat, 50.0))
        },
        Metric::median_of(
            "warm_p99_ms",
            "ms",
            windowed(&warm_lat, base.as_secs_f64().round() as usize, 99.0),
        ),
        Metric {
            samples: cold_lat.clone(),
            ..Metric::single("cold_p50_ms", "ms", percentile(&cold_lat, 50.0))
        },
        Metric::median_of("cold_p90_ms", "ms", windowed(&cold_lat, 4, 90.0)),
        Metric::single("capacity_rps", "1/s", pass_rps),
        Metric::median_of("setup_s", "s", setup_s),
        Metric::single("peak_rss_mib", "MiB", daemon_rss),
    ];
    if trace {
        result.metrics.extend(layer_metrics(
            &fx,
            &primed,
            &base_phase,
            &cold_replies,
            measure_ms,
            &metrics_text,
            scratch,
        )?);
    }
    let lateness: Vec<f64> = base_phase.warm.samples.iter().map(|s| s.lateness_ms).collect();
    result.context.push(("warm_lateness_p99_ms", format!("{}", percentile(&lateness, 99.0))));
    result.context.push(("ladder_steps", steps.to_string()));
    result.context.push((
        "first_failing_rps",
        if fail_rps.is_finite() { format!("{fail_rps}") } else { "null".into() },
    ));
    result.context.push(("error_rate", format!("{}", failed as f64 / attempted.max(1) as f64)));
    Ok(result)
}

/// The traced run's per-layer numbers: the daemon's own metrics frame,
/// the generator's lateness, and in-process timings of the `wire`,
/// `cache`, `journal` and compute layers on this run's requests. The
/// tracing overhead compares the timed `measure` of each cold cell with
/// the untimed one of the reply gate (`measure_ms`).
fn layer_metrics(
    fx: &Fixture,
    primed: &[String],
    base: &Phase,
    cold_replies: &[(usize, String)],
    measure_ms: Vec<f64>,
    metrics_text: &str,
    scratch: &Path,
) -> Result<Vec<Metric>, WcmsError> {
    // The sort pipeline: this run's cold cells through the timing
    // wrapper, plus the construction of the warm set's worst-case inputs.
    let sink = Mutex::new(LayerTotals::default());
    let mut traced_ms = Vec::new();
    for (idx, _) in cold_replies {
        let (device, params, spec, n) = cold_cell(fx.cold_seeds[*idx])?;
        let t0 = Instant::now();
        measure_timed(
            &device,
            &params,
            spec,
            n,
            1,
            BackendKind::Analytic,
            &CancelToken::never(),
            &sink,
        )?;
        traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let mut l = sink.into_inner().expect("layer totals poisoned");
    for req in &fx.warm {
        if let Request::Generate { tuning, n, family, .. } = req {
            let t0 = Instant::now();
            std::hint::black_box(family.generate(*n, tuning.w, tuning.e, tuning.b)?);
            l.worst_case_ns += t0.elapsed().as_nanos() as u64;
            l.worst_case_keys += *n as u64;
        }
    }
    // Thrust tuning: no separate partition kernel runs.
    let mut m: Vec<Metric> = pipeline_metrics(&l)
        .into_iter()
        .filter(|x| !x.name.starts_with("mergesort.partition_unit"))
        .collect();
    m.push(Metric::single(
        "trace_overhead_pct",
        "%",
        (median(&traced_ms) / median(&measure_ms) - 1.0) * 100.0,
    ));

    // Wire codec on the captured frames.
    let texts: Vec<&String> =
        fx.warm_text.iter().chain(cold_replies.iter().map(|(i, _)| &fx.cold_text[*i])).collect();
    let decode: Vec<f64> = texts
        .iter()
        .map(|t| {
            time_ns(50, || {
                std::hint::black_box(Request::decode(t).expect("captured request decodes"));
            })
        })
        .collect();
    let replies: Vec<Response> = primed
        .iter()
        .chain(cold_replies.iter().map(|(_, r)| r))
        .map(|r| Response::decode(r))
        .collect::<Result<_, _>>()?;
    let encode: Vec<f64> = replies
        .iter()
        .map(|r| {
            time_ns(50, || {
                std::hint::black_box(r.encode());
            })
        })
        .collect();
    let requests = (base.warm.samples.len() + base.cold.samples.len()).max(1);
    m.push(Metric::median_of("serve.wire.request_decode_ns", "ns", decode));
    m.push(Metric::median_of("serve.wire.response_encode_ns", "ns", encode));
    m.push(Metric::single(
        "serve.wire.frame_bytes",
        "bytes",
        (base.warm.frame_bytes + base.cold.frame_bytes) as f64 / requests as f64,
    ));

    // Cache: store the cold replies, look the warm set up.
    let cache = ResultCache::open(scratch.join("cache-probe"))?;
    let mut store_ms = Vec::new();
    for (idx, reply) in cold_replies {
        let key = Request::decode(&fx.cold_text[*idx])?.canonical_key().expect("measure has a key");
        let t0 = Instant::now();
        cache.store(&key, reply)?;
        store_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let mut lookup_us = Vec::new();
    for (req, reply) in fx.warm.iter().zip(primed) {
        let key = req.canonical_key().expect("generate has a key");
        cache.store(&key, reply)?;
        lookup_us.push(
            time_ns(50, || {
                std::hint::black_box(cache.lookup(&key));
            }) / 1e3,
        );
    }
    m.push(Metric::median_of("serve.cache.lookup_hit_us", "us", lookup_us));
    m.push(Metric::median_of("serve.cache.store_ms", "ms", store_ms));
    let hits = prom(metrics_text, "serve_cache_hits");
    let misses = prom(metrics_text, "serve_cache_misses");
    m.push(Metric::single("serve.cache.hit_ratio", "ratio", hits / (hits + misses).max(1.0)));

    // Journal: one job's full record cycle per cold request.
    let journal = JobJournal::open(scratch.join("journal-probe"))?;
    let mut job_ms = Vec::new();
    for (idx, _) in cold_replies {
        let text = &fx.cold_text[*idx];
        let t0 = Instant::now();
        let id = journal.record_queued(text)?;
        journal.mark_running(id, text)?;
        journal.complete(id)?;
        job_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    m.push(Metric::median_of("serve.journal.job_ms", "ms", job_ms));
    m.push(Metric::median_of("serve.compute.measure_ms", "ms", measure_ms));
    m.push(Metric::single(
        "serve.admission.queue_depth_max",
        "count",
        prom_max(metrics_text, "serve_queue_depth"),
    ));
    m.push(Metric::single(
        "serve.shed_total",
        "count",
        prom(metrics_text, "serve_overloaded_total"),
    ));

    let lateness: Vec<f64> =
        base.warm.samples.iter().chain(&base.cold.samples).map(|s| s.lateness_ms).collect();
    m.push(Metric::single("loadgen.lateness_p99_ms", "ms", percentile(&lateness, 99.0)));
    m.push(Metric::single(
        "loadgen.lateness_max_ms",
        "ms",
        lateness.iter().copied().fold(0.0, f64::max),
    ));
    Ok(m)
}
