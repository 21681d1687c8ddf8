//! `wcms-load` — open-loop load generator and protocol probe for
//! `wcms-serve`.
//!
//! Load mode (default): offer a fixed arrival rate for a fixed
//! duration, then print the `BENCH_serve.json` document (and write it
//! with `--out`). The run fails if the daemon is unreachable; shed and
//! errored calls are counted in the report, not fatal.
//!
//! Probe mode: `--probe '<request json>'` sends exactly one request and
//! prints the raw response payload to stdout — the chaos harness uses
//! this for byte-identity comparisons across daemon restarts.
//!
//! Scrape mode: `--scrape` asks the daemon for its metrics frame and
//! prints the Prometheus text rendering to stdout.
//!
//! Run with `--help` for the flags.

use std::net::ToSocketAddrs;
use std::process::ExitCode;
use std::time::Duration;

use wcms_error::cli::{self, invalid, Args, Flag};
use wcms_error::WcmsError;
use wcms_obs::MetricsRegistry;
use wcms_serve::load::{run_load, scrape_metrics, Client, LoadOptions};
use wcms_serve::wire::Tuning;

const LOAD_FLAGS: &[Flag] = &[
    Flag::value("--addr", "host:port", "the daemon to drive (required)"),
    Flag::value("--rps", "r", "offered arrival rate, jobs/s"),
    Flag::value("--duration-s", "s", "how long to offer load (default 5)"),
    Flag::value("--connections", "n", "concurrent connections"),
    Flag::value("--distinct", "k", "distinct request keys cycled through"),
    Flag::value("--w", "w", "warp width of every request"),
    Flag::value("--e", "e", "elements per thread of every request"),
    Flag::value("--b", "b", "threads per block of every request"),
    Flag::value("--n", "len", "input length (default 2bE)"),
    Flag::value("--deadline-ms", "ms", "per-call socket deadline (default 10000)"),
    Flag::value("--seed", "s", "seed domain of this run's cold keys"),
    Flag::value("--out", "path", "also write the report there"),
    Flag::value("--probe", "json", "send this one request, print the raw reply"),
    Flag::switch("--scrape", "print the daemon's Prometheus metrics"),
];

fn main() -> ExitCode {
    cli::main("wcms-load", &[LOAD_FLAGS], run)
}

fn run(args: &Args) -> Result<(), WcmsError> {
    let spelled = args.required("--addr")?;
    let addr = spelled.to_socket_addrs()?.next();
    let addr = addr.ok_or_else(|| invalid(format!("--addr {spelled} resolves to nothing")))?;
    let deadline = Duration::from_millis(args.get_or("--deadline-ms", 10_000)?);

    if let Some(request) = args.value("--probe") {
        let mut client = Client::connect(addr, deadline)?;
        println!("{}", client.call_text(request)?);
        return Ok(());
    }

    if args.flag("--scrape") {
        print!("{}", scrape_metrics(addr, deadline)?);
        return Ok(());
    }

    let defaults = LoadOptions::default();
    let secs = args.get_or("--duration-s", 5.0)?;
    let w = args.get_or("--w", defaults.tuning.w)?;
    let e = args.get_or("--e", defaults.tuning.e)?;
    let b = args.get_or("--b", defaults.tuning.b)?;
    let opts = LoadOptions {
        rate_rps: args.get_or("--rps", defaults.rate_rps)?,
        duration: Duration::try_from_secs_f64(secs)
            .map_err(|e| invalid(format!("--duration-s {secs}: {e}")))?,
        connections: args.get_or("--connections", defaults.connections)?,
        distinct: args.get_or("--distinct", defaults.distinct)?,
        tuning: Tuning { w, e, b },
        n: args.get_or("--n", b * e * 2)?,
        call_deadline: deadline,
        run_seed: args.get_or("--seed", defaults.run_seed)?,
    };

    let metrics = MetricsRegistry::new();
    let report = run_load(addr, &opts, &metrics)?;
    let json = report.to_json();
    println!("{json}");
    eprintln!(
        "# {} ok / {} sent at {:.1} jobs/s; p50 {:.2} ms, p99 {:.2} ms; \
         cache cold {:.2} ms vs warm {:.2} ms ({:.0}x)",
        report.ok,
        report.sent,
        report.achieved_rps,
        report.latency.p50_ms,
        report.latency.p99_ms,
        report.cold_ms,
        report.warm_ms,
        report.cache_speedup,
    );
    if let Some(path) = args.value("--out") {
        std::fs::write(path, format!("{json}\n"))?;
    }
    Ok(())
}
