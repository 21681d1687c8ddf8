//! The `wcms-serve` daemon: a crash-only adversarial-input service.
//!
//! Binds a TCP listener, recovers the job journal left by the previous
//! incarnation, then serves `generate`/`measure`/`grid`/`status`/
//! `health` until killed. There is deliberately no shutdown handling:
//! SIGKILL is the supported stop, and the journal + result cache are
//! the only state the next start trusts. Metrics surface through the
//! `status` request (a crash-only process has no exit hook to flush a
//! file from).
//!
//! Run with `--help` for the flags. `--addr 127.0.0.1:0` binds an
//! ephemeral port; the daemon prints `listening on <resolved addr>` on
//! stdout so scripts can scrape it.
//!
//! `--trace` appends span records to a JSONL journal *incrementally*
//! (a flusher thread drains the ring every 200 ms) — a crash-only
//! process has no exit hook, so whatever was flushed before SIGKILL is
//! the journal, and `wcms-trace join` reads it as-is.

use std::io::Write as _;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use wcms_error::cli::{self, Args, Flag};
use wcms_error::{CancelToken, WcmsError};
use wcms_obs::{journal_jsonl, Clock, Obs, RingCollector};
use wcms_serve::server::{serve, ServerConfig};

const SERVE_FLAGS: &[Flag] = &[
    Flag::value("--addr", "host:port", "listen address (default 127.0.0.1:7433)"),
    Flag::value("--workers", "n", "compute worker threads"),
    Flag::value("--conn-workers", "n", "connection worker threads"),
    Flag::value("--queue-cap", "n", "admission queue capacity (jobs)"),
    Flag::value("--conn-backlog", "n", "accepted connections awaiting a worker"),
    Flag::value("--cache-dir", "dir", "result cache (default state/serve/cache)"),
    Flag::value("--journal-dir", "dir", "job journal (default state/serve/journal)"),
    Flag::value("--max-budget-ms", "ms", "ceiling (and default) of a request's compute budget"),
    Flag::value("--read-deadline-ms", "ms", "per-connection socket read deadline"),
    Flag::value("--write-deadline-ms", "ms", "per-connection socket write deadline"),
    Flag::value("--est-job-ms", "ms", "per-job cost behind the overloaded retry-after hint"),
    Flag::value("--trace", "journal.jsonl", "append span records to a JSONL journal"),
];

fn main() -> ExitCode {
    cli::main("wcms-serve", &[SERVE_FLAGS], run)
}

fn run(args: &Args) -> Result<(), WcmsError> {
    let addr = args.value("--addr").unwrap_or("127.0.0.1:7433");
    let cache_dir = args.value("--cache-dir").unwrap_or("state/serve/cache");
    let journal_dir = args.value("--journal-dir").unwrap_or("state/serve/journal");

    let mut cfg = ServerConfig::new(cache_dir, journal_dir);
    cfg.workers = args.get_or("--workers", cfg.workers)?;
    cfg.conn_workers = args.get_or("--conn-workers", cfg.conn_workers)?;
    cfg.queue_cap = args.get_or("--queue-cap", cfg.queue_cap)?;
    cfg.conn_backlog = args.get_or("--conn-backlog", cfg.conn_backlog)?;
    cfg.est_job_ms = args.get_or("--est-job-ms", cfg.est_job_ms)?;
    let ms = |flag: &str, default: Duration| -> Result<Duration, WcmsError> {
        Ok(Duration::from_millis(args.get_or(flag, default.as_millis() as u64)?))
    };
    cfg.max_budget = ms("--max-budget-ms", cfg.max_budget)?;
    cfg.read_deadline = ms("--read-deadline-ms", cfg.read_deadline)?;
    cfg.write_deadline = ms("--write-deadline-ms", cfg.write_deadline)?;

    if let Some(path) = args.value("--trace") {
        let ring = Arc::new(RingCollector::new());
        cfg.obs = Obs::with_recorder(ring.clone(), Clock::wall());
        // The epoch record is what lets `wcms-trace join` put this
        // journal on the same timeline as the workers'.
        cfg.obs.emit_epoch("serve");
        let mut file = std::fs::File::create(path)?;
        let obs = cfg.obs.clone();
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(200));
            let (records, dropped) = ring.drain();
            if dropped > 0 {
                obs.metrics.counter("obs_dropped_spans_total").add(dropped);
            }
            if !records.is_empty() || dropped > 0 {
                // Each batch is self-describing JSONL; a dropped-records
                // meta line per lossy batch sums on parse.
                if file.write_all(journal_jsonl(&records, dropped).as_bytes()).is_err() {
                    break; // disk gone: stop flushing, keep serving
                }
            }
        });
    }

    let listener = TcpListener::bind(addr)?;
    println!("listening on {}", listener.local_addr()?);
    // A daemon has no clean stop: the token below never fires, and the
    // journal + cache carry everything a SIGKILL interrupts.
    serve(&listener, cfg, &CancelToken::never())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_flags_are_typed_errors() {
        for (argv, needle) in [(["--workrs", "2"], "'--workrs'"), (["--workers", "two"], "two")] {
            let parsed = Args::parse("wcms-serve", &[SERVE_FLAGS], &argv.map(String::from));
            let err = parsed.and_then(|a| a.get::<usize>("--workers")).unwrap_err();
            assert!(err.to_string().contains(needle), "{argv:?}: {err}");
        }
    }
}
