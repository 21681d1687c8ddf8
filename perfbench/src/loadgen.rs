//! The open-loop client: one connection, one thread, a precomputed
//! timetable.
//!
//! Each request is timed from the instant it was *due*, not from when
//! it was sent: if the server stalls, every request queued behind the
//! stall carries the wait it imposed (no coordinated omission). How late
//! the generator sent each request is reported separately, so a run
//! whose generator fell behind can be recognised.

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use wcms_error::WcmsError;
use wcms_serve::deadline::apply_deadlines;
use wcms_serve::wire::{read_frame, write_frame, MAX_REQUEST_FRAME, MAX_RESPONSE_FRAME};

/// Per-call socket deadline; a call that exceeds it fails.
pub const CALL_DEADLINE: Duration = Duration::from_secs(10);

/// One request of a timetable: when it is due (offset from the start)
/// and which payload it sends.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    pub due: Duration,
    pub payload: usize,
}

/// One completed (or failed) request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Due → reply received, milliseconds; infinite for a failure.
    pub latency_ms: f64,
    /// Due → sent, milliseconds.
    pub lateness_ms: f64,
    pub ok: bool,
}

/// What a timetable run produced.
#[derive(Debug, Default)]
pub struct Trace {
    pub samples: Vec<Sample>,
    /// Request plus response payload bytes over the run.
    pub frame_bytes: u64,
}

/// How the caller judged one reply.
pub enum Verdict {
    Ok,
    /// A typed failure (error, shed, deadline): counted, not fatal.
    Failed,
}

fn connect(addr: SocketAddr) -> Result<TcpStream, WcmsError> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    apply_deadlines(&stream, CALL_DEADLINE, CALL_DEADLINE)?;
    Ok(stream)
}

fn call(stream: &mut TcpStream, payload: &str) -> Result<String, WcmsError> {
    write_frame(stream, payload.as_bytes(), MAX_REQUEST_FRAME)?;
    let reply = read_frame(stream, MAX_RESPONSE_FRAME)?.ok_or_else(|| {
        WcmsError::WireMalformed { reason: "server closed the stream before replying".into() }
    })?;
    String::from_utf8(reply)
        .map_err(|_| WcmsError::WireMalformed { reason: "response is not UTF-8".into() })
}

/// Send `timetable` (sorted by `due`) over one connection, starting at
/// `start`. `judge(index, reply)` classifies each reply; an `Err` from
/// it (a correctness-gate failure) aborts the run. A transport failure
/// counts the request as failed and reconnects for the next one.
///
/// # Errors
///
/// The first error `judge` returns, or a failure to connect at all.
pub fn drive(
    addr: SocketAddr,
    start: Instant,
    timetable: &[Arrival],
    payloads: &[String],
    mut judge: impl FnMut(usize, &str) -> Result<Verdict, WcmsError>,
) -> Result<Trace, WcmsError> {
    let mut trace = Trace { samples: Vec::with_capacity(timetable.len()), frame_bytes: 0 };
    let mut stream = Some(connect(addr)?);
    for (i, arrival) in timetable.iter().enumerate() {
        let due = start + arrival.due;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        let payload = &payloads[arrival.payload];
        let reply = match stream.as_mut() {
            Some(s) => call(s, payload),
            None => connect(addr).and_then(|mut s| {
                let r = call(&mut s, payload);
                stream = Some(s);
                r
            }),
        };
        let done = Instant::now();
        let ok = match reply {
            Ok(text) => {
                trace.frame_bytes += (payload.len() + text.len()) as u64;
                matches!(judge(i, &text)?, Verdict::Ok)
            }
            Err(_) => {
                stream = None; // reconnect for the next request
                false
            }
        };
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        trace.samples.push(Sample {
            latency_ms: if ok { ms(done - due) } else { f64::INFINITY },
            lateness_ms: ms(sent.saturating_duration_since(due)),
            ok,
        });
    }
    Ok(trace)
}

/// Latencies of `samples` (failures as infinite).
pub fn latencies(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.latency_ms).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;
    use std::net::TcpListener;

    /// A fake server speaking the frame protocol: echoes every request,
    /// but sleeps `stall` before answering request number `stall_at`.
    fn fake_server(stall_at: usize, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            apply_deadlines(&conn, CALL_DEADLINE, CALL_DEADLINE).unwrap();
            let mut k = 0;
            while let Ok(Some(req)) = read_frame(&mut conn, MAX_REQUEST_FRAME) {
                if k == stall_at {
                    std::thread::sleep(stall);
                }
                write_frame(&mut conn, &req, MAX_RESPONSE_FRAME).unwrap();
                k += 1;
            }
        });
        (addr, handle)
    }

    /// A server that stalls once must show up in the tail: the stall
    /// delays every request due during it, and timing from the due
    /// instant charges each of them the wait. Timing from the send
    /// instant (what a closed-loop client measures) would hide it.
    #[test]
    fn a_stalled_server_shows_up_in_warm_p99() {
        let (addr, server) = fake_server(100, Duration::from_millis(150));
        // 600 requests at 2,000 rps: the 150 ms stall covers ~300 of them.
        let timetable: Vec<Arrival> =
            (0..600).map(|i| Arrival { due: Duration::from_micros(500 * i), payload: 0 }).collect();
        let payloads = vec!["{\"op\":\"health\"}".to_string()];
        let trace = drive(addr, Instant::now(), &timetable, &payloads, |_, reply| {
            assert_eq!(reply, payloads[0]);
            Ok(Verdict::Ok)
        })
        .unwrap();
        server.join().unwrap();

        let warm_p99_ms = percentile(&latencies(&trace.samples), 99.0);
        assert!(warm_p99_ms >= 100.0, "stall hidden: p99 {warm_p99_ms} ms");
        // Only the stalled request itself waited on the wire; the rest
        // were sent late, which the lateness figures expose.
        let max_lateness = trace.samples.iter().map(|s| s.lateness_ms).fold(0.0, f64::max);
        assert!(max_lateness >= 100.0, "lateness not reported: {max_lateness} ms");
        let wire_p99: Vec<f64> =
            trace.samples.iter().map(|s| s.latency_ms - s.lateness_ms).collect();
        assert!(percentile(&wire_p99, 99.0) < 50.0, "send-time latency should hide the stall");
        assert!(trace.samples.iter().all(|s| s.ok));
    }

    #[test]
    fn a_dead_server_counts_as_failures_not_latency() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Accept and drop every connection without answering.
            for _ in 0..3 {
                let _ = listener.accept().unwrap();
            }
        });
        let timetable: Vec<Arrival> =
            (0..3).map(|i| Arrival { due: Duration::from_millis(i), payload: 0 }).collect();
        let trace =
            drive(addr, Instant::now(), &timetable, &["x".to_string()], |_, _| Ok(Verdict::Ok))
                .unwrap();
        server.join().unwrap();
        assert!(trace.samples.iter().all(|s| !s.ok && s.latency_ms.is_infinite()));
    }
}
