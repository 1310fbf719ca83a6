//! A minimal HTTP/1.1 client and the closed-loop load generator. The client
//! is the benchmark's own, so a change to the program's HTTP code cannot
//! change how load is applied.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// Sends one request (`Connection: close`) and reads the whole response.
/// Returns the status and the body.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut message = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    message.extend_from_slice(body.as_bytes());
    stream.write_all(&message)?;
    let mut response = Vec::new();
    stream.read_to_end(&mut response)?;
    let text = String::from_utf8(response).map_err(|_| invalid("non-UTF-8 response"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| invalid("response has no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("response has no status code"))?;
    Ok((status, body.to_owned()))
}

fn invalid(message: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message.to_owned())
}

/// One request as the load generator saw it.
#[derive(Debug)]
pub struct Sample {
    /// Position in the request sequence.
    pub index: usize,
    /// Send to full response read.
    pub latency_ms: f64,
    /// HTTP status, or 0 for a transport failure.
    pub status: u16,
    pub body: String,
    pub done: Instant,
}

/// What a closed-loop run produced.
pub struct LoadRun {
    pub samples: Vec<Sample>,
    pub start: Instant,
    /// Whether the clients ran out of pre-built requests before the time was up.
    pub exhausted: bool,
}

/// The requests of one time window of a run.
pub struct Window {
    /// Completed 200s per second of the window: completions after the
    /// window's first, over the time from its first to its last, so the
    /// rate is not rounded to whole requests per window.
    pub qps: f64,
    /// Latency of every request completed in the window, ms; a failed
    /// request reads as the whole run, so it misses any latency limit.
    pub latencies_ms: Vec<f64>,
}

impl LoadRun {
    /// Splits `[start, start + run_for)` into `windows` equal windows and
    /// puts each request in the window it completed in. Requests completed
    /// after `run_for` fall in none.
    pub fn windows(&self, run_for: Duration, windows: usize) -> Vec<Window> {
        let windows = windows.max(1);
        let width = run_for.as_secs_f64() / windows as f64;
        let failed_ms = crate::stats::ms(run_for);
        let mut out: Vec<Window> = (0..windows)
            .map(|_| Window {
                qps: 0.0,
                latencies_ms: Vec::new(),
            })
            .collect();
        // First and last completion time and count of 200s, per window.
        let mut spans: Vec<Option<(f64, f64, usize)>> = vec![None; windows];
        for s in &self.samples {
            let at = s.done.duration_since(self.start).as_secs_f64();
            let i = (at / width) as usize;
            if i >= windows {
                continue;
            }
            if s.status == 200 {
                out[i].latencies_ms.push(s.latency_ms);
                spans[i] = Some(match spans[i] {
                    None => (at, at, 1),
                    Some((first, last, n)) => (first.min(at), last.max(at), n + 1),
                });
            } else {
                out[i].latencies_ms.push(failed_ms);
            }
        }
        for (w, span) in out.iter_mut().zip(spans) {
            if let Some((first, last, n)) = span {
                if last > first {
                    w.qps = (n - 1) as f64 / (last - first);
                }
            }
        }
        out
    }
}

/// Runs `clients` closed-loop clients over `sequence` (indices into
/// `bodies`): each sends its next request only after the previous response
/// is read, until `run_for` has elapsed or the sequence is used up.
pub fn closed_loop(
    addr: SocketAddr,
    bodies: &[String],
    sequence: &[usize],
    clients: usize,
    run_for: Duration,
) -> LoadRun {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + run_for;
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::SeqCst);
                        let Some(&body) = sequence.get(index) else {
                            break;
                        };
                        let sent = Instant::now();
                        let (status, body) = request(addr, "POST", "/v1/query", &bodies[body])
                            .unwrap_or_else(|e| (0, e.to_string()));
                        let done = Instant::now();
                        mine.push(Sample {
                            index,
                            latency_ms: crate::stats::ms(done - sent),
                            status,
                            body,
                            done,
                        });
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("load-generator client panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.index);
    let exhausted = next.load(Ordering::SeqCst) >= sequence.len();
    LoadRun {
        samples,
        start,
        exhausted,
    }
}
