//! The harness's own load generator: one connection. It deliberately
//! does not call `mpcp_service::loadgen`, so a later change to that file
//! cannot move a measurement.
//!
//! Closed loop, one thread: exactly `window` requests are in flight;
//! the next one goes out only once a reply has been read. Open loop, a
//! sender and a reader thread: request `j` of a rung is due at
//! `start + j / rate` whatever the server does, its latency runs from
//! that due instant, and how late the generator itself sent it is
//! recorded beside it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

pub const OK: u8 = 1;
pub const ADMIT: u8 = 2;
pub const REJECT: u8 = 4;
pub const HIT: u8 = 8;
pub const MISS: u8 = 16;
pub const DELTA: u8 = 32;

/// Reads the fixed fields the server renders first in every reply, by
/// substring: a full JSON parse here would charge the library's parser
/// to the load generator.
pub fn classify(reply: &str) -> u8 {
    let mut flags = 0;
    if reply.contains("\"ok\":true") {
        flags |= OK;
    }
    if reply.contains("\"verdict\":\"admit\"") {
        flags |= ADMIT;
    } else if reply.contains("\"verdict\":\"reject\"") {
        flags |= REJECT;
    }
    if reply.contains("\"cache\":\"hit\"") {
        flags |= HIT;
    } else if reply.contains("\"cache\":\"miss\"") {
        flags |= MISS;
    } else if reply.contains("\"cache\":\"delta\"") {
        flags |= DELTA;
    }
    flags
}

/// One NDJSON connection to the server under test.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::with_capacity(256 * 1024, writer.try_clone()?),
            writer,
        })
    }

    /// One request, one reply, in lockstep (priming and probes).
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.writer.write_all(&out)?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(reply)
    }
}

/// A point in a burst at which the caller's probe was read: after
/// `replies` replies, `at_ns` after the burst started. `probe` is
/// `None` when the reading failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    pub replies: usize,
    pub at_ns: u64,
    pub probe: Option<u64>,
}

/// What one timed stretch of traffic produced. `latency_ns` and `flags`
/// are per reply, in request order; replies that never came are simply
/// absent and the caller counts them as failed.
#[derive(Debug, Default)]
pub struct Burst {
    pub wall_s: f64,
    pub latency_ns: Vec<u64>,
    pub flags: Vec<u8>,
    pub bytes_out: u64,
    /// One mark before the first request and one after every
    /// `segment` replies (and after the last), so consecutive marks
    /// delimit the burst's segments.
    pub marks: Vec<Mark>,
}

/// Sends `lines[order[j]]` for every `j` with exactly `window` requests
/// in flight and reads every reply. `probe` (the child's CPU clock) is
/// read at every segment boundary.
pub fn closed_loop(
    conn: &mut Conn,
    lines: &[String],
    order: &[u32],
    window: usize,
    segment: usize,
    probe: &dyn Fn() -> Option<u64>,
) -> io::Result<Burst> {
    let total = order.len();
    let (window, segment) = (window.max(1), segment.max(1));
    let mut burst = Burst {
        latency_ns: Vec::with_capacity(total),
        flags: Vec::with_capacity(total),
        ..Burst::default()
    };
    // Send instants of the requests in flight, oldest first; replies
    // come back in request order, so they pair up exactly.
    let mut sent_at = std::collections::VecDeque::with_capacity(window);
    let mut batch: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut reply = String::new();
    let mut next = 0;
    let started = Instant::now();
    burst.marks.push(Mark {
        replies: 0,
        at_ns: 0,
        probe: probe(),
    });
    loop {
        batch.clear();
        while sent_at.len() < window && next < total {
            sent_at.push_back(Instant::now());
            batch.extend_from_slice(lines[order[next] as usize].as_bytes());
            batch.push(b'\n');
            next += 1;
        }
        conn.writer.write_all(&batch)?;
        let Some(sent) = sent_at.pop_front() else {
            break; // everything sent, everything answered
        };
        reply.clear();
        let n = conn.reader.read_line(&mut reply)?;
        if n == 0 {
            break; // the server closed: the missing replies are failures
        }
        burst.latency_ns.push(sent.elapsed().as_nanos() as u64);
        burst.flags.push(classify(&reply));
        burst.bytes_out += n as u64;
        let replies = burst.flags.len();
        if replies.is_multiple_of(segment) || replies == total {
            burst.marks.push(Mark {
                replies,
                at_ns: started.elapsed().as_nanos() as u64,
                probe: probe(),
            });
        }
    }
    burst.wall_s = started.elapsed().as_secs_f64();
    Ok(burst)
}

/// Nanoseconds after a rung's start at which its request `j` is due.
pub fn due_ns(j: usize, rate: u64) -> u64 {
    (j as u128 * 1_000_000_000 / u128::from(rate.max(1))) as u64
}

/// One rung of the open-loop ladder.
#[derive(Debug, Default)]
pub struct Rung {
    pub rate: u64,
    pub requests: usize,
    pub burst: Burst,
    /// How long after its due instant each request was written.
    pub lateness_ns: Vec<u64>,
    /// Requests sent but unanswered when half of the rung had been
    /// sent, and when the last one had.
    pub backlog_mid: usize,
    pub backlog_end: usize,
}

/// Sends `order` at `rate` requests/s on schedule and reads every
/// reply; the rung ends when the last reply is in, so a backlog drains
/// before the next rung starts and is charged to this one's latencies.
///
/// A sender thread sleeps until each due instant (with the timer slack
/// turned down, see [`crate::host`]) and writes everything that has
/// come due in one call; the calling thread blocks on the socket and
/// stamps each reply as it arrives.
pub fn open_rung(
    conn: &mut Conn,
    lines: &[String],
    order: &[u32],
    rate: u64,
    probe: &dyn Fn() -> Option<u64>,
) -> io::Result<Rung> {
    let total = order.len();
    let mut rung = Rung {
        rate,
        requests: total,
        ..Rung::default()
    };
    rung.burst.latency_ns.reserve(total);
    rung.burst.flags.reserve(total);
    let received = AtomicUsize::new(0);
    let Conn { reader, writer } = conn;
    let start = Instant::now() + Duration::from_millis(2);
    let due = |j: usize| start + Duration::from_nanos(due_ns(j, rate));
    rung.burst.marks.push(Mark {
        replies: 0,
        at_ns: 0,
        probe: probe(),
    });
    let sent: io::Result<(Vec<u64>, usize, usize)> = std::thread::scope(|scope| {
        let received = &received;
        let sender = scope.spawn(move || -> io::Result<(Vec<u64>, usize, usize)> {
            crate::host::precise_sleeps();
            let mut lateness = Vec::with_capacity(total);
            let (mut mid, mut end) = (0, 0);
            let mut batch: Vec<u8> = Vec::with_capacity(16 * 1024);
            let mut next = 0;
            while next < total {
                let now = Instant::now();
                if due(next) > now {
                    std::thread::sleep(due(next) - now);
                    continue;
                }
                batch.clear();
                while next < total && due(next) <= now {
                    lateness.push((now - due(next)).as_nanos() as u64);
                    batch.extend_from_slice(lines[order[next] as usize].as_bytes());
                    batch.push(b'\n');
                    next += 1;
                    let backlog = next - received.load(Ordering::Relaxed).min(next);
                    if next == total / 2 {
                        mid = backlog;
                    }
                    if next == total {
                        end = backlog;
                    }
                }
                writer.write_all(&batch)?;
            }
            Ok((lateness, mid, end))
        });
        let mut reply = String::new();
        let mut result = Ok(());
        for j in 0..total {
            reply.clear();
            match reader.read_line(&mut reply) {
                Ok(0) => break, // closed: missing replies are failures
                Ok(n) => {
                    let latency = Instant::now().saturating_duration_since(due(j));
                    rung.burst.latency_ns.push(latency.as_nanos() as u64);
                    rung.burst.flags.push(classify(&reply));
                    rung.burst.bytes_out += n as u64;
                    received.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        let sent = sender.join().expect("sender thread panicked")?;
        result.map(|()| sent)
    });
    let (lateness, mid, end) = sent?;
    rung.burst.wall_s = start.elapsed().as_secs_f64();
    rung.burst.marks.push(Mark {
        replies: rung.burst.flags.len(),
        at_ns: start.elapsed().as_nanos() as u64,
        probe: probe(),
    });
    rung.lateness_ns = lateness;
    rung.backlog_mid = mid;
    rung.backlog_end = end;
    Ok(rung)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A line server that answers each request after `think`, with an
    /// optional one-off stall before request `stall_at`.
    fn line_server(think: Duration, stall_at: Option<(usize, Duration)>) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            for (n, line) in BufReader::new(stream).lines().enumerate() {
                let Ok(_) = line else { return };
                if let Some((at, stall)) = stall_at {
                    if n == at {
                        std::thread::sleep(stall);
                    }
                }
                std::thread::sleep(think);
                let verdict = if n.is_multiple_of(2) {
                    "admit"
                } else {
                    "reject"
                };
                let reply = format!(
                    "{{\"ok\":true,\"op\":\"submit\",\"cache\":\"miss\",\"verdict\":\"{verdict}\"}}\n"
                );
                if writer.write_all(reply.as_bytes()).is_err() {
                    return;
                }
            }
        });
        addr
    }

    #[test]
    fn classify_reads_the_fixed_fields() {
        assert_eq!(
            classify(r#"{"ok":true,"op":"submit","session":"s","cache":"hit","verdict":"admit"}"#),
            OK | ADMIT | HIT
        );
        assert_eq!(
            classify(r#"{"ok":true,"op":"add-task","cache":"delta","verdict":"reject"}"#),
            OK | REJECT | DELTA
        );
        assert_eq!(classify(r#"{"ok":false,"code":"overloaded"}"#), 0);
    }

    #[test]
    fn closed_loop_keeps_order_and_answers_everything() {
        let addr = line_server(Duration::ZERO, None);
        let mut conn = Conn::connect(addr).unwrap();
        let lines = vec!["a".to_owned(), "b".to_owned()];
        let order: Vec<u32> = (0..101).map(|j| j % 2).collect();
        let burst = closed_loop(&mut conn, &lines, &order, 4, 25, &|| Some(7)).unwrap();
        assert_eq!(burst.flags.len(), 101);
        assert_eq!(burst.flags[0], OK | ADMIT | MISS);
        assert_eq!(burst.flags[1], OK | REJECT | MISS);
        assert!(burst.bytes_out > 101 * 40);
        assert!(burst.wall_s > 0.0);
        let at: Vec<usize> = burst.marks.iter().map(|m| m.replies).collect();
        assert_eq!(at, [0, 25, 50, 75, 100, 101]);
        assert!(burst.marks.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(burst.marks.iter().all(|m| m.probe == Some(7)));
    }

    #[test]
    fn closed_loop_latency_grows_with_the_window() {
        // With a 1 ms server, a request behind 7 others waits ~8 ms:
        // the window really is the number in flight.
        let think = Duration::from_millis(1);
        let lines = vec!["x".to_owned()];
        let order = vec![0u32; 40];
        let mut one = Conn::connect(line_server(think, None)).unwrap();
        let mut eight = Conn::connect(line_server(think, None)).unwrap();
        let mut w1 = closed_loop(&mut one, &lines, &order, 1, 40, &|| None)
            .unwrap()
            .latency_ns;
        let mut w8 = closed_loop(&mut eight, &lines, &order, 8, 40, &|| None)
            .unwrap()
            .latency_ns;
        let p50_1 = crate::stats::percentile_u64(&mut w1, 0.5);
        let p50_8 = crate::stats::percentile_u64(&mut w8, 0.5);
        assert!((1e6..4e6).contains(&p50_1), "window 1: {p50_1} ns");
        assert!(p50_8 >= 6e6, "window 8: {p50_8} ns");
    }

    #[test]
    fn due_instants_are_evenly_spaced() {
        assert_eq!(due_ns(0, 4000), 0);
        assert_eq!(due_ns(1, 4000), 250_000);
        assert_eq!(due_ns(4000, 4000), 1_000_000_000);
        assert_eq!(due_ns(3, 3000), 1_000_000);
    }

    #[test]
    fn open_rung_charges_a_server_stall_to_latency_not_to_lateness() {
        // 1000 requests/s for 0.2 s; the server stalls 60 ms before
        // request 50. The generator must keep its schedule (small
        // lateness) while the requests queued behind the stall read a
        // latency near the stall, measured from their due instants.
        let addr = line_server(Duration::ZERO, Some((50, Duration::from_millis(60))));
        let mut conn = Conn::connect(addr).unwrap();
        let lines = vec!["x".to_owned()];
        let order = vec![0u32; 200];
        let mut rung = open_rung(&mut conn, &lines, &order, 1000, &|| None).unwrap();
        assert_eq!(rung.burst.flags.len(), 200);
        assert_eq!(rung.lateness_ns.len(), 200);
        assert!(rung.burst.latency_ns[50] >= 55_000_000);
        assert!(rung.burst.latency_ns[60] >= 40_000_000, "queued behind it");
        assert!(rung.burst.latency_ns[10] < 20_000_000);
        let late_p50 = crate::stats::percentile_u64(&mut rung.lateness_ns, 0.5);
        assert!(late_p50 < 5e6, "generator ran {late_p50} ns late");
        assert!(rung.backlog_end <= rung.backlog_mid + 5);
        assert!(rung.burst.wall_s >= 0.19);
    }
}
