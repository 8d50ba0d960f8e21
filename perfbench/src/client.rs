//! The benchmark's load generator: keep-alive connections, an open-loop
//! phase on a fixed schedule and a closed-loop phase on the same
//! connections. Requests are timed from their due time.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Per-request socket timeout; a request that takes longer has failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);

/// One HTTP request, fully encoded, with what its oracle needs.
#[derive(Debug, Clone)]
pub struct Req {
    pub kind: Kind,
    pub bytes: Vec<u8>,
    /// Feature rows (`/embed`), or the two sides `a`, `b` (`/score`).
    pub rows: Vec<Vec<f64>>,
    pub vote: Option<rll_label::Vote>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `/embed` with one row.
    Embed1,
    /// `/score` with two rows.
    Score,
    /// `/embed` with several rows.
    EmbedMulti,
    /// `POST /label`.
    Vote,
}

impl Kind {
    /// Reads are the main operation; multi-row embeds and votes the side one.
    pub fn is_side(self) -> bool {
        matches!(self, Kind::EmbedMulti | Kind::Vote)
    }
}

/// Encodes a request with `Content-Length` framing on a keep-alive
/// connection.
pub fn encode(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One request as the generator saw it. Times are seconds from the phase
/// start; `status` 0 means no response (refused, reset or timed out).
#[derive(Debug, Clone)]
pub struct Rec {
    pub kind: Kind,
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub status: u16,
    pub body: Vec<u8>,
    pub trace_id: Option<String>,
}

impl Rec {
    pub fn latency(&self) -> f64 {
        self.done - self.due
    }

    pub fn is_2xx(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// A keep-alive client connection; reconnects after a failure.
pub struct Conn {
    addr: SocketAddr,
    io: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, io: None }
    }

    fn connect(&mut self) -> std::io::Result<&mut (TcpStream, BufReader<TcpStream>)> {
        if self.io.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, REQUEST_TIMEOUT)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
            stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
            let reader = BufReader::new(stream.try_clone()?);
            self.io = Some((stream, reader));
        }
        Ok(self.io.as_mut().expect("connection was just opened"))
    }

    /// Sends one request and reads its response. Any transport error drops
    /// the connection (the next request reconnects).
    pub fn send(&mut self, bytes: &[u8]) -> Result<rll_serve::http::Response, String> {
        let result = self
            .connect()
            .map_err(|e| e.to_string())
            .and_then(|(stream, reader)| {
                stream.write_all(bytes).map_err(|e| e.to_string())?;
                rll_serve::http::read_response(reader).map_err(|e| e.to_string())
            });
        if result.is_err() {
            self.io = None;
        }
        result
    }
}

fn record(conn: &mut Conn, req: &Req, origin: Instant, due: f64, sent: f64) -> Rec {
    let response = conn.send(&req.bytes);
    let done = origin.elapsed().as_secs_f64();
    let (status, body, trace_id) = match response {
        Ok(r) => {
            let trace = r.header("x-rll-trace").map(str::to_string);
            (r.status, r.body, trace)
        }
        Err(_) => (0, Vec::new(), None),
    };
    Rec {
        kind: req.kind,
        due,
        sent,
        done,
        status,
        body,
        trace_id,
    }
}

/// Open loop: request `i` of `plan` is due `i / rate` seconds after the
/// start and goes out on connection `i mod conns` as soon as it is due and
/// that connection is free. Latency counts from the due time, so a stall
/// also delays (and is charged to) the requests queued behind it. Returns
/// one record per request, in plan order.
pub fn open_loop(conns: &mut [Conn], plan: &[Req], rate: f64) -> Vec<Rec> {
    let lanes = conns.len();
    let origin = Instant::now() + Duration::from_millis(5);
    let mut recs: Vec<(usize, Rec)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(lane, conn)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for (i, req) in plan.iter().enumerate().skip(lane).step_by(lanes) {
                        let due = i as f64 / rate;
                        let due_at = origin + Duration::from_secs_f64(due);
                        let now = Instant::now();
                        if due_at > now {
                            std::thread::sleep(due_at - now);
                        }
                        let sent = origin.elapsed().as_secs_f64();
                        out.push((i, record(conn, req, origin, due, sent)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    recs.sort_by_key(|(i, _)| *i);
    recs.into_iter().map(|(_, rec)| rec).collect()
}

/// Closed loop: each connection sends its next request (`next(lane)`) as
/// soon as the previous answer arrives, until `seconds` have passed or it
/// has sent `cap` requests. Returns each lane's records, in order, and the
/// phase's elapsed seconds.
pub fn closed_loop<F>(conns: &mut [Conn], seconds: f64, cap: usize, next: F) -> (Vec<Vec<Rec>>, f64)
where
    F: Fn(usize) -> Req + Sync,
{
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let next = &next;
    let recs = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(lane, conn)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    while out.len() < cap && Instant::now() < deadline {
                        let req = next(lane);
                        let sent = origin.elapsed().as_secs_f64();
                        let mut rec = record(conn, &req, origin, sent, sent);
                        // Only the open loop joins on trace ids.
                        rec.trace_id = None;
                        out.push(rec);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    (recs, origin.elapsed().as_secs_f64())
}

/// One-shot request on a fresh connection (health checks, metrics).
pub fn one_shot(
    addr: SocketAddr,
    method: &str,
    path: &str,
) -> Result<rll_serve::http::Response, String> {
    let mut conn = Conn::new(addr);
    conn.send(&encode(method, path, ""))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Read};
    use std::net::TcpListener;

    /// A keep-alive server that answers every request with `200 {}`, except
    /// that it stalls `stall` before answering request number `stall_at`.
    fn stub_server(stall_at: usize, stall: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            let mut served = 0;
            loop {
                let mut len = 0usize;
                loop {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        return;
                    }
                    if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                        len = v.trim().parse().expect("length");
                    }
                    if line == "\r\n" {
                        break;
                    }
                }
                let mut body = vec![0; len];
                reader.read_exact(&mut body).expect("body");
                if served == stall_at {
                    std::thread::sleep(stall);
                }
                served += 1;
                let _ = writer.write_all(
                    b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}",
                );
            }
        });
        addr
    }

    fn plan(n: usize) -> Vec<Req> {
        (0..n)
            .map(|_| Req {
                kind: Kind::Embed1,
                bytes: encode("POST", "/embed", "{}"),
                rows: Vec::new(),
                vote: None,
            })
            .collect()
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        // 100 rps on one connection: a due slot every 10 ms. Request 5
        // stalls 200 ms, so requests 6.. were due before it returned.
        let addr = stub_server(5, Duration::from_millis(200));
        let mut conns = vec![Conn::new(addr)];
        let recs = open_loop(&mut conns, &plan(40), 100.0);
        assert_eq!(recs.len(), 40);
        assert!(recs.iter().all(Rec::is_2xx));
        assert!(recs[5].latency() >= 0.2);
        // Request 6 was due 10 ms after request 5 but could only leave when
        // the stall ended: its due-time latency includes ~190 ms of waiting.
        assert!(recs[6].latency() >= 0.18, "{}", recs[6].latency());
        assert!(recs[6].sent - recs[6].due >= 0.18);
        // Time from send alone would have hidden it.
        assert!(recs[6].done - recs[6].sent < 0.1);
        // The backlog drains by ~0.27 s; by request 39 (due at 0.39 s) the
        // schedule is met again.
        assert!(recs[39].latency() < 0.05, "{}", recs[39].latency());
    }

    #[test]
    fn closed_loop_stops_at_the_deadline() {
        let addr = stub_server(usize::MAX, Duration::ZERO);
        let mut conns = vec![Conn::new(addr)];
        let reqs = plan(1);
        let (recs, phase) = closed_loop(&mut conns, 0.2, usize::MAX, |_| reqs[0].clone());
        assert!(!recs[0].is_empty());
        assert!(phase >= 0.2);
        assert!(recs[0].iter().all(|r| r.done <= phase + 1e-9));
        // A capped lane stops early.
        let (recs, phase) = closed_loop(&mut conns, 5.0, 3, |_| reqs[0].clone());
        assert_eq!(recs[0].len(), 3);
        assert!(phase < 5.0);
    }
}
