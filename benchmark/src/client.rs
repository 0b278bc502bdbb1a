//! The benchmark's side of the wire: a minimal HTTP/1.1 client whose
//! behaviour cannot be mistaken for the server's (one `write` per request,
//! `TCP_NODELAY`, bodies read by `Content-Length`), and the handle on the
//! `ganswer --serve` subprocess under test.

use ganswer::server::json::{self, Json};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longer than any healthy response (the server's own deadline is 2 s, a
/// compaction-stalled upsert a few seconds); a request that exceeds it is
/// counted as failed instead of hanging the run.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// One complete HTTP request, ready to be sent with a single `write`.
pub fn request_bytes(method: &str, path: &str, body: &str, keep_alive: bool) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: {}\r\nContent-Type: \
         application/json\r\nContent-Length: {}\r\n\r\n{body}",
        if keep_alive { "keep-alive" } else { "close" },
        body.len(),
    )
    .into_bytes()
}

pub fn answer_request(question: &str, keep_alive: bool) -> Vec<u8> {
    let body = json::obj(vec![("question", Json::Str(question.to_owned()))]).to_string();
    request_bytes("POST", "/answer", &body, keep_alive)
}

/// A response and when its bytes arrived.
pub struct Response {
    pub status: u16,
    /// The server announced `Connection: close`.
    pub close: bool,
    /// `X-Cache: hit`.
    pub cache_hit: bool,
    pub body: Vec<u8>,
    /// When the first byte of the status line was read.
    pub first_byte: Instant,
    /// When the last byte of the body was read.
    pub done: Instant,
}

impl Response {
    pub fn json(&self) -> Result<Json, String> {
        json::parse(std::str::from_utf8(&self.body).map_err(|e| e.to_string())?)
    }
}

pub struct Conn {
    stream: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn { stream })
    }

    /// Send one request and read its whole response.
    pub fn round_trip(&mut self, request: &[u8]) -> std::io::Result<Response> {
        self.stream.write_all(request)?;
        let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what);
        let mut buf = Vec::with_capacity(2048);
        let mut chunk = [0u8; 16 * 1024];
        let mut first_byte = None;
        let head_end = loop {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            first_byte.get_or_insert_with(Instant::now);
            buf.extend_from_slice(&chunk[..n]);
            if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
        };
        let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("no status line"))?;
        let (mut length, mut close, mut cache_hit) = (None, false, false);
        for line in lines {
            let Some((name, value)) = line.split_once(':') else { continue };
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => length = value.parse::<usize>().ok(),
                "connection" => close = value.eq_ignore_ascii_case("close"),
                "x-cache" => cache_hit = value == "hit",
                _ => {}
            }
        }
        let length = length.ok_or_else(|| bad("no Content-Length"))?;
        let mut body = buf.split_off(head_end);
        while body.len() < length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            body.extend_from_slice(&chunk[..n]);
        }
        let done = Instant::now();
        Ok(Response {
            status,
            close,
            cache_hit,
            body,
            first_byte: first_byte.expect("set with the first read"),
            done,
        })
    }
}

/// A client that keeps its connection for as long as the server lets it:
/// a new one is opened when there is none, and the current one is dropped
/// after an I/O error or a response that announced `Connection: close`
/// (the server ends a connection after 100 requests; reconnecting then is
/// the protocol working, not an error).
pub struct Session {
    addr: SocketAddr,
    conn: Option<Conn>,
}

impl Session {
    pub fn new(addr: SocketAddr) -> Session {
        Session { addr, conn: None }
    }

    pub fn round_trip(&mut self, request: &[u8]) -> std::io::Result<Response> {
        let mut conn = match self.conn.take() {
            Some(conn) => conn,
            None => Conn::open(self.addr)?,
        };
        let response = conn.round_trip(request)?;
        if !response.close {
            self.conn = Some(conn);
        }
        Ok(response)
    }
}

/// A one-off request on a fresh connection (scrapes, health checks).
pub fn one_shot(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<Response, String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("{method} {path}: connect: {e}"))?;
    conn.round_trip(&request_bytes(method, path, body, false))
        .map_err(|e| format!("{method} {path}: {e}"))
}

pub fn get_ok(addr: SocketAddr, path: &str) -> Result<String, String> {
    let r = one_shot(addr, "GET", path, "")?;
    if r.status != 200 {
        return Err(format!("GET {path}: status {}", r.status));
    }
    String::from_utf8(r.body).map_err(|e| format!("GET {path}: {e}"))
}

/// The `ganswer --serve` process under test. Dropping it kills and reaps
/// the child, so a panicking workload cannot leave a server behind.
pub struct ServerProc {
    child: Child,
    drain: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawn `bin --serve 127.0.0.1:0 <args>` and wait for the first 200
    /// from `/healthz`. Returns the server and the spawn-to-healthy time.
    pub fn boot(bin: &Path, args: &[String], log: &Path) -> Result<(ServerProc, Duration), String> {
        let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["--serve", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // From here on the child is owned by a ServerProc, so every early
        // return below reaps it.
        let mut server = ServerProc { child, drain: None, addr: ([127, 0, 0, 1], 0).into() };
        let mut line = String::new();
        server.addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) => return Err("server exited before printing its address".into()),
                Ok(_) => {}
                Err(e) => return Err(format!("read server banner: {e}")),
            }
            let addr = line.split("http://").nth(1).and_then(|rest| {
                rest.split_whitespace().next().and_then(|a| a.parse::<SocketAddr>().ok())
            });
            if let Some(addr) = addr {
                break addr;
            }
        };
        // Keep draining stdout so the child never blocks on a full pipe;
        // the thread ends at the child's EOF and is joined on reap.
        server.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut stdout, &mut std::io::sink());
        }));
        while t0.elapsed() < Duration::from_secs(60) {
            if get_ok(server.addr, "/healthz").is_ok() {
                return Ok((server, t0.elapsed()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("server never became healthy".into())
    }

    /// Peak resident set size of the server so far, in MiB.
    pub fn vm_hwm_mb(&self) -> Result<f64, String> {
        vm_hwm_mb(&self.child.id().to_string())
    }

    /// SIGKILL: no drain, no flush.
    pub fn kill9(mut self) {
        self.reap(false);
    }

    /// SIGTERM and wait for the drain; SIGKILL if it does not exit.
    pub fn stop(mut self) {
        self.reap(true);
    }

    fn reap(&mut self, graceful: bool) {
        if graceful && matches!(self.child.try_wait(), Ok(None)) {
            let _ = Command::new("kill").args(["-TERM", &self.child.id().to_string()]).status();
            let deadline = Instant::now() + Duration::from_secs(5);
            while Instant::now() < deadline && matches!(self.child.try_wait(), Ok(None)) {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.reap(false);
    }
}

/// `VmHWM` of a process (`"self"` or a pid) in MiB.
pub fn vm_hwm_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// The value of one series in a Prometheus exposition (`0` if absent:
/// counters that never fired are not always pre-registered).
pub fn metric(exposition: &str, series: &str) -> f64 {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(series).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Cumulative `(le, count)` buckets of a histogram without extra labels.
pub fn histogram(exposition: &str, name: &str) -> Vec<(f64, f64)> {
    let prefix = format!("{name}_bucket{{le=\"");
    exposition
        .lines()
        .filter_map(|l| {
            let (le, rest) = l.strip_prefix(&prefix)?.split_once("\"}")?;
            let le = if le == "+Inf" { f64::INFINITY } else { le.parse().ok()? };
            Some((le, rest.split_whitespace().next()?.parse().ok()?))
        })
        .collect()
}

/// The `q`-quantile of the observations added between two scrapes of a
/// histogram, linearly interpolated inside the bucket that holds it (what
/// `histogram_quantile` would report). `None` if nothing was observed.
pub fn histogram_quantile(before: &[(f64, f64)], after: &[(f64, f64)], q: f64) -> Option<f64> {
    let delta: Vec<(f64, f64)> = after
        .iter()
        .map(|&(le, c)| {
            let b = before.iter().find(|(l, _)| *l == le).map_or(0.0, |&(_, c)| c);
            (le, c - b)
        })
        .collect();
    let total = delta.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let rank = q * total;
    let (mut lo, mut below) = (0.0, 0.0);
    for &(le, c) in &delta {
        if c >= rank {
            if le.is_infinite() {
                return Some(lo);
            }
            let inside = c - below;
            return Some(if inside > 0.0 { lo + (le - lo) * (rank - below) / inside } else { le });
        }
        (lo, below) = (le, c);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_is_one_buffer_with_exact_length() {
        let r = String::from_utf8(answer_request("Who \"is\" it?", true)).unwrap();
        let (head, body) = r.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("POST /answer HTTP/1.1\r\n"));
        assert!(head.contains("Connection: keep-alive"));
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
        assert_eq!(
            json::parse(body).unwrap().get("question").unwrap().as_str(),
            Some("Who \"is\" it?")
        );
    }

    #[test]
    fn scrape_parsers() {
        let text = "# HELP x\ngqa_server_shed_total 3\n\
                    gqa_server_requests_total{endpoint=\"answer\"} 41 # {id=\"a\"} 1\n\
                    h_bucket{le=\"0.001\"} 10\nh_bucket{le=\"0.01\"} 30\nh_bucket{le=\"+Inf\"} 40\n";
        assert_eq!(metric(text, "gqa_server_shed_total"), 3.0);
        assert_eq!(metric(text, "gqa_server_requests_total{endpoint=\"answer\"}"), 41.0);
        assert_eq!(metric(text, "gqa_server_timeouts_total"), 0.0);
        let h = histogram(text, "h");
        assert_eq!(h, vec![(0.001, 10.0), (0.01, 30.0), (f64::INFINITY, 40.0)]);
        // 40 observations: the 20th lies halfway through the second bucket.
        let p50 = histogram_quantile(&[], &h, 0.5).unwrap();
        assert!((p50 - 0.0055).abs() < 1e-9, "{p50}");
        assert_eq!(histogram_quantile(&h, &h, 0.5), None);
    }
}
