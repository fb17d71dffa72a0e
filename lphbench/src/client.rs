//! The TCP side: spawning `lph-serve`, and closed-loop connections that
//! write a flight of requests and wait for all of its replies.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::check::check_response;
use crate::gen::Req;

/// A running `lph-serve --threads 2` process, killed and reaped on drop.
pub struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawns the server on a free loopback port and waits until it
    /// accepts connections.
    ///
    /// # Errors
    ///
    /// Fails when the binary cannot start, exits early, or does not listen
    /// within 30 seconds.
    pub fn spawn(bin: &Path) -> io::Result<Server> {
        let port = TcpListener::bind("127.0.0.1:0")?.local_addr()?.port();
        let addr = format!("127.0.0.1:{port}");
        let child = Command::new(bin)
            .args(["--listen", &addr, "--threads", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut server = Server { child, addr };
        let give_up = Instant::now() + Duration::from_secs(30);
        loop {
            if TcpStream::connect(&server.addr).is_ok() {
                return Ok(server);
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "lph-serve exited early: {status}"
                )));
            }
            if Instant::now() > give_up {
                return Err(io::Error::other("lph-serve did not start listening"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Opens one client connection.
    ///
    /// # Errors
    ///
    /// Propagates connect errors.
    pub fn connect(&self) -> io::Result<Conn> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// The server's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// The replies to one flight, with the instant each line arrived.
pub struct Flight {
    /// When the flight's write began.
    pub sent: Instant,
    /// One `(line, arrival)` per request, in request order.
    pub replies: Vec<(String, Instant)>,
}

impl Conn {
    /// Writes every request of a flight in one write, then reads one
    /// response line per request.
    ///
    /// # Errors
    ///
    /// Transport errors, and EOF before every reply arrived.
    pub fn flight(&mut self, reqs: &[Req]) -> io::Result<Flight> {
        let mut wire = String::with_capacity(reqs.iter().map(|r| r.line.len() + 1).sum());
        for r in reqs {
            wire.push_str(&r.line);
            wire.push('\n');
        }
        let sent = Instant::now();
        self.writer.write_all(wire.as_bytes())?;
        let mut replies = Vec::with_capacity(reqs.len());
        for _ in reqs {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            let at = Instant::now();
            line.truncate(line.trim_end_matches(['\r', '\n']).len());
            replies.push((line, at));
        }
        Ok(Flight { sent, replies })
    }

    /// Sends a flight and checks every reply; returns the number of wrong
    /// replies, describing the first on stderr.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn checked_flight(&mut self, reqs: &[Req]) -> io::Result<usize> {
        let flight = self.flight(reqs)?;
        Ok(count_failures(reqs, &flight))
    }
}

/// Checks every reply of a flight against its request; reports the
/// first failure on stderr and returns how many failed.
pub fn count_failures(reqs: &[Req], flight: &Flight) -> usize {
    let mut failed = 0;
    for (req, (line, _)) in reqs.iter().zip(&flight.replies) {
        if let Err(e) = check_response(line, &req.id, &req.expect) {
            if failed == 0 {
                eprintln!("lph-e2ebench: {e}");
            }
            failed += 1;
        }
    }
    failed
}

/// What one connection observed over a closed-loop run.
#[derive(Default)]
pub struct ConnStats {
    /// Per request: when its reply arrived, and its latency in
    /// milliseconds from the flight's write to the reply's read.
    pub samples: Vec<(Instant, f64)>,
    /// Requests sent.
    pub attempted: usize,
    /// Requests answered wrongly, malformed, or lost to transport errors.
    pub failed: usize,
    /// `(id, line)` of every reply, when kept.
    pub lines: Vec<(String, String)>,
}

/// When a closed loop stops.
#[derive(Clone, Copy)]
pub enum Stop {
    /// Start no flight after this instant.
    Deadline(Instant),
    /// Stop after this many flights.
    Flights(usize),
}

/// Runs one connection's closed loop: build a flight with `next`, send
/// it, wait for every reply, check each, repeat until `stop`.
pub fn drive(
    conn: &mut Conn,
    stop: Stop,
    keep_lines: bool,
    mut next: impl FnMut() -> Vec<Req>,
) -> ConnStats {
    let mut stats = ConnStats::default();
    let mut flights = 0;
    loop {
        match stop {
            Stop::Deadline(t) if Instant::now() >= t => break,
            Stop::Flights(n) if flights >= n => break,
            _ => {}
        }
        let reqs = next();
        flights += 1;
        stats.attempted += reqs.len();
        match conn.flight(&reqs) {
            Ok(flight) => {
                stats.failed += count_failures(&reqs, &flight);
                for (req, (line, at)) in reqs.iter().zip(flight.replies) {
                    let ms = at.duration_since(flight.sent).as_secs_f64() * 1e3;
                    stats.samples.push((at, ms));
                    if keep_lines {
                        stats.lines.push((req.id.clone(), line));
                    }
                }
            }
            Err(e) => {
                eprintln!("lph-e2ebench: transport error: {e}");
                stats.failed += reqs.len();
                break;
            }
        }
    }
    stats
}
