//! Line transport: bounded reads, opportunistic batching, and the stdio
//! and TCP serving loops.
//!
//! Framing is one JSON object per `\n`-terminated line. The reader
//! enforces a byte cap per line ([`ServerConfig::max_line_bytes`]) so a
//! malicious or broken client cannot balloon memory: an oversized line is
//! consumed through its newline and answered with a `parse_error`
//! response (id `null` — the id, if any, is somewhere in the discarded
//! bytes). A final line truncated by EOF (no trailing newline) is served
//! normally.
//!
//! Batching is opportunistic and invisible to clients: after one
//! blocking read, every *already buffered* complete line (up to
//! [`ServerConfig::max_batch`]) joins the same batch — a pipelining
//! client gets pool-parallel decisions, a ping-pong client gets
//! single-request latency, and either way responses come back in request
//! order, one line each.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use crate::engine::Engine;

/// Transport configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Byte cap on one request line (newline included).
    pub max_line_bytes: usize,
    /// Cap on how many buffered lines join one batch.
    pub max_batch: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_line_bytes: 1 << 20,
            max_batch: 256,
        }
    }
}

/// Outcome of one bounded line read.
enum LineRead {
    /// A complete line (newline stripped), or a truncated final line.
    Line(String),
    /// The line exceeded the byte cap; it was consumed through its
    /// newline (or EOF) and discarded.
    Oversized,
    /// End of input.
    Eof,
}

/// Reads one `\n`-terminated line of at most `cap` bytes.
fn read_line_bounded<R: Read>(reader: &mut BufReader<R>, cap: usize) -> io::Result<LineRead> {
    let mut line: Vec<u8> = Vec::new();
    let mut over = false;
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            // EOF: a truncated final line is still a request.
            return Ok(match (line.is_empty(), over) {
                (_, true) => LineRead::Oversized,
                (true, false) => LineRead::Eof,
                (false, false) => LineRead::Line(string_of(line)),
            });
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buf.len(), |i| i + 1);
        if !over {
            if line.len() + take > cap {
                over = true;
                line.clear();
            } else {
                line.extend_from_slice(&buf[..take]);
            }
        }
        reader.consume(take);
        if newline.is_some() {
            if over {
                return Ok(LineRead::Oversized);
            }
            line.pop(); // the newline
            return Ok(LineRead::Line(string_of(line)));
        }
    }
}

/// Splits every complete line already sitting in the reader's buffer —
/// without blocking — until `max` lines have been taken.
fn drain_buffered<R: Read>(
    reader: &mut BufReader<R>,
    cap: usize,
    max: usize,
    out: &mut Vec<Result<String, ()>>,
) {
    while out.len() < max {
        let buf = reader.buffer();
        let Some(i) = buf.iter().position(|&b| b == b'\n') else {
            return;
        };
        let line = buf[..i].to_vec();
        reader.consume(i + 1);
        if line.len() >= cap {
            out.push(Err(()));
        } else {
            out.push(Ok(string_of(line)));
        }
    }
}

fn string_of(bytes: Vec<u8>) -> String {
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Serves one connection (any `Read`/`Write` pair) until EOF.
///
/// Each response reaches the transport as one write, its newline
/// included: a separate newline write would wait behind Nagle's algorithm
/// for the peer's delayed ACK (~40 ms on TCP), even for a lone request.
/// Within a pipelined batch the responses after the first still wait for
/// the ACK of the first.
///
/// # Errors
///
/// Propagates transport I/O errors; protocol-level problems are answered
/// on the wire instead.
pub fn serve_connection<R: Read, W: Write>(
    engine: &Engine,
    config: &ServerConfig,
    input: R,
    output: W,
) -> io::Result<()> {
    let mut reader = BufReader::new(input);
    let mut output = BufWriter::new(output);
    loop {
        // One blocking read, then drain whatever else already arrived.
        let first = match read_line_bounded(&mut reader, config.max_line_bytes)? {
            LineRead::Eof => return Ok(()),
            LineRead::Line(l) => Ok(l),
            LineRead::Oversized => Err(()),
        };
        let mut pending = vec![first];
        drain_buffered(
            &mut reader,
            config.max_line_bytes,
            config.max_batch,
            &mut pending,
        );
        // Empty lines are keep-alives, not requests.
        pending.retain(|l| !matches!(l, Ok(s) if s.trim().is_empty()));
        let lines: Vec<String> = pending
            .iter()
            .map(|l| match l {
                Ok(s) => s.clone(),
                // Stand-in the batcher answers without parsing.
                Err(()) => String::new(),
            })
            .collect();
        let mut responses = engine.process_batch(&lines);
        for (slot, response) in pending.iter().zip(responses.iter_mut()) {
            if slot.is_err() {
                *response = crate::proto::error_line(
                    None,
                    "parse_error",
                    &format!(
                        "request line exceeds the {}-byte cap and was discarded",
                        config.max_line_bytes
                    ),
                    &[],
                );
            }
            output.write_all(response.as_bytes())?;
            output.write_all(b"\n")?;
            output.flush()?;
        }
    }
}

/// Serves stdin → stdout until EOF (the `--stdio` mode CI replays
/// transcripts against).
///
/// # Errors
///
/// Propagates transport I/O errors.
pub fn serve_stdio(engine: &Engine, config: &ServerConfig) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve_connection(engine, config, stdin.lock(), stdout.lock())
}

/// Accepts TCP connections forever, one thread per connection. Every
/// connection thread runs its batches at the calling thread's pool width
/// ([`lph_runtime::threads`], read once before the first accept), so a
/// [`lph_runtime::set_threads`] override reaches TCP traffic too.
///
/// # Errors
///
/// Propagates listener errors; per-connection errors only end that
/// connection.
pub fn serve_tcp(
    engine: Arc<Engine>,
    config: ServerConfig,
    listener: &TcpListener,
) -> io::Result<()> {
    let threads = lph_runtime::threads();
    loop {
        let (stream, _) = listener.accept()?;
        let engine = Arc::clone(&engine);
        let config = config.clone();
        std::thread::spawn(move || {
            lph_runtime::set_threads(threads);
            let _ = handle_tcp(&engine, &config, stream);
        });
    }
}

fn handle_tcp(engine: &Engine, config: &ServerConfig, stream: TcpStream) -> io::Result<()> {
    let input = stream.try_clone()?;
    serve_connection(engine, config, input, stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use lph_analysis::json::Json;

    fn run(input: &str) -> Vec<String> {
        let engine = Engine::new(EngineConfig::default());
        let mut out = Vec::new();
        serve_connection(
            &engine,
            &ServerConfig::default(),
            input.as_bytes(),
            &mut out,
        )
        .unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn truncated_final_line_is_served() {
        let out = run(r#"{"id":"t","kind":"list"}"#); // no trailing newline
        assert_eq!(out.len(), 1);
        let v = Json::parse(&out[0]).unwrap();
        assert_eq!(v.get("id"), Some(&Json::Str("t".to_owned())));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn oversized_line_is_rejected_and_the_stream_recovers() {
        let engine = Engine::new(EngineConfig::default());
        let config = ServerConfig {
            max_line_bytes: 64,
            max_batch: 16,
        };
        let long = format!(
            "{{\"id\":\"big\",\"kind\":\"list\",\"pad\":\"{}\"}}\n{{\"id\":\"after\",\"kind\":\"list\"}}\n",
            "x".repeat(200)
        );
        let mut out = Vec::new();
        serve_connection(&engine, &config, long.as_bytes(), &mut out).unwrap();
        let lines: Vec<String> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(&lines[0]).unwrap();
        assert_eq!(first.get("id"), Some(&Json::Null));
        assert_eq!(
            first.get("error").and_then(|e| e.get("code")),
            Some(&Json::Str("parse_error".to_owned()))
        );
        let second = Json::parse(&lines[1]).unwrap();
        assert_eq!(second.get("id"), Some(&Json::Str("after".to_owned())));
    }

    #[test]
    fn pipelined_batch_preserves_order_and_blank_lines_are_ignored() {
        let input = "\
{\"id\":\"a\",\"kind\":\"membership\",\"arbiter\":\"all_selected_decider\",\"graph\":{\"family\":\"cycle\",\"n\":5}}\n\
\n\
{\"id\":\"b\",\"kind\":\"list\"}\n\
{\"id\":\"c\",\"kind\":\"membership\",\"arbiter\":\"nope\",\"graph\":{\"family\":\"cycle\",\"n\":3}}\n";
        let out = run(input);
        assert_eq!(out.len(), 3);
        let ids: Vec<_> = out
            .iter()
            .map(|l| Json::parse(l).unwrap().get("id").cloned().unwrap())
            .collect();
        assert_eq!(
            ids,
            vec![
                Json::Str("a".to_owned()),
                Json::Str("b".to_owned()),
                Json::Str("c".to_owned())
            ]
        );
    }

    /// A `Write` that counts the writes reaching it.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_response_is_one_transport_write() {
        let engine = Engine::new(EngineConfig::default());
        let line =
            r#"{"id":"a","kind":"membership","arbiter":"nope","graph":{"family":"cycle","n":3}}"#;
        let input = format!("{line}\n{line}\n{line}\n");
        let mut out = CountingWriter::default();
        serve_connection(
            &engine,
            &ServerConfig::default(),
            input.as_bytes(),
            &mut out,
        )
        .unwrap();
        assert_eq!(String::from_utf8(out.bytes).unwrap().lines().count(), 3);
        assert_eq!(out.writes, 3, "one write per response");
    }

    #[test]
    fn tcp_round_trip() {
        use std::io::{BufRead as _, BufReader, Write as _};
        use std::net::TcpStream;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        std::thread::spawn(move || {
            let _ = serve_tcp(engine, ServerConfig::default(), &listener);
        });
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"{\"id\":\"net\",\"kind\":\"list\"}\n")
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Json::parse(line.trim_end()).unwrap();
        assert_eq!(v.get("id"), Some(&Json::Str("net".to_owned())));
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
    }
}
