//! `lph-serve` — the batched membership/lint/reduction query service.
//!
//! ```text
//! USAGE: lph-serve [--stdio | --listen ADDR] [--max-cost N] [--max-nodes N]
//!                  [--max-batch N] [--max-line-bytes N] [--threads N]
//!                  [--no-cache] [--cache-cap N] [--trace]
//! ```
//!
//! Speaks the newline-delimited `lph-serve/1` protocol (see
//! `PROTOCOL.md`): one JSON request per line in, one JSON response per
//! line out, in request order. `--stdio` serves stdin→stdout and exits at
//! EOF — the mode CI replays the PROTOCOL.md transcripts against;
//! `--listen ADDR` (default `127.0.0.1:7878`) accepts TCP connections
//! forever, one thread per connection, all sharing one engine (and so
//! one iso-class cache).
//!
//! `--max-cost` is the admission-control budget on the certified price
//! of a membership request (see `DESIGN.md` § Serving); `--max-nodes`
//! the hard instance-size cap. `--no-cache` disables the iso-class
//! verdict cache; `--cache-cap N` bounds it to `N` cached iso-class
//! representatives with least-recently-used eviction (evictions are
//! counted under `serve/cache_evictions`). `--threads` pins the runtime
//! pool width for this
//! process (equivalent to `LPH_THREADS`). `--trace` turns the global
//! recorder on and prints the `serve/*` counters to stderr when a stdio
//! session ends.
//!
//! An artifact failing translation validation aborts startup.
//!
//! Exits `0` on clean EOF (stdio), `1` on a transport error, `2` on a
//! usage error.

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

use lph_serve::{serve_stdio, serve_tcp, Engine, EngineConfig, ServerConfig};

fn usage() -> ExitCode {
    eprintln!(
        "USAGE: lph-serve [--stdio | --listen ADDR] [--max-cost N] [--max-nodes N] \
         [--max-batch N] [--max-line-bytes N] [--threads N] [--no-cache] \
         [--cache-cap N] [--trace]"
    );
    ExitCode::from(2)
}

struct Options {
    stdio: bool,
    listen: String,
    engine: EngineConfig,
    server: ServerConfig,
    threads: Option<usize>,
    trace: bool,
}

fn parse_args() -> Result<Options, ()> {
    let mut opts = Options {
        stdio: false,
        listen: "127.0.0.1:7878".to_owned(),
        engine: EngineConfig::default(),
        server: ServerConfig::default(),
        threads: None,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().ok_or(()).map_err(|()| {
                eprintln!("lph-serve: {name} needs a value");
            })
        };
        match arg.as_str() {
            "--stdio" => opts.stdio = true,
            "--listen" => opts.listen = value("--listen")?,
            "--max-cost" => {
                opts.engine.admission.max_cost = parse_num(&value("--max-cost")?)?;
            }
            "--max-nodes" => {
                opts.engine.admission.max_nodes = parse_num(&value("--max-nodes")?)?;
            }
            "--max-batch" => opts.server.max_batch = parse_num(&value("--max-batch")?)?,
            "--max-line-bytes" => {
                opts.server.max_line_bytes = parse_num(&value("--max-line-bytes")?)?;
            }
            "--threads" => opts.threads = Some(parse_num(&value("--threads")?)?),
            "--no-cache" => opts.engine.cache = false,
            "--cache-cap" => {
                opts.engine.cache_cap = Some(parse_num(&value("--cache-cap")?)?);
            }
            "--trace" => opts.trace = true,
            other => {
                eprintln!("lph-serve: unknown flag {other:?}");
                return Err(());
            }
        }
    }
    Ok(opts)
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, ()> {
    s.parse().map_err(|_| {
        eprintln!("lph-serve: {s:?} is not a valid number");
    })
}

fn print_serve_counters() {
    let snapshot = lph_trace::snapshot();
    for c in &snapshot.counters {
        if c.name.starts_with("serve/") {
            eprintln!("{} = {}", c.name, c.value);
        }
    }
}

fn main() -> ExitCode {
    let Ok(opts) = parse_args() else {
        return usage();
    };
    if let Some(n) = opts.threads {
        lph_runtime::set_threads(n);
    }
    if opts.trace {
        lph_trace::set_enabled(true);
    }
    // Build and certify the registry before serving: an artifact that
    // fails translation validation stops the server here, not mid-request.
    lph_serve::arbiter_entries();
    let engine = Engine::new(opts.engine);
    if opts.stdio {
        let result = serve_stdio(&engine, &opts.server);
        if opts.trace {
            print_serve_counters();
        }
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("lph-serve: transport error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let listener = match TcpListener::bind(&opts.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("lph-serve: cannot listen on {}: {e}", opts.listen);
            return ExitCode::FAILURE;
        }
    };
    eprintln!("lph-serve: listening on {}", opts.listen);
    match serve_tcp(Arc::new(engine), opts.server, &listener) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lph-serve: accept loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}
