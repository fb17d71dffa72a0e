//! Tests that assert on the process-global trace recorder's `serve/` and
//! `pool/` counters. They live in their own test binary, serialized on one
//! lock, so no concurrently running test drives the engine while one of
//! them has the recorder on.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use lph_serve::{serve_tcp, Engine, EngineConfig, ServerConfig};

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// Takes the lock and starts a fresh, enabled recording.
fn recording() -> MutexGuard<'static, ()> {
    let guard = TRACE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    lph_trace::set_enabled(true);
    lph_trace::reset();
    guard
}

fn default_engine() -> Engine {
    Engine::new(EngineConfig::default())
}

#[test]
fn cache_counters_account_hits_and_misses() {
    let _x = recording();
    let engine = default_engine();
    let req = r#"{"id":"q","kind":"membership","arbiter":"eulerian_decider","graph":{"family":"cycle","n":8}}"#;
    engine.process_line(req);
    engine.process_line(req);
    engine.process_line(req);
    assert_eq!(lph_trace::counter_value("serve/cache_misses"), 1);
    assert_eq!(lph_trace::counter_value("serve/cache_hits"), 2);
    assert_eq!(lph_trace::counter_value("serve/admitted_certified"), 3);
    lph_trace::set_enabled(false);
}

#[test]
fn uncertified_admissions_are_counted() {
    let _x = recording();
    let engine = default_engine();
    engine.process_line(
        r#"{"id":"q","kind":"membership","arbiter":"three_colorable_verifier","graph":{"family":"cycle","n":4}}"#,
    );
    assert_eq!(lph_trace::counter_value("serve/admitted_uncertified"), 1);
    assert_eq!(lph_trace::counter_value("serve/admitted_certified"), 0);
    lph_trace::set_enabled(false);
}

/// Starts `serve_tcp` on a loopback port from a thread pinned to pool
/// width `workers`, sends one pipelined batch of membership requests
/// (exhaustive ones included, whose certificate enumeration forks whenever
/// the width allows) and returns the `pool/regions` count it caused.
fn pool_regions_over_tcp(workers: usize) -> u64 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let engine = Arc::new(Engine::new(EngineConfig {
        cache: false,
        ..EngineConfig::default()
    }));
    std::thread::spawn(move || {
        lph_runtime::set_threads(workers);
        serve_tcp(engine, ServerConfig::default(), &listener)
    });
    let mut stream = TcpStream::connect(addr).expect("connect");
    let batch: String = (3..11)
        .map(|n| {
            format!(
                "{{\"id\":\"c{n}\",\"kind\":\"membership\",\"arbiter\":\"two_colorable_verifier\",\"graph\":{{\"family\":\"cycle\",\"n\":{n}}},\"backend\":\"exhaustive\"}}\n"
            )
        })
        .collect();
    stream.write_all(batch.as_bytes()).expect("send batch");
    let mut reader = BufReader::new(stream);
    for n in 3..11 {
        let mut line = String::new();
        reader.read_line(&mut line).expect("response");
        assert!(line.contains(&format!("\"id\":\"c{n}\"")), "{line}");
        assert!(line.contains("\"ok\":true"), "{line}");
    }
    lph_trace::counter_value("pool/regions")
}

#[test]
fn tcp_connections_inherit_the_servers_pool_width() {
    let _x = recording();
    let sequential = pool_regions_over_tcp(1);
    lph_trace::reset();
    let parallel = pool_regions_over_tcp(2);
    lph_trace::set_enabled(false);
    assert_eq!(sequential, 0, "a width-1 server must never fork");
    assert!(parallel > 0, "a width-2 server forks its exhaustive sweeps");
}
