//! The workloads: an untraced end-to-end run (`--trace 0`) and a traced
//! per-layer run (`--trace 1`) for each.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use lph_analysis::{run_builtin_deep, Diagnostic, RuleConfig};
use lph_serve::{serve_connection, Engine, EngineConfig, ServerConfig};

use crate::calib;
use crate::check::check_walk;
use crate::client::{drive, peak_rss_mb, ConnStats, Server, Stop};
use crate::gen::{hot_warmup, ColdSource, Expect, HotStream, Registry, Req, HOT_FLIGHT};
use crate::layers::{walk, Acc, Replay};

/// Client connections (and threads) on the serve workloads.
pub const CONNS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 11;
/// Equal time windows of a measured run; each end-to-end figure is the
/// trimmed mean over the windows.
pub const WINDOWS: usize = 5;
/// Flights per connection replayed by the traced run.
const TRACE_FLIGHTS_HOT: usize = 32;
const TRACE_FLIGHTS_COLD: usize = 100;
/// Walks per pass of the traced `lint_corpus` run.
const TRACE_WALKS: usize = 20;
/// Flights the pool pass replays at pool width 2.
const POOL_FLIGHTS: usize = 64;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pipelined cache hits over a warmed working set.
    ServeHot,
    /// Ping-pong cache misses, every request a new iso-class.
    ServeCold,
    /// Repeated deep lint walks over the built-in corpus.
    LintCorpus,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "serve_hot" => Some(Workload::ServeHot),
            "serve_cold" => Some(Workload::ServeCold),
            "lint_corpus" => Some(Workload::LintCorpus),
            _ => None,
        }
    }

    /// The requests a fresh server is set up with: the hot working set,
    /// or a single `list` that proves the server answers.
    pub fn warmup(self, seed: u64, registry: Registry) -> Vec<Req> {
        match self {
            Workload::ServeHot => hot_warmup(seed),
            _ => vec![Req {
                id: "ready".to_owned(),
                line: r#"{"id":"ready","kind":"list"}"#.to_owned(),
                expect: Expect::List {
                    arbiters: registry.arbiters,
                    reductions: registry.reductions,
                },
                kind: "list",
            }],
        }
    }
}

/// The seeded request source of a serve workload, shared by both
/// connections; each connection's stream depends only on the seed.
pub enum Source {
    /// One independent stream per connection.
    Hot(Vec<Mutex<HotStream>>),
    /// One global sequence dealt round-robin to the connections.
    Cold(Box<Mutex<(ColdSource, Vec<usize>)>>),
}

impl Source {
    /// The source of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64, registry: Registry) -> Self {
        match workload {
            Workload::ServeHot => Source::Hot(
                (0..CONNS)
                    .map(|c| Mutex::new(HotStream::new(seed, c, registry)))
                    .collect(),
            ),
            _ => Source::Cold(Box::new(Mutex::new((
                ColdSource::new(seed),
                vec![0; CONNS],
            )))),
        }
    }

    /// The next flight of connection `conn`.
    pub fn flight(&self, conn: usize) -> Vec<Req> {
        match self {
            Source::Hot(streams) => {
                let mut s = streams[conn].lock().expect("stream lock");
                (0..HOT_FLIGHT).map(|_| s.next_req()).collect()
            }
            Source::Cold(shared) => {
                let mut guard = shared.lock().expect("source lock");
                let (source, taken) = &mut *guard;
                let i = taken[conn] * CONNS + conn;
                taken[conn] += 1;
                vec![source.get(i)]
            }
        }
    }
}

/// One metric of the result line.
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (and checked).
    pub attempted: usize,
    /// Operations that failed a check.
    pub failed: usize,
    /// Latency samples behind the percentiles (0 for traced runs).
    pub samples: usize,
    /// The metrics, in output order.
    pub metrics: Vec<Metric>,
}

impl Report {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric { name, value, unit });
    }
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean without the highest and the lowest value (plain mean below 3).
fn trimmed_mean(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let kept = if v.len() >= 3 {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    kept.iter().sum::<f64>() / kept.len().max(1) as f64
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The operations of one stretch of a measured run.
#[derive(Default)]
struct Window {
    /// Per operation, its latency in ms.
    ms: Vec<f64>,
    /// Seconds the stretch took, without the walk loop's kernel runs.
    secs: f64,
}

/// The end-to-end metrics of a measured run cut into windows.
///
/// Throughput and latency percentiles are computed per window, and the
/// mean of the windows without the highest and the lowest is reported, so
/// a burst of outside load in one window does not move the figures.
fn e2e_metrics(report: &mut Report, setups: Vec<f64>, mut windows: Vec<Window>, rss: f64) {
    windows.retain(|w| !w.ms.is_empty());
    for w in &mut windows {
        w.ms.sort_by(f64::total_cmp);
    }
    report.samples = windows.iter().map(|w| w.ms.len()).sum();
    let ops = |w: &Window| w.ms.len() as f64 / w.secs;
    let rates: Vec<String> = windows.iter().map(|w| format!("{:.1}", ops(w))).collect();
    eprintln!("lph-e2ebench: ops/s per window: {}", rates.join(" "));
    let per_window = |f: &dyn Fn(&Window) -> f64| trimmed_mean(windows.iter().map(f).collect());
    report.push("setup_s", median(setups), "s");
    report.push("ops_per_s", per_window(&ops), "1/s");
    report.push(
        "latency_p50_ms",
        per_window(&|w| percentile(&w.ms, 0.50)),
        "ms",
    );
    report.push(
        "latency_p90_ms",
        per_window(&|w| percentile(&w.ms, 0.90)),
        "ms",
    );
    let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    report.push("ok_share", ok, "share");
    report.push("peak_rss_mb", rss, "MiB");
}

fn err(e: std::io::Error) -> String {
    format!("transport error: {e}")
}

/// Spawns a server and sets it up (warm-up included), checking every
/// warm-up answer; returns the server and the set-up time.
fn set_up(bin: &Path, warm: &[Req], report: &mut Report) -> Result<(Server, Duration), String> {
    let t0 = Instant::now();
    let server = Server::spawn(bin).map_err(err)?;
    let mut conn = server.connect().map_err(err)?;
    report.failed += conn.checked_flight(warm).map_err(err)?;
    report.attempted += warm.len();
    Ok((server, t0.elapsed()))
}

/// Drives every connection's closed loop against `server`; connection
/// `c` sends the flights `flight(c)` returns.
fn drive_all(
    server: &Server,
    stop: Stop,
    keep: bool,
    flight: &(dyn Fn(usize) -> Vec<Req> + Sync),
) -> Result<Vec<ConnStats>, String> {
    let mut conns = (0..CONNS)
        .map(|_| server.connect())
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    Ok(std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| s.spawn(move || drive(conn, stop, keep, || flight(c))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    }))
}

/// `serve_hot` / `serve_cold` with tracing off: set-up time, then a
/// closed loop over two connections for `seconds`.
///
/// The serve figures are not scaled by the reference kernel: readings
/// taken on the client between 2-second segments, with the server idle,
/// did not follow the server's speed (scaled spreads over six seeds were
/// 12–16% against 1–4% unscaled on `serve_hot`).
pub fn serve_e2e(
    bin: &Path,
    workload: Workload,
    seed: u64,
    seconds: f64,
) -> Result<Report, String> {
    let registry = Registry::current();
    let warm = workload.warmup(seed, registry);
    let source = Source::new(workload, seed, registry);
    let mut report = Report::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for _ in 0..SETUP_REPS {
        // The previous server is stopped before the next one is timed.
        drop(server.take());
        let (s, took) = set_up(bin, &warm, &mut report)?;
        setups.push(took.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let start = Instant::now();
    let len = Duration::from_secs_f64(seconds);
    let stats = drive_all(&server, Stop::Deadline(start + len), false, &|c| {
        source.flight(c)
    })?;
    let rss = server.peak_rss_mb().unwrap_or(0.0);
    drop(server);
    // Windows by completion time.
    let width = seconds / WINDOWS as f64;
    let mut windows: Vec<Window> = (0..WINDOWS)
        .map(|_| Window {
            ms: Vec::new(),
            secs: width,
        })
        .collect();
    for s in stats {
        report.attempted += s.attempted;
        report.failed += s.failed;
        for (at, ms) in s.samples {
            let w = (at.duration_since(start).as_secs_f64() / width) as usize;
            if let Some(win) = windows.get_mut(w) {
                win.ms.push(ms);
            }
        }
    }
    e2e_metrics(&mut report, setups, windows, rss);
    Ok(report)
}

/// `lint_corpus` with tracing off: repeated `run_builtin_deep` walks on
/// one thread for `seconds`, each followed by one run of the reference
/// kernel, and every walk reported at the reference host speed (see
/// [`calib`]).
///
/// One thread is the sequential walk that the `corpus_walk/seq` bench
/// series gates. At pool width 2 each 10 ms walk opens about ten
/// fork/join regions over tiny items, one vCPU idles about 30% of the
/// time, and every join waits on that vCPU being scheduled again: on a
/// 2-vCPU VM the walk's p90 then follows host steal time (30% spread
/// over ten runs, against 6% on one thread). The pool itself is measured
/// by the traced run's pool pass.
pub fn lint_e2e(seconds: f64) -> Result<Report, String> {
    lph_runtime::set_threads(1);
    calib::warm();
    let config = RuleConfig::new();
    let mut report = Report::default();
    let mut reference: Option<Vec<Diagnostic>> = None;
    // One checked walk and the kernel after it: (walk ms, kernel ms).
    let mut walk_checked = |report: &mut Report| {
        let t = Instant::now();
        let diags = run_builtin_deep(&config);
        let took = t.elapsed().as_secs_f64() * 1e3;
        let reference = reference.get_or_insert_with(|| diags.clone());
        report.attempted += 1;
        if let Err(e) = check_walk(&diags, reference) {
            eprintln!("lph-e2ebench: {e}");
            report.failed += 1;
        }
        (took, calib::time_kernel())
    };
    let (setup_ms, setup_kernel): (Vec<f64>, Vec<f64>) =
        (0..SETUP_REPS).map(|_| walk_checked(&mut report)).unzip();
    let f = calib::factor(&setup_kernel);
    let setups = setup_ms.iter().map(|ms| ms * f / 1e3).collect();
    let len = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let (mut window, mut walk_ms, mut kernel_ms) = (Vec::new(), Vec::new(), Vec::new());
    while start.elapsed() < len {
        let (took, kernel) = walk_checked(&mut report);
        window.push(start.elapsed().as_secs_f64() * WINDOWS as f64 / seconds);
        walk_ms.push(took);
        kernel_ms.push(kernel);
    }
    calib::report_host(&kernel_ms);
    let mut windows: Vec<Window> = (0..WINDOWS).map(|_| Window::default()).collect();
    for ((w, ms), f) in window
        .into_iter()
        .zip(walk_ms)
        .zip(calib::factors(&kernel_ms, calib::WALK_SPAN))
    {
        let win = &mut windows[(w as usize).min(WINDOWS - 1)];
        win.ms.push(ms * f);
        win.secs += ms * f / 1e3;
    }
    let rss = peak_rss_mb("/proc/self/status").unwrap_or(0.0);
    e2e_metrics(&mut report, setups, windows, rss);
    Ok(report)
}

/// Per-layer figures shared by the traced runs.
struct Traced {
    acc: Acc,
    ops: f64,
    traced_ns: f64,
    untraced_ns: f64,
    frame_ns: f64,
    classes: f64,
    pool: [f64; 3],
}

fn layer_metrics(report: &mut Report, t: &Traced) {
    let us = |k: &str| t.acc.get(k) / 1e3 / t.ops;
    let per_op = |k: &str| t.acc.get(k) / t.ops;
    let share = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    report.push("proto.parse_us", us("proto.parse_us"), "us");
    report.push("proto.emit_us", us("proto.emit_us"), "us");
    report.push("registry.lookup_us", us("registry.lookup_us"), "us");
    report.push("admission.admit_us", us("admission.admit_us"), "us");
    report.push(
        "admission.shed_share",
        share(t.acc.sheds, t.acc.admissions),
        "share",
    );
    report.push("cache.key_us", us("cache.key_us"), "us");
    report.push("cache.lookup_us", us("cache.lookup_us"), "us");
    report.push("cache.insert_us", us("cache.insert_us"), "us");
    report.push("cache.hit_ratio", share(t.acc.hits, t.acc.lookups), "share");
    report.push("cache.classes", t.classes, "count");
    report.push("game.decide_us", us("game.decide_us"), "us");
    report.push("game.tables_us", us("game.tables_us"), "us");
    report.push("game.encode_replay_us", us("game.encode_replay_us"), "us");
    report.push("game.table_runs", per_op("game.table_runs"), "count");
    report.push("game.cnf_clauses", per_op("game.cnf_clauses"), "count");
    report.push("sat.solve_us", us("sat.solve_us"), "us");
    report.push("sat.check_us", us("sat.check_us"), "us");
    report.push("sat.conflicts", per_op("sat.conflicts"), "count");
    report.push(
        "sat.proof_propagations",
        per_op("sat.proof_propagations"),
        "count",
    );
    report.push("machine.run_us", us("machine.run_us"), "us");
    report.push("machine.steps", per_op("machine.steps"), "count");
    report.push("reduction.apply_us", us("reduction.apply_us"), "us");
    report.push("pool.region_us", t.pool[0], "us");
    report.push("pool.chunks", t.pool[1], "count");
    report.push("pool.waits", t.pool[2], "count");
    report.push("server.frame_us", t.frame_ns / 1e3, "us");
    for name in [
        "analysis.corpus_build_us",
        "analysis.dtm_us",
        "analysis.formula_us",
        "analysis.arbiter_contract_us",
        "analysis.reduction_contract_us",
        "analysis.flow_machine_us",
        "analysis.flow_sentence_us",
        "analysis.flow_reduction_us",
        "analysis.flow_bytecode_us",
        "analysis.flow_plan_us",
        "analysis.proofcheck_us",
    ] {
        report.push(name, us(name), "us");
    }
    let unaccounted = 1.0 - t.acc.self_sum() / t.traced_ns;
    if unaccounted > 0.10 {
        eprintln!(
            "lph-e2ebench: FLAG unaccounted_share = {unaccounted:.3} > 0.10: \
             the layers cover less than 90% of the traced wall time"
        );
    }
    report.push("unaccounted_share", unaccounted, "share");
    report.push(
        "trace.overhead_share",
        t.traced_ns / t.untraced_ns - 1.0,
        "share",
    );
}

/// Pool figures (µs of `pool/region` and chunk and wait counts, per
/// operation) while `f` runs `ops` operations at pool width 2.
fn pool_pass(ops: usize, f: impl FnOnce()) -> [f64; 3] {
    lph_runtime::set_threads(2);
    lph_trace::reset();
    lph_trace::set_enabled(true);
    f();
    lph_trace::set_enabled(false);
    let snap = lph_trace::snapshot();
    lph_trace::reset();
    lph_runtime::set_threads(1);
    let ops = ops.max(1) as f64;
    let region = snap
        .spans
        .iter()
        .find(|s| s.name == "pool/region")
        .map_or(0, |s| s.total_ns);
    [
        region as f64 / 1e3 / ops,
        snap.counter("pool/chunks").unwrap_or(0) as f64 / ops,
        snap.counter("pool/waits").unwrap_or(0) as f64 / ops,
    ]
}

/// Traced totals of the requests of one mix category.
#[derive(Default)]
struct KindTotals {
    requests: usize,
    wall_ns: f64,
    totals: BTreeMap<&'static str, f64>,
}

/// Prints, per request category, the mean traced wall time and the
/// layers that dominate it: the "where the time goes" table.
fn print_breakdown(by_kind: &BTreeMap<&'static str, KindTotals>) {
    const COLUMNS: [&str; 7] = [
        "registry.lookup_us",
        "game.decide_us",
        "game.tables_us",
        "game.encode_replay_us",
        "sat.solve_us",
        "sat.check_us",
        "machine.run_us",
    ];
    eprintln!(
        "lph-e2ebench: where the time goes (mean ms per request)\n  {:<10} {:>5} {:>8}{}",
        "kind",
        "n",
        "wall",
        COLUMNS
            .iter()
            .map(|c| format!(" {:>20}", c.trim_end_matches("_us")))
            .collect::<String>()
    );
    for (kind, k) in by_kind {
        let n = k.requests as f64;
        let cells: String = COLUMNS
            .iter()
            .map(|c| format!(" {:>20.3}", k.totals.get(c).unwrap_or(&0.0) / 1e6 / n))
            .collect();
        eprintln!(
            "  {kind:<10} {:>5} {:>8.3}{cells}",
            k.requests,
            k.wall_ns / 1e6 / n
        );
    }
}

fn phase(name: &str, since: Instant) {
    eprintln!(
        "lph-e2ebench: {name} pass took {:.2} s",
        since.elapsed().as_secs_f64()
    );
}

fn lines_of(flight: &[Req]) -> Vec<String> {
    flight.iter().map(|r| r.line.clone()).collect()
}

/// Compares a replayed line with the served one; loud on a difference.
fn same_line(pass: &str, id: &str, served: &HashMap<String, String>, got: &str) -> bool {
    match served.get(id) {
        Some(want) if want == got => true,
        want => {
            eprintln!(
                "lph-e2ebench: REPLAY MISMATCH in the {pass} pass for {id}\n  served:   {}\n  replayed: {got}",
                want.map_or("<no served line>", String::as_str)
            );
            false
        }
    }
}

/// The traced run of a serve workload.
///
/// 1. The fixed prefix (flights per connection) goes to `lph-serve` over
///    TCP; every answer is checked and kept.
/// 2. On one thread, each flight runs three ways in rotating order:
///    through `serve_connection` over an in-memory stream and through
///    `Engine::process_batch` (two warmed engines, tracing off; the paired
///    difference is the framing cost, the second the untraced wall), and
///    replayed layer by layer with tracing on, where every line must equal
///    the served line byte for byte.
/// 3. Up to 64 flights run through `process_batch` at pool width 2 with
///    tracing on, for the pool figures.
pub fn serve_traced(bin: &Path, workload: Workload, seed: u64) -> Result<Report, String> {
    let registry = Registry::current();
    let warm = workload.warmup(seed, registry);
    let per_conn = match workload {
        Workload::ServeHot => TRACE_FLIGHTS_HOT,
        _ => TRACE_FLIGHTS_COLD,
    };
    let source = Source::new(workload, seed, registry);
    // Flight i belongs to connection i % CONNS; generate in that order so
    // the in-process passes replay the streams the connections sent.
    let flights: Vec<Vec<Req>> = (0..per_conn * CONNS)
        .map(|i| source.flight(i % CONNS))
        .collect();
    let mut report = Report::default();

    let clock = Instant::now();
    let (server, _) = set_up(bin, &warm, &mut report)?;
    let sent: Vec<Mutex<usize>> = (0..CONNS).map(|_| Mutex::new(0)).collect();
    let stats = drive_all(&server, Stop::Flights(per_conn), true, &|c| {
        let mut k = sent[c].lock().expect("counter lock");
        *k += 1;
        flights[(*k - 1) * CONNS + c].clone()
    })?;
    drop(server);
    let mut served = HashMap::new();
    for s in stats {
        report.attempted += s.attempted;
        report.failed += s.failed;
        served.extend(s.lines);
    }
    phase("tcp", clock);

    let clock = Instant::now();
    lph_runtime::set_threads(1);
    let warm_lines = lines_of(&warm);
    let (engine_a, engine_b) = (
        Engine::new(EngineConfig::default()),
        Engine::new(EngineConfig::default()),
    );
    engine_a.process_batch(&warm_lines);
    engine_b.process_batch(&warm_lines);
    let mut replay = Replay::default();
    lph_trace::set_enabled(true);
    for w in &warm {
        replay.line(&w.line);
    }
    lph_trace::set_enabled(false);
    replay.acc = Acc::default();
    let config = ServerConfig::default();
    let (mut untraced_ns, mut traced_ns) = (0.0, 0.0);
    let mut diffs = Vec::with_capacity(flights.len());
    let mut by_kind: BTreeMap<&'static str, KindTotals> = BTreeMap::new();
    for (i, flight) in flights.iter().enumerate() {
        let lines = lines_of(flight);
        let wire: String = lines.iter().map(|l| format!("{l}\n")).collect();
        let mut framed_out = Vec::new();
        let mut batched_lines = Vec::new();
        let (mut ta, mut tb, mut tt) = (0.0, 0.0, 0.0);
        // Rotate the order of the three runs so drift in machine speed
        // falls evenly on each.
        for step in 0..3 {
            let t = Instant::now();
            match (i + step) % 3 {
                0 => {
                    serve_connection(&engine_a, &config, wire.as_bytes(), &mut framed_out)
                        .map_err(err)?;
                    ta = t.elapsed().as_nanos() as f64;
                }
                1 => {
                    batched_lines = engine_b.process_batch(&lines);
                    tb = t.elapsed().as_nanos() as f64;
                }
                _ => {
                    lph_trace::set_enabled(true);
                    for req in flight {
                        let before = replay.acc.totals.clone();
                        let t = Instant::now();
                        let line = replay.line(&req.line);
                        let wall = t.elapsed().as_nanos() as f64;
                        let kind = by_kind.entry(req.kind).or_default();
                        kind.requests += 1;
                        kind.wall_ns += wall;
                        for (name, v) in &replay.acc.totals {
                            *kind.totals.entry(*name).or_default() +=
                                v - before.get(name).unwrap_or(&0.0);
                        }
                        report.failed += usize::from(!same_line("traced", &req.id, &served, &line));
                    }
                    lph_trace::set_enabled(false);
                    tt = t.elapsed().as_nanos() as f64;
                }
            }
        }
        untraced_ns += tb;
        traced_ns += tt;
        diffs.push((ta - tb) / flight.len() as f64);
        let framed_text = String::from_utf8_lossy(&framed_out).into_owned();
        for ((req, a), b) in flight.iter().zip(framed_text.lines()).zip(&batched_lines) {
            let ok = same_line("serve_connection", &req.id, &served, a)
                && same_line("process_batch", &req.id, &served, b);
            report.failed += usize::from(!ok);
        }
    }
    lph_trace::reset();
    phase("framed + batched + traced", clock);
    print_breakdown(&by_kind);

    let clock = Instant::now();
    let engine_p = Engine::new(EngineConfig::default());
    engine_p.process_batch(&warm_lines);
    let pooled: Vec<&Vec<Req>> = flights.iter().take(POOL_FLIGHTS).collect();
    let pool_ops = pooled.iter().map(|f| f.len()).sum();
    let pool = pool_pass(pool_ops, || {
        for f in &pooled {
            engine_p.process_batch(&lines_of(f));
        }
    });

    phase("pool", clock);

    let ops = flights.iter().map(Vec::len).sum::<usize>() as f64;
    let traced = Traced {
        classes: replay.cached_classes() as f64,
        acc: replay.acc,
        ops,
        traced_ns,
        untraced_ns,
        frame_ns: median(diffs),
        pool,
    };
    layer_metrics(&mut report, &traced);
    Ok(report)
}

/// The traced run of `lint_corpus`: a reference walk at the default pool
/// width, then one-thread walks alternating between untraced and replayed
/// phase by phase with tracing on (each must report the reference
/// diagnostics), then walks at pool width 2 with tracing on for the pool
/// figures.
pub fn lint_traced() -> Result<Report, String> {
    let config = RuleConfig::new();
    let mut report = Report::default();
    let reference = run_builtin_deep(&config);
    let check = |report: &mut Report, diags: &[Diagnostic]| {
        report.attempted += 1;
        if let Err(e) = check_walk(diags, &reference) {
            eprintln!("lph-e2ebench: {e}");
            report.failed += 1;
        }
    };
    check(&mut report, &reference);

    lph_runtime::set_threads(1);
    let mut acc = Acc::default();
    let (mut untraced_ns, mut traced_ns) = (0.0, 0.0);
    // Alternate untraced and traced walks so drift in machine speed falls
    // evenly on both.
    for i in 0..2 * TRACE_WALKS {
        let traced = i % 2 == 1;
        lph_trace::set_enabled(traced);
        let t = Instant::now();
        let diags = if traced {
            walk(&mut acc, &config)
        } else {
            run_builtin_deep(&config)
        };
        let ns = t.elapsed().as_nanos() as f64;
        if traced {
            traced_ns += ns;
        } else {
            untraced_ns += ns;
        }
        check(&mut report, &diags);
    }
    lph_trace::set_enabled(false);
    lph_trace::reset();

    let pool = pool_pass(TRACE_WALKS, || {
        for _ in 0..TRACE_WALKS {
            run_builtin_deep(&config);
        }
    });
    let traced = Traced {
        acc,
        ops: TRACE_WALKS as f64,
        traced_ns,
        untraced_ns,
        frame_ns: 0.0,
        classes: 0.0,
        pool,
    };
    layer_metrics(&mut report, &traced);
    Ok(report)
}
