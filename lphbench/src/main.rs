//! `lph-e2ebench` — one command for the end-to-end benchmark.
//!
//! ```text
//! USAGE: lph-e2ebench --workload serve_hot|serve_cold|lint_corpus
//!                     --seed N --seconds S --trace 0|1 --server PATH
//! ```
//!
//! With `--trace 0` it measures the workload end to end with tracing off
//! and prints `setup_s`, `ops_per_s`, `latency_p50_ms`, `latency_p90_ms`,
//! `ok_share` and `peak_rss_mb`; with `--trace 1` it runs the traced
//! in-process replay and prints the per-layer metrics. Either way the
//! last line of stdout is one JSON object
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`, and the exit
//! code is 0 only when every answer was right. `--server` names the
//! release `lph-serve` binary the serve workloads spawn.

use std::path::PathBuf;
use std::process::ExitCode;

use lph_e2ebench::run::{lint_e2e, lint_traced, serve_e2e, serve_traced, Report, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut server) =
        (None, None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--server" => server = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        server: server.ok_or("--server is required")?,
    })
}

fn result_line(correct: bool, report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lph-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.workload, args.trace) {
        (Workload::LintCorpus, false) => lint_e2e(args.seconds),
        (Workload::LintCorpus, true) => lint_traced(),
        (w, false) => serve_e2e(&args.server, w, args.seed, args.seconds),
        (w, true) => serve_traced(&args.server, w, args.seed),
    };
    let report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lph-e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = report.failed == 0 && report.attempted > 0;
    eprintln!(
        "lph-e2ebench: {:?} seed {} trace {}: {} attempted, {} failed, {} latency samples",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed,
        report.samples
    );
    for m in &report.metrics {
        eprintln!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(correct, &report));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
