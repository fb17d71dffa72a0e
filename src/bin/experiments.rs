//! The experiment runner: regenerates every series recorded in
//! `EXPERIMENTS.md` in one go.
//!
//! ```bash
//! cargo run --release --bin experiments [-- --threads N] [-- --trace-out PATH]
//! ```
//!
//! `--threads N` pins the `lph-runtime` worker-pool width for every
//! parallelized sweep (`--threads 1` forces fully sequential execution);
//! without it the pool follows `LPH_THREADS` or the machine's available
//! parallelism. Each section reports its wall-clock time so regenerated
//! `experiments_output.txt` files record the timing trajectory.
//!
//! `--trace-out PATH` enables the global `lph-trace` recorder for the whole
//! run and writes the aggregated trace — machine step/space histograms, the
//! Lemma 10 scaling series, gadget size series, and worker-pool counters —
//! to `PATH` as an `lph-trace/1` JSON document (validated by
//! `bench-gate --validate-trace` and the `trace-smoke` CI stage). With
//! tracing on, each section also reports how many trace events it emitted.
//!
//! `--sat-smoke` runs only the E16 CDCL-engine section (the `sat` CI
//! stage): a fast health check of the game backend and the solver's
//! conflict-budget/resume path on a fresh build.
//!
//! `--compile-smoke` runs only the E17 compilation-tier section (the
//! `compile` CI stage): the bytecode VM and the sentence plan compiler
//! replayed against their interpreters on live workloads, asserting
//! agreement end to end and printing the measured speedups — then a
//! `verify-compiled` pass re-certifying every artifact it ran through
//! the `VM001`–`VM004` / `PLN001`–`PLN003` translation validators.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use lph::core::lattice::{bounded_degree_chain, inclusion_edges, EdgeKind};
use lph::core::separations::{prop21_fooling_pair, verdicts_coincide_on_pair};
use lph::core::{
    arbiters, decide_game, decide_game_backend, Arbiter, GameBackend, GameLimits, GameSpec,
    RefutationEvidence,
};
use lph::fagin::compiler::sentence_game;
use lph::fagin::{machine_to_sat_graph, TableauBounds};
use lph::graphs::{generators, CertificateList, GraphStructure, IdAssignment, PolyBound};
use lph::logic::check::CheckOptions;
use lph::logic::{examples, CompiledSentence};
use lph::machine::{machines, run_tm, run_tm_compiled, CompiledTm, ExecLimits};
use lph::pictures::encode::{picture_to_graph, transport_sentence};
use lph::pictures::{langs, Picture};
use lph::props::{
    is_hamiltonian, is_k_colorable, AllSelected, GraphProperty, NotAllSelected, SatGraph,
    ThreeSatGraph,
};
use lph::reductions::{
    apply, cook_levin::lfo_to_sat_graph, eulerian::AllSelectedToEulerian,
    hamiltonian::AllSelectedToHamiltonian, hamiltonian::NotAllSelectedToHamiltonian,
    sat_to_three_sat::SatGraphToThreeSatGraph, three_col::ThreeSatGraphToThreeColorable,
};

/// Runs one experiment section, printing its wall-clock time (and, with
/// tracing enabled, the number of trace events it emitted) at the end.
fn section(id: &str, title: &str, body: impl FnOnce()) {
    println!("\n━━━ {id}: {title} ━━━");
    let before = lph::trace::events();
    let t = Instant::now();
    body();
    let elapsed = t.elapsed();
    if lph::trace::enabled() {
        println!(
            "  [{id}: {elapsed:.1?} wall clock; trace +{} events]",
            lph::trace::events() - before
        );
    } else {
        println!("  [{id}: {elapsed:.1?} wall clock]");
    }
}

fn parse_args() -> Result<(Option<PathBuf>, bool, bool), String> {
    let mut trace_out = None;
    let mut sat_smoke = false;
    let mut compile_smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let n = args
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse::<usize>()
                    .map_err(|e| format!("--threads: {e}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                lph::runtime::set_threads(n);
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(
                    args.next().ok_or("--trace-out needs a path")?,
                ));
            }
            "--sat-smoke" => sat_smoke = true,
            "--compile-smoke" => compile_smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((trace_out, sat_smoke, compile_smoke))
}

/// Times one closure with a few repetitions, returning the median
/// per-call duration (rough — the real series live in `lph-bench`).
fn quick_median(mut f: impl FnMut()) -> std::time::Duration {
    let mut samples: Vec<std::time::Duration> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed()
        })
        .collect();
    samples.sort();
    samples[2]
}

/// The E17 body, also run standalone by `--compile-smoke` (the `compile`
/// CI stage): the bytecode VM against the TM interpreter and the sentence
/// plan compiler against the tree-walking checker, on live workloads —
/// verdict agreement is asserted, speedups are printed for the record.
fn compiled_tier_series() {
    // Machines: every arbiter-corpus machine over a cycle, bit-for-bit.
    let limits = ExecLimits::default();
    for (name, tm) in [
        ("all_selected", machines::all_selected_decider()),
        ("coloring", machines::proper_coloring_verifier()),
        ("echo", machines::echo_machine()),
        ("even_degree", machines::even_degree_decider()),
    ] {
        let ct = CompiledTm::compile(&tm);
        let g = generators::cycle(24);
        let id = IdAssignment::global(&g);
        let interp = run_tm(&tm, &g, &id, &CertificateList::new(), &limits).unwrap();
        let vm = run_tm_compiled(&ct, &g, &id, &CertificateList::new(), &limits).unwrap();
        assert_eq!(interp.accepted, vm.accepted, "{name}: verdicts diverge");
        assert_eq!(
            interp.metrics.per_node, vm.metrics.per_node,
            "{name}: metrics diverge"
        );
        let ti = quick_median(|| {
            run_tm(&tm, &g, &id, &CertificateList::new(), &limits).unwrap();
        });
        let tc = quick_median(|| {
            run_tm_compiled(&ct, &g, &id, &CertificateList::new(), &limits).unwrap();
        });
        println!(
            "TM {name:12} on C24: accepted={} ({} program slots); \
             interpreted {ti:.1?}, VM {tc:.1?} ({:.2}x)",
            vm.accepted,
            ct.program_len(),
            ti.as_secs_f64() / tc.as_secs_f64().max(1e-9)
        );
    }
    // Sentences: plan sizes show what folding/hash-consing removed; the
    // verdict must match the interpreter on every probe.
    let opts = CheckOptions {
        max_matrix_evals: 50_000_000,
        max_tuples_per_var: 22,
    };
    for (name, phi, n) in [
        ("three_colorable", examples::three_colorable(), 5usize),
        ("two_colorable", examples::k_colorable(2), 6),
        ("not_all_selected", examples::not_all_selected(), 3),
    ] {
        let compiled = CompiledSentence::compile(&phi);
        let gs = GraphStructure::of(&generators::cycle(n));
        let interp = phi.check_on_graph(&gs, &opts).unwrap();
        let fast = compiled.check_on_graph(&gs, &opts).unwrap();
        assert_eq!(interp, fast, "{name}: backends disagree on C{n}");
        let ti = quick_median(|| {
            phi.check_on_graph(&gs, &opts).unwrap();
        });
        let tc = quick_median(|| {
            compiled.check_on_graph(&gs, &opts).unwrap();
        });
        println!(
            "Φ {name:16} on C{n}: {fast} ({:3} formula nodes → {:3} plan ops); \
             interpreted {ti:.1?}, compiled {tc:.1?} ({:.2}x)",
            phi.matrix.body().node_count(),
            compiled.plan_len(),
            ti.as_secs_f64() / tc.as_secs_f64().max(1e-9)
        );
    }
    // verify-compiled: the differential replays above sample agreement;
    // the translation validators certify it statically. Every artifact
    // this section just ran must come out clean, with a bytecode-derived
    // bound to show for it.
    for (name, tm) in [
        ("all_selected", machines::all_selected_decider()),
        ("coloring", machines::proper_coloring_verifier()),
        ("echo", machines::echo_machine()),
        ("even_degree", machines::even_degree_decider()),
    ] {
        let ct = CompiledTm::compile(&tm);
        let flow = lph::analysis::flow::machine::analyze(&tm);
        let diags = lph::analysis::verify_bytecode(&format!("dtm:{name}"), &tm, &ct, &flow);
        assert!(diags.is_empty(), "{name}: {diags:?}");
        let steps = lph::analysis::analyze_bytecode(&ct)
            .steps
            .expect("clean artifacts re-derive a bound");
        println!(
            "verify-compiled dtm:{name:12} VM001–VM004 clean; bytecode-certified steps ≤ {steps}"
        );
    }
    for (name, phi) in [
        ("three_colorable", examples::three_colorable()),
        ("two_colorable", examples::k_colorable(2)),
        ("not_all_selected", examples::not_all_selected()),
    ] {
        let cs = CompiledSentence::compile(&phi);
        let diags = lph::analysis::verify_plan(&format!("sentence:{name}"), &cs);
        assert!(diags.is_empty(), "{name}: {diags:?}");
        println!(
            "verify-compiled Φ {name:16} PLN001–PLN003 clean ({} plan ops)",
            cs.plan_len()
        );
    }
}

/// The E16 body, also run standalone by `--sat-smoke` (the `sat` CI
/// stage): the CDCL backend on game families past the exhaustive
/// enumerator's move-space guard, plus a bounded-conflict solve that
/// exercises the `Unknown` → resume path of the solver itself.
fn sat_engine_series() {
    let lim = GameLimits::default();
    // Σ₁ 3-coloring: exhaustive play dies at 7ⁿ first moves, the CDCL
    // backend compiles 343-row local tables instead.
    let arb = arbiters::three_colorable_verifier();
    for n in [6usize, 60, 120] {
        let g = generators::cycle(n);
        let id = IdAssignment::global(&g);
        let exh = match decide_game_backend(&arb, &g, &id, &lim, GameBackend::Exhaustive) {
            Ok(r) => format!("eve_wins={} in {} runs", r.eve_wins, r.runs),
            Err(e) => format!("infeasible ({e})"),
        };
        let r = decide_game_backend(&arb, &g, &id, &lim, GameBackend::Cdcl)
            .expect("CDCL within budget");
        println!(
            "3-COLORABLE on C{n}: exhaustive {exh}; CDCL eve_wins={} in {} arbiter runs",
            r.eve_wins, r.runs
        );
    }
    // The UNSAT side (a refutation, not a witness) and the Π₁ encoding.
    let g = generators::cycle(61);
    let id = IdAssignment::global(&g);
    let r = decide_game_backend(
        &arbiters::two_colorable_verifier(),
        &g,
        &id,
        &lim,
        GameBackend::Cdcl,
    )
    .expect("CDCL within budget");
    // The proof-check smoke: an UNSAT verdict must carry a refutation the
    // independent RUP checker accepted. `Unchecked` here fails CI.
    let Some(RefutationEvidence::Checked {
        proof_steps,
        rup_propagations,
    }) = r.refutation
    else {
        panic!("C61 refutation is not checker-accepted: {:?}", r.refutation);
    };
    println!(
        "2-COLORABLE on C61: CDCL refutes (eve_wins={}); \
         RUP check passed ({proof_steps} proof steps, {rup_propagations} propagations)",
        r.eve_wins
    );
    let base = generators::cycle(50);
    let labels = vec![lph::graphs::BitString::from_bits01("1"); base.node_count()];
    let g = base.with_labels(labels).expect("arity matches");
    let id = IdAssignment::global(&g);
    let r = decide_game_backend(
        &arbiters::all_selected_pi1(),
        &g,
        &id,
        &lim,
        GameBackend::Cdcl,
    )
    .expect("CDCL within budget");
    let checked = r
        .refutation
        .as_ref()
        .is_some_and(RefutationEvidence::is_checked);
    assert!(checked, "Π₁-yes verdict without a checked refutation");
    println!(
        "ALL-SELECTED (Π₁) on C50, all ones: CDCL eve_wins={} (refutation checked={checked})",
        r.eve_wins
    );
    // Solver-level smoke: pigeonhole PHP(7, 6) under a conflict budget —
    // first Unknown, then resumed to the full UNSAT proof.
    let (pigeons, holes) = (7usize, 6);
    let mut cnf = lph::sat::Cnf::new();
    cnf.new_vars(pigeons * holes);
    let lit = |p: usize, h: usize| lph::sat::Lit::pos(p * holes + h);
    for p in 0..pigeons {
        cnf.add_clause((0..holes).map(|h| lit(p, h)));
    }
    for h in 0..holes {
        for p in 0..pigeons {
            for q in p + 1..pigeons {
                cnf.add_clause([lit(p, h).negated(), lit(q, h).negated()]);
            }
        }
    }
    let mut solver = lph::sat::Solver::with_config(
        &cnf,
        lph::sat::SolverConfig {
            max_conflicts: Some(50),
            ..lph::sat::SolverConfig::default()
        },
    );
    let first = solver.solve();
    let budgeted = matches!(first, lph::sat::SolveOutcome::Unknown);
    let mut rounds = 1usize;
    let mut outcome = first;
    while matches!(outcome, lph::sat::SolveOutcome::Unknown) {
        outcome = solver.solve();
        rounds += 1;
    }
    assert!(matches!(outcome, lph::sat::SolveOutcome::Unsat));
    let stats = solver.stats();
    println!(
        "PHP({pigeons},{holes}): budget pause after 50 conflicts = {budgeted}; \
         UNSAT after {rounds} budget rounds, {} conflicts, {} learned clauses, \
         {} restarts",
        stats.conflicts, stats.learned_clauses, stats.restarts
    );
}

/// The E18 body: the `lph-serve` engine driven in-process — batch
/// throughput across the pool-width × iso-cache quadrant, per-request
/// latency percentiles, and a live certified-budget shed (the
/// `over_budget` structured error is an acceptance criterion, so the
/// section asserts its shape rather than merely printing it).
fn serve_series() {
    use lph::serve::{Engine, EngineConfig};
    let arbiters = [
        "all_selected_decider",
        "eulerian_decider",
        "two_colorable_verifier",
        "three_colorable_verifier",
    ];
    let batch: Vec<String> = (3usize..11)
        .flat_map(|n| arbiters.iter().map(move |a| (n, a)))
        .enumerate()
        .map(|(i, (n, arbiter))| {
            format!(
                "{{\"id\":\"q{i}\",\"kind\":\"membership\",\"arbiter\":\"{arbiter}\",\
                 \"graph\":{{\"family\":\"cycle\",\"n\":{n}}}}}"
            )
        })
        .collect();

    // Throughput quadrant: pool width 1 vs N, iso-cache off vs on. Each
    // cell keeps its engine across the median's repetitions, so cache-on
    // cells measure the steady state (every request an iso-class hit).
    let ambient = lph::runtime::threads();
    for cache in [false, true] {
        for (label, workers) in [("1 thread ", 1usize), ("N threads", ambient.max(2))] {
            lph::runtime::set_threads(workers);
            let engine = Engine::new(EngineConfig {
                cache,
                ..EngineConfig::default()
            });
            engine.process_batch(&batch); // warm-up (fills the cache when on)
            let t = quick_median(|| {
                assert_eq!(engine.process_batch(&batch).len(), batch.len());
            });
            println!(
                "batch of {:2} | cache {} | {label} ({workers} worker(s)): {t:9.1?} \
                 ({:6.0} req/s)",
                batch.len(),
                if cache { "on " } else { "off" },
                batch.len() as f64 / t.as_secs_f64().max(1e-9)
            );
        }
    }
    lph::runtime::set_threads(0);

    // Per-request latency: time each line individually (sequentially) on
    // a cold cache, then again on the now-warm cache.
    let engine = Engine::new(EngineConfig::default());
    for pass in ["cold", "warm"] {
        let mut lat: Vec<std::time::Duration> = batch
            .iter()
            .map(|line| {
                let t = Instant::now();
                let _ = engine.process_line(line);
                t.elapsed()
            })
            .collect();
        lat.sort();
        println!(
            "per-request latency ({pass} cache): p50 {:8.1?}  p99 {:8.1?}",
            lat[lat.len() / 2],
            lat[(lat.len() - 1).min(lat.len() * 99 / 100)]
        );
    }

    // Admission control, live: cycle(256) prices the eulerian decider's
    // certified bound (28n + 74 steps, × n·rounds) past the default 1M
    // budget, so the engine sheds it with a structured `over_budget`.
    let shed = engine.process_line(
        "{\"id\":\"shed1\",\"kind\":\"membership\",\"arbiter\":\"eulerian_decider\",\
         \"graph\":{\"family\":\"cycle\",\"n\":256}}",
    );
    let doc = lph::analysis::json::Json::parse(&shed).expect("response is JSON");
    lph::analysis::validate_serve_response(&doc).expect("response is schema-valid");
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("code"))
            .and_then(lph::analysis::json::Json::as_str),
        Some("over_budget"),
        "cycle(256) membership must be shed by admission control"
    );
    println!("admission shed (certified pricing, verbatim response):");
    println!("  {shed}");
}

/// The E19 body: the compiled execution tier behind the service, priced
/// by translation validation. A membership query pinning
/// `"exec":"compiled"` must agree with the interpreted tier and be
/// priced from the *bytecode*-certified bound. Both shapes are
/// acceptance criteria, so the section asserts them.
fn compiled_admission_series() {
    use lph::analysis::json::Json;
    use lph::serve::{Engine, EngineConfig};
    let engine = Engine::new(EngineConfig::default());
    let json = |line: &str| {
        let resp = engine.process_line(line);
        let doc = Json::parse(&resp).expect("response is JSON");
        lph::analysis::validate_serve_response(&doc).expect("response is schema-valid");
        (resp, doc)
    };

    // Both execution tiers answer identically; only the provenance of
    // the admission price differs.
    for exec in ["interpreted", "compiled"] {
        let (_, doc) = json(&format!(
            "{{\"id\":\"x-{exec}\",\"kind\":\"membership\",\"arbiter\":\"eulerian_decider\",\
             \"graph\":{{\"family\":\"cycle\",\"n\":8}},\"exec\":\"{exec}\"}}"
        ));
        let verdict = matches!(doc.get("eve_wins"), Some(Json::Bool(true)));
        assert!(
            matches!(doc.get("eve_wins"), Some(Json::Bool(_))),
            "admitted membership carries a verdict"
        );
        println!("eulerian_decider on C8, exec={exec:12}: eve_wins={verdict}");
        assert!(verdict, "C8 is Eulerian under both tiers");
    }

    // Compiled pricing, live: the same over-budget shed as E18 but pinned
    // to the compiled tier — the bound in the error is the one re-derived
    // from the bytecode that would have run.
    let (shed, doc) = json(
        "{\"id\":\"shed2\",\"kind\":\"membership\",\"arbiter\":\"eulerian_decider\",\
         \"graph\":{\"family\":\"cycle\",\"n\":256},\"exec\":\"compiled\"}",
    );
    let detail = doc
        .get("error")
        .and_then(|e| e.get("detail"))
        .and_then(Json::as_str)
        .expect("shed carries a detail");
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("over_budget")
    );
    assert!(
        detail.starts_with("bytecode-certified bound"),
        "compiled shed must be priced from the bytecode tier: {detail}"
    );
    println!("compiled admission shed (bytecode-certified pricing, verbatim response):");
    println!("  {shed}");
}

/// Serializes the aggregated trace to `path` as `lph-trace/1` JSON.
fn write_trace(path: &std::path::Path) -> Result<(), String> {
    let snap = lph::trace::snapshot();
    let doc = lph::analysis::trace_to_json(&snap);
    let stats = lph::analysis::validate_trace(&doc).map_err(|e| format!("internal: {e}"))?;
    let mut text = doc.emit();
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "trace: {} span(s), {} counter(s), {} series, {} histogram(s), {} events → {}",
        stats.spans,
        stats.counters,
        stats.series,
        stats.hists,
        lph::trace::events(),
        path.display()
    );
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let (trace_out, sat_smoke, compile_smoke) = match parse_args() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "USAGE: experiments [--threads N] [--trace-out PATH] [--sat-smoke] [--compile-smoke]"
            );
            return ExitCode::from(2);
        }
    };
    if trace_out.is_some() {
        lph::trace::set_enabled(true);
    }
    if sat_smoke {
        // The `sat` CI stage: just the CDCL engine series, fast.
        section("E16", "CDCL certificate engine (smoke)", sat_engine_series);
        return ExitCode::SUCCESS;
    }
    if compile_smoke {
        // The `compile` CI stage: bytecode VM + sentence plans, fast.
        section(
            "E17",
            "Compilation tier — bytecode VM and sentence plans (smoke)",
            compiled_tier_series,
        );
        return ExitCode::SUCCESS;
    }
    let total = Instant::now();
    println!("A LOCAL View of the Polynomial Hierarchy — experiment suite");
    println!("(paper: Reiter, PODC 2024; see EXPERIMENTS.md for the index)");
    println!("worker pool: {} thread(s)", lph::runtime::threads());

    // ------------------------------------------------------------------
    section(
        "E1",
        "Figure 1/11 — hierarchy lattice and thick chain",
        || {
            let edges = inclusion_edges(3);
            let strict = edges
                .iter()
                .filter(|e| e.kind == EdgeKind::ProvedStrict)
                .count();
            println!(
                "levels 0..3: {} inclusion edges, {} proved strict, {} dashed",
                edges.len(),
                strict,
                edges.len() - strict
            );
            let chain: Vec<String> = bounded_degree_chain(6)
                .iter()
                .map(ToString::to_string)
                .collect();
            println!("GRAPH(Δ) chain: {}", chain.join(" ⊊ "));
        },
    );

    // ------------------------------------------------------------------
    section(
        "E2",
        "Proposition 21 — LP ⊊ NLP via the fooling pair",
        || {
            // Independent sizes: one fooling-pair check per worker.
            let sizes = [7usize, 11, 15];
            for line in lph::runtime::par_map(&sizes, |&n| {
                let pair = prop21_fooling_pair(n, 1);
                let machine = Arbiter::from_tm(
                    "proper-coloring",
                    GameSpec::sigma(0, 1, 1, PolyBound::constant(0)),
                    machines::proper_coloring_verifier(),
                );
                let fooled =
                    verdicts_coincide_on_pair(&machine, &pair, &ExecLimits::default()).unwrap();
                format!(
                    "C_{n:<2} vs C_{:<2}: verdicts coincide = {fooled:5}; 2-colorable = {} vs {}",
                    2 * n,
                    is_k_colorable(&pair.0, 2),
                    is_k_colorable(&pair.2, 2)
                )
            }) {
                println!("{line}");
            }
        },
    );

    // ------------------------------------------------------------------
    section(
        "E3",
        "Proposition 23 — NOT-ALL-SELECTED ∉ NLP, two horns",
        || {
            let mut labels = vec!["1"; 6];
            labels[0] = "0";
            let g = generators::labeled_cycle(&labels);
            let id = IdAssignment::global(&g);
            for bits in [1usize, 2] {
                let arb = arbiters::distance_to_unselected_verifier(bits);
                let lim = GameLimits {
                    cert_len_cap: Some(bits),
                    ..GameLimits::default()
                };
                println!(
                    "distance verifier, {bits}-bit budget on C6 (yes-instance): Eve wins = {}",
                    decide_game(&arb, &g, &id, &lim).unwrap().eve_wins
                );
            }
            let pointer = arbiters::pointer_to_unselected_verifier();
            let c4 = generators::cycle(4);
            let idc4 = IdAssignment::global(&c4);
            let lim2 = GameLimits {
                cert_len_cap: Some(2),
                ..GameLimits::default()
            };
            println!(
                "pointer verifier on all-selected C4 (no-instance): Eve wins = {} (false accept)",
                decide_game(&pointer, &c4, &idc4, &lim2).unwrap().eve_wins
            );
        },
    );

    // ------------------------------------------------------------------
    section(
        "E4/E5/E6",
        "Figures 7, 2, 9 — the Hamiltonicity/Eulerianness gadgets",
        || {
            // (Hamiltonicity ground truth is exponential; n = 6 already yields
            // a 84-node Figure 9 instance.) One gadget triple per worker.
            let sizes = [3usize, 5, 6];
            for line in lph::runtime::par_map(&sizes, |&n| {
                let mut ls = vec!["1"; n];
                ls[0] = "0";
                let g = generators::labeled_cycle(&ls);
                let id = IdAssignment::global(&g);
                let (ge, _) = apply(&AllSelectedToEulerian, &g, &id).unwrap();
                let (gh, _) = apply(&AllSelectedToHamiltonian, &g, &id).unwrap();
                let (gn, _) = apply(&NotAllSelectedToHamiltonian, &g, &id).unwrap();
                format!(
                    "n = {n}: Fig7 {:3} nodes (equiv {}), Fig2 {:3} nodes (equiv {}), Fig9 {:3} nodes (equiv {})",
                    ge.node_count(),
                    AllSelected.holds(&g) == lph::props::Eulerian.holds(&ge),
                    gh.node_count(),
                    AllSelected.holds(&g) == is_hamiltonian(&gh),
                    gn.node_count(),
                    NotAllSelected.holds(&g) == is_hamiltonian(&gn),
                )
            }) {
                println!("{line}");
            }
        },
    );

    // ------------------------------------------------------------------
    section(
        "E7",
        "Theorem 19 — Σ₁^LFO → SAT-GRAPH, locality of formula sizes",
        || {
            let sentence = examples::three_colorable();
            let sizes = [4usize, 8, 16];
            for line in lph::runtime::par_map(&sizes, |&n| {
                let g = generators::cycle(n);
                let id = IdAssignment::global(&g);
                let (sg, _) = lfo_to_sat_graph(&sentence, &g, &id).unwrap();
                let max = lph::reductions::cook_levin::formula_sizes(&sg)
                    .into_iter()
                    .max()
                    .unwrap();
                format!(
                    "cycle n = {n:2}: SAT-GRAPH formulas ≤ {max:6} bytes; satisfiable = {}",
                    SatGraph.holds(&sg)
                )
            }) {
                println!("{line}");
            }
        },
    );

    // ------------------------------------------------------------------
    section(
        "E8",
        "Theorem 20 / Figure 10 — SAT-GRAPH → 3-SAT → 3-COLORABLE",
        || {
            let bg = lph::props::BooleanGraph::new(
                generators::path(2),
                vec![
                    lph::props::BoolExpr::parse("|(vp,vq)").unwrap(),
                    lph::props::BoolExpr::parse("&(vq,!vp)").unwrap(),
                ],
            )
            .unwrap();
            let g = bg.graph().clone();
            let id = IdAssignment::global(&g);
            let (g3, _) = apply(&SatGraphToThreeSatGraph, &g, &id).unwrap();
            let id3 = IdAssignment::global(&g3);
            let (gc, _) = apply(&ThreeSatGraphToThreeColorable, &g3, &id3).unwrap();
            println!(
                "SAT {} → 3-SAT {} → 3-colorable {} ({} gadget nodes)",
                SatGraph.holds(&g),
                ThreeSatGraph.holds(&g3),
                is_k_colorable(&gc, 3),
                gc.node_count()
            );
        },
    );

    let opts = CheckOptions {
        max_matrix_evals: 50_000_000,
        max_tuples_per_var: 22,
    };

    // ------------------------------------------------------------------
    section("E9", "Theorem 12 — formula ⟷ game agreement", || {
        let limits = GameLimits {
            max_runs: 50_000_000,
            exec: ExecLimits {
                max_rounds: 64,
                max_steps_per_round: 50_000_000,
            },
            ..GameLimits::default()
        };
        let nas = examples::not_all_selected();
        for labels in [["1", "0"], ["1", "1"]] {
            let g = generators::labeled_path(&labels);
            let logic = nas.check_on_graph(&GraphStructure::of(&g), &opts).unwrap();
            let game = sentence_game(&nas, &g, &IdAssignment::global(&g), &limits).unwrap();
            println!("Σ3 NOT-ALL-SELECTED on {labels:?}: model checking = {logic}, game = {game}");
        }
    });

    // ------------------------------------------------------------------
    section(
        "E9b",
        "Theorem 19 forward — machine tableau → SAT-GRAPH",
        || {
            let tm = machines::all_selected_decider();
            for labels in [["1", "1"], ["1", "0"]] {
                let g = generators::labeled_path(&labels);
                let id = IdAssignment::global(&g);
                let tb = machine_to_sat_graph(
                    &tm,
                    &g,
                    &id,
                    TableauBounds {
                        steps: 14,
                        space: 10,
                        cert_bits: 0,
                    },
                )
                .unwrap();
                println!(
                    "tableau for labels {labels:?}: SAT = {}",
                    SatGraph.holds(&tb)
                );
            }
        },
    );

    // ------------------------------------------------------------------
    section(
        "E10",
        "Lemma 10 — step/space vs neighborhood measure",
        || {
            let verifier = machines::proper_coloring_verifier();
            for d in [2usize, 8, 32] {
                let g = generators::star(d + 1);
                let id = IdAssignment::global(&g);
                let out = run_tm(
                    &verifier,
                    &g,
                    &id,
                    &CertificateList::new(),
                    &ExecLimits::default(),
                )
                .unwrap();
                let gs = GraphStructure::of(&g);
                let card = gs.neighborhood_card(&g, lph::graphs::NodeId(0), 8);
                out.metrics.trace_series("lemma10", 0, card as u64);
                let (steps, space) = out.metrics.node_maxima()[0];
                println!(
                    "star degree {d:2}: card(N) = {card:3}, steps = {steps:5}, space = {space:3}"
                );
            }
        },
    );

    // ------------------------------------------------------------------
    section(
        "E12/E14",
        "Theorems 29 & 27 — tiling systems vs EMSO on pictures",
        || {
            let ts = langs::squares_tiling_system();
            let emso = langs::squares_emso();
            let mut agree = 0;
            let mut total_sizes = 0;
            for m in 1..=3 {
                for n in 1..=3 {
                    let p = Picture::blank(m, n, 0);
                    let r = ts.recognizes(&p);
                    let d = emso.check(p.structure().structure(), None, &opts).unwrap();
                    total_sizes += 1;
                    agree += usize::from(r == d && r == (m == n));
                }
            }
            println!("SQUARES: tiling ⟷ EMSO ⟷ ground truth agree on {agree}/{total_sizes} sizes");
            let ct = langs::counter_tiling_system();
            for m in 1..=3usize {
                let widths: Vec<usize> = (1..=10)
                    .filter(|&n| ct.recognizes(&Picture::blank(m, n, 0)))
                    .collect();
                println!("counter TS, height {m}: accepted widths {widths:?} (= 2^{m})");
            }
        },
    );

    // ------------------------------------------------------------------
    section(
        "E13",
        "Section 9.2.2 — picture → graph transport",
        || {
            let emso = langs::squares_emso();
            let transported =
                transport_sentence(&emso, 0).expect("squares sentence has an LFO matrix");
            for (m, n) in [(2, 2), (2, 3), (3, 3)] {
                let p = Picture::blank(m, n, 0);
                let g = picture_to_graph(&p);
                let truth = transported
                    .check_on_graph(&GraphStructure::of(&g), &opts)
                    .unwrap();
                println!("({m}, {n}) → grid: transported SQUARES sentence = {truth}");
            }
        },
    );

    // ------------------------------------------------------------------
    section(
        "E16",
        "CDCL certificate engine — games past the exhaustive ceiling",
        sat_engine_series,
    );

    // ------------------------------------------------------------------
    section(
        "E17",
        "Compilation tier — bytecode VM and sentence plans",
        compiled_tier_series,
    );

    // ------------------------------------------------------------------
    section(
        "E18",
        "lph-serve — batched query service and admission control",
        serve_series,
    );

    // ------------------------------------------------------------------
    section(
        "E19",
        "Compiled admission — bytecode-certified pricing",
        compiled_admission_series,
    );

    println!(
        "\nAll experiment series regenerated in {:.1?}. ∎",
        total.elapsed()
    );
    if let Some(path) = trace_out {
        if let Err(e) = write_trace(&path) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
