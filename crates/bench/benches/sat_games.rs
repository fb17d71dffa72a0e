//! E15 — the CDCL certificate engine: game families at sizes the
//! exhaustive enumerator's move-space guard forbids outright (`n ≥ 50`,
//! move spaces of 7⁶⁰ and beyond), plus the named-CNF `SAT-GRAPH` solver
//! bridge on random 3-CNFs.

use lph_bench::with_ids;
use lph_bench::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use lph_core::{arbiters, decide_game_backend, GameBackend, GameLimits};
use lph_graphs::generators::{self, XorShift};
use lph_props::{cdcl_sat, Cnf, Lit};
use lph_sat::{check_refutation, SolveOutcome, Solver, SolverConfig};

fn bench_cdcl_games(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat_games");
    group.sample_size(10);

    // Σ₁ 3-coloring far past the exhaustive ceiling (7ⁿ first moves; the
    // enumerator's guard trips at n ≈ 7).
    for n in [60usize, 120] {
        group.bench_with_input(BenchmarkId::new("cdcl_three_col_cycle", n), &n, |b, &n| {
            let (g, id) = with_ids(generators::cycle(n));
            let arb = arbiters::three_colorable_verifier();
            let lim = GameLimits::default();
            b.iter(|| decide_game_backend(&arb, &g, &id, &lim, GameBackend::Cdcl).unwrap());
        });
    }

    // The UNSAT side: refuting 2-colorability of a large odd cycle means
    // proving unsatisfiability, not finding a witness.
    group.bench_function("cdcl_two_col_refute_c61", |b| {
        let (g, id) = with_ids(generators::cycle(61));
        let arb = arbiters::two_colorable_verifier();
        let lim = GameLimits::default();
        b.iter(|| decide_game_backend(&arb, &g, &id, &lim, GameBackend::Cdcl).unwrap());
    });

    // Π₁ at n = 50: the rejection-selector encoding over 3⁵⁰ universal
    // moves.
    group.bench_function("cdcl_pi1_all_selected_c50", |b| {
        let base = generators::cycle(50);
        let labels = vec![lph_graphs::BitString::from_bits01("1"); base.node_count()];
        let (g, id) = with_ids(base.with_labels(labels).expect("arity matches"));
        let arb = arbiters::all_selected_pi1();
        let lim = GameLimits::default();
        b.iter(|| decide_game_backend(&arb, &g, &id, &lim, GameBackend::Cdcl).unwrap());
    });

    group.finish();
}

/// A seeded random 3-CNF over `n` named variables at the hard ratio.
fn random_three_cnf(n: usize, seed: u64) -> Cnf {
    let mut rng = XorShift::new(seed);
    let clauses = (0..n * 43 / 10)
        .map(|_| {
            (0..3)
                .map(|_| Lit {
                    var: format!("x{:03}", rng.below(n)),
                    positive: rng.bool(),
                })
                .collect()
        })
        .collect();
    Cnf { clauses }
}

/// `n + 1` pigeons into `n` holes: a small classically-UNSAT family on
/// which CDCL must genuinely learn, so the proof log has real content.
fn pigeonhole(n: usize) -> lph_sat::Cnf {
    let mut cnf = lph_sat::Cnf::new();
    let var = |p: usize, h: usize| p * n + h;
    cnf.new_vars((n + 1) * n);
    for p in 0..=n {
        cnf.add_clause((0..n).map(|h| lph_sat::Lit::pos(var(p, h))));
    }
    for h in 0..n {
        for p1 in 0..=n {
            for p2 in (p1 + 1)..=n {
                cnf.add_clause([lph_sat::Lit::neg(var(p1, h)), lph_sat::Lit::neg(var(p2, h))]);
            }
        }
    }
    cnf
}

fn bench_sat_proof(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat_proof");
    group.sample_size(10);

    // The overhead question: the same refutation with logging off
    // (default config, the bench-gated configuration everywhere else)
    // and on.
    let cnf = pigeonhole(5);
    group.bench_function("refute_php5_nolog", |b| {
        b.iter(|| {
            let out = Solver::new(&cnf).solve();
            assert_eq!(out, SolveOutcome::Unsat);
        });
    });
    group.bench_function("refute_php5_logged", |b| {
        b.iter(|| {
            let mut s = Solver::with_config(
                &cnf,
                SolverConfig {
                    proof_log: true,
                    ..SolverConfig::default()
                },
            );
            assert_eq!(s.solve(), SolveOutcome::Unsat);
            black_box(s.take_proof().expect("logging on"));
        });
    });

    // The checker itself: re-deriving every logged clause by unit
    // propagation over the deliberately dumb counting propagator.
    let proof = {
        let mut s = Solver::with_config(
            &cnf,
            SolverConfig {
                proof_log: true,
                ..SolverConfig::default()
            },
        );
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        s.take_proof().expect("logging on")
    };
    group.bench_function("check_php5_proof", |b| {
        b.iter(|| check_refutation(&cnf, &proof).expect("solver proofs check"));
    });

    group.finish();
}

fn bench_sat_graph_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat_solvers");
    group.sample_size(10);

    // Named-CNF instances through the CDCL bridge `SAT-GRAPH` decides with.
    for n in [20usize, 40] {
        let cnf = random_three_cnf(n, 0xA5A5);
        group.bench_with_input(BenchmarkId::new("cdcl_3cnf", n), &cnf, |b, cnf| {
            b.iter(|| black_box(cdcl_sat(cnf)));
        });
    }

    group.finish();
}

criterion_group!(
    benches,
    bench_cdcl_games,
    bench_sat_graph_solvers,
    bench_sat_proof
);
criterion_main!(benches);
