//! Differential suite pinning the CDCL engine against ground truth:
//!
//! * solver vs. brute force over seeded random CNF families (the solver
//!   must agree on satisfiability *and* return genuine models);
//! * `GameBackend::Cdcl` vs. `GameBackend::Exhaustive` over `Σ₁` and `Π₁`
//!   certificate games on small structured and random graphs, where the
//!   exhaustive enumerator is still feasible and serves as the oracle.
//!
//! The `sat` CI stage runs exactly this file, so every clause of the
//! backend-equivalence claim in DESIGN.md is re-checked on each push.

use lph_core::{arbiters, decide_game_backend, GameBackend, GameLimits};
use lph_graphs::{generators, generators::XorShift, BitString, IdAssignment};
use lph_sat::{
    check_refutation, CheckError, Cnf, Lit, ProofLog, ProofStep, SolveOutcome, Solver, SolverConfig,
};

/// Exhaustively checks satisfiability of a small CNF.
fn brute_force_sat(cnf: &Cnf) -> bool {
    let n = cnf.num_vars();
    assert!(n <= 16, "brute force is the small-n oracle only");
    (0u32..1 << n).any(|mask| {
        let model: Vec<bool> = (0..n).map(|v| mask >> v & 1 == 1).collect();
        cnf.eval(&model)
    })
}

/// A random CNF with `nvars` variables and clauses of width 1–4.
fn random_cnf(rng: &mut XorShift, nvars: usize, nclauses: usize) -> Cnf {
    let mut cnf = Cnf::new();
    cnf.new_vars(nvars);
    for _ in 0..nclauses {
        let width = 1 + rng.below(4);
        let clause: Vec<Lit> = (0..width)
            .map(|_| Lit::with_sign(rng.below(nvars), rng.bool()))
            .collect();
        cnf.add_clause(clause);
    }
    cnf
}

#[test]
fn solver_matches_brute_force_on_random_families() {
    // Several seeded families spanning the under- and over-constrained
    // regimes; every SAT answer must come with a model that evaluates.
    for seed in [1u64, 7, 42, 1234, 0xdead_beef] {
        let mut rng = XorShift::new(seed);
        for round in 0..60 {
            let nvars = 3 + rng.below(6);
            let nclauses = rng.below(5 * nvars);
            let cnf = random_cnf(&mut rng, nvars, nclauses);
            let expected = brute_force_sat(&cnf);
            match Solver::new(&cnf).solve() {
                SolveOutcome::Sat(model) => {
                    assert!(expected, "seed {seed} round {round}: false SAT");
                    assert!(
                        cnf.eval(&model),
                        "seed {seed} round {round}: model violates a clause"
                    );
                }
                SolveOutcome::Unsat => {
                    assert!(!expected, "seed {seed} round {round}: false UNSAT");
                }
                SolveOutcome::Unknown => panic!("no conflict budget configured"),
            }
        }
    }
}

#[test]
fn solver_matches_brute_force_at_the_phase_transition() {
    // 3-CNFs near clause ratio 4.3, where random instances are hardest
    // and conflict analysis actually fires.
    let mut rng = XorShift::new(2026);
    for round in 0..40 {
        let nvars = 8 + rng.below(5);
        let nclauses = nvars * 43 / 10;
        let mut cnf = Cnf::new();
        cnf.new_vars(nvars);
        for _ in 0..nclauses {
            let clause: Vec<Lit> = (0..3)
                .map(|_| Lit::with_sign(rng.below(nvars), rng.bool()))
                .collect();
            cnf.add_clause(clause);
        }
        assert_eq!(
            matches!(Solver::new(&cnf).solve(), SolveOutcome::Sat(_)),
            brute_force_sat(&cnf),
            "round {round}"
        );
    }
}

#[test]
fn resumed_budgeted_solves_match_unbudgeted_verdicts() {
    // The resumable conflict-budget path: a solver interrupted by
    // `Unknown` and resumed (keeping learned clauses, phases, and the
    // proof log) must reach the same verdict as an unbudgeted run — and
    // refutations spliced across resumes must still check.
    for seed in [3u64, 11, 2025] {
        let mut rng = XorShift::new(seed);
        for round in 0..20 {
            let nvars = 4 + rng.below(5);
            let nclauses = rng.below(5 * nvars);
            let cnf = random_cnf(&mut rng, nvars, nclauses);
            let expected = matches!(Solver::new(&cnf).solve(), SolveOutcome::Sat(_));
            let mut s = Solver::with_config(
                &cnf,
                SolverConfig {
                    max_conflicts: Some(1),
                    proof_log: true,
                },
            );
            let mut resumes = 0;
            let verdict = loop {
                match s.solve() {
                    SolveOutcome::Sat(model) => {
                        assert!(
                            cnf.eval(&model),
                            "seed {seed} round {round}: resumed model violates {cnf:?}"
                        );
                        break true;
                    }
                    SolveOutcome::Unsat => break false,
                    SolveOutcome::Unknown => {
                        resumes += 1;
                        assert!(
                            resumes < 100_000,
                            "seed {seed} round {round}: resume loop diverges on {cnf:?}"
                        );
                    }
                }
            };
            assert_eq!(
                verdict, expected,
                "seed {seed} round {round}: resumed verdict diverges on {cnf:?}"
            );
            if !verdict {
                check_refutation(&cnf, s.proof().expect("logging on")).unwrap_or_else(|e| {
                    panic!("seed {seed} round {round}: resumed proof rejected ({e}) on {cnf:?}")
                });
            }
        }
    }
}

#[test]
fn every_seeded_unsat_instance_yields_a_checkable_proof() {
    // End-to-end over the same seeded families as the brute-force test:
    // whenever the solver answers Unsat, the logged refutation must pass
    // the independent checker — and mutated variants must not.
    let mut unsat_seen = 0u32;
    for seed in [1u64, 7, 42, 1234, 0xdead_beef] {
        let mut rng = XorShift::new(seed);
        for round in 0..60 {
            let nvars = 3 + rng.below(6);
            let nclauses = rng.below(5 * nvars);
            let cnf = random_cnf(&mut rng, nvars, nclauses);
            let mut s = Solver::with_config(
                &cnf,
                SolverConfig {
                    proof_log: true,
                    ..SolverConfig::default()
                },
            );
            if !matches!(s.solve(), SolveOutcome::Unsat) {
                continue;
            }
            unsat_seen += 1;
            let proof = s.take_proof().expect("logging on");
            assert!(proof.ends_with_empty_clause());
            check_refutation(&cnf, &proof).unwrap_or_else(|e| {
                panic!("seed {seed} round {round}: checker rejected ({e}) on {cnf:?}")
            });

            // Mutation 1: drop the final empty clause — the remaining
            // trace proves nothing.
            let mut steps = proof.steps().to_vec();
            steps.pop();
            assert_eq!(
                check_refutation(&cnf, &ProofLog::from_steps(steps)),
                Err(CheckError::NoRefutation),
                "seed {seed} round {round}: truncated proof accepted on {cnf:?}"
            );

            // Mutation 2: splice in a deletion of a clause the database
            // cannot contain (5 canonical literals; the family's clauses
            // have at most 4).
            let mut steps = proof.steps().to_vec();
            steps.insert(
                0,
                ProofStep::Delete(vec![
                    Lit::pos(0),
                    Lit::neg(0),
                    Lit::pos(1),
                    Lit::neg(1),
                    Lit::pos(2),
                ]),
            );
            assert_eq!(
                check_refutation(&cnf, &ProofLog::from_steps(steps)),
                Err(CheckError::DeleteUnknownClause { step: 0 }),
                "seed {seed} round {round}: corrupted proof accepted on {cnf:?}"
            );

            // Mutation 3 (soundness): the same proof against a trivially
            // satisfiable formula over the same variables must be
            // rejected — RUP cannot refute a satisfiable CNF.
            let mut trivial = Cnf::new();
            trivial.new_vars(cnf.num_vars());
            assert!(
                check_refutation(&trivial, &proof).is_err(),
                "seed {seed} round {round}: proof of {cnf:?} accepted for an empty formula"
            );
        }
    }
    assert!(
        unsat_seen >= 50,
        "only {unsat_seen} UNSAT instances; the families no longer cover the over-constrained \
         regime"
    );
}

/// Structured + seeded-random small graphs where exhaustive search is
/// still comfortable.
fn oracle_graphs() -> Vec<lph_graphs::LabeledGraph> {
    let mut gs = vec![
        generators::path(4),
        generators::cycle(3),
        generators::cycle(4),
        generators::cycle(5),
        generators::cycle(6),
        generators::star(4),
        generators::complete(3),
        generators::complete(4),
    ];
    for seed in 1..=4 {
        gs.push(generators::random_connected(5, 2, seed));
    }
    gs
}

#[test]
fn backends_agree_on_sigma1_games() {
    for arb in [
        arbiters::three_colorable_verifier(),
        arbiters::two_colorable_verifier(),
    ] {
        for g in oracle_graphs() {
            let id = IdAssignment::global(&g);
            let limits = GameLimits::default();
            let ex = decide_game_backend(&arb, &g, &id, &limits, GameBackend::Exhaustive)
                .expect("oracle within budget");
            let sat = decide_game_backend(&arb, &g, &id, &limits, GameBackend::Cdcl)
                .expect("CDCL within budget");
            assert_eq!(ex.eve_wins, sat.eve_wins, "{} disagrees on {g}", arb.name());
            // A winning claim must come with a witness from both backends.
            assert_eq!(ex.winning_first_move.is_some(), ex.eve_wins);
            assert_eq!(sat.winning_first_move.is_some(), sat.eve_wins);
            // Σ₁-no verdicts rest on UNSAT and must carry a checked
            // refutation; witness verdicts carry none.
            if sat.eve_wins {
                assert!(sat.refutation.is_none());
            } else {
                let ev = sat.refutation.as_ref().expect("UNSAT verdict evidence");
                assert!(
                    ev.is_checked(),
                    "{}: unchecked refutation on {g}",
                    arb.name()
                );
            }
        }
    }
}

#[test]
fn backends_agree_on_pi1_games() {
    // Π₁: Adam moves, the CDCL side exercises the rejection-selector
    // encoding. Ground truth for the arbiter is ALL-SELECTED itself.
    let arb = arbiters::all_selected_pi1();
    let mut rng = XorShift::new(99);
    let mut cases = Vec::new();
    for seed in 1..=4 {
        let base = generators::random_connected(4 + seed as usize % 2, 1, seed);
        let n = base.node_count();
        // One random labeling and the all-selected labeling of each base.
        let random: Vec<BitString> = (0..n)
            .map(|_| BitString::from_bits01(if rng.bool() { "1" } else { "0" }))
            .collect();
        let ones = vec![BitString::from_bits01("1"); n];
        cases.push(base.with_labels(random).expect("arity matches"));
        cases.push(base.with_labels(ones).expect("arity matches"));
    }
    for g in cases {
        let id = IdAssignment::global(&g);
        let limits = GameLimits::default();
        let ex = decide_game_backend(&arb, &g, &id, &limits, GameBackend::Exhaustive)
            .expect("oracle within budget");
        let sat = decide_game_backend(&arb, &g, &id, &limits, GameBackend::Cdcl)
            .expect("CDCL within budget");
        let all_selected = g.labels().iter().all(|l| *l == BitString::from_bits01("1"));
        assert_eq!(
            ex.eve_wins, all_selected,
            "exhaustive vs ground truth on {g}"
        );
        assert_eq!(sat.eve_wins, all_selected, "CDCL vs ground truth on {g}");
        // Π₁-yes verdicts rest on UNSAT of the rejection encoding and
        // must carry a checked refutation.
        if sat.eve_wins {
            let ev = sat.refutation.as_ref().expect("Π₁-yes evidence");
            assert!(ev.is_checked(), "unchecked Π₁ refutation on {g}");
        } else {
            assert!(sat.refutation.is_none());
        }
    }
}

#[test]
fn auto_backend_matches_both_on_the_oracle_set() {
    // Auto must route Σ₁ games to the CDCL path and produce identical
    // verdicts to the exhaustive oracle.
    let arb = arbiters::three_colorable_verifier();
    for g in oracle_graphs() {
        let id = IdAssignment::global(&g);
        let limits = GameLimits::default();
        let ex = decide_game_backend(&arb, &g, &id, &limits, GameBackend::Exhaustive)
            .expect("oracle within budget");
        let auto = decide_game_backend(&arb, &g, &id, &limits, GameBackend::Auto)
            .expect("auto within budget");
        assert_eq!(ex.eve_wins, auto.eve_wins, "auto disagrees on {g}");
    }
}
