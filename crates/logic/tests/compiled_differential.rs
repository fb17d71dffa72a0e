//! Differential suite pinning the plan compiler to the interpreter: over
//! the crate's example sentences and a seeded family of random sentences,
//! `CompiledSentence::check*` must return exactly what `Sentence::check*`
//! returns — the same verdict or the same `CheckError` (budget exhaustion
//! at the identical matrix-evaluation count, tuple limits with identical
//! reported sizes).

use lph_graphs::generators::{self, XorShift};
use lph_graphs::GraphStructure;
use lph_logic::check::{CheckError, CheckOptions};
use lph_logic::dsl::*;
use lph_logic::{
    examples, CompiledSentence, FoVar, Formula, Matrix, Quantifier, Sentence, SoBlock, SoQuant,
    SoVar,
};

fn probe_family() -> Vec<GraphStructure> {
    [
        generators::labeled_cycle(&["1", "1", "1"]),
        generators::labeled_path(&["1", "0"]),
        generators::labeled_cycle(&["1", "0", "1", "1"]),
        generators::star(3),
        generators::labeled_path(&["0", "1", "1"]),
    ]
    .iter()
    .map(GraphStructure::of)
    .collect()
}

fn assert_equivalent(phi: &Sentence, compiled: &CompiledSentence, opts: &CheckOptions) {
    for gs in &probe_family() {
        let interp = phi.check_on_graph(gs, opts);
        let fast = compiled.check_on_graph(gs, opts);
        assert_eq!(interp, fast, "backends disagree on {phi} (opts {opts:?})");
    }
}

#[test]
fn example_sentences_agree() {
    for phi in [
        examples::all_selected(),
        examples::three_colorable(),
        examples::k_colorable(2),
        examples::not_all_selected(),
    ] {
        let compiled = CompiledSentence::compile(&phi);
        assert_equivalent(&phi, &compiled, &CheckOptions::default());
    }
}

#[test]
fn example_sentences_agree_under_tight_budgets() {
    // Budget parity is the sharpest equivalence signal: both engines must
    // count the same number of matrix evaluations in the same order, so a
    // budget of k errors out (or not) identically.
    for phi in [
        examples::all_selected(),
        examples::three_colorable(),
        examples::not_all_selected(),
    ] {
        let compiled = CompiledSentence::compile(&phi);
        for budget in [1, 2, 7, 50, 1000] {
            let opts = CheckOptions {
                max_matrix_evals: budget,
                max_tuples_per_var: 22,
            };
            assert_equivalent(&phi, &compiled, &opts);
        }
    }
}

#[test]
fn tuple_limit_errors_agree() {
    for phi in [examples::three_colorable(), examples::not_all_selected()] {
        let compiled = CompiledSentence::compile(&phi);
        let opts = CheckOptions {
            max_matrix_evals: 5_000_000,
            max_tuples_per_var: 2,
        };
        let mut tripped = 0usize;
        for gs in &probe_family() {
            let interp = phi.check_on_graph(gs, &opts);
            let fast = compiled.check_on_graph(gs, &opts);
            assert_eq!(interp, fast);
            if matches!(interp, Err(CheckError::TooManyTuples { .. })) {
                tripped += 1;
            }
        }
        // 2-node probes fit a universe of 2 tuples; the larger ones must
        // actually exercise the error path.
        assert!(tripped >= 3, "only {tripped} probes hit the tuple limit");
    }
}

struct SentenceGen {
    rng: XorShift,
    next_fo: u32,
}

impl SentenceGen {
    /// A random BF formula whose free first-order variables are drawn from
    /// `scope` and whose second-order atoms use `so_vars` (all unary).
    fn formula(&mut self, scope: &mut Vec<FoVar>, so_vars: &[SoVar], depth: usize) -> Formula {
        let pick = |rng: &mut XorShift, s: &[FoVar]| s[rng.below(s.len())];
        if depth == 0 {
            return match self.rng.below(6) {
                0 => Formula::True,
                1 => Formula::False,
                2 => unary(0, pick(&mut self.rng, scope)),
                3 => eq(pick(&mut self.rng, scope), pick(&mut self.rng, scope)),
                4 if !so_vars.is_empty() => {
                    let r = so_vars[self.rng.below(so_vars.len())];
                    app(r, vec![pick(&mut self.rng, scope)])
                }
                _ => edge(0, pick(&mut self.rng, scope), pick(&mut self.rng, scope)),
            };
        }
        match self.rng.below(9) {
            0 => not(self.formula(scope, so_vars, depth - 1)),
            1 => and(vec![
                self.formula(scope, so_vars, depth - 1),
                self.formula(scope, so_vars, depth - 1),
            ]),
            2 => or(vec![
                self.formula(scope, so_vars, depth - 1),
                self.formula(scope, so_vars, depth - 1),
            ]),
            3 => implies(
                self.formula(scope, so_vars, depth - 1),
                self.formula(scope, so_vars, depth - 1),
            ),
            4 => iff(
                self.formula(scope, so_vars, depth - 1),
                self.formula(scope, so_vars, depth - 1),
            ),
            k => {
                let anchor = pick(&mut self.rng, scope);
                let x = FoVar(self.next_fo);
                self.next_fo += 1;
                scope.push(x);
                let body = self.formula(scope, so_vars, depth - 1);
                scope.pop();
                match k {
                    5 => exists_adj(x, anchor, body),
                    6 => forall_adj(x, anchor, body),
                    7 => exists_near(x, anchor, self.rng.below(3), body),
                    _ => forall_near(x, anchor, self.rng.below(3), body),
                }
            }
        }
    }

    fn sentence(&mut self) -> Sentence {
        self.next_fo = 1;
        let so_count = self.rng.below(3);
        let so_vars: Vec<SoVar> = (0..so_count as u32).map(SoVar::set).collect();
        let blocks: Vec<SoBlock> = so_vars
            .iter()
            .map(|&v| SoBlock {
                quantifier: if self.rng.bool() {
                    Quantifier::Exists
                } else {
                    Quantifier::Forall
                },
                vars: vec![if self.rng.bool() {
                    SoQuant::nodes(v)
                } else {
                    SoQuant::all(v)
                }],
            })
            .collect();
        let x = FoVar(0);
        let mut scope = vec![x];
        let depth = 1 + self.rng.below(3);
        let body = self.formula(&mut scope, &so_vars, depth);
        Sentence::new(blocks, Matrix::Lfo { x, body })
    }
}

#[test]
fn seeded_random_sentences_agree() {
    let mut g = SentenceGen {
        rng: XorShift::new(0x9147),
        next_fo: 1,
    };
    // Small structures keep ∀-universes cheap; `All`-support set variables
    // over them stay within the default tuple cap only sometimes — both
    // verdicts and TooManyTuples/Budget errors count as agreement.
    let opts = [
        CheckOptions::default(),
        CheckOptions {
            max_matrix_evals: 3,
            max_tuples_per_var: 22,
        },
        CheckOptions {
            max_matrix_evals: 5_000_000,
            max_tuples_per_var: 6,
        },
    ];
    for _ in 0..60 {
        let phi = g.sentence();
        let compiled = CompiledSentence::compile(&phi);
        for o in &opts {
            assert_equivalent(&phi, &compiled, o);
        }
    }
}
