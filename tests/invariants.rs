//! Randomized property tests over the substrate invariants, driven by the
//! repo's own deterministic [`generators::XorShift`] PRNG. (The workspace
//! builds in hermetic environments without registry access, so these are
//! seed-loop properties rather than `proptest` strategies; every run
//! exercises the same cases.)

use lph_graphs::generators::XorShift;
use lph_graphs::{
    enumerate, generators, BitString, CertificateAssignment, GraphStructure, IdAssignment,
    LabeledGraph, PolyBound,
};

/// Number of random cases per property (matches the old proptest config).
const CASES: u64 = 64;

/// A random connected graph (tree + extra edges) from a per-case seed.
fn random_graph(rng: &mut XorShift) -> LabeledGraph {
    let n = 1 + rng.below(23);
    let extra = rng.below(16);
    generators::random_connected(n, extra, rng.next())
}

fn random_bools(rng: &mut XorShift, max_len: usize) -> Vec<bool> {
    (0..rng.below(max_len)).map(|_| rng.bool()).collect()
}

#[test]
fn small_id_assignments_are_locally_unique() {
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let g = random_graph(&mut rng);
        let r = rng.below(3);
        let id = IdAssignment::small(&g, r);
        assert!(id.is_locally_unique(&g, r), "seed {seed}");
        assert!(id.is_small(&g, r), "seed {seed}");
    }
}

#[test]
fn global_ids_are_locally_unique_at_every_radius() {
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let g = random_graph(&mut rng);
        let r = rng.below(4);
        let id = IdAssignment::global(&g);
        assert!(id.is_locally_unique(&g, r), "seed {seed}");
    }
}

#[test]
fn balls_are_monotone_in_radius() {
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let g = random_graph(&mut rng);
        let r = rng.below(4);
        for u in g.nodes() {
            let small = g.ball(u, r);
            let big = g.ball(u, r + 1);
            assert!(small.iter().all(|v| big.contains(v)), "seed {seed}");
            assert!(big.contains(&u), "seed {seed}");
        }
    }
}

#[test]
fn neighborhoods_are_induced_and_centered() {
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let g = random_graph(&mut rng);
        let r = rng.below(3);
        for u in g.nodes() {
            let nb = g.neighborhood(u, r);
            assert_eq!(nb.to_global(nb.center_local), u, "seed {seed}");
            assert_eq!(nb.graph.node_count(), g.ball(u, r).len(), "seed {seed}");
            // Edges of the neighborhood exist in the original graph.
            for (a, b) in nb.graph.edges() {
                assert!(g.has_edge(nb.to_global(a), nb.to_global(b)), "seed {seed}");
            }
        }
    }
}

#[test]
fn structural_representation_cardinality() {
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let g = random_graph(&mut rng);
        let gs = GraphStructure::of(&g);
        let expected: usize = g.nodes().map(|u| 1 + g.label(u).len()).sum();
        assert_eq!(gs.structure().card(), expected, "seed {seed}");
    }
}

#[test]
fn certificate_budget_is_monotone_in_radius() {
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let g = random_graph(&mut rng);
        let r = rng.below(3);
        let id = IdAssignment::global(&g);
        let p = PolyBound::linear(1, 2);
        let small = CertificateAssignment::budget(&g, &id, r, &p);
        let big = CertificateAssignment::budget(&g, &id, r + 1, &p);
        for (s, b) in small.iter().zip(&big) {
            assert!(s <= b, "seed {seed}");
        }
    }
}

#[test]
fn bitstring_order_is_total_and_prefix_respecting() {
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let x = BitString::from_bools(&random_bools(&mut rng, 12));
        let y = BitString::from_bools(&random_bools(&mut rng, 12));
        // Totality.
        assert!(x < y || y < x || x == y, "seed {seed}");
        // Prefix rule.
        if x.is_proper_prefix_of(&y) {
            assert!(x < y, "seed {seed}");
        }
    }
}

#[test]
fn polybound_algebra_is_pointwise_correct() {
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let coeffs = |rng: &mut XorShift| -> Vec<u64> {
            (0..1 + rng.below(3)).map(|_| rng.next() % 50).collect()
        };
        let p = PolyBound::new(coeffs(&mut rng));
        let q = PolyBound::new(coeffs(&mut rng));
        let n = rng.below(30);
        assert_eq!(p.add(&q).eval(n), p.eval(n) + q.eval(n), "seed {seed}");
        assert_eq!(p.mul(&q).eval(n), p.eval(n) * q.eval(n), "seed {seed}");
        assert!(p.max(&q).eval(n) >= p.eval(n).max(q.eval(n)), "seed {seed}");
        assert_eq!(p.compose(&q).eval(n), p.eval(q.eval(n)), "seed {seed}");
    }
}

#[test]
fn cdcl_agrees_with_brute_force() {
    use lph_props::{cdcl_sat, Cnf, Lit};
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let nvars = 1 + rng.below(5);
        let nclauses = rng.below(12);
        let clauses: Vec<Vec<Lit>> = (0..nclauses)
            .map(|_| {
                (0..1 + rng.below(3))
                    .map(|_| Lit {
                        var: format!("x{}", rng.below(nvars)),
                        positive: rng.bool(),
                    })
                    .collect()
            })
            .collect();
        let cnf = Cnf { clauses };
        let vars: Vec<String> = cnf.variables().into_iter().collect();
        let brute = (0u32..1 << vars.len()).any(|mask| {
            cnf.clauses.iter().all(|c| {
                c.iter().any(|l| {
                    let i = vars.iter().position(|v| *v == l.var).unwrap();
                    (mask >> i & 1 == 1) == l.positive
                })
            })
        });
        assert_eq!(cdcl_sat(&cnf), brute, "seed {seed}");
    }
}

#[test]
fn tseytin_preserves_satisfiability() {
    use lph_props::{cdcl_sat, BoolExpr};
    fn random_expr(rng: &mut XorShift, depth: usize) -> BoolExpr {
        if depth == 0 {
            return match rng.below(3) {
                0 => BoolExpr::Const(rng.bool()),
                _ => BoolExpr::var(format!("v{}", rng.below(4))),
            };
        }
        match rng.below(3) {
            0 => random_expr(rng, depth - 1).negated(),
            1 => BoolExpr::And(
                (0..1 + rng.below(3))
                    .map(|_| random_expr(rng, depth - 1))
                    .collect(),
            ),
            _ => BoolExpr::Or(
                (0..1 + rng.below(3))
                    .map(|_| random_expr(rng, depth - 1))
                    .collect(),
            ),
        }
    }
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let depth = 1 + rng.below(3);
        let e = random_expr(&mut rng, depth);
        let vars: Vec<String> = e.variables().into_iter().collect();
        let brute = (0u32..1u32 << vars.len()).any(|mask| {
            e.eval(&|name: &str| {
                let i = vars.iter().position(|v| v == name).unwrap();
                mask >> i & 1 == 1
            })
        });
        assert_eq!(cdcl_sat(&e.tseytin("aux.")), brute, "seed {seed}");
        // 3-CNF splitting preserves it too.
        assert_eq!(
            cdcl_sat(&e.tseytin("aux.").to_three_cnf("aux.s")),
            brute,
            "seed {seed}"
        );
    }
}

#[test]
fn boolean_formula_codec_round_trips() {
    use lph_props::BoolExpr;
    fn random_expr(rng: &mut XorShift, depth: usize) -> BoolExpr {
        if depth == 0 {
            return match rng.below(3) {
                0 => BoolExpr::Const(rng.bool()),
                _ => BoolExpr::var(format!("p{}", rng.below(5))),
            };
        }
        match rng.below(3) {
            0 => random_expr(rng, depth - 1).negated(),
            1 => BoolExpr::And(
                (0..rng.below(4))
                    .map(|_| random_expr(rng, depth - 1))
                    .collect(),
            ),
            _ => BoolExpr::Or(
                (0..rng.below(4))
                    .map(|_| random_expr(rng, depth - 1))
                    .collect(),
            ),
        }
    }
    for seed in 0..CASES {
        let mut rng = XorShift::new(seed);
        let depth = rng.below(4);
        let e = random_expr(&mut rng, depth);
        assert_eq!(BoolExpr::parse(&e.to_string()).unwrap(), e, "seed {seed}");
    }
}

/// Non-random exhaustive check kept here for locality: every enumerated
/// small graph round-trips through the structural representation's
/// neighborhood cardinality arithmetic.
#[test]
fn neighborhood_information_matches_structure_cards() {
    for g in enumerate::connected_graphs_up_to(4) {
        let gs = GraphStructure::of(&g);
        let zeros = vec![0usize; g.node_count()];
        for u in g.nodes() {
            for r in 0..3 {
                assert_eq!(
                    g.neighborhood_information(u, r, &zeros),
                    gs.neighborhood_card(&g, u, r),
                );
            }
        }
    }
}
