//! Satisfiability of named-variable CNFs — the ground truth behind `SAT` /
//! `SAT-GRAPH` (Theorems 18 and 19) — decided by the `lph-sat` CDCL engine.
//!
//! Variable names are interned to dense indices in name order, the clauses
//! are shipped verbatim, and the model is translated back. Brute-force
//! enumeration stays the test oracle.

use std::collections::BTreeMap;

use crate::boolean::Cnf;

/// Decides satisfiability and returns a satisfying model (as a map from
/// variable name to value) if one exists. Variables not occurring in any
/// clause are reported as `false`.
pub fn cdcl_sat_with_model(cnf: &Cnf) -> Option<BTreeMap<String, bool>> {
    let names: Vec<String> = cnf.variables().into_iter().collect();
    let index: BTreeMap<&str, usize> = names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.as_str(), i))
        .collect();
    let mut compiled = lph_sat::Cnf::new();
    compiled.new_vars(names.len());
    for clause in &cnf.clauses {
        compiled.add_clause(
            clause
                .iter()
                .map(|l| lph_sat::Lit::with_sign(index[l.var.as_str()], l.positive)),
        );
    }
    match lph_sat::Solver::new(&compiled).solve() {
        lph_sat::SolveOutcome::Sat(model) => Some(names.into_iter().zip(model).collect()),
        lph_sat::SolveOutcome::Unsat => None,
        lph_sat::SolveOutcome::Unknown => unreachable!("no conflict budget configured"),
    }
}

/// [`cdcl_sat_with_model`], discarding the model.
pub fn cdcl_sat(cnf: &Cnf) -> bool {
    cdcl_sat_with_model(cnf).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boolean::{BoolExpr, Lit};
    use lph_graphs::generators::XorShift;

    fn brute_force_sat(cnf: &Cnf) -> bool {
        let vars: Vec<String> = cnf.variables().into_iter().collect();
        assert!(vars.len() <= 20);
        (0u32..1 << vars.len()).any(|mask| {
            cnf.clauses.iter().all(|c| {
                c.iter().any(|l| {
                    let i = vars.iter().position(|v| *v == l.var).unwrap();
                    (mask >> i & 1 == 1) == l.positive
                })
            })
        })
    }

    #[test]
    fn trivial_cases() {
        assert!(cdcl_sat(&Cnf { clauses: vec![] }));
        assert!(!cdcl_sat(&Cnf {
            clauses: vec![vec![]]
        }));
        assert!(cdcl_sat(&Cnf {
            clauses: vec![vec![Lit::pos("a")]]
        }));
        assert!(!cdcl_sat(&Cnf {
            clauses: vec![vec![Lit::pos("a")], vec![Lit::neg("a")]]
        }));
    }

    #[test]
    fn model_satisfies_the_cnf() {
        let e = BoolExpr::parse("&(|(vp,vq),|(!vp,vr),|(!vq,!vr))").unwrap();
        let cnf = e.to_cnf_by_distribution();
        let model = cdcl_sat_with_model(&cnf).expect("satisfiable");
        let ok = cnf.clauses.iter().all(|c| {
            c.iter()
                .any(|l| model.get(&l.var).copied().unwrap_or(false) == l.positive)
        });
        assert!(ok);
    }

    #[test]
    fn agrees_with_brute_force_on_random_cnfs() {
        let mut rng = XorShift::new(2024);
        for round in 0..300 {
            let nvars = 1 + rng.below(6);
            let nclauses = rng.below(14);
            let clauses: Vec<Vec<Lit>> = (0..nclauses)
                .map(|_| {
                    let len = 1 + rng.below(3);
                    (0..len)
                        .map(|_| Lit {
                            var: format!("x{}", rng.below(nvars)),
                            positive: rng.bool(),
                        })
                        .collect()
                })
                .collect();
            let cnf = Cnf { clauses };
            assert_eq!(
                cdcl_sat(&cnf),
                brute_force_sat(&cnf),
                "round {round}: {cnf:?}"
            );
        }
    }

    #[test]
    fn models_agree_with_brute_force_on_random_cnfs() {
        let mut rng = XorShift::new(7);
        for round in 0..200 {
            let nvars = 1 + rng.below(6);
            let nclauses = rng.below(14);
            let clauses: Vec<Vec<Lit>> = (0..nclauses)
                .map(|_| {
                    let len = 1 + rng.below(3);
                    (0..len)
                        .map(|_| Lit {
                            var: format!("x{}", rng.below(nvars)),
                            positive: rng.bool(),
                        })
                        .collect()
                })
                .collect();
            let cnf = Cnf { clauses };
            let brute = brute_force_sat(&cnf);
            match cdcl_sat_with_model(&cnf) {
                Some(model) => {
                    assert!(
                        brute,
                        "round {round}: CDCL SAT but brute force UNSAT: {cnf:?}"
                    );
                    let ok = cnf.clauses.iter().all(|c| {
                        c.iter()
                            .any(|l| model.get(&l.var).copied().unwrap_or(false) == l.positive)
                    });
                    assert!(ok, "round {round}: CDCL model violates a clause: {cnf:?}");
                }
                None => assert!(
                    !brute,
                    "round {round}: CDCL UNSAT but brute force SAT: {cnf:?}"
                ),
            }
        }
    }

    #[test]
    fn pigeonhole_three_into_two_is_unsat() {
        // PHP(3,2): three pigeons, two holes.
        let mut clauses = Vec::new();
        for p in 0..3 {
            clauses.push(vec![
                Lit::pos(format!("p{p}h0")),
                Lit::pos(format!("p{p}h1")),
            ]);
        }
        for h in 0..2 {
            for p in 0..3 {
                for q in p + 1..3 {
                    clauses.push(vec![
                        Lit::neg(format!("p{p}h{h}")),
                        Lit::neg(format!("p{q}h{h}")),
                    ]);
                }
            }
        }
        assert!(!cdcl_sat(&Cnf { clauses }));
    }

    #[test]
    fn long_implication_chains_propagate_linearly() {
        // x0 → x1 → … → x_n, plus x0: the solver must finish instantly.
        let n = 5000;
        let mut clauses = vec![vec![Lit::pos("x00000")]];
        for i in 0..n {
            clauses.push(vec![
                Lit::neg(format!("x{i:05}")),
                Lit::pos(format!("x{:05}", i + 1)),
            ]);
        }
        assert!(cdcl_sat(&Cnf {
            clauses: clauses.clone()
        }));
        clauses.push(vec![Lit::neg(format!("x{n:05}"))]);
        assert!(!cdcl_sat(&Cnf { clauses }));
    }

    #[test]
    fn duplicate_and_tautological_literals_are_handled() {
        let cnf = Cnf {
            clauses: vec![
                vec![Lit::pos("a"), Lit::pos("a")],
                vec![Lit::pos("b"), Lit::neg("b")],
                vec![Lit::neg("a")],
            ],
        };
        assert!(!cdcl_sat(&cnf));
    }
}
