//! The forward direction of the distributed Fagin theorem, via the
//! Cook–Levin route (Theorem 19): encode the space–time diagram of a
//! distributed Turing machine as Boolean constraints, one formula per node,
//! so that the resulting `SAT-GRAPH` instance is satisfiable iff some
//! certificate assignment makes the machine accept.
//!
//! ## Scope
//!
//! The encoder covers **one-round, tape-internal** machines: machines that
//! never move or write their receiving and sending heads and reach `q_stop`
//! within the given step bound. Per node, such a machine is exactly a
//! classical single-tape Turing machine running on `λ(u) # id(u) # κ(u)` —
//! the Theorem 9 (single computer) core of the paper's proof, with the
//! certificate cells left as free Boolean variables. Multi-round message
//! tracking (the paper's `X`/`C` relations) is noted in `DESIGN.md` as
//! beyond this executable's scope.
//!
//! ## Encoding
//!
//! For each node, with step bound `T`, space bound `S`, and certificate
//! budget `B`, the formula uses one-hot variable families
//! `st[t][q]`, `hd[t][p]`, `tp[t][p][σ]` plus certificate cell variables,
//! and constrains: the initial configuration, totality of the transition
//! table, head movement, cell framing, absorbing halting states, and the
//! acceptance condition (result label exactly `1`). Variables are scoped by
//! the node's identifier, so adjacent formulas share nothing — matching the
//! fact that certificates are chosen per node.

use std::error::Error;
use std::fmt;

use lph_graphs::{BitString, IdAssignment, LabeledGraph};
use lph_machine::{DistributedTm, StateId, Sym};
use lph_props::BoolExpr;

/// Resource bounds for the tableau (the `f(card(N^{$G}))` of Lemma 10 made
/// explicit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableauBounds {
    /// Number of computation steps encoded (`t ∈ 0..=steps`).
    pub steps: usize,
    /// Number of tape cells encoded (`p ∈ 0..space`).
    pub space: usize,
    /// Certificate budget in bits.
    pub cert_bits: usize,
}

/// Why a machine cannot be encoded.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TableauError {
    /// The machine moves or writes a head the encoder keeps static.
    UnsupportedMachine {
        /// Description of the offending transition.
        reason: String,
    },
    /// A node's fixed input does not fit in the space bound.
    InputTooLarge {
        /// The offending node.
        node: usize,
        /// Cells needed.
        needed: usize,
        /// Cells available.
        space: usize,
    },
}

impl fmt::Display for TableauError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableauError::UnsupportedMachine { reason } => {
                write!(
                    f,
                    "machine not encodable as a one-round internal tableau: {reason}"
                )
            }
            TableauError::InputTooLarge {
                node,
                needed,
                space,
            } => {
                write!(
                    f,
                    "input of node v{node} needs {needed} cells but space bound is {space}"
                )
            }
        }
    }
}

impl Error for TableauError {}

const SYMS: [Sym; 5] = Sym::ALL;

fn sym_idx(s: Sym) -> usize {
    SYMS.iter().position(|&x| x == s).expect("alphabet symbol")
}

struct Enc {
    pfx: String,
}

impl Enc {
    fn st(&self, t: usize, q: usize) -> BoolExpr {
        BoolExpr::var(format!("{}st{t}q{q}", self.pfx))
    }
    fn hd(&self, t: usize, p: usize) -> BoolExpr {
        BoolExpr::var(format!("{}hd{t}p{p}", self.pfx))
    }
    fn tp(&self, t: usize, p: usize, s: Sym) -> BoolExpr {
        BoolExpr::var(format!("{}tp{t}p{p}s{}", self.pfx, sym_idx(s)))
    }

    fn exactly_one(&self, vars: Vec<BoolExpr>) -> Vec<BoolExpr> {
        let mut out = vec![BoolExpr::Or(vars.clone())];
        for i in 0..vars.len() {
            for j in i + 1..vars.len() {
                out.push(BoolExpr::Or(vec![
                    vars[i].clone().negated(),
                    vars[j].clone().negated(),
                ]));
            }
        }
        out
    }
}

/// Validates the machine: only entries scanning `⊢` on the receiving and
/// sending tapes matter (those heads never leave cell 0 in the supported
/// fragment), and those entries must keep both tapes untouched.
fn validate(tm: &DistributedTm) -> Result<(), TableauError> {
    for q in 0..tm.state_count() {
        for s1 in SYMS {
            let scanned = [Sym::LeftEnd, s1, Sym::LeftEnd];
            if let Ok(tr) = tm.step(StateId(q), scanned) {
                if tr.write[0] != Sym::LeftEnd || tr.write[2] != Sym::LeftEnd {
                    return Err(TableauError::UnsupportedMachine {
                        reason: format!(
                            "state {} writes a communication tape",
                            tm.state_name(StateId(q))
                        ),
                    });
                }
                if tr.moves[0] != lph_machine::Move::S || tr.moves[2] != lph_machine::Move::S {
                    return Err(TableauError::UnsupportedMachine {
                        reason: format!(
                            "state {} moves a communication head",
                            tm.state_name(StateId(q))
                        ),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Encodes one node's tableau as a Boolean formula over `pfx`-scoped
/// variables; `fixed_input` is the `λ # id #` prefix written on the
/// internal tape before the certificate region.
fn encode_node(
    tm: &DistributedTm,
    pfx: &str,
    fixed_input: &[Sym],
    bounds: TableauBounds,
) -> Result<BoolExpr, TableauError> {
    let e = Enc {
        pfx: pfx.to_owned(),
    };
    let t_max = bounds.steps;
    let s_max = bounds.space;
    let b = bounds.cert_bits;
    let mut cs: Vec<BoolExpr> = Vec::new();

    // --- One-hot structure for every step.
    for t in 0..=t_max {
        cs.extend(e.exactly_one((0..tm.state_count()).map(|q| e.st(t, q)).collect()));
        cs.extend(e.exactly_one((0..s_max).map(|p| e.hd(t, p)).collect()));
        for p in 0..s_max {
            cs.extend(e.exactly_one(SYMS.iter().map(|&s| e.tp(t, p, s)).collect()));
        }
    }

    // --- Initial configuration.
    cs.push(e.st(0, tm.start().0));
    cs.push(e.hd(0, 0));
    let base = 1 + fixed_input.len(); // cell 0 is ⊢
    if base + b >= s_max {
        return Err(TableauError::InputTooLarge {
            node: 0,
            needed: base + b + 1,
            space: s_max,
        });
    }
    cs.push(e.tp(0, 0, Sym::LeftEnd));
    for (i, &s) in fixed_input.iter().enumerate() {
        cs.push(e.tp(0, 1 + i, s));
    }
    // Certificate region: cells base..base+b hold 0/1/□ with blanks only at
    // the end; everything after is blank. Dedicated *choice variables*
    // (named to sort before every tableau variable) mirror each cell: once
    // the certificate is fixed, unit propagation derives the whole
    // deterministic run.
    let cert_blank = |j: usize| e.tp(0, base + j, Sym::Blank);
    for j in 0..b {
        cs.push(BoolExpr::Or(vec![
            e.tp(0, base + j, Sym::Zero),
            e.tp(0, base + j, Sym::One),
            e.tp(0, base + j, Sym::Blank),
        ]));
        if j + 1 < b {
            cs.push(BoolExpr::Or(vec![
                cert_blank(j).negated(),
                cert_blank(j + 1),
            ]));
        }
        let a_blank = BoolExpr::var(format!("{}a{j}bl", e.pfx));
        let a_one = BoolExpr::var(format!("{}a{j}one", e.pfx));
        // a_blank ↔ cell is blank.
        cs.push(BoolExpr::Or(vec![a_blank.clone().negated(), cert_blank(j)]));
        cs.push(BoolExpr::Or(vec![a_blank.clone(), cert_blank(j).negated()]));
        // ¬a_blank ∧ a_one → One; ¬a_blank ∧ ¬a_one → Zero.
        cs.push(BoolExpr::Or(vec![
            a_blank.clone(),
            a_one.clone().negated(),
            e.tp(0, base + j, Sym::One),
        ]));
        cs.push(BoolExpr::Or(vec![
            a_blank,
            a_one,
            e.tp(0, base + j, Sym::Zero),
        ]));
    }
    for p in base + b..s_max {
        cs.push(e.tp(0, p, Sym::Blank));
    }

    // --- Transitions.
    let halting = [tm.pause().0, tm.stop().0];
    for t in 0..t_max {
        // Absorbing halting states: state, head, and tape freeze.
        for &h in &halting {
            cs.push(BoolExpr::Or(vec![e.st(t, h).negated(), e.st(t + 1, h)]));
            for p in 0..s_max {
                cs.push(BoolExpr::Or(vec![
                    e.st(t, h).negated(),
                    e.hd(t, p).negated(),
                    e.hd(t + 1, p),
                ]));
            }
        }
        // Frame: cells away from the head never change; under a halting
        // state no cell changes (the head clause below only fires in
        // active states).
        for p in 0..s_max {
            for &s in &SYMS {
                cs.push(BoolExpr::Or(vec![
                    e.hd(t, p),
                    e.tp(t, p, s).negated(),
                    e.tp(t + 1, p, s),
                ]));
                for &h in &halting {
                    cs.push(BoolExpr::Or(vec![
                        e.st(t, h).negated(),
                        e.tp(t, p, s).negated(),
                        e.tp(t + 1, p, s),
                    ]));
                }
            }
        }
        // Active steps: for every active state and scanned symbol, either
        // the table has an entry (whose effects fire positionally) or the
        // configuration is forbidden.
        for q in 0..tm.state_count() {
            if halting.contains(&q) {
                continue;
            }
            for s1 in SYMS {
                let entry = tm.step(StateId(q), [Sym::LeftEnd, s1, Sym::LeftEnd]).ok();
                for p in 0..s_max {
                    let guard_neg = vec![
                        e.st(t, q).negated(),
                        e.hd(t, p).negated(),
                        e.tp(t, p, s1).negated(),
                    ];
                    match &entry {
                        None => cs.push(BoolExpr::Or(guard_neg)),
                        Some(tr) => {
                            let p_next = match tr.moves[1] {
                                lph_machine::Move::L => p.checked_sub(1),
                                lph_machine::Move::S => Some(p),
                                lph_machine::Move::R => {
                                    if p + 1 < s_max {
                                        Some(p + 1)
                                    } else {
                                        None
                                    }
                                }
                            };
                            let Some(p_next) = p_next else {
                                // The move would leave the encoded space:
                                // such configurations must not occur.
                                cs.push(BoolExpr::Or(guard_neg));
                                continue;
                            };
                            let effects = [
                                e.st(t + 1, tr.next.0),
                                e.hd(t + 1, p_next),
                                e.tp(t + 1, p, tr.write[1]),
                            ];
                            for eff in effects {
                                let mut clause = guard_neg.clone();
                                clause.push(eff);
                                cs.push(BoolExpr::Or(clause));
                            }
                        }
                    }
                }
            }
        }
    }

    // --- Acceptance: stopped at the horizon with result label exactly "1".
    cs.push(e.st(t_max, tm.stop().0));
    let ones: Vec<BoolExpr> = (1..s_max).map(|p| e.tp(t_max, p, Sym::One)).collect();
    cs.push(BoolExpr::Or(ones.clone()));
    for i in 0..ones.len() {
        for j in i + 1..ones.len() {
            cs.push(BoolExpr::Or(vec![
                ones[i].clone().negated(),
                ones[j].clone().negated(),
            ]));
        }
    }
    for p in 1..s_max {
        cs.push(e.tp(t_max, p, Sym::Zero).negated());
    }

    Ok(BoolExpr::And(cs))
}

/// The Theorem 19 forward construction for one-round internal machines:
/// produces a Boolean graph `G''` (same topology as `G`) such that
/// `G'' ∈ SAT-GRAPH` iff there are certificates `κ` within the budget with
/// `M(G, id, κ) ≡ ACCEPT`.
///
/// # Errors
///
/// Returns [`TableauError`] if the machine is outside the supported
/// fragment or an input exceeds the space bound.
pub fn machine_to_sat_graph(
    tm: &DistributedTm,
    g: &LabeledGraph,
    id: &IdAssignment,
    bounds: TableauBounds,
) -> Result<LabeledGraph, TableauError> {
    validate(tm)?;
    let mut labels = Vec::with_capacity(g.node_count());
    for u in g.nodes() {
        let mut fixed: Vec<Sym> = g.label(u).iter().map(Sym::bit).collect();
        fixed.push(Sym::Sep);
        fixed.extend(id.id(u).iter().map(Sym::bit));
        fixed.push(Sym::Sep);
        let pfx = format!("u{}.", id.id(u)).replace('ε', "");
        let phi = encode_node(tm, &pfx, &fixed, bounds).map_err(|err| match err {
            TableauError::InputTooLarge { needed, space, .. } => TableauError::InputTooLarge {
                node: u.0,
                needed,
                space,
            },
            other => other,
        })?;
        labels.push(BitString::from_bytes(phi.to_string().as_bytes()));
    }
    Ok(g.with_labels(labels).expect("one label per node"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lph_graphs::{generators, CertificateList};
    use lph_machine::{machines, Move, Pat, TmBuilder, WriteOp};
    use lph_props::{GraphProperty, SatGraph};

    fn bounds(steps: usize, space: usize, cert_bits: usize) -> TableauBounds {
        TableauBounds {
            steps,
            space,
            cert_bits,
        }
    }

    /// Ground truth: does some certificate within the budget make the
    /// machine accept?
    fn exists_accepting_cert(
        tm: &DistributedTm,
        g: &LabeledGraph,
        id: &IdAssignment,
        cert_bits: usize,
    ) -> bool {
        use lph_graphs::{enumerate, CertificateAssignment};
        let spaces: Vec<Vec<BitString>> = (0..g.node_count())
            .map(|_| enumerate::bitstrings_up_to(cert_bits))
            .collect();
        let mut idx = vec![0usize; g.node_count()];
        loop {
            let certs = CertificateAssignment::from_vec(
                g,
                idx.iter()
                    .zip(&spaces)
                    .map(|(&i, s)| s[i].clone())
                    .collect(),
            )
            .unwrap();
            let list = CertificateList::from_assignments(vec![certs]);
            let out =
                lph_machine::run_tm(tm, g, id, &list, &lph_machine::ExecLimits::default()).unwrap();
            if out.accepted {
                return true;
            }
            let mut pos = idx.len();
            loop {
                if pos == 0 {
                    return false;
                }
                pos -= 1;
                idx[pos] += 1;
                if idx[pos] < spaces[pos].len() {
                    break;
                }
                idx[pos] = 0;
            }
        }
    }

    #[test]
    fn all_selected_tableau_is_equisatisfiable() {
        let tm = machines::all_selected_decider();
        for labels in [["1", "1"], ["1", "0"], ["0", "0"], ["11", "1"]] {
            let g = generators::labeled_path(&labels);
            let id = IdAssignment::global(&g);
            let g2 = machine_to_sat_graph(&tm, &g, &id, bounds(14, 10, 0)).unwrap();
            let expected = exists_accepting_cert(&tm, &g, &id, 0);
            assert_eq!(SatGraph.holds(&g2), expected, "labels {labels:?}");
        }
    }

    #[test]
    fn single_node_tableau() {
        let tm = machines::all_selected_decider();
        let g = LabeledGraph::single_node(BitString::from_bits01("1"));
        let id = IdAssignment::global(&g);
        let g2 = machine_to_sat_graph(&tm, &g, &id, bounds(12, 8, 0)).unwrap();
        assert!(SatGraph.holds(&g2));
        let g = LabeledGraph::single_node(BitString::from_bits01("0"));
        let id = IdAssignment::global(&g);
        let g2 = machine_to_sat_graph(&tm, &g, &id, bounds(12, 8, 0)).unwrap();
        assert!(!SatGraph.holds(&g2));
    }

    /// A tiny nondeterministic machine: accept iff the first certificate
    /// bit is 1 — i.e. skip `λ#id#` by scanning to the second separator,
    /// check the next cell, then erase and write the verdict.
    fn cert_gate_machine() -> DistributedTm {
        let mut b = TmBuilder::new();
        let (acc, rej) = lph_machine::machines::verdict_states(&mut b);
        let skip1 = b.state("skip_to_sep1");
        let skip2 = b.state("skip_to_sep2");
        let look = b.state("look");
        b.rule(
            b.start(),
            [Pat::Any; 3],
            skip1,
            [WriteOp::Keep; 3],
            [Move::S, Move::R, Move::S],
        );
        b.rule(
            skip1,
            [Pat::Any, Pat::Is(Sym::Sep), Pat::Any],
            skip2,
            [WriteOp::Keep; 3],
            [Move::S, Move::R, Move::S],
        );
        b.rule(
            skip1,
            [Pat::Any; 3],
            skip1,
            [WriteOp::Keep; 3],
            [Move::S, Move::R, Move::S],
        );
        b.rule(
            skip2,
            [Pat::Any, Pat::Is(Sym::Sep), Pat::Any],
            look,
            [WriteOp::Keep; 3],
            [Move::S, Move::R, Move::S],
        );
        b.rule(
            skip2,
            [Pat::Any; 3],
            skip2,
            [WriteOp::Keep; 3],
            [Move::S, Move::R, Move::S],
        );
        b.rule(
            look,
            [Pat::Any, Pat::Is(Sym::One), Pat::Any],
            acc,
            [WriteOp::Keep; 3],
            [Move::S; 3],
        );
        b.rule(look, [Pat::Any; 3], rej, [WriteOp::Keep; 3], [Move::S; 3]);
        b.build()
    }

    #[test]
    fn certificate_variables_make_the_tableau_nondeterministic() {
        let tm = cert_gate_machine();
        let g = LabeledGraph::single_node(BitString::from_bits01("1"));
        let id = IdAssignment::global(&g);
        // With a 1-bit certificate budget, Eve can set the bit to 1: SAT.
        let g2 = machine_to_sat_graph(&tm, &g, &id, bounds(22, 9, 1)).unwrap();
        assert!(SatGraph.holds(&g2));
        assert!(exists_accepting_cert(&tm, &g, &id, 1));
        // With a 0-bit budget the certificate cell is blank: UNSAT.
        let g2 = machine_to_sat_graph(&tm, &g, &id, bounds(22, 9, 0)).unwrap();
        assert!(!SatGraph.holds(&g2));
        assert!(!exists_accepting_cert(&tm, &g, &id, 0));
    }

    #[test]
    fn communication_machines_are_rejected() {
        let tm = machines::even_degree_decider(); // moves the receiving head
        let g = generators::path(2);
        let id = IdAssignment::global(&g);
        assert!(matches!(
            machine_to_sat_graph(&tm, &g, &id, bounds(10, 8, 0)),
            Err(TableauError::UnsupportedMachine { .. })
        ));
    }

    #[test]
    fn too_small_space_is_reported() {
        let tm = machines::all_selected_decider();
        let g = generators::labeled_path(&["111111", "1"]);
        let id = IdAssignment::global(&g);
        assert!(matches!(
            machine_to_sat_graph(&tm, &g, &id, bounds(10, 6, 0)),
            Err(TableauError::InputTooLarge { .. })
        ));
    }
}
