//! The CNF certificate-game backend: compiles `ℓ ≤ 1` games to SAT and
//! decides them with the `lph-sat` CDCL solver, scaling far beyond the
//! exhaustive move enumeration of [`decide_game`].
//!
//! # How the compilation works
//!
//! An arbiter is a LOCAL machine, so after `R` rounds a node's verdict
//! depends only on the inputs (labels, identifiers, degrees, certificates)
//! of nodes within distance `R − 1` — round-1 inboxes are empty, and a
//! message sent in round `k` arrives in round `k + 1`. The backend
//! exploits this: for each node `v` it extracts the ball `N_R(v)` (whose
//! interior nodes keep their degrees), replays the arbiter on that small
//! subgraph for **every** combination of certificates of the inner ball
//! `N_{R−1}(v)`, and records `v`'s verdict. The radius is discovered
//! adaptively: a replay that runs more than `R` rounds bumps `R`, and each
//! combination is run under two paddings of the boundary ring (empty vs.
//! all-ones certificates) — a verdict that differs between the paddings
//! falsifies the locality assumption and also bumps `R`. Arbiters that
//! never stabilize are reported as [`GameError::BackendUnsupported`]
//! rather than silently mis-encoded. Everything but the inner ball's
//! certificates is fixed per radius, so the ball's message routing
//! ([`lph_machine::Routing`]) and both boundary paddings are prepared
//! once per radius and every row only rewrites the inner certificates;
//! every row still runs both paddings.
//!
//! The per-node truth tables then compile to CNF over choice variables
//! (each node's certificate choice is a binary-coded index into its
//! `(r, p)`-bounded option list, with out-of-range codes blocked):
//!
//! * **`Σ₁`** (Eve moves once): one blocking clause per *rejecting* table
//!   row. A model is exactly an assignment every node accepts; `UNSAT`
//!   means Eve has no witness.
//! * **`Π₁`** (Adam moves once): one fresh selector variable `r_v` per
//!   node with `∨_v r_v`, and a clause `¬r_v ∨ ¬row` per *accepting* row.
//!   A model is an assignment some selected node rejects — Adam's
//!   refutation; `UNSAT` means Eve wins every play.
//!
//! Either way, the extracted witness is replayed through the arbiter **on
//! the full graph** before the result is returned — the truth tables are
//! an optimization, never the authority.
//!
//! The UNSAT side is certified too: the solver runs with proof logging
//! on, and the logged RUP refutation is re-derived by the independent
//! `lph_sat::checker` before the verdict is returned. The verdict carries
//! the outcome as [`RefutationEvidence`] — [`GameBackend::Auto`] treats a
//! failed check like an unsupported game and falls back to the exhaustive
//! oracle, so an unchecked refutation never silently decides a game.
//!
//! `Σ₀` games have no certificates and run the arbiter once. Games with
//! `ℓ ≥ 2` are quantified-Boolean, not propositional; they stay on the
//! exhaustive game-tree search ([`GameBackend::Auto`] falls back
//! automatically).

use lph_graphs::{
    enumerate, BitString, CertificateAssignment, CertificateList, IdAssignment, LabeledGraph,
    NodeId,
};
use lph_machine::{LocalOutcome, MachineError, Routing};
use lph_sat::{check_refutation, Cnf, Lit, SolveOutcome, Solver, SolverConfig};

use crate::arbiter::Arbitrating;
use crate::class::Player;
use crate::game::{decide_game, GameError, GameLimits, GameResult};

/// Hard cap on the number of certificate combinations replayed per node
/// while building its local acceptance table. Beyond this the compilation
/// is no cheaper than exhaustive search and the backend bows out. Sized
/// so a degree-5 ball of 3-coloring certificates (7⁶ ≈ 118k rows) still
/// compiles — the per-node table is what makes the whole-graph move
/// space (7ⁿ) tractable, so the cap only guards genuinely global balls.
const TABLE_COMBO_CAP: usize = 1 << 17;

/// Cap on the adaptive locality radius probe.
const MAX_RADIUS: usize = 8;

/// Which engine decides a certificate game.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GameBackend {
    /// The exhaustive game-tree search of [`decide_game`]: enumerates
    /// every move. Complete for all `ℓ`, but bounded by the move-space
    /// guard — this is the differential oracle for small instances.
    Exhaustive,
    /// The CNF compilation described in the module docs, decided by the
    /// `lph-sat` CDCL solver. `ℓ ≤ 1` only; errors with
    /// [`GameError::BackendUnsupported`] where it does not apply.
    Cdcl,
    /// [`GameBackend::Cdcl`] for `ℓ = 1` games, falling back to
    /// [`GameBackend::Exhaustive`] whenever the CNF backend reports
    /// [`GameError::BackendUnsupported`] (and for all other `ℓ`).
    #[default]
    Auto,
}

impl GameBackend {
    /// The stable wire name used by external callers (the `lph-serve/1`
    /// protocol's optional `"backend"` request field).
    pub fn as_str(self) -> &'static str {
        match self {
            GameBackend::Exhaustive => "exhaustive",
            GameBackend::Cdcl => "cdcl",
            GameBackend::Auto => "auto",
        }
    }

    /// Parses a wire name produced by [`GameBackend::as_str`].
    pub fn parse(s: &str) -> Option<GameBackend> {
        match s {
            "exhaustive" => Some(GameBackend::Exhaustive),
            "cdcl" => Some(GameBackend::Cdcl),
            "auto" => Some(GameBackend::Auto),
            _ => None,
        }
    }
}

/// How an UNSAT-side verdict of the CDCL backend is certified.
///
/// Attached to [`GameResult::refutation`] whenever the verdict rests on
/// the solver's refutation rather than a replayed witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefutationEvidence {
    /// The independent RUP checker re-derived the solver's refutation
    /// from the game CNF.
    Checked {
        /// Steps in the logged proof (learned clauses + the empty clause).
        proof_steps: usize,
        /// Literals the checker assigned while re-deriving the steps.
        rup_propagations: u64,
    },
    /// The checker rejected (or could not complete) the refutation; the
    /// verdict is the solver's word alone. [`GameBackend::Auto`] discards
    /// such results and re-decides exhaustively.
    Unchecked {
        /// Whether the failure says the proof is about a *different*
        /// formula (unknown variables / deletions of absent clauses), as
        /// opposed to a derivation gap.
        cnf_mismatch: bool,
        /// The checker's error, human-readable.
        reason: String,
    },
}

impl RefutationEvidence {
    /// Whether the evidence is a checker-accepted proof.
    pub fn is_checked(&self) -> bool {
        matches!(self, RefutationEvidence::Checked { .. })
    }
}

/// Solves the certificate game with the selected [`GameBackend`].
///
/// Agrees with [`decide_game`] on `eve_wins` wherever both apply; the
/// CDCL backend additionally certifies any `Some` `winning_first_move` by
/// replaying it through the arbiter on the full graph.
///
/// # Errors
///
/// Returns [`GameError`] as for [`decide_game`]; the `Cdcl` backend
/// additionally reports [`GameError::BackendUnsupported`] for games it
/// cannot compile (`ℓ ≥ 2`, oversized local tables, arbiters without
/// per-node outcomes or with unstable locality).
pub fn decide_game_backend(
    arbiter: &dyn Arbitrating,
    g: &LabeledGraph,
    id: &IdAssignment,
    limits: &GameLimits,
    backend: GameBackend,
) -> Result<GameResult, GameError> {
    match backend {
        GameBackend::Exhaustive => decide_game(arbiter, g, id, limits),
        GameBackend::Cdcl => decide_game_cdcl(arbiter, g, id, limits),
        GameBackend::Auto => {
            if arbiter.spec().ell != 1 {
                return decide_game(arbiter, g, id, limits);
            }
            match decide_game_cdcl(arbiter, g, id, limits) {
                Err(GameError::BackendUnsupported { .. }) => decide_game(arbiter, g, id, limits),
                // An unchecked refutation is not evidence: re-decide with
                // the exhaustive oracle rather than trust the solver.
                Ok(r) if matches!(r.refutation, Some(RefutationEvidence::Unchecked { .. })) => {
                    decide_game(arbiter, g, id, limits)
                }
                other => other,
            }
        }
    }
}

/// One node's local acceptance table: `verdicts[rank]` is the node's
/// verdict when the nodes of `support` hold the certificate options coded
/// by `rank` (mixed-radix over `radix`, the support nodes' option counts,
/// first support node most significant).
struct NodeTable {
    support: Vec<NodeId>,
    radix: Vec<usize>,
    verdicts: Vec<bool>,
}

/// The binary choice encoding: node `u`'s certificate option index is the
/// little-endian value of variables `var_base[u] .. var_base[u] + bits[u]`.
struct Encoding {
    cnf: Cnf,
    var_base: Vec<usize>,
    bits: Vec<usize>,
}

fn ceil_log2(m: usize) -> usize {
    if m <= 1 {
        0
    } else {
        (usize::BITS - (m - 1).leading_zeros()) as usize
    }
}

/// Mixed-radix decode of `rank` into `digits`, one digit per entry of
/// `ms` (first entry most significant) — the shared convention between
/// table building and clause emission.
fn combo_digits(rank: usize, ms: &[usize], digits: &mut Vec<usize>) {
    digits.clear();
    digits.resize(ms.len(), 0);
    let mut code = rank;
    for i in (0..ms.len()).rev() {
        digits[i] = code % ms[i];
        code /= ms[i];
    }
}

/// One counted, budget-checked replay on the ball's prepared routing. A
/// routing error surfaces here, after the replay is counted, as it would
/// from an engine that prepares its own routing.
fn run_outcome(
    arbiter: &dyn Arbitrating,
    routing: &Result<Routing<'_>, MachineError>,
    certs: &CertificateList,
    limits: &GameLimits,
    runs: &mut u64,
) -> Result<LocalOutcome, GameError> {
    *runs += 1;
    if *runs > limits.max_runs {
        return Err(GameError::BudgetExceeded {
            limit: limits.max_runs,
        });
    }
    let routing = routing
        .as_ref()
        .map_err(|e| GameError::Machine(e.clone()))?;
    arbiter
        .outcome(routing, certs, &limits.exec)?
        .ok_or_else(|| GameError::BackendUnsupported {
            reason: "arbiter does not report per-node outcomes".into(),
        })
}

/// Builds the local acceptance table of node `v`, discovering the needed
/// radius adaptively (see the module docs).
#[allow(clippy::too_many_arguments)]
fn build_table(
    arbiter: &dyn Arbitrating,
    g: &LabeledGraph,
    id: &IdAssignment,
    budgets: &[usize],
    options: &[Vec<BitString>],
    v: NodeId,
    limits: &GameLimits,
    runs: &mut u64,
) -> Result<NodeTable, GameError> {
    let mut radius = 1;
    let mut digits = Vec::new();
    'radius: loop {
        if radius > MAX_RADIUS {
            return Err(GameError::BackendUnsupported {
                reason: format!(
                    "locality of node {} did not stabilize within radius {MAX_RADIUS}",
                    v.0
                ),
            });
        }
        let ball = g.neighborhood(v, radius);
        let inner_set: Vec<bool> = {
            let mut inner = vec![false; g.node_count()];
            for w in g.ball(v, radius - 1) {
                inner[w.0] = true;
            }
            inner
        };
        let inner: Vec<usize> = (0..ball.members.len())
            .filter(|&i| inner_set[ball.members[i].0])
            .collect();
        let ring: Vec<usize> = (0..ball.members.len())
            .filter(|&i| !inner_set[ball.members[i].0])
            .collect();
        let ms: Vec<usize> = inner
            .iter()
            .map(|&i| options[ball.members[i].0].len())
            .collect();
        let combos = ms
            .iter()
            .try_fold(1usize, |acc, &m| {
                acc.checked_mul(m).filter(|&c| c <= TABLE_COMBO_CAP)
            })
            .ok_or_else(|| GameError::BackendUnsupported {
                reason: format!(
                    "local certificate table of node {} exceeds {TABLE_COMBO_CAP} rows",
                    v.0
                ),
            })?;
        let sub_id = IdAssignment::from_vec(
            &ball.graph,
            ball.members.iter().map(|&w| id.id(w).clone()).collect(),
        )
        .expect("one identifier per ball member");
        // Everything but the inner ball's certificates is fixed for the
        // radius: the routing, and the two paddings of the boundary ring
        // (A: empty, B: all-ones at budget). Each row only rewrites the
        // inner certificates of both paddings.
        let routing = Routing::new(&ball.graph, &sub_id);
        let mut pad_a =
            CertificateList::from_assignments(vec![CertificateAssignment::empty(&ball.graph)]);
        let mut pad_b = pad_a.clone();
        for &i in &ring {
            let ones = vec![true; budgets[ball.members[i].0]];
            pad_b.set_cert(0, NodeId(i), BitString::from_bools(&ones));
        }

        let mut verdicts = Vec::with_capacity(combos);
        for rank in 0..combos {
            combo_digits(rank, &ms, &mut digits);
            for (&d, &i) in digits.iter().zip(&inner) {
                let cert = &options[ball.members[i].0][d];
                pad_a.set_cert(0, NodeId(i), cert.clone());
                pad_b.set_cert(0, NodeId(i), cert.clone());
            }
            let out_a = run_outcome(arbiter, &routing, &pad_a, limits, runs)?;
            let verdict = out_a.verdicts[ball.center_local.0];
            if ring.is_empty() {
                // The ball is the whole (connected) graph: the replay IS
                // the real run, no locality argument needed.
                verdicts.push(verdict);
                continue;
            }
            if out_a.rounds > radius {
                radius = out_a.rounds;
                continue 'radius;
            }
            let out_b = run_outcome(arbiter, &routing, &pad_b, limits, runs)?;
            if out_b.rounds > radius {
                radius = out_b.rounds;
                continue 'radius;
            }
            if out_b.verdicts[ball.center_local.0] != verdict {
                // The verdict leaked past the assumed radius: grow it.
                radius += 1;
                continue 'radius;
            }
            verdicts.push(verdict);
        }
        return Ok(NodeTable {
            support: inner.iter().map(|&i| ball.members[i]).collect(),
            radix: ms,
            verdicts,
        });
    }
}

/// Allocates the per-node choice variables and blocks out-of-range codes.
fn encode_choices(options: &[Vec<BitString>]) -> Encoding {
    let mut cnf = Cnf::new();
    let n = options.len();
    let mut var_base = vec![0; n];
    let mut bits = vec![0; n];
    for (u, opts) in options.iter().enumerate() {
        let m = opts.len();
        let k = ceil_log2(m);
        var_base[u] = cnf.new_vars(k);
        bits[u] = k;
        for bad in m..(1usize << k) {
            cnf.add_clause((0..k).map(|j| Lit::with_sign(var_base[u] + j, (bad >> j) & 1 == 0)));
        }
    }
    Encoding {
        cnf,
        var_base,
        bits,
    }
}

/// The clause asserting "the support's choices differ from this table
/// row" (one literal per code bit, with the opposite polarity), after an
/// optional leading `guard` literal. `digits` is scratch space for the
/// decoded row.
fn row_blocking_clause(
    guard: Option<Lit>,
    table: &NodeTable,
    rank: usize,
    enc: &Encoding,
    digits: &mut Vec<usize>,
) -> Vec<Lit> {
    combo_digits(rank, &table.radix, digits);
    let width: usize = table.support.iter().map(|u| enc.bits[u.0]).sum();
    let mut clause = Vec::with_capacity(usize::from(guard.is_some()) + width);
    clause.extend(guard);
    for (digit, &u) in digits.iter().zip(&table.support) {
        for j in 0..enc.bits[u.0] {
            let bit = (digit >> j) & 1 == 1;
            clause.push(Lit::with_sign(enc.var_base[u.0] + j, !bit));
        }
    }
    clause
}

/// Reads the certificate assignment chosen by a SAT model.
fn decode_model(
    model: &[bool],
    g: &LabeledGraph,
    options: &[Vec<BitString>],
    enc: &Encoding,
) -> CertificateAssignment {
    let certs: Vec<BitString> = options
        .iter()
        .enumerate()
        .map(|(u, opts)| {
            let mut code = 0usize;
            for j in 0..enc.bits[u] {
                if model[enc.var_base[u] + j] {
                    code |= 1 << j;
                }
            }
            opts[code].clone()
        })
        .collect();
    CertificateAssignment::from_vec(g, certs).expect("one certificate per node")
}

fn decide_game_cdcl(
    arbiter: &dyn Arbitrating,
    g: &LabeledGraph,
    id: &IdAssignment,
    limits: &GameLimits,
) -> Result<GameResult, GameError> {
    let _span = lph_trace::span("game/cdcl");
    let spec = arbiter.spec().clone();
    if !id.is_locally_unique(g, spec.r_id) {
        return Err(GameError::IdsNotAdmissible { r_id: spec.r_id });
    }
    if spec.ell == 0 {
        let accepted = arbiter.accepts(g, id, &CertificateList::new(), &limits.exec)?;
        return Ok(GameResult {
            eve_wins: accepted,
            runs: 1,
            winning_first_move: None,
            refutation: None,
        });
    }
    if spec.ell > 1 {
        return Err(GameError::BackendUnsupported {
            reason: format!(
                "CNF compilation covers ℓ ≤ 1 games (ℓ ≥ 2 is quantified-Boolean), got ℓ = {}",
                spec.ell
            ),
        });
    }

    let budgets = spec.budgets(g, id, limits.cap_for_move(0));
    let options: Vec<Vec<BitString>> = budgets
        .iter()
        .map(|&b| enumerate::bitstrings_up_to(b))
        .collect();

    let mut runs = 0u64;
    let tables = {
        let _compile = lph_trace::span("game/cdcl_compile");
        let tables: Result<Vec<NodeTable>, GameError> = g
            .nodes()
            .map(|v| build_table(arbiter, g, id, &budgets, &options, v, limits, &mut runs))
            .collect();
        lph_trace::add("game/table_runs", runs);
        tables?
    };

    let mut enc = encode_choices(&options);
    let mut digits = Vec::new();
    match spec.first {
        Player::Eve => {
            for table in &tables {
                for (rank, &ok) in table.verdicts.iter().enumerate() {
                    if !ok {
                        enc.cnf.add_clause(row_blocking_clause(
                            None,
                            table,
                            rank,
                            &enc,
                            &mut digits,
                        ));
                    }
                }
            }
        }
        Player::Adam => {
            let selectors: Vec<usize> = tables.iter().map(|_| enc.cnf.new_var()).collect();
            enc.cnf.add_clause(selectors.iter().map(|&s| Lit::pos(s)));
            for (table, &s) in tables.iter().zip(&selectors) {
                for (rank, &ok) in table.verdicts.iter().enumerate() {
                    if ok {
                        let guard = Some(Lit::neg(s));
                        enc.cnf.add_clause(row_blocking_clause(
                            guard,
                            table,
                            rank,
                            &enc,
                            &mut digits,
                        ));
                    }
                }
            }
        }
    }
    lph_trace::add("game/cnf_vars", enc.cnf.num_vars() as u64);
    lph_trace::add("game/cnf_clauses", enc.cnf.clauses().len() as u64);

    let mut solver = Solver::with_config(
        &enc.cnf,
        SolverConfig {
            max_conflicts: Some(limits.max_runs),
            proof_log: true,
        },
    );
    let eve_moves_first = spec.first == Player::Eve;
    match solver.solve() {
        SolveOutcome::Unknown => Err(GameError::BudgetExceeded {
            limit: limits.max_runs,
        }),
        SolveOutcome::Unsat => {
            // Certify the refutation: the independent checker re-derives
            // the solver's proof from the game CNF, so "no witness" is
            // never taken on the solver's word alone.
            let proof = solver.take_proof().expect("proof logging is on");
            let evidence = match check_refutation(&enc.cnf, &proof) {
                Ok(stats) => RefutationEvidence::Checked {
                    proof_steps: proof.len(),
                    rup_propagations: stats.propagations,
                },
                Err(e) => RefutationEvidence::Unchecked {
                    cnf_mismatch: e.is_cnf_mismatch(),
                    reason: e.to_string(),
                },
            };
            lph_trace::add("game/refutations_checked", u64::from(evidence.is_checked()));
            Ok(GameResult {
                eve_wins: !eve_moves_first,
                runs,
                winning_first_move: None,
                refutation: Some(evidence),
            })
        }
        SolveOutcome::Sat(model) => {
            let assignment = decode_model(&model, g, &options, &enc);
            // Certify the witness on the full graph: the local tables are
            // an optimization, the arbiter is the authority.
            runs += 1;
            let list = CertificateList::new().extended(assignment.clone());
            let accepted = arbiter.accepts(g, id, &list, &limits.exec)?;
            if accepted != eve_moves_first {
                return Err(GameError::BackendUnsupported {
                    reason: "extracted certificate assignment failed its arbiter replay — \
                             the local acceptance tables are not faithful for this arbiter"
                        .into(),
                });
            }
            Ok(GameResult {
                eve_wins: eve_moves_first,
                runs,
                winning_first_move: Some(assignment),
                refutation: None,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiters;
    use lph_graphs::generators;

    #[test]
    fn backend_wire_names_round_trip() {
        for b in [
            GameBackend::Exhaustive,
            GameBackend::Cdcl,
            GameBackend::Auto,
        ] {
            assert_eq!(GameBackend::parse(b.as_str()), Some(b));
        }
        assert_eq!(GameBackend::parse("sat"), None);
    }

    #[test]
    fn cdcl_agrees_with_exhaustive_on_three_coloring() {
        for (g, colorable) in [
            (generators::cycle(4), true),
            (generators::cycle(5), true),
            (generators::complete(3), true),
            (generators::complete(4), false),
        ] {
            let arb = arbiters::three_colorable_verifier();
            let id = IdAssignment::global(&g);
            let limits = GameLimits::default();
            let ex = decide_game_backend(&arb, &g, &id, &limits, GameBackend::Exhaustive).unwrap();
            let sat = decide_game_backend(&arb, &g, &id, &limits, GameBackend::Cdcl).unwrap();
            assert_eq!(ex.eve_wins, colorable);
            assert_eq!(sat.eve_wins, colorable, "CDCL disagrees on {g:?}");
            assert!(ex.refutation.is_none(), "exhaustive results carry none");
            if colorable {
                assert!(sat.winning_first_move.is_some());
                assert!(sat.refutation.is_none(), "witness verdicts carry none");
            } else {
                // Σ₁-no: the verdict must come with a checked refutation.
                let ev = sat.refutation.expect("UNSAT verdicts carry evidence");
                assert!(ev.is_checked(), "refutation not checked: {ev:?}");
            }
        }
    }

    #[test]
    fn pi1_yes_verdicts_carry_checked_refutations() {
        // ALL-SELECTED on an all-ones cycle: Eve wins the Π₁ game, which
        // the CDCL side establishes via UNSAT of the rejection encoding.
        use lph_graphs::BitString;
        let arb = arbiters::all_selected_pi1();
        let base = generators::cycle(5);
        let ones = vec![BitString::from_bits01("1"); base.node_count()];
        let g = base.with_labels(ones).expect("arity matches");
        let id = IdAssignment::global(&g);
        let res =
            decide_game_backend(&arb, &g, &id, &GameLimits::default(), GameBackend::Cdcl).unwrap();
        assert!(res.eve_wins);
        let ev = res.refutation.expect("Π₁-yes rests on an UNSAT answer");
        assert!(ev.is_checked(), "refutation not checked: {ev:?}");
        match ev {
            RefutationEvidence::Checked {
                proof_steps,
                rup_propagations,
            } => {
                assert!(proof_steps >= 1);
                assert!(rup_propagations > 0);
            }
            RefutationEvidence::Unchecked { .. } => unreachable!("is_checked held"),
        }
    }

    #[test]
    fn cdcl_scales_past_the_exhaustive_move_guard() {
        // Cycle of 60 nodes: the Σ₁ move space is 7⁶⁰ assignments, far past
        // the exhaustive enumerator's 2²⁰ guard — but 3-coloring tables are
        // 343 rows per node and CDCL settles the game.
        let g = generators::cycle(60);
        let arb = arbiters::three_colorable_verifier();
        let id = IdAssignment::global(&g);
        let limits = GameLimits::default();
        let err = decide_game_backend(&arb, &g, &id, &limits, GameBackend::Exhaustive).unwrap_err();
        assert!(matches!(err, GameError::MoveSpaceTooLarge { .. }));
        let res = decide_game_backend(&arb, &g, &id, &limits, GameBackend::Cdcl).unwrap();
        assert!(res.eve_wins, "even cycles are 3-colorable");
        assert!(res.winning_first_move.is_some());
    }

    #[test]
    fn every_row_replays_both_paddings_after_the_radius_probe() {
        // Per node: one radius-1 replay that outruns its radius, then both
        // paddings of every radius-2 row — or one run per row once the
        // ball is the whole graph (K4). A SAT verdict adds one full-graph
        // witness replay.
        let cases = [
            (
                arbiters::three_colorable_verifier(),
                generators::cycle(12),
                12 * (1 + 2 * 343) + 1,
            ),
            (
                arbiters::two_colorable_verifier(),
                generators::cycle(15),
                15 * (1 + 2 * 27),
            ),
            (
                arbiters::three_colorable_verifier(),
                generators::complete(4),
                4 * (1 + 2401),
            ),
        ];
        for (arb, g, runs) in cases {
            let id = IdAssignment::global(&g);
            let res = decide_game_backend(&arb, &g, &id, &GameLimits::default(), GameBackend::Cdcl)
                .unwrap();
            assert_eq!(res.runs, runs, "replay count on {g:?}");
        }
    }

    #[test]
    fn cdcl_reports_ids_the_machine_rejects() {
        // `r_id = 0` admits any identifiers, but the LOCAL engine needs
        // them 1-locally unique: the first table replay fails.
        use crate::arbiter::Arbiter;
        use crate::game::GameSpec;
        use lph_graphs::PolyBound;
        use lph_machine::{MachineError, NodeCtx, NodeInput, NodeProgram, RoundAction};

        fn accept_all(_input: NodeInput) -> Box<dyn NodeProgram> {
            Box::new(|ctx: &mut NodeCtx, _r: usize, _i: &[BitString]| {
                ctx.charge(1);
                RoundAction::accept()
            })
        }
        let spec = GameSpec::sigma(1, 0, 1, PolyBound::linear(0, 1));
        let arb = Arbiter::from_local("accept-all", spec, accept_all);
        let g = generators::path(2);
        let id = IdAssignment::from_vec(&g, vec![BitString::new(), BitString::new()]).unwrap();
        let err = decide_game_backend(&arb, &g, &id, &GameLimits::default(), GameBackend::Cdcl)
            .unwrap_err();
        assert_eq!(err, GameError::Machine(MachineError::IdsNotLocallyUnique));
    }

    #[test]
    fn auto_falls_back_for_higher_levels() {
        // Σ₂ game: quantified-Boolean, so Auto must route to exhaustive and
        // still produce an answer.
        use crate::arbiter::Arbiter;
        use crate::game::GameSpec;
        use lph_graphs::PolyBound;
        use lph_machine::{LocalAlgorithm, NodeCtx, NodeInput, NodeProgram, RoundAction};

        struct Match12;
        impl LocalAlgorithm for Match12 {
            fn spawn(&self, input: NodeInput) -> Box<dyn NodeProgram> {
                let ok =
                    input.certificates.len() == 2 && input.certificates[0] == input.certificates[1];
                Box::new(move |ctx: &mut NodeCtx, _r: usize, _i: &[BitString]| {
                    ctx.charge(1);
                    RoundAction::verdict(ok)
                })
            }
        }
        let spec = GameSpec::sigma(2, 1, 1, PolyBound::linear(0, 1));
        let arb = Arbiter::from_local("match", spec, Match12);
        let g = generators::path(2);
        let id = IdAssignment::global(&g);
        let limits = GameLimits {
            cert_len_cap: Some(1),
            ..GameLimits::default()
        };
        let auto = decide_game_backend(&arb, &g, &id, &limits, GameBackend::Auto).unwrap();
        assert!(!auto.eve_wins);
        let err = decide_game_backend(&arb, &g, &id, &limits, GameBackend::Cdcl).unwrap_err();
        assert!(matches!(err, GameError::BackendUnsupported { .. }));
    }
}
