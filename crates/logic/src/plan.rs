//! A compilation tier for sentence checking: formulas are lowered once
//! into fused evaluation plans executed by a non-recursive-friendly flat
//! arena walker, and the surrounding Eve/Adam game runs over `u64`
//! relation bitmasks instead of per-candidate [`Relation`] trees.
//!
//! The interpreter in [`crate::check`] pays for its directness: every
//! variable lookup is a linear scan of the assignment stack, every
//! second-order atom allocates a tuple, every bounded quantifier re-runs a
//! BFS for its Gaifman ball, and every game-tree node rebuilds a
//! `BTreeSet`-backed relation. [`CompiledSentence`] removes all four costs:
//!
//! * **Hash-consed plan arena** — the matrix is lowered to a flat
//!   `Vec<PlanOp>` with structurally equal subformulas interned to one
//!   node, variables resolved to dense slots (O(1) reads), and `→`
//!   expanded into `∨/¬`.
//! * **Constant folding** — `⊤`/`⊥` propagate through connectives and
//!   through quantifiers where soundness permits (`∃x φ` and `∀x φ` fold
//!   both ways because domains are non-empty; `⇌≤r` quantifiers fold both
//!   ways because a ball always contains its anchor; plain `⇌` only folds
//!   `∃…⊥ ↝ ⊥` and `∀…⊤ ↝ ⊤` since an element may have no neighbors).
//! * **Short-circuit ordering** — `∧`/`∨` children are stably reordered
//!   cheapest-first by a static cost estimate, so selective atoms run
//!   before quantified subtrees. This is a pure optimization: formula
//!   evaluation has no observable side effects.
//! * **Mask-backed game** — candidate relations stay the `u64` masks the
//!   enumeration already iterates; a second-order atom becomes a
//!   mixed-radix rank plus one bit test. Gaifman balls are memoized per
//!   `(element, radius)` and tuple buffers are reused.
//!
//! The interpreter remains the oracle. A compiled check must return the
//! same verdict and the same [`CheckError`] as the interpreted one —
//! universes are hoisted in prefix order (observationally identical, since
//! the lazy interpreter also computes every universe before the first
//! matrix evaluation), the mask enumeration order and short-circuiting are
//! identical, and the matrix-evaluation budget counts the same events.
//! `crates/logic/tests/compiled_differential.rs` pins this over the corpus
//! and seeded random sentences.

use std::collections::HashMap;
use std::rc::Rc;

use lph_graphs::{ElemId, GraphStructure, Structure};

use crate::check::{CheckError, CheckOptions};
use crate::sentence::{Matrix, Quantifier, Sentence, SoQuant, Support};
use crate::var::{FoVar, Relation, SoVar};
use crate::Formula;

/// One lowered plan node. Children are arena indices; variables are dense
/// slot indices assigned at compile time.
///
/// Public for introspection by static verifiers (see `lph-analysis`'s
/// `flow::plan`); the evaluator in this module is the only executor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PlanOp {
    /// A folded constant.
    Const(bool),
    /// A unary-relation atom `Rel(x)`.
    Unary {
        /// Unary relation index.
        rel: usize,
        /// First-order slot of the argument.
        x: usize,
    },
    /// A binary-relation atom `Rel(x, y)`.
    Edge {
        /// Binary relation index.
        rel: usize,
        /// First-order slot of the first argument.
        x: usize,
        /// First-order slot of the second argument.
        y: usize,
    },
    /// Equality of two first-order slots.
    Eq(usize, usize),
    /// A second-order atom `X(args…)`.
    App {
        /// Second-order slot (prefix position).
        so: usize,
        /// First-order slots of the arguments.
        args: Vec<usize>,
    },
    /// Negation.
    Not(usize),
    /// Conjunction over child nodes (short-circuit, cheapest-first).
    And(Vec<usize>),
    /// Disjunction over child nodes (short-circuit, cheapest-first).
    Or(Vec<usize>),
    /// Biconditional.
    Iff(usize, usize),
    /// Unbounded `∃x` over the whole domain.
    Exists {
        /// Slot bound by the quantifier.
        slot: usize,
        /// Body node.
        body: usize,
    },
    /// Unbounded `∀x` over the whole domain.
    Forall {
        /// Slot bound by the quantifier.
        slot: usize,
        /// Body node.
        body: usize,
    },
    /// Bounded `∃x ⇌ anchor` over the anchor's Gaifman neighbors.
    ExistsAdj {
        /// Slot bound by the quantifier.
        slot: usize,
        /// Slot of the anchor variable.
        anchor: usize,
        /// Body node.
        body: usize,
    },
    /// Bounded `∀x ⇌ anchor` over the anchor's Gaifman neighbors.
    ForallAdj {
        /// Slot bound by the quantifier.
        slot: usize,
        /// Slot of the anchor variable.
        anchor: usize,
        /// Body node.
        body: usize,
    },
    /// Bounded `∃x ⇌≤r anchor` over the anchor's radius-`r` ball.
    ExistsNear {
        /// Slot bound by the quantifier.
        slot: usize,
        /// Slot of the anchor variable.
        anchor: usize,
        /// Ball radius.
        radius: usize,
        /// Body node.
        body: usize,
    },
    /// Bounded `∀x ⇌≤r anchor` over the anchor's radius-`r` ball.
    ForallNear {
        /// Slot bound by the quantifier.
        slot: usize,
        /// Slot of the anchor variable.
        anchor: usize,
        /// Ball radius.
        radius: usize,
        /// Body node.
        body: usize,
    },
}

/// A [`Sentence`] lowered to an executable plan. Compile once with
/// [`CompiledSentence::compile`], check any number of structures.
#[derive(Debug, Clone)]
pub struct CompiledSentence {
    sentence: Sentence,
    ops: Vec<PlanOp>,
    root: usize,
    /// Slot of the `Lfo` matrix's `∀x` variable, if the matrix is local.
    lfo_slot: Option<usize>,
    fo_slots: usize,
    so_slots: usize,
}

struct Lowerer {
    ops: Vec<PlanOp>,
    costs: Vec<u64>,
    interned: HashMap<PlanOp, usize>,
    fo_slots: HashMap<FoVar, usize>,
    so_slots: HashMap<SoVar, usize>,
}

impl Lowerer {
    /// Interns an op, computing its cost estimate on first sight.
    fn intern(&mut self, op: PlanOp) -> usize {
        if let Some(&id) = self.interned.get(&op) {
            return id;
        }
        let cost = self.cost_of(&op);
        let id = self.ops.len();
        self.ops.push(op.clone());
        self.costs.push(cost);
        self.interned.insert(op, id);
        id
    }

    /// A static cost estimate used only for short-circuit ordering: atoms
    /// cost 1, connectives sum, quantifiers multiply by a nominal range
    /// width (the domain size is unknown at compile time).
    fn cost_of(&self, op: &PlanOp) -> u64 {
        let c = |id: usize| self.costs[id];
        match op {
            PlanOp::Const(_) => 0,
            PlanOp::Unary { .. } | PlanOp::Edge { .. } | PlanOp::Eq(..) => 1,
            PlanOp::App { args, .. } => 1 + args.len() as u64,
            PlanOp::Not(a) => 1 + c(*a),
            PlanOp::And(children) | PlanOp::Or(children) => {
                1 + children.iter().map(|&ch| c(ch)).sum::<u64>()
            }
            PlanOp::Iff(a, b) => 1 + c(*a) + c(*b),
            PlanOp::Exists { body, .. } | PlanOp::Forall { body, .. } => 1 + 8 * c(*body),
            PlanOp::ExistsAdj { body, .. } | PlanOp::ForallAdj { body, .. } => 1 + 4 * c(*body),
            PlanOp::ExistsNear { radius, body, .. } | PlanOp::ForallNear { radius, body, .. } => {
                1 + (2 * *radius as u64 + 2).saturating_mul(c(*body))
            }
        }
        .min(u64::MAX / 4)
    }

    fn fo_slot(&mut self, x: FoVar) -> usize {
        let next = self.fo_slots.len();
        *self.fo_slots.entry(x).or_insert(next)
    }

    fn konst(&mut self, b: bool) -> usize {
        self.intern(PlanOp::Const(b))
    }

    fn as_const(&self, id: usize) -> Option<bool> {
        match self.ops[id] {
            PlanOp::Const(b) => Some(b),
            _ => None,
        }
    }

    fn mk_not(&mut self, a: usize) -> usize {
        if let Some(b) = self.as_const(a) {
            return self.konst(!b);
        }
        if let PlanOp::Not(inner) = self.ops[a] {
            return inner;
        }
        self.intern(PlanOp::Not(a))
    }

    /// Builds an `∧`/`∨` after folding its absorbing/neutral constants,
    /// deduplicating interned children, and stably sorting cheapest-first.
    fn mk_nary(&mut self, or: bool, children: Vec<usize>) -> usize {
        let mut kept = Vec::with_capacity(children.len());
        for ch in children {
            match self.as_const(ch) {
                Some(b) if b == or => return self.konst(or),
                Some(_) => {}
                None => {
                    if !kept.contains(&ch) {
                        kept.push(ch);
                    }
                }
            }
        }
        match kept.len() {
            0 => self.konst(!or),
            1 => kept[0],
            _ => {
                kept.sort_by_key(|&ch| self.costs[ch]);
                self.intern(if or {
                    PlanOp::Or(kept)
                } else {
                    PlanOp::And(kept)
                })
            }
        }
    }

    fn mk_iff(&mut self, a: usize, b: usize) -> usize {
        match (self.as_const(a), self.as_const(b)) {
            (Some(x), Some(y)) => self.konst(x == y),
            (Some(true), None) => b,
            (Some(false), None) => self.mk_not(b),
            (None, Some(true)) => a,
            (None, Some(false)) => self.mk_not(a),
            (None, None) if a == b => self.konst(true),
            _ => self.intern(PlanOp::Iff(a, b)),
        }
    }

    fn lower(&mut self, f: &Formula) -> usize {
        match f {
            Formula::True => self.konst(true),
            Formula::False => self.konst(false),
            Formula::Unary { rel, x } => {
                let x = self.fo_slot(*x);
                self.intern(PlanOp::Unary { rel: *rel, x })
            }
            Formula::Edge { rel, x, y } => {
                let x = self.fo_slot(*x);
                let y = self.fo_slot(*y);
                self.intern(PlanOp::Edge { rel: *rel, x, y })
            }
            Formula::Eq(x, y) => {
                let x = self.fo_slot(*x);
                let y = self.fo_slot(*y);
                if x == y {
                    return self.konst(true);
                }
                self.intern(PlanOp::Eq(x, y))
            }
            Formula::App { rel, args } => {
                let so = self.so_slots[rel];
                let args = args.iter().map(|&a| self.fo_slot(a)).collect();
                self.intern(PlanOp::App { so, args })
            }
            Formula::Not(g) => {
                let a = self.lower(g);
                self.mk_not(a)
            }
            Formula::And(fs) => {
                let children = fs.iter().map(|g| self.lower(g)).collect();
                self.mk_nary(false, children)
            }
            Formula::Or(fs) => {
                let children = fs.iter().map(|g| self.lower(g)).collect();
                self.mk_nary(true, children)
            }
            Formula::Implies(a, b) => {
                let a = self.lower(a);
                let na = self.mk_not(a);
                let b = self.lower(b);
                self.mk_nary(true, vec![na, b])
            }
            Formula::Iff(a, b) => {
                let a = self.lower(a);
                let b = self.lower(b);
                self.mk_iff(a, b)
            }
            Formula::Exists { x, body } => {
                let slot = self.fo_slot(*x);
                let body = self.lower(body);
                // Domains are non-empty (`Structure::new` asserts it), so
                // a constant body decides the quantifier either way.
                match self.as_const(body) {
                    Some(b) => self.konst(b),
                    None => self.intern(PlanOp::Exists { slot, body }),
                }
            }
            Formula::Forall { x, body } => {
                let slot = self.fo_slot(*x);
                let body = self.lower(body);
                match self.as_const(body) {
                    Some(b) => self.konst(b),
                    None => self.intern(PlanOp::Forall { slot, body }),
                }
            }
            Formula::ExistsAdj { x, anchor, body } => {
                let slot = self.fo_slot(*x);
                let anchor = self.fo_slot(*anchor);
                let body = self.lower(body);
                // An element may be isolated, so only `⊥` folds.
                match self.as_const(body) {
                    Some(false) => self.konst(false),
                    _ => self.intern(PlanOp::ExistsAdj { slot, anchor, body }),
                }
            }
            Formula::ForallAdj { x, anchor, body } => {
                let slot = self.fo_slot(*x);
                let anchor = self.fo_slot(*anchor);
                let body = self.lower(body);
                match self.as_const(body) {
                    Some(true) => self.konst(true),
                    _ => self.intern(PlanOp::ForallAdj { slot, anchor, body }),
                }
            }
            Formula::ExistsNear {
                x,
                anchor,
                radius,
                body,
            } => {
                let slot = self.fo_slot(*x);
                let anchor = self.fo_slot(*anchor);
                let body = self.lower(body);
                // A ball always contains its anchor, so both constants fold.
                match self.as_const(body) {
                    Some(b) => self.konst(b),
                    None => self.intern(PlanOp::ExistsNear {
                        slot,
                        anchor,
                        radius: *radius,
                        body,
                    }),
                }
            }
            Formula::ForallNear {
                x,
                anchor,
                radius,
                body,
            } => {
                let slot = self.fo_slot(*x);
                let anchor = self.fo_slot(*anchor);
                let body = self.lower(body);
                match self.as_const(body) {
                    Some(b) => self.konst(b),
                    None => self.intern(PlanOp::ForallNear {
                        slot,
                        anchor,
                        radius: *radius,
                        body,
                    }),
                }
            }
        }
    }
}

impl CompiledSentence {
    /// Lowers a sentence's matrix into an evaluation plan. Second-order
    /// variables are slotted by their position in the quantifier prefix.
    pub fn compile(sentence: &Sentence) -> Self {
        let mut l = Lowerer {
            ops: Vec::new(),
            costs: Vec::new(),
            interned: HashMap::new(),
            fo_slots: HashMap::new(),
            so_slots: sentence
                .flat_quantifiers()
                .iter()
                .enumerate()
                .map(|(i, (_, q))| (q.var, i))
                .collect(),
        };
        let (root, lfo_slot) = match &sentence.matrix {
            Matrix::Lfo { x, body } => {
                let slot = l.fo_slot(*x);
                (l.lower(body), Some(slot))
            }
            Matrix::Fo(f) => (l.lower(f), None),
        };
        CompiledSentence {
            sentence: sentence.clone(),
            so_slots: l.so_slots.len(),
            fo_slots: l.fo_slots.len(),
            ops: l.ops,
            root,
            lfo_slot,
        }
    }

    /// The source sentence.
    pub fn sentence(&self) -> &Sentence {
        &self.sentence
    }

    /// The number of distinct plan nodes after folding and hash-consing
    /// (at most the matrix's [`Formula::node_count`]).
    pub fn plan_len(&self) -> usize {
        self.ops.len()
    }

    /// The hash-consed plan arena, for introspection by static verifiers.
    /// Node `i`'s children are always indices `< i` (the arena is built
    /// bottom-up), so a single forward pass visits children first.
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// The arena index of the matrix's root node.
    pub fn root(&self) -> usize {
        self.root
    }

    /// The slot of the `Lfo` matrix's implicit `∀°x` variable, if the
    /// matrix is local.
    pub fn lfo_slot(&self) -> Option<usize> {
        self.lfo_slot
    }

    /// The number of dense first-order slots the plan binds.
    pub fn fo_slot_count(&self) -> usize {
        self.fo_slots
    }

    /// The number of second-order slots (prefix positions).
    pub fn so_slot_count(&self) -> usize {
        self.so_slots
    }

    /// Overwrites one arena node with an arbitrary payload. This is a
    /// *mutation hook* for verifier fixtures and demos: it deliberately
    /// performs no validity checks, so the result can (and usually
    /// should) be a plan the static verifier rejects.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn patch_op(&mut self, id: usize, op: PlanOp) {
        self.ops[id] = op;
    }

    /// The compiled counterpart of [`Sentence::check`]: same verdicts,
    /// same errors, on the same inputs.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Sentence::check`].
    pub fn check(
        &self,
        s: &Structure,
        nodes: Option<&[ElemId]>,
        opts: &CheckOptions,
    ) -> Result<bool, CheckError> {
        self.check_with_witness(&[], s, nodes, opts)
    }

    /// The compiled counterpart of [`Sentence::check_on_graph`].
    ///
    /// # Errors
    ///
    /// Exactly those of [`Sentence::check_on_graph`].
    pub fn check_on_graph(
        &self,
        gs: &GraphStructure,
        opts: &CheckOptions,
    ) -> Result<bool, CheckError> {
        self.check(gs.structure(), Some(gs.node_elems()), opts)
    }

    /// The compiled counterpart of [`Sentence::check_with_witness`].
    ///
    /// # Errors
    ///
    /// Exactly those of [`Sentence::check_with_witness`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`Sentence::check_with_witness`].
    pub fn check_with_witness(
        &self,
        witnesses: &[Relation],
        s: &Structure,
        nodes: Option<&[ElemId]>,
        opts: &CheckOptions,
    ) -> Result<bool, CheckError> {
        let quants = self.sentence.flat_quantifiers();
        assert!(witnesses.len() <= quants.len(), "too many witnesses");
        for (w, (_, sq)) in witnesses.iter().zip(&quants) {
            assert_eq!(w.arity(), sq.var.arity as usize, "witness arity mismatch");
        }
        let domain = s.elements().count();
        let mut so = vec![SoBind::Unbound; self.so_slots];
        for (i, w) in witnesses.iter().enumerate() {
            so[i] = SoBind::Rel(w);
        }
        // Hoist the remaining universes in prefix order. Observationally
        // identical to the interpreter's lazy computation: its game always
        // recurses at least once per level (mask 0 exists even for empty
        // universes), so every universe is computed before the first
        // matrix evaluation — and thus before any budget error.
        let open = &quants[witnesses.len()..];
        let unis = open
            .iter()
            .map(|(_, sq)| Universe::build(s, nodes, opts, sq, domain))
            .collect::<Result<Vec<_>, _>>()?;
        let mut game = Game {
            ev: Evaluator {
                s,
                ops: &self.ops,
                domain,
                fo: vec![None; self.fo_slots],
                so,
                unis,
                balls: HashMap::new(),
                scratch: Vec::new(),
            },
            root: self.root,
            lfo_slot: self.lfo_slot,
            opts: *opts,
            evals: 0,
            quants: open.iter().map(|&(q, _)| q).collect(),
            witness_count: witnesses.len(),
        };
        game.play(0)
    }
}

/// The hoisted tuple universe of one open quantifier: enough to rank a
/// tuple (mixed-radix over element positions) without materializing the
/// tuple list.
struct Universe {
    /// Number of tuples (`len^k`); the mask space is `2^count`.
    count: usize,
    k: usize,
    len: usize,
    /// `ElemId → position` in the universe's element list
    /// (`u32::MAX` = not in the universe).
    pos: Vec<u32>,
}

impl Universe {
    fn build(
        s: &Structure,
        nodes: Option<&[ElemId]>,
        opts: &CheckOptions,
        q: &SoQuant,
        domain: usize,
    ) -> Result<Universe, CheckError> {
        let elems: Vec<ElemId> = match (q.support, nodes) {
            (Support::NodesOnly, Some(nodes)) => nodes.to_vec(),
            _ => s.elements().collect(),
        };
        let k = q.var.arity as usize;
        let count = elems.len().checked_pow(k as u32).unwrap_or(usize::MAX);
        if count > opts.max_tuples_per_var {
            return Err(CheckError::TooManyTuples {
                var: q.var.to_string(),
                tuples: count,
                limit: opts.max_tuples_per_var,
            });
        }
        let mut pos = vec![u32::MAX; domain];
        for (p, &e) in elems.iter().enumerate() {
            pos[e.0] = p as u32;
        }
        Ok(Universe {
            count,
            k,
            len: elems.len(),
            pos,
        })
    }
}

/// A second-order binding: a game-enumerated mask over a hoisted universe,
/// or a caller-supplied witness relation.
#[derive(Clone)]
enum SoBind<'a> {
    Unbound,
    Mask {
        /// Index into [`Evaluator::unis`].
        uni: usize,
        mask: u64,
    },
    Rel(&'a Relation),
}

struct Evaluator<'a> {
    s: &'a Structure,
    ops: &'a [PlanOp],
    domain: usize,
    fo: Vec<Option<ElemId>>,
    so: Vec<SoBind<'a>>,
    unis: Vec<Universe>,
    /// Gaifman balls memoized per `(element, radius)`; `Rc` so iteration
    /// doesn't hold a borrow across recursive evaluation.
    balls: HashMap<(ElemId, usize), Rc<[ElemId]>>,
    /// Reusable tuple buffer for witness-relation membership tests.
    scratch: Vec<ElemId>,
}

impl Evaluator<'_> {
    fn elem(&self, slot: usize) -> ElemId {
        self.fo[slot].expect("unassigned variable")
    }

    fn ball(&mut self, base: ElemId, radius: usize) -> Rc<[ElemId]> {
        if let Some(b) = self.balls.get(&(base, radius)) {
            return Rc::clone(b);
        }
        let b: Rc<[ElemId]> = self.s.gaifman_ball(base, radius).into();
        self.balls.insert((base, radius), Rc::clone(&b));
        b
    }

    /// Evaluates over a quantifier's element range with save/restore slot
    /// binding (LIFO shadowing for free).
    fn quantify(
        &mut self,
        slot: usize,
        body: usize,
        exists: bool,
        range: impl IntoIterator<Item = ElemId>,
    ) -> bool {
        let saved = self.fo[slot];
        let mut out = !exists;
        for a in range {
            self.fo[slot] = Some(a);
            if self.eval(body) == exists {
                out = exists;
                break;
            }
        }
        self.fo[slot] = saved;
        out
    }

    fn eval(&mut self, id: usize) -> bool {
        // `ops` and `s` are `'a` borrows independent of `&mut self`:
        // copying the references out lets the match arms hold op payloads
        // (child lists, neighbor slices) across recursive calls without
        // cloning anything in the hot path.
        let ops = self.ops;
        let s = self.s;
        match &ops[id] {
            PlanOp::Const(b) => *b,
            PlanOp::Unary { rel, x } => s.in_unary(*rel, self.elem(*x)),
            PlanOp::Edge { rel, x, y } => s.related(*rel, self.elem(*x), self.elem(*y)),
            PlanOp::Eq(x, y) => self.elem(*x) == self.elem(*y),
            PlanOp::App { so, args } => match &self.so[*so] {
                SoBind::Mask { uni, mask } => {
                    let u = &self.unis[*uni];
                    debug_assert_eq!(args.len(), u.k);
                    let mut rank = 0usize;
                    for &a in args {
                        let p = u.pos[self.fo[a].expect("unassigned variable").0];
                        if p == u32::MAX {
                            return false;
                        }
                        rank = rank * u.len + p as usize;
                    }
                    mask >> rank & 1 == 1
                }
                SoBind::Rel(rel) => {
                    let mut tuple = std::mem::take(&mut self.scratch);
                    tuple.clear();
                    for &a in args {
                        tuple.push(self.fo[a].expect("unassigned variable"));
                    }
                    let v = rel.contains(&tuple);
                    self.scratch = tuple;
                    v
                }
                SoBind::Unbound => panic!("unassigned relation variable"),
            },
            PlanOp::Not(a) => !self.eval(*a),
            PlanOp::And(children) => children.iter().all(|&ch| self.eval(ch)),
            PlanOp::Or(children) => children.iter().any(|&ch| self.eval(ch)),
            PlanOp::Iff(a, b) => self.eval(*a) == self.eval(*b),
            PlanOp::Exists { slot, body } => {
                let n = self.domain;
                self.quantify(*slot, *body, true, (0..n).map(ElemId))
            }
            PlanOp::Forall { slot, body } => {
                let n = self.domain;
                self.quantify(*slot, *body, false, (0..n).map(ElemId))
            }
            PlanOp::ExistsAdj { slot, anchor, body } => {
                let base = self.elem(*anchor);
                let nbrs = s.gaifman_neighbors(base);
                self.quantify(*slot, *body, true, nbrs.iter().copied())
            }
            PlanOp::ForallAdj { slot, anchor, body } => {
                let base = self.elem(*anchor);
                let nbrs = s.gaifman_neighbors(base);
                self.quantify(*slot, *body, false, nbrs.iter().copied())
            }
            PlanOp::ExistsNear {
                slot,
                anchor,
                radius,
                body,
            } => {
                let base = self.elem(*anchor);
                let ball = self.ball(base, *radius);
                self.quantify(*slot, *body, true, ball.iter().copied())
            }
            PlanOp::ForallNear {
                slot,
                anchor,
                radius,
                body,
            } => {
                let base = self.elem(*anchor);
                let ball = self.ball(base, *radius);
                self.quantify(*slot, *body, false, ball.iter().copied())
            }
        }
    }
}

struct Game<'a> {
    ev: Evaluator<'a>,
    root: usize,
    lfo_slot: Option<usize>,
    opts: CheckOptions,
    evals: u64,
    /// Quantifier kinds of the open (non-witness) prefix positions.
    quants: Vec<Quantifier>,
    witness_count: usize,
}

impl Game<'_> {
    fn eval_matrix(&mut self) -> Result<bool, CheckError> {
        self.evals += 1;
        if self.evals > self.opts.max_matrix_evals {
            return Err(CheckError::BudgetExceeded {
                limit: self.opts.max_matrix_evals,
            });
        }
        Ok(match self.lfo_slot {
            Some(slot) => {
                let (root, n) = (self.root, self.ev.domain);
                self.ev.quantify(slot, root, false, (0..n).map(ElemId))
            }
            None => self.ev.eval(self.root),
        })
    }

    fn play(&mut self, i: usize) -> Result<bool, CheckError> {
        if i == self.quants.len() {
            return self.eval_matrix();
        }
        let quant = self.quants[i];
        let slot = self.witness_count + i;
        let t = self.ev.unis[i].count;
        debug_assert!(t <= 63);
        for mask in 0u64..(1u64 << t) {
            self.ev.so[slot] = SoBind::Mask { uni: i, mask };
            let sub = self.play(i + 1);
            self.ev.so[slot] = SoBind::Unbound;
            let sub = sub?;
            match quant {
                Quantifier::Exists if sub => return Ok(true),
                Quantifier::Forall if !sub => return Ok(false),
                _ => {}
            }
        }
        Ok(quant == Quantifier::Forall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::examples;
    use crate::sentence::SoBlock;
    use lph_graphs::generators;

    fn assert_same(phi: &Sentence, gs: &GraphStructure, opts: &CheckOptions) {
        let interp = phi.check_on_graph(gs, opts);
        let compiled = CompiledSentence::compile(phi).check_on_graph(gs, opts);
        assert_eq!(interp, compiled, "backends disagree on {phi}");
    }

    #[test]
    fn examples_agree_on_small_graphs() {
        let opts = CheckOptions::default();
        for phi in [
            examples::all_selected(),
            examples::three_colorable(),
            examples::k_colorable(2),
            examples::not_all_selected(),
        ] {
            for g in [
                generators::labeled_cycle(&["1", "1", "1"]),
                generators::labeled_path(&["1", "0"]),
                generators::labeled_cycle(&["1", "0", "1", "1"]),
                generators::star(3),
            ] {
                assert_same(&phi, &GraphStructure::of(&g), &opts);
            }
        }
    }

    #[test]
    fn budget_errors_agree() {
        let x = FoVar(0);
        let big_x = SoVar::set(0);
        let phi = Sentence::new(
            vec![SoBlock {
                quantifier: Quantifier::Exists,
                vars: vec![SoQuant::all(big_x)],
            }],
            Matrix::Fo(forall(x, app(big_x, vec![x]))),
        );
        let g = generators::path(3);
        let gs = GraphStructure::of(&g);
        let opts = CheckOptions {
            max_matrix_evals: 2,
            max_tuples_per_var: 22,
        };
        assert_same(&phi, &gs, &opts);
        assert_eq!(
            CompiledSentence::compile(&phi).check_on_graph(&gs, &opts),
            Err(CheckError::BudgetExceeded { limit: 2 })
        );
    }

    #[test]
    fn tuple_limit_errors_agree() {
        let g = generators::path(5);
        let gs = GraphStructure::of(&g);
        let r = SoVar::binary(0);
        let x = FoVar(0);
        let phi = Sentence::new(
            vec![SoBlock {
                quantifier: Quantifier::Exists,
                vars: vec![SoQuant::all(r)],
            }],
            Matrix::Fo(forall(x, not(app(r, vec![x, x])))),
        );
        assert_same(&phi, &gs, &CheckOptions::default());
    }

    #[test]
    fn witness_checking_agrees() {
        let x = FoVar(0);
        let big_x = SoVar::set(0);
        let phi = Sentence::new(
            vec![SoBlock {
                quantifier: Quantifier::Exists,
                vars: vec![SoQuant::all(big_x)],
            }],
            Matrix::Fo(forall(x, iff(app(big_x, vec![x]), unary(0, x)))),
        );
        let g = generators::labeled_path(&["1", "0"]);
        let gs = GraphStructure::of(&g);
        let s = gs.structure();
        let opts = CheckOptions::default();
        let compiled = CompiledSentence::compile(&phi);
        for w in [Relation::from_set(s.unary_members(0)), Relation::empty(1)] {
            assert_eq!(
                phi.check_with_witness(std::slice::from_ref(&w), s, None, &opts),
                compiled.check_with_witness(&[w], s, None, &opts)
            );
        }
    }

    #[test]
    fn folding_shrinks_the_plan() {
        let (x, y) = (FoVar(0), FoVar(1));
        // (⊤ ∧ ∃y⇌≤1x ⊤) ∧ (x ≐ x) folds to ⊤ entirely.
        let body = and(vec![
            and(vec![Formula::True, exists_near(y, x, 1, Formula::True)]),
            eq(x, x),
        ]);
        let phi = Sentence::lfo(x, body);
        let compiled = CompiledSentence::compile(&phi);
        assert_eq!(compiled.plan_len(), 1);
        let g = generators::path(2);
        assert_same(&phi, &GraphStructure::of(&g), &CheckOptions::default());
    }

    #[test]
    fn hash_consing_dedups_repeated_subformulas() {
        let x = FoVar(0);
        let atom = || exists_adj(FoVar(1), x, unary(0, FoVar(1)));
        let phi = Sentence::lfo(x, or(vec![atom(), atom(), not(not(atom()))]));
        let compiled = CompiledSentence::compile(&phi);
        // ∨ dedups to the single interned subformula (¬¬ cancels; its inner
        // ¬ stays in the arena as a dead interned node): the 10-node matrix
        // lowers to atom + quantifier + the dead ¬.
        assert!(
            compiled.plan_len() <= 3,
            "plan has {} nodes",
            compiled.plan_len()
        );
        let g = generators::labeled_path(&["1", "0", "1"]);
        assert_same(&phi, &GraphStructure::of(&g), &CheckOptions::default());
    }

    #[test]
    fn adj_quantifiers_do_not_fold_on_isolated_elements() {
        // On a single node with no incident edges (and one label bit, so
        // the node element *does* have a Gaifman neighbor — use radius
        // semantics instead: check both polarities against the oracle).
        let (x, y) = (FoVar(0), FoVar(1));
        for body in [
            exists_adj(y, x, Formula::True),
            forall_adj(y, x, Formula::False),
        ] {
            let phi = Sentence::lfo(x, body);
            let compiled = CompiledSentence::compile(&phi);
            assert!(compiled.plan_len() > 1, "{phi} must not fold");
            for g in [generators::path(2), generators::star(3)] {
                assert_same(&phi, &GraphStructure::of(&g), &CheckOptions::default());
            }
        }
    }
}
