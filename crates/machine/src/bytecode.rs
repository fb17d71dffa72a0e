//! A bytecode tier for [`DistributedTm`] execution: transition tables are
//! lowered once into a flat, dense `state × Σ³` dispatch program executed
//! by a small loop VM over `u8`-coded tapes.
//!
//! The tree-walking interpreter in `exec.rs` pays a `HashMap` lookup with a
//! tuple key for every single step. [`CompiledTm`] precomputes the complete
//! move/write/next triple for all `|Q| · 125` configurations (missing
//! entries become halt sentinels that reproduce
//! [`MachineError::MissingTransition`] verbatim), so the VM's inner loop is
//! an array index plus a handful of byte writes. Self-loop entries that
//! move exactly one head right without changing the tapes are additionally
//! flagged for a run-length fast path: a span of identical symbols (for
//! example the blank tail of a tape) is consumed in one jump whose step
//! count is still charged exactly, so [`ExecMetrics`] stay bit-identical.
//!
//! The contract of [`run_tm_compiled`] is *observational equivalence* with
//! [`crate::run_tm`]: the same [`TmOutcome`] (rounds, result labels,
//! verdicts, acceptance, per-node per-round metrics), the same
//! [`MachineError`] on the same inputs, and the same `machine/*` trace
//! series. The interpreter remains the differential oracle; the suites in
//! `crates/machine/tests/bytecode_differential.rs` pin the equivalence over
//! the corpus machines and seeded random tables.

use lph_graphs::{BitString, CertificateList, IdAssignment, LabeledGraph};

use crate::metrics::{ExecMetrics, RoundStats};
use crate::tm::{DistributedTm, Move, StateId, Sym, Transition};
use crate::{ExecLimits, MachineError, Routing, TmOutcome};

/// Which engine executes a distributed Turing machine.
///
/// Mirrors `GameBackend` in `lph-core`: the interpreter is the semantics
/// (and the differential oracle), the bytecode VM is the fast path, and
/// `Auto` picks the VM — the two are pinned bit-for-bit equivalent by the
/// differential suite, so routing is a pure performance decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TmBackend {
    /// The tree-walking interpreter of [`crate::run_tm`].
    Interpreted,
    /// The bytecode VM of [`run_tm_compiled`] (compiles on entry; use
    /// [`CompiledTm`] directly to amortize compilation over many runs).
    Compiled,
    /// Currently identical to [`TmBackend::Compiled`]: the VM covers every
    /// machine, so there is nothing to fall back from. Kept as a distinct
    /// variant so callers expressing "fastest correct engine" keep working
    /// if the VM ever grows genuine restrictions.
    #[default]
    Auto,
}

impl TmBackend {
    /// The stable wire name used by external callers (the `lph-serve/1`
    /// protocol's optional `"exec"` request field).
    pub fn as_str(self) -> &'static str {
        match self {
            TmBackend::Interpreted => "interpreted",
            TmBackend::Compiled => "compiled",
            TmBackend::Auto => "auto",
        }
    }

    /// Parses a wire name produced by [`TmBackend::as_str`].
    pub fn parse(s: &str) -> Option<TmBackend> {
        match s {
            "interpreted" => Some(TmBackend::Interpreted),
            "compiled" => Some(TmBackend::Compiled),
            "auto" => Some(TmBackend::Auto),
            _ => None,
        }
    }
}

/// Executes `tm` with the chosen [`TmBackend`].
///
/// # Errors
///
/// Exactly those of [`crate::run_tm`].
pub fn run_tm_backend(
    tm: &DistributedTm,
    g: &LabeledGraph,
    id: &IdAssignment,
    certs: &CertificateList,
    limits: &ExecLimits,
    backend: TmBackend,
) -> Result<TmOutcome, MachineError> {
    match backend {
        TmBackend::Interpreted => crate::run_tm(tm, g, id, certs, limits),
        TmBackend::Compiled | TmBackend::Auto => {
            run_tm_compiled(&CompiledTm::compile(tm), g, id, certs, limits)
        }
    }
}

/// Number of tape symbols (`Σ = {⊢, □, #, 0, 1}`).
const SYMS: usize = 5;
/// Number of scanned-symbol triples per state.
const TRIPLES: usize = SYMS * SYMS * SYMS;

/// `u8` codes for the five symbols, in [`Sym::ALL`] order.
const LEFT_END: u8 = 0;
const BLANK: u8 = 1;
const SEP: u8 = 2;
const ZERO: u8 = 3;
const ONE: u8 = 4;

/// `next`-state sentinel for configurations without a table entry.
const MISSING: u32 = u32::MAX;

/// No run-length fast path for this entry.
const NO_SKIP: i8 = -1;

fn sym_code(s: Sym) -> u8 {
    match s {
        Sym::LeftEnd => LEFT_END,
        Sym::Blank => BLANK,
        Sym::Sep => SEP,
        Sym::Zero => ZERO,
        Sym::One => ONE,
    }
}

fn code_sym(c: u8) -> Sym {
    Sym::ALL[c as usize]
}

fn move_code(m: Move) -> i8 {
    match m {
        Move::L => -1,
        Move::S => 0,
        Move::R => 1,
    }
}

fn code_move(c: i8) -> Move {
    match c {
        -1 => Move::L,
        0 => Move::S,
        _ => Move::R,
    }
}

/// One lowered transition: the dense-dispatch payload for a
/// `(state, scanned-triple)` configuration.
#[derive(Debug, Clone, Copy)]
struct Op {
    /// Successor state, or [`MISSING`].
    next: u32,
    /// Symbols written to the three tapes, coded.
    write: [u8; 3],
    /// Head movements (`-1`, `0`, `1`).
    moves: [i8; 3],
    /// Tape index eligible for the run-length fast path, or [`NO_SKIP`].
    /// Set iff the entry is a self-loop that leaves all tapes unchanged
    /// and moves exactly this one head right.
    skip: i8,
}

const MISSING_OP: Op = Op {
    next: MISSING,
    write: [BLANK; 3],
    moves: [0; 3],
    skip: NO_SKIP,
};

/// A decoded view of one dispatch slot, for introspection by static
/// verifiers (see `lph-analysis`'s `flow::bytecode`): the same payload as
/// the private `Op`, expressed in source-level types.
///
/// A halt-sentinel slot decodes to `next == None`; the canonical sentinel
/// additionally carries blank writes, all-stay moves, and no skip
/// annotation (anything else in a sentinel slot is a mis-lowered program).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpView {
    /// Successor state, or `None` for a halt sentinel.
    pub next: Option<usize>,
    /// Symbols written to the three tapes.
    pub write: [Sym; 3],
    /// Head movements on the three tapes.
    pub moves: [Move; 3],
    /// Tape index flagged for the run-length fast path, if any.
    pub skip: Option<usize>,
}

/// A [`DistributedTm`] lowered to a flat bytecode program: one op per
/// `(state, scanned-triple)` configuration, indexed `state · 125 + triple`.
///
/// Compile once with [`CompiledTm::compile`], then execute any number of
/// times with [`run_tm_compiled`].
#[derive(Debug, Clone)]
pub struct CompiledTm {
    state_names: Vec<String>,
    start: u32,
    pause: u32,
    stop: u32,
    ops: Vec<Op>,
}

impl CompiledTm {
    /// Lowers a transition table into the dense dispatch program.
    pub fn compile(tm: &DistributedTm) -> Self {
        let states = tm.state_count();
        let mut ops = vec![MISSING_OP; states * TRIPLES];
        for (q, scanned, t) in tm.transitions() {
            let codes = scanned.map(sym_code);
            let idx = q.0 * TRIPLES
                + codes[0] as usize * SYMS * SYMS
                + codes[1] as usize * SYMS
                + codes[2] as usize;
            ops[idx] = lower(q, codes, &t);
        }
        CompiledTm {
            state_names: tm.states().map(|q| tm.state_name(q).to_owned()).collect(),
            start: tm.start().0 as u32,
            pause: tm.pause().0 as u32,
            stop: tm.stop().0 as u32,
            ops,
        }
    }

    /// The number of states of the source machine.
    pub fn state_count(&self) -> usize {
        self.state_names.len()
    }

    /// The number of `(state, triple)` slots in the dispatch program
    /// (populated or halt-sentinel).
    pub fn program_len(&self) -> usize {
        self.ops.len()
    }

    /// The start state's index.
    pub fn start_state(&self) -> usize {
        self.start as usize
    }

    /// The pause state's index.
    pub fn pause_state(&self) -> usize {
        self.pause as usize
    }

    /// The stop state's index.
    pub fn stop_state(&self) -> usize {
        self.stop as usize
    }

    /// The name of state `q` (as carried over from the source machine).
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a state of the program.
    pub fn state_name(&self, q: usize) -> &str {
        &self.state_names[q]
    }

    /// The dispatch-slot index of configuration `(q, scanned)` — the
    /// same `q · 125 + s₀ · 25 + s₁ · 5 + s₂` computation the VM's inner
    /// loop performs.
    pub fn slot_of(q: usize, scanned: [Sym; 3]) -> usize {
        let codes = scanned.map(sym_code);
        q * TRIPLES + codes[0] as usize * SYMS * SYMS + codes[1] as usize * SYMS + codes[2] as usize
    }

    /// The `(state, scanned-triple)` configuration a dispatch slot
    /// serves — the inverse of [`CompiledTm::slot_of`].
    pub fn decode_slot(slot: usize) -> (usize, [Sym; 3]) {
        let q = slot / TRIPLES;
        let t = slot % TRIPLES;
        (
            q,
            [
                code_sym((t / (SYMS * SYMS)) as u8),
                code_sym(((t / SYMS) % SYMS) as u8),
                code_sym((t % SYMS) as u8),
            ],
        )
    }

    /// Decodes the op at `slot` for introspection.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn op_view(&self, slot: usize) -> OpView {
        let op = self.ops[slot];
        OpView {
            next: (op.next != MISSING).then_some(op.next as usize),
            write: op.write.map(code_sym),
            moves: op.moves.map(code_move),
            skip: usize::try_from(op.skip).ok(),
        }
    }

    /// Overwrites the op at `slot` with an arbitrary payload. This is a
    /// *mutation hook* for verifier fixtures and demos: it deliberately
    /// performs no validity checks, so the result can (and usually
    /// should) be a program the static verifier rejects.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or `view` names a state or skip
    /// tape the program cannot encode.
    pub fn patch_op(&mut self, slot: usize, view: OpView) {
        self.ops[slot] = Op {
            next: view
                .next
                .map_or(MISSING, |q| u32::try_from(q).expect("state fits u32")),
            write: view.write.map(sym_code),
            moves: view.moves.map(move_code),
            skip: view
                .skip
                .map_or(NO_SKIP, |t| i8::try_from(t).expect("tape index fits")),
        };
    }

    fn missing_transition(&self, q: u32, scanned: [u8; 3]) -> MachineError {
        MachineError::MissingTransition {
            state: self.state_names[q as usize].clone(),
            scanned: scanned.map(|c| code_sym(c).as_char()),
        }
    }
}

/// Lowers one transition-table entry, deciding fast-path eligibility.
fn lower(q: StateId, scanned: [u8; 3], t: &Transition) -> Op {
    let write = t.write.map(sym_code);
    let moves = t.moves.map(move_code);
    let mut skip = NO_SKIP;
    if t.next == q && write == scanned {
        // Identity writes and a self-loop: eligible iff exactly one head
        // moves right and the others stay (the scanned triple then repeats
        // for as long as the moving tape's symbols do).
        let movers: Vec<usize> = (0..3).filter(|&i| moves[i] != 0).collect();
        if let [only] = movers[..] {
            if moves[only] == 1 {
                skip = i8::try_from(only).expect("tape index fits");
            }
        }
    }
    Op {
        next: t.next.0 as u32,
        write,
        moves,
        skip,
    }
}

/// A one-way infinite tape over coded symbols — the VM twin of
/// [`crate::Tape`], with identical error and space-accounting semantics.
#[derive(Debug, Clone)]
struct VmTape {
    cells: Vec<u8>,
    head: usize,
    touched: usize,
}

impl VmTape {
    /// Wraps pre-built cells (`cells[0]` must be `⊢`).
    fn from_cells(cells: Vec<u8>) -> Self {
        debug_assert_eq!(cells.first(), Some(&LEFT_END));
        let touched = cells.len();
        VmTape {
            cells,
            head: 0,
            touched,
        }
    }

    /// The scanned symbol. The `head < cells.len()` invariant (maintained
    /// by every head movement eagerly materializing the blank it lands on)
    /// keeps this a direct index.
    #[inline]
    fn read(&self) -> u8 {
        self.cells[self.head]
    }

    #[inline]
    fn write(&mut self, c: u8, tape_index: usize) -> Result<(), MachineError> {
        if (self.head == 0) != (c == LEFT_END) {
            return Err(MachineError::OverwroteLeftEnd { tape: tape_index });
        }
        self.cells[self.head] = c;
        self.touched = self.touched.max(self.head + 1);
        Ok(())
    }

    #[inline]
    fn shift(&mut self, m: i8, tape_index: usize) -> Result<(), MachineError> {
        match m {
            -1 => {
                if self.head == 0 {
                    return Err(MachineError::HeadOffTape { tape: tape_index });
                }
                self.head -= 1;
            }
            0 => {}
            _ => {
                self.head += 1;
                if self.head == self.cells.len() {
                    self.cells.push(BLANK);
                }
                self.touched = self.touched.max(self.head + 1);
            }
        }
        Ok(())
    }

    /// Moves the head and returns the newly scanned symbol (`c`, the value
    /// just written, when the head stays put) — so the VM loop never
    /// re-reads a tape whose head did not move.
    #[inline]
    fn shift_scan(&mut self, c: u8, m: i8, tape_index: usize) -> Result<u8, MachineError> {
        if m == 0 {
            return Ok(c);
        }
        self.shift(m, tape_index)?;
        Ok(self.read())
    }

    /// The length of a run of cells equal to `c` starting at the head, or
    /// `None` when the run is unbounded (a blank span past the last cell).
    fn run_len(&self, c: u8) -> Option<usize> {
        let mut i = self.head;
        while i < self.cells.len() && self.cells[i] == c {
            i += 1;
        }
        if i >= self.cells.len() && c == BLANK {
            return None;
        }
        Some(i - self.head)
    }

    /// Advances the head `k` cells right, charging space like `k` single
    /// right-shifts.
    fn skip_right(&mut self, k: usize) {
        self.head += k;
        if self.head >= self.cells.len() {
            self.cells.resize(self.head + 1, BLANK);
        }
        self.touched = self.touched.max(self.head + 1);
    }

    /// The tape content (cells after `⊢`, trailing blanks stripped).
    fn content(&self) -> &[u8] {
        let mut end = self.cells.len();
        while end > 1 && self.cells[end - 1] == BLANK {
            end -= 1;
        }
        &self.cells[1..end]
    }

    fn rewind(&mut self) {
        self.head = 0;
    }

    /// Releases the cell buffer for reuse.
    fn into_cells(self) -> Vec<u8> {
        self.cells
    }
}

fn push_bits(out: &mut Vec<u8>, bits: &BitString) {
    out.extend(bits.iter().map(|b| if b { ONE } else { ZERO }));
}

/// Coded twin of [`crate::content_bits`].
fn content_bits_coded(content: &[u8]) -> BitString {
    content
        .iter()
        .filter_map(|&c| match c {
            ZERO => Some(false),
            ONE => Some(true),
            _ => None,
        })
        .collect()
}

/// Coded twin of [`crate::split_messages`]: messages stay coded-byte
/// vectors (the outbox never leaves the VM, so no [`BitString`] round
/// trips are needed).
fn split_messages_coded(content: &[u8], d: usize) -> Vec<Vec<u8>> {
    let mut messages = Vec::with_capacity(d);
    let mut current = Vec::new();
    for &c in content {
        match c {
            ZERO | ONE => current.push(c),
            SEP => {
                messages.push(std::mem::take(&mut current));
                if messages.len() == d {
                    break;
                }
            }
            _ => {}
        }
    }
    if messages.len() < d && !current.is_empty() {
        messages.push(current);
    }
    while messages.len() < d {
        messages.push(Vec::new());
    }
    messages.truncate(d);
    messages
}

struct VmNode {
    state: u32,
    int: VmTape,
    /// Coded bit messages (one per port, in sorted-neighbor order).
    outbox: Vec<Vec<u8>>,
    rcv_snd_space: usize,
}

/// Executes a [`CompiledTm`] on `(G, id, κ̄)` under the same three-phase
/// round semantics as [`crate::run_tm`], producing a bit-identical
/// [`TmOutcome`].
///
/// # Errors
///
/// Exactly those of [`crate::run_tm`] on the same inputs.
pub fn run_tm_compiled(
    ct: &CompiledTm,
    g: &LabeledGraph,
    id: &IdAssignment,
    certs: &CertificateList,
    limits: &ExecLimits,
) -> Result<TmOutcome, MachineError> {
    run_tm_compiled_routed(ct, &Routing::new(g, id)?, certs, limits)
}

/// [`run_tm_compiled`] on a prepared [`Routing`], for callers that replay
/// one `(G, id)` under many certificate lists.
///
/// # Errors
///
/// Exactly those of [`crate::run_tm_routed`] on the same inputs.
#[allow(clippy::too_many_lines)]
pub fn run_tm_compiled_routed(
    ct: &CompiledTm,
    routing: &Routing<'_>,
    certs: &CertificateList,
    limits: &ExecLimits,
) -> Result<TmOutcome, MachineError> {
    let _span = lph_trace::span("machine/run_tm_compiled");
    let (g, id) = (routing.graph(), routing.ids());
    let n = g.node_count();
    let mut nodes: Vec<VmNode> = g
        .nodes()
        .map(|u| {
            let mut cells = vec![LEFT_END];
            push_bits(&mut cells, g.label(u));
            cells.push(SEP);
            push_bits(&mut cells, id.id(u));
            cells.push(SEP);
            for c in certs.node_string(u) {
                cells.push(match c {
                    lph_graphs::CertSymbol::Zero => ZERO,
                    lph_graphs::CertSymbol::One => ONE,
                    lph_graphs::CertSymbol::Sep => SEP,
                });
            }
            VmNode {
                state: ct.start,
                int: VmTape::from_cells(cells),
                outbox: vec![Vec::new(); g.degree(u)],
                rcv_snd_space: 0,
            }
        })
        .collect();

    let mut metrics = ExecMetrics::new(n);
    // Reusable cell buffers (cleared and refilled each round) so the round
    // loop allocates nothing in steady state.
    let mut rcv_bufs: Vec<Vec<u8>> = vec![Vec::new(); n];
    let mut snd_buf: Vec<u8> = Vec::new();
    for round in 1..=limits.max_rounds {
        // Phase 1: assemble receiving tapes from last round's outboxes
        // (built before any node computes, so every node sees last round's
        // messages; coded bytes copy straight across, no decode/re-encode).
        for u in g.nodes() {
            let cells = &mut rcv_bufs[u.0];
            cells.clear();
            cells.push(LEFT_END);
            for &(v, slot) in routing.ports(u) {
                cells.extend_from_slice(&nodes[v.0].outbox[slot]);
                cells.push(SEP);
            }
        }

        let mut all_stopped = true;
        for u in g.nodes() {
            let node = &mut nodes[u.0];
            let cells = std::mem::take(&mut rcv_bufs[u.0]);
            let rcv_len = cells.len() - 1;
            let mut rcv = VmTape::from_cells(cells);
            snd_buf.clear();
            snd_buf.push(LEFT_END);
            let mut snd = VmTape::from_cells(std::mem::take(&mut snd_buf));

            if node.state == ct.stop {
                node.outbox = vec![Vec::new(); g.degree(u)];
                metrics.record(
                    u.0,
                    RoundStats {
                        steps: 0,
                        space: node.rcv_snd_space + node.int.touched,
                        input_rcv_len: rcv_len,
                        input_int_len: node.int.content().len(),
                    },
                );
                rcv_bufs[u.0] = rcv.into_cells();
                snd_buf = snd.into_cells();
                continue;
            }

            // Phase 2: local computation on the bytecode VM.
            node.state = ct.start;
            node.int.rewind();
            let input_int_len = node.int.content().len();
            let mut steps = 0usize;
            let mut scanned = [rcv.read(), node.int.read(), snd.read()];
            while node.state != ct.pause && node.state != ct.stop {
                let idx = node.state as usize * TRIPLES
                    + scanned[0] as usize * SYMS * SYMS
                    + scanned[1] as usize * SYMS
                    + scanned[2] as usize;
                let op = ct.ops[idx];
                if op.next == MISSING {
                    return Err(ct.missing_transition(node.state, scanned));
                }
                if op.skip >= 0 {
                    // Run-length fast path: this self-loop only moves one
                    // head right over a span of identical symbols. Jump to
                    // the end of the span (or to the step limit) in one go,
                    // charging every skipped step.
                    let t = op.skip as usize;
                    let tape = match t {
                        0 => &mut rcv,
                        1 => &mut node.int,
                        _ => &mut snd,
                    };
                    // Steps we may still take before exceeding the limit
                    // (taking `cap` steps trips the limit check exactly as
                    // the interpreter's per-step check would).
                    let cap = limits.max_steps_per_round + 1 - steps;
                    let k = tape.run_len(scanned[t]).unwrap_or(cap).clamp(1, cap);
                    tape.skip_right(k);
                    scanned[t] = tape.read();
                    steps += k;
                } else {
                    // Same error order as the interpreter: all three
                    // writes, then all three moves.
                    rcv.write(op.write[0], 0)?;
                    node.int.write(op.write[1], 1)?;
                    snd.write(op.write[2], 2)?;
                    scanned = [
                        rcv.shift_scan(op.write[0], op.moves[0], 0)?,
                        node.int.shift_scan(op.write[1], op.moves[1], 1)?,
                        snd.shift_scan(op.write[2], op.moves[2], 2)?,
                    ];
                    node.state = op.next;
                    steps += 1;
                }
                if steps > limits.max_steps_per_round {
                    return Err(MachineError::StepLimitExceeded {
                        node: u.0,
                        round,
                        limit: limits.max_steps_per_round,
                    });
                }
            }
            node.rcv_snd_space = node.rcv_snd_space.max(rcv.touched + snd.touched);
            let space = rcv.touched + node.int.touched + snd.touched;
            if lph_trace::enabled() {
                lph_trace::observe("machine/round_steps", steps as u64);
                lph_trace::observe("machine/round_space", space as u64);
            }
            metrics.record(
                u.0,
                RoundStats {
                    steps,
                    space,
                    input_rcv_len: rcv_len,
                    input_int_len,
                },
            );

            // Phase 3: extract messages from the sending tape.
            node.outbox = split_messages_coded(snd.content(), g.degree(u));
            if node.state != ct.stop {
                all_stopped = false;
            }
            rcv_bufs[u.0] = rcv.into_cells();
            snd_buf = snd.into_cells();
        }

        if all_stopped {
            let result_labels: Vec<BitString> = nodes
                .iter()
                .map(|s| content_bits_coded(s.int.content()))
                .collect();
            let verdicts: Vec<bool> = result_labels
                .iter()
                .map(|l| l.as_bools() == [true])
                .collect();
            let accepted = verdicts.iter().all(|&v| v);
            if lph_trace::enabled() {
                lph_trace::add("machine/runs", 1);
                lph_trace::add("machine/rounds", round as u64);
                lph_trace::add("machine/steps", metrics.total_steps() as u64);
            }
            return Ok(TmOutcome {
                rounds: round,
                result_labels,
                verdicts,
                accepted,
                metrics,
            });
        }
    }
    Err(MachineError::RoundLimitExceeded {
        limit: limits.max_rounds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines;
    use crate::run_tm;
    use crate::tm::{Pat, TmBuilder, WriteOp};
    use lph_graphs::generators;

    fn assert_same(
        tm: &DistributedTm,
        g: &LabeledGraph,
        certs: &CertificateList,
        limits: &ExecLimits,
    ) {
        let id = IdAssignment::global(g);
        let ct = CompiledTm::compile(tm);
        let interp = run_tm(tm, g, &id, certs, limits);
        let compiled = run_tm_compiled(&ct, g, &id, certs, limits);
        match (interp, compiled) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.rounds, b.rounds);
                assert_eq!(a.result_labels, b.result_labels);
                assert_eq!(a.verdicts, b.verdicts);
                assert_eq!(a.accepted, b.accepted);
                assert_eq!(a.metrics.per_node, b.metrics.per_node);
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("backends disagree: interpreted {a:?} vs compiled {b:?}"),
        }
    }

    #[test]
    fn program_covers_all_slots() {
        let ct = CompiledTm::compile(&machines::all_selected_decider());
        assert_eq!(ct.program_len(), ct.state_count() * 125);
    }

    #[test]
    fn corpus_machines_agree_on_cycles() {
        for tm in [
            machines::all_selected_decider(),
            machines::proper_coloring_verifier(),
            machines::echo_machine(),
            machines::even_degree_decider(),
            machines::project_label_machine(),
        ] {
            for n in [3usize, 4, 5] {
                assert_same(
                    &tm,
                    &generators::cycle(n),
                    &CertificateList::new(),
                    &ExecLimits::default(),
                );
            }
        }
    }

    #[test]
    fn missing_transition_matches_interpreter() {
        let tm = TmBuilder::new().build();
        assert_same(
            &tm,
            &generators::path(2),
            &CertificateList::new(),
            &ExecLimits::default(),
        );
    }

    #[test]
    fn fast_path_charges_exact_steps_and_trips_the_limit() {
        // A machine that scans the internal tape right forever: the blank
        // tail makes the run unbounded, so both engines must report the
        // same StepLimitExceeded at the same step count.
        let mut b = TmBuilder::new();
        let scan = b.state("scan");
        b.rule(
            b.start(),
            [Pat::Any; 3],
            scan,
            [WriteOp::Keep; 3],
            [Move::S; 3],
        );
        b.rule(
            scan,
            [Pat::Any; 3],
            scan,
            [WriteOp::Keep; 3],
            [Move::S, Move::R, Move::S],
        );
        let tm = b.build();
        let limits = ExecLimits {
            max_rounds: 2,
            max_steps_per_round: 37,
        };
        assert_same(&tm, &generators::path(1), &CertificateList::new(), &limits);
    }

    #[test]
    fn fast_path_stops_at_span_end() {
        // Scan right while reading bits, halt on the separator: the jump
        // must stop exactly where the label span ends.
        let mut b = TmBuilder::new();
        let scan = b.state("scan");
        b.rule(
            b.start(),
            [Pat::Any; 3],
            scan,
            [WriteOp::Keep; 3],
            [Move::S; 3],
        );
        b.rule(
            scan,
            [Pat::Any, Pat::Is(Sym::Sep), Pat::Any],
            b.stop(),
            [WriteOp::Keep, WriteOp::Put(Sym::One), WriteOp::Keep],
            [Move::S; 3],
        );
        b.rule(
            scan,
            [Pat::Any; 3],
            scan,
            [WriteOp::Keep; 3],
            [Move::S, Move::R, Move::S],
        );
        let tm = b.build();
        let g = generators::labeled_path(&["1011", "0001"]);
        assert_same(&tm, &g, &CertificateList::new(), &ExecLimits::default());
    }

    #[test]
    fn backend_router_agrees_with_interpreter() {
        let tm = machines::all_selected_decider();
        let g = generators::cycle(4);
        let id = IdAssignment::global(&g);
        let a = run_tm(
            &tm,
            &g,
            &id,
            &CertificateList::new(),
            &ExecLimits::default(),
        )
        .unwrap();
        for backend in [TmBackend::Interpreted, TmBackend::Compiled, TmBackend::Auto] {
            let b = run_tm_backend(
                &tm,
                &g,
                &id,
                &CertificateList::new(),
                &ExecLimits::default(),
                backend,
            )
            .unwrap();
            assert_eq!(a.accepted, b.accepted);
            assert_eq!(a.metrics.per_node, b.metrics.per_node);
        }
    }

    #[test]
    fn certificates_reach_the_vm_tape() {
        let g = generators::cycle(3);
        let certs =
            CertificateList::from_assignments(vec![lph_graphs::CertificateAssignment::uniform(
                &g,
                BitString::from_bits01("101"),
            )]);
        assert_same(
            &machines::echo_machine(),
            &g,
            &certs,
            &ExecLimits::default(),
        );
    }
}
