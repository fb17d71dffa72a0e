use crate::cnf::{Cnf, Lit};
use crate::luby::luby;
use crate::proof::ProofLog;

/// Luby restart unit: restart `k` happens after `RESTART_UNIT · luby(k)`
/// conflicts of run `k`.
const RESTART_UNIT: u64 = 64;

/// Geometric VSIDS decay per conflict (the activity increment grows by
/// `1/VAR_DECAY`).
const VAR_DECAY: f64 = 0.95;

/// Options of the CDCL search. The default never gives up and logs no
/// proof.
#[derive(Debug, Clone, Default)]
pub struct SolverConfig {
    /// Give up (returning [`SolveOutcome::Unknown`]) after this many
    /// conflicts in one [`Solver::solve`] call. `None` never gives up.
    pub max_conflicts: Option<u64>,
    /// Record a [`ProofLog`] of every learned clause (and the final empty
    /// clause on `Unsat`), retrievable via [`Solver::proof`]. Off by
    /// default; when off the only cost is one `Option` check per learned
    /// clause.
    pub proof_log: bool,
}

/// What a [`Solver::solve`] call concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveOutcome {
    /// Satisfiable; the model assigns every variable (indexed by variable).
    Sat(Vec<bool>),
    /// Unsatisfiable (a conflict was derived with no decisions left to
    /// undo).
    Unsat,
    /// The conflict budget ran out first. Calling [`Solver::solve`] again
    /// continues the search with a fresh budget.
    Unknown,
}

/// Search statistics, cumulative over the solver's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Branching decisions made.
    pub decisions: u64,
    /// Literals propagated off the trail.
    pub propagations: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learned.
    pub learned_clauses: u64,
    /// Total literals across learned clauses (after minimization).
    pub learned_literals: u64,
    /// Literals removed by learned-clause minimization.
    pub minimized_literals: u64,
    /// The longest learned clause.
    pub max_learned_len: usize,
}

#[derive(Debug, Clone)]
struct Clause {
    lits: Vec<Lit>,
}

/// An indexed max-heap of variables ordered by activity, with
/// increase-key support (MiniSat's `order_heap`).
#[derive(Debug, Default)]
struct VarHeap {
    heap: Vec<usize>,
    /// `pos[v]` is `v`'s index in `heap`, or `usize::MAX` if absent.
    pos: Vec<usize>,
}

impl VarHeap {
    fn new(n: usize) -> VarHeap {
        let mut h = VarHeap {
            heap: (0..n).collect(),
            pos: (0..n).collect(),
        };
        // All activities start equal, so the initial array is a valid heap.
        debug_assert!(h.heap.len() == h.pos.len());
        h.heap.shrink_to_fit();
        h
    }

    fn contains(&self, v: usize) -> bool {
        self.pos[v] != usize::MAX
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i]] <= act[self.heap[parent]] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            if l >= self.heap.len() {
                break;
            }
            let r = l + 1;
            let child = if r < self.heap.len() && act[self.heap[r]] > act[self.heap[l]] {
                r
            } else {
                l
            };
            if act[self.heap[child]] <= act[self.heap[i]] {
                break;
            }
            self.swap(i, child);
            i = child;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i]] = i;
        self.pos[self.heap[j]] = j;
    }

    fn push(&mut self, v: usize, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v] = self.heap.len();
        self.heap.push(v);
        self.sift_up(self.pos[v], act);
    }

    fn pop(&mut self, act: &[f64]) -> Option<usize> {
        let top = *self.heap.first()?;
        let last = self.heap.len() - 1;
        self.swap(0, last);
        self.heap.pop();
        self.pos[top] = usize::MAX;
        if !self.heap.is_empty() {
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn bumped(&mut self, v: usize, act: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.pos[v], act);
        }
    }
}

/// A CDCL solver instance over a fixed [`Cnf`].
///
/// See the crate docs for the algorithm inventory. A solver is single-use
/// in spirit — [`Solver::solve`] runs to `Sat`/`Unsat` or exhausts its
/// conflict budget — but calling `solve` again after
/// [`SolveOutcome::Unknown`] resumes the search (learned clauses, saved
/// phases, and activities are kept).
#[derive(Debug)]
pub struct Solver {
    config: SolverConfig,
    num_vars: usize,
    clauses: Vec<Clause>,
    /// Watch lists indexed by [`Lit::code`]: clause indices watching that
    /// literal (the literal is at position 0 or 1 of the clause).
    watches: Vec<Vec<usize>>,
    assign: Vec<Option<bool>>,
    level: Vec<usize>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    heap: VarHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    /// False once an unconditional conflict has been derived.
    ok: bool,
    /// The DRAT-style trace, present iff `config.proof_log`. Survives
    /// resumed solves: learned clauses keep accumulating in order.
    proof: Option<ProofLog>,
    stats: Stats,
}

impl Solver {
    /// Loads a formula with the default configuration.
    pub fn new(cnf: &Cnf) -> Solver {
        Solver::with_config(cnf, SolverConfig::default())
    }

    /// Loads a formula. Tautological clauses are dropped, duplicate
    /// literals removed, and unit clauses enqueued at level 0; an empty
    /// clause makes the solver start out unsatisfiable.
    pub fn with_config(cnf: &Cnf, config: SolverConfig) -> Solver {
        let n = cnf.num_vars();
        let proof = config.proof_log.then(ProofLog::new);
        let mut s = Solver {
            config,
            num_vars: n,
            clauses: Vec::with_capacity(cnf.clauses().len()),
            watches: vec![Vec::new(); 2 * n],
            assign: vec![None; n],
            level: vec![0; n],
            reason: vec![None; n],
            trail: Vec::with_capacity(n),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0; n],
            var_inc: 1.0,
            heap: VarHeap::new(n),
            phase: vec![false; n],
            seen: vec![false; n],
            ok: true,
            proof,
            stats: Stats::default(),
        };
        for clause in cnf.clauses() {
            let mut lits = clause.clone();
            lits.sort();
            lits.dedup();
            if lits.windows(2).any(|w| w[0] == w[1].negated()) {
                continue; // tautology
            }
            match lits.len() {
                0 => s.ok = false,
                1 => {
                    // Level-0 unit; a contradiction with an earlier unit
                    // surfaces as ok = false.
                    match s.value_lit(lits[0]) {
                        Some(false) => s.ok = false,
                        Some(true) => {}
                        None => s.enqueue(lits[0], None),
                    }
                }
                _ => {
                    let cref = s.clauses.len();
                    s.watches[lits[0].code()].push(cref);
                    s.watches[lits[1].code()].push(cref);
                    s.clauses.push(Clause { lits });
                }
            }
        }
        s
    }

    /// The number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The number of stored clauses (original non-trivial + learned).
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Cumulative search statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The proof trace recorded so far, if
    /// [`SolverConfig::proof_log`] was set. After an
    /// [`SolveOutcome::Unsat`] it ends with the empty clause and is a
    /// candidate refutation for
    /// [`checker::check_refutation`](crate::checker::check_refutation).
    pub fn proof(&self) -> Option<&ProofLog> {
        self.proof.as_ref()
    }

    /// Takes ownership of the proof trace, leaving an empty one behind
    /// (further solving would log into the fresh trace, so take it only
    /// when done).
    pub fn take_proof(&mut self) -> Option<ProofLog> {
        let taken = self.proof.take();
        if taken.is_some() {
            self.proof = Some(ProofLog::new());
        }
        taken
    }

    fn value_lit(&self, l: Lit) -> Option<bool> {
        self.assign[l.var()].map(|v| v == l.is_pos())
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn enqueue(&mut self, l: Lit, reason: Option<usize>) {
        debug_assert!(self.value_lit(l).is_none());
        let v = l.var();
        self.assign[v] = Some(l.is_pos());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    fn cancel_until(&mut self, target: usize) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target];
        while self.trail.len() > bound {
            let l = self.trail.pop().expect("trail is non-empty above bound");
            let v = l.var();
            self.phase[v] = l.is_pos();
            self.assign[v] = None;
            self.reason[v] = None;
            self.heap.push(v, &self.activity);
        }
        self.trail_lim.truncate(target);
        self.qhead = self.trail.len();
    }

    fn bump(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap.bumped(v, &self.activity);
    }

    fn decay(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    /// Propagates every queued assignment; returns the conflicting clause
    /// on failure.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = p.negated();
            let mut watchers = std::mem::take(&mut self.watches[false_lit.code()]);
            let mut i = 0;
            while i < watchers.len() {
                let cref = watchers[i];
                // Normalize: the falsified watch sits at position 1.
                {
                    let lits = &mut self.clauses[cref].lits;
                    if lits[0] == false_lit {
                        lits.swap(0, 1);
                    }
                }
                let first = self.clauses[cref].lits[0];
                if self.value_lit(first) == Some(true) {
                    i += 1;
                    continue;
                }
                // Look for a non-false replacement watch.
                let replacement = (2..self.clauses[cref].lits.len())
                    .find(|&k| self.value_lit(self.clauses[cref].lits[k]) != Some(false));
                if let Some(k) = replacement {
                    self.clauses[cref].lits.swap(1, k);
                    let new_watch = self.clauses[cref].lits[1];
                    self.watches[new_watch.code()].push(cref);
                    watchers.swap_remove(i);
                    continue;
                }
                if self.value_lit(first) == Some(false) {
                    // Conflict: stop propagating, restore the watch list.
                    self.watches[false_lit.code()] = watchers;
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
                self.enqueue(first, Some(cref));
                i += 1;
            }
            self.watches[false_lit.code()] = watchers;
        }
        None
    }

    /// First-UIP conflict analysis: returns the learned clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, mut confl: usize) -> (Vec<Lit>, usize) {
        let current = self.decision_level();
        let mut learnt: Vec<Lit> = vec![Lit::pos(0)]; // placeholder for the UIP
        let mut pending = 0usize;
        let mut resolved_on: Option<Lit> = None;
        let mut idx = self.trail.len();
        loop {
            // Resolve the current clause into the partial learned clause.
            // Reasons keep their propagated literal at index 0; skip it when
            // resolving on it.
            let start = usize::from(resolved_on.is_some());
            let resolvent: Vec<Lit> = self.clauses[confl].lits[start..].to_vec();
            for q in resolvent {
                let v = q.var();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] >= current {
                        pending += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail back to the next marked current-level literal.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var()] {
                    break;
                }
            }
            let p = self.trail[idx];
            self.seen[p.var()] = false;
            pending -= 1;
            if pending == 0 {
                learnt[0] = p.negated();
                break;
            }
            confl = self.reason[p.var()].expect("non-UIP current-level literal has a reason");
            resolved_on = Some(p);
        }

        // Minimization: drop literals implied by the rest of the clause
        // through their own reason (local self-subsumption check).
        let before = learnt.len();
        let keep: Vec<Lit> = learnt[1..]
            .iter()
            .copied()
            .filter(|&l| !self.implied_by_learnt(l))
            .collect();
        // Clear `seen` for every marked literal — including the ones
        // minimization just dropped, or they would poison later analyses.
        for l in &learnt {
            self.seen[l.var()] = false;
        }
        learnt.truncate(1);
        learnt.extend(keep);
        self.stats.minimized_literals += (before - learnt.len()) as u64;

        // Backjump to the second-highest level; put one of its literals at
        // index 1 so it is watched.
        let mut back = 0;
        if learnt.len() > 1 {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var()] > self.level[learnt[max_i].var()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            back = self.level[learnt[1].var()];
        }
        (learnt, back)
    }

    /// Whether `l`'s reason clause is entirely covered by the learned
    /// clause (all other literals seen or at level 0), making `l`
    /// redundant in it.
    fn implied_by_learnt(&self, l: Lit) -> bool {
        let Some(cref) = self.reason[l.var()] else {
            return false;
        };
        self.clauses[cref].lits[1..]
            .iter()
            .all(|q| self.seen[q.var()] || self.level[q.var()] == 0)
    }

    /// Logs the empty clause, closing the proof trace as a refutation.
    /// Idempotent so a re-`solve` after `Unsat` does not log it twice.
    fn log_refutation(&mut self) {
        if let Some(p) = &mut self.proof {
            if !p.ends_with_empty_clause() {
                p.push_add(Vec::new());
            }
        }
    }

    /// Records a learned clause and asserts its first literal.
    fn learn(&mut self, learnt: Vec<Lit>) {
        if let Some(p) = &mut self.proof {
            // Every learned clause is RUP over the original formula plus
            // the earlier log entries: it is derived by resolution from
            // clauses of the current database.
            p.push_add(learnt.clone());
        }
        self.stats.learned_clauses += 1;
        self.stats.learned_literals += learnt.len() as u64;
        self.stats.max_learned_len = self.stats.max_learned_len.max(learnt.len());
        lph_trace::observe("sat/learned_len", learnt.len() as u64);
        let asserting = learnt[0];
        if learnt.len() == 1 {
            self.enqueue(asserting, None);
        } else {
            let cref = self.clauses.len();
            self.watches[learnt[0].code()].push(cref);
            self.watches[learnt[1].code()].push(cref);
            self.clauses.push(Clause { lits: learnt });
            self.enqueue(asserting, Some(cref));
        }
    }

    /// Runs the CDCL search. See [`SolveOutcome`] for the contract; the
    /// conflict budget (if any) applies per call.
    pub fn solve(&mut self) -> SolveOutcome {
        let _span = lph_trace::span("sat/solve");
        let stats_before = self.stats;
        let logged_before = self.proof.as_ref().map_or(0, ProofLog::len);
        let outcome = self.solve_inner();
        if let Some(p) = &self.proof {
            lph_trace::add("sat/proof/clauses_logged", (p.len() - logged_before) as u64);
        }
        let d = |f: fn(&Stats) -> u64| f(&self.stats) - f(&stats_before);
        lph_trace::add("sat/decisions", d(|s| s.decisions));
        lph_trace::add("sat/propagations", d(|s| s.propagations));
        lph_trace::add("sat/conflicts", d(|s| s.conflicts));
        lph_trace::add("sat/restarts", d(|s| s.restarts));
        lph_trace::add("sat/learned_clauses", d(|s| s.learned_clauses));
        outcome
    }

    fn solve_inner(&mut self) -> SolveOutcome {
        if !self.ok {
            // Load-time contradiction (empty clause or clashing units):
            // the empty clause is RUP over the formula directly.
            self.log_refutation();
            return SolveOutcome::Unsat;
        }
        let mut budget = self.config.max_conflicts;
        let mut run_conflicts = 0u64;
        let mut run_limit = RESTART_UNIT * luby(self.stats.restarts + 1);
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    // A conflict with no decisions: unit propagation alone
                    // refutes the accumulated database, so the empty
                    // clause is RUP over the log so far.
                    self.ok = false;
                    self.log_refutation();
                    return SolveOutcome::Unsat;
                }
                let (learnt, back) = self.analyze(confl);
                self.cancel_until(back);
                self.learn(learnt);
                self.decay();
                run_conflicts += 1;
                if let Some(b) = budget.as_mut() {
                    if *b == 0 {
                        self.cancel_until(0);
                        return SolveOutcome::Unknown;
                    }
                    *b -= 1;
                }
                if run_conflicts >= run_limit {
                    self.stats.restarts += 1;
                    run_conflicts = 0;
                    run_limit = RESTART_UNIT * luby(self.stats.restarts + 1);
                    self.cancel_until(0);
                }
            } else if self.trail.len() == self.num_vars {
                let model = self.assign.iter().map(|v| v.unwrap_or(false)).collect();
                return SolveOutcome::Sat(model);
            } else {
                let v = loop {
                    match self.heap.pop(&self.activity) {
                        Some(v) if self.assign[v].is_none() => break v,
                        Some(_) => {}
                        None => unreachable!("unassigned variables exist but the heap is empty"),
                    }
                };
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.enqueue(Lit::with_sign(v, self.phase[v]), None);
            }
        }
    }

    /// Validates the two-watched-literal invariants; used by the unit
    /// tests and cheap enough to call after every bounded solve in debug
    /// runs.
    ///
    /// # Panics
    ///
    /// Panics (with a description) when an invariant is violated.
    #[doc(hidden)]
    pub fn debug_check_watches(&self) {
        let mut watch_count = vec![0usize; self.clauses.len()];
        for (code, list) in self.watches.iter().enumerate() {
            for &cref in list {
                let lits = &self.clauses[cref].lits;
                assert!(
                    lits[0].code() == code || lits[1].code() == code,
                    "clause {cref} is watched by a literal not in its first two positions"
                );
                watch_count[cref] += 1;
            }
        }
        for (cref, &count) in watch_count.iter().enumerate() {
            assert_eq!(
                count, 2,
                "clause {cref} has {count} watcher entries instead of 2"
            );
        }
        // On a fully backtracked solver, no clause may sit with both
        // watches falsified at level 0 while some other literal is free.
        if self.decision_level() == 0 {
            for (cref, c) in self.clauses.iter().enumerate() {
                let falsified = |l: &Lit| self.value_lit(*l) == Some(false);
                if falsified(&c.lits[0]) && falsified(&c.lits[1]) {
                    assert!(
                        c.lits.iter().all(falsified),
                        "clause {cref} watches two false literals but has a free literal"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: usize, pos: bool) -> Lit {
        Lit::with_sign(v, pos)
    }

    /// `n + 1` pigeons into `n` holes: classically unsatisfiable, and small
    /// enough that CDCL must actually learn clauses to refute it.
    fn pigeonhole(n: usize) -> Cnf {
        let mut cnf = Cnf::new();
        let var = |p: usize, h: usize| p * n + h;
        cnf.new_vars((n + 1) * n);
        for p in 0..=n {
            cnf.add_clause((0..n).map(|h| Lit::pos(var(p, h))));
        }
        for h in 0..n {
            for p1 in 0..=n {
                for p2 in (p1 + 1)..=n {
                    cnf.add_clause([Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
                }
            }
        }
        cnf
    }

    #[test]
    fn empty_formula_is_sat() {
        assert_eq!(Solver::new(&Cnf::new()).solve(), SolveOutcome::Sat(vec![]));
    }

    #[test]
    fn unit_contradiction_is_unsat() {
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        cnf.add_clause([Lit::pos(a)]);
        cnf.add_clause([Lit::neg(a)]);
        assert_eq!(Solver::new(&cnf).solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn models_satisfy_the_formula() {
        let mut cnf = Cnf::new();
        let vars: Vec<usize> = (0..6).map(|_| cnf.new_var()).collect();
        // A ring of implications plus one forced value.
        for w in vars.windows(2) {
            cnf.add_clause([Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        cnf.add_clause([Lit::pos(vars[0])]);
        match Solver::new(&cnf).solve() {
            SolveOutcome::Sat(model) => {
                assert!(
                    cnf.eval(&model),
                    "model {model:?} violates a clause of {cnf:?}"
                );
                assert!(model.iter().all(|&b| b), "implication chain forces all");
            }
            other => panic!("expected SAT, got {other:?} on {cnf:?}"),
        }
    }

    #[test]
    fn pigeonhole_is_unsat_and_learns() {
        let cnf = pigeonhole(4);
        let mut s = Solver::new(&cnf);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        assert!(s.stats().conflicts > 0);
        assert!(s.stats().learned_clauses > 0);
        assert!(s.stats().max_learned_len >= 1);
    }

    #[test]
    fn conflict_budget_returns_unknown_and_can_resume() {
        let cnf = pigeonhole(5);
        let mut s = Solver::with_config(
            &cnf,
            SolverConfig {
                max_conflicts: Some(3),
                ..SolverConfig::default()
            },
        );
        assert_eq!(s.solve(), SolveOutcome::Unknown);
        assert!(s.stats().conflicts >= 3);
        // Resuming with fresh budgets eventually refutes it.
        let mut rounds = 0;
        loop {
            match s.solve() {
                SolveOutcome::Unsat => break,
                SolveOutcome::Unknown => rounds += 1,
                SolveOutcome::Sat(model) => {
                    panic!("pigeonhole(5) cannot be SAT; got model {model:?} for {cnf:?}")
                }
            }
            assert!(rounds < 100_000, "budgeted solve failed to converge");
        }
    }

    #[test]
    fn watched_literal_invariants_hold_through_search() {
        for n in [3usize, 4] {
            let cnf = pigeonhole(n);
            let mut s = Solver::new(&cnf);
            s.debug_check_watches();
            assert_eq!(s.solve(), SolveOutcome::Unsat);
            s.debug_check_watches();
        }
        // And through a satisfiable search with backtracking.
        let mut cnf = Cnf::new();
        let vars: Vec<usize> = (0..8).map(|_| cnf.new_var()).collect();
        for w in vars.chunks(2) {
            cnf.add_clause([Lit::pos(w[0]), Lit::pos(w[1])]);
            cnf.add_clause([Lit::neg(w[0]), Lit::neg(w[1])]);
        }
        let mut s = Solver::new(&cnf);
        assert!(matches!(s.solve(), SolveOutcome::Sat(_)));
        s.debug_check_watches();
    }

    #[test]
    fn minimization_shrinks_an_implied_literal() {
        // Crafted so the first conflict's 1-UIP clause contains a literal
        // implied (via its reason) by the others: decisions on a, then c;
        // b follows from a; the conflict clause mentions both a and b, and
        // minimization removes b (reason ¬a ∨ b, with a seen).
        let mut cnf = Cnf::new();
        let a = cnf.new_var();
        let b = cnf.new_var();
        let c = cnf.new_var();
        cnf.add_clause([Lit::neg(a), Lit::pos(b)]);
        cnf.add_clause([Lit::neg(a), Lit::neg(b), Lit::neg(c)]);
        cnf.add_clause([lit(a, true)]);
        cnf.add_clause([lit(c, true)]);
        let mut s = Solver::new(&cnf);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
    }

    #[test]
    fn minimization_is_counted_on_random_instances() {
        // Seeded random 3-CNFs at a satisfiability-threshold-ish ratio;
        // across the family, at least one learned clause must shrink.
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut minimized = 0;
        for _ in 0..20 {
            let mut cnf = Cnf::new();
            let n = 30;
            cnf.new_vars(n);
            for _ in 0..(n * 43 / 10) {
                let mut vs = [0usize; 3];
                for v in &mut vs {
                    *v = (rng() % n as u64) as usize;
                }
                cnf.add_clause(vs.map(|v| Lit::with_sign(v, rng() & 1 == 0)));
            }
            let mut s = Solver::new(&cnf);
            match s.solve() {
                SolveOutcome::Sat(m) => assert!(cnf.eval(&m)),
                SolveOutcome::Unsat => {}
                SolveOutcome::Unknown => unreachable!("no budget configured"),
            }
            minimized += s.stats().minimized_literals;
        }
        assert!(minimized > 0, "minimization never fired across the family");
    }

    #[test]
    fn proof_logging_is_opt_in() {
        let cnf = pigeonhole(3);
        let mut off = Solver::new(&cnf);
        assert_eq!(off.solve(), SolveOutcome::Unsat);
        assert!(off.proof().is_none(), "logging must be off by default");
        let mut on = Solver::with_config(
            &cnf,
            SolverConfig {
                proof_log: true,
                ..SolverConfig::default()
            },
        );
        assert_eq!(on.solve(), SolveOutcome::Unsat);
        let proof = on.proof().expect("logging was requested");
        assert!(proof.ends_with_empty_clause());
        assert!(proof.len() as u64 >= on.stats().learned_clauses);
    }

    #[test]
    fn logged_refutations_pass_the_independent_checker() {
        // Conflict-driven refutation (clauses actually learned) ...
        let cnf = pigeonhole(4);
        let mut s = Solver::with_config(
            &cnf,
            SolverConfig {
                proof_log: true,
                ..SolverConfig::default()
            },
        );
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        let stats = crate::checker::check_refutation(&cnf, s.proof().unwrap())
            .expect("solver proof must be RUP-checkable");
        assert!(stats.rup_steps > 1);

        // ... and the two load-time shortcuts: clashing units and an
        // empty clause, both refuted before any conflict analysis runs.
        let mut units = Cnf::new();
        let a = units.new_var();
        units.add_clause([Lit::pos(a)]);
        units.add_clause([Lit::neg(a)]);
        let mut empty = Cnf::new();
        empty.add_clause([]);
        for cnf in [units, empty] {
            let mut s = Solver::with_config(
                &cnf,
                SolverConfig {
                    proof_log: true,
                    ..SolverConfig::default()
                },
            );
            assert_eq!(s.solve(), SolveOutcome::Unsat);
            // Solving again must not log a second empty clause.
            assert_eq!(s.solve(), SolveOutcome::Unsat);
            let proof = s.proof().unwrap();
            assert_eq!(proof.len(), 1);
            crate::checker::check_refutation(&cnf, proof).expect("load-time refutation checks");
        }
    }

    #[test]
    fn resumed_solves_accumulate_one_checkable_proof() {
        let cnf = pigeonhole(4);
        let mut s = Solver::with_config(
            &cnf,
            SolverConfig {
                max_conflicts: Some(5),
                proof_log: true,
            },
        );
        let mut rounds = 0;
        loop {
            match s.solve() {
                SolveOutcome::Unsat => break,
                SolveOutcome::Unknown => rounds += 1,
                SolveOutcome::Sat(model) => {
                    panic!("pigeonhole(4) cannot be SAT; got model {model:?} for {cnf:?}")
                }
            }
            assert!(rounds < 100_000, "budgeted solve failed to converge");
        }
        assert!(
            rounds > 0,
            "budget of 5 conflicts must interrupt at least once"
        );
        let proof = s.take_proof().expect("logging was requested");
        assert!(proof.ends_with_empty_clause());
        crate::checker::check_refutation(&cnf, &proof)
            .expect("proof spliced across resumed solves must still check");
        // take_proof leaves a fresh, empty log behind.
        assert_eq!(s.proof().map(crate::ProofLog::len), Some(0));
    }

    #[test]
    fn restarts_happen_on_hard_instances() {
        let cnf = pigeonhole(6);
        let mut s = Solver::new(&cnf);
        assert_eq!(s.solve(), SolveOutcome::Unsat);
        assert!(s.stats().restarts > 0);
    }
}
