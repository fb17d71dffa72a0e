use std::collections::BTreeSet;
use std::fmt;

use crate::PropsError;

/// A Boolean formula over named variables, the label payload of Boolean
/// graphs (`SAT-GRAPH`, Section 8).
///
/// The text codec (used to embed formulas in node labels) is:
/// `T`, `F`, `v<name>` (name over `[A-Za-z0-9_.:]`), `!e`,
/// `&(e1,e2,…)`, `|(e1,e2,…)`.
///
/// # Example
///
/// ```
/// use lph_props::BoolExpr;
///
/// let f = BoolExpr::parse("&(vp,|(!vq,vr))").unwrap();
/// assert_eq!(f.to_string(), "&(vp,|(!vq,vr))");
/// assert_eq!(f.variables().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoolExpr {
    /// A truth constant.
    Const(bool),
    /// A named variable.
    Var(String),
    /// Negation.
    Not(Box<BoolExpr>),
    /// Conjunction (empty = true).
    And(Vec<BoolExpr>),
    /// Disjunction (empty = false).
    Or(Vec<BoolExpr>),
}

impl BoolExpr {
    /// A variable by name.
    pub fn var(name: impl Into<String>) -> Self {
        BoolExpr::Var(name.into())
    }

    /// Negation helper.
    pub fn negated(self) -> Self {
        BoolExpr::Not(Box::new(self))
    }

    /// The set of variable names occurring in the formula.
    pub fn variables(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut BTreeSet<String>) {
        match self {
            BoolExpr::Const(_) => {}
            BoolExpr::Var(v) => {
                out.insert(v.clone());
            }
            BoolExpr::Not(f) => f.collect_vars(out),
            BoolExpr::And(fs) | BoolExpr::Or(fs) => {
                for f in fs {
                    f.collect_vars(out);
                }
            }
        }
    }

    /// Evaluates under a valuation (a predicate on variable names).
    pub fn eval(&self, val: &dyn Fn(&str) -> bool) -> bool {
        match self {
            BoolExpr::Const(b) => *b,
            BoolExpr::Var(v) => val(v),
            BoolExpr::Not(f) => !f.eval(val),
            BoolExpr::And(fs) => fs.iter().all(|f| f.eval(val)),
            BoolExpr::Or(fs) => fs.iter().any(|f| f.eval(val)),
        }
    }

    /// Renames every variable through `f` (used to scope variables by node
    /// identifier in the Cook–Levin reduction).
    pub fn rename(&self, f: &dyn Fn(&str) -> String) -> BoolExpr {
        match self {
            BoolExpr::Const(b) => BoolExpr::Const(*b),
            BoolExpr::Var(v) => BoolExpr::Var(f(v)),
            BoolExpr::Not(g) => BoolExpr::Not(Box::new(g.rename(f))),
            BoolExpr::And(fs) => BoolExpr::And(fs.iter().map(|g| g.rename(f)).collect()),
            BoolExpr::Or(fs) => BoolExpr::Or(fs.iter().map(|g| g.rename(f)).collect()),
        }
    }

    /// Recursively folds constants: `¬⊤ → ⊥`, conjunctions drop `⊤` and
    /// collapse on `⊥`, disjunctions dually, and one-element `∧`/`∨` unwrap.
    /// Semantics-preserving; used by the Theorem 19 translation to keep
    /// emitted formulas proportional to their *live* content.
    pub fn simplified(&self) -> BoolExpr {
        match self {
            BoolExpr::Const(_) | BoolExpr::Var(_) => self.clone(),
            BoolExpr::Not(g) => match g.simplified() {
                BoolExpr::Const(b) => BoolExpr::Const(!b),
                BoolExpr::Not(inner) => *inner,
                other => other.negated(),
            },
            BoolExpr::And(fs) => {
                let mut out = Vec::new();
                for f in fs {
                    match f.simplified() {
                        BoolExpr::Const(true) => {}
                        BoolExpr::Const(false) => return BoolExpr::Const(false),
                        BoolExpr::And(inner) => out.extend(inner),
                        other => out.push(other),
                    }
                }
                match out.len() {
                    0 => BoolExpr::Const(true),
                    1 => out.pop().expect("one element"),
                    _ => BoolExpr::And(out),
                }
            }
            BoolExpr::Or(fs) => {
                let mut out = Vec::new();
                for f in fs {
                    match f.simplified() {
                        BoolExpr::Const(false) => {}
                        BoolExpr::Const(true) => return BoolExpr::Const(true),
                        BoolExpr::Or(inner) => out.extend(inner),
                        other => out.push(other),
                    }
                }
                match out.len() {
                    0 => BoolExpr::Const(false),
                    1 => out.pop().expect("one element"),
                    _ => BoolExpr::Or(out),
                }
            }
        }
    }

    /// Parses the text codec.
    ///
    /// # Errors
    ///
    /// Returns [`PropsError::ParseFormula`] on malformed input.
    pub fn parse(s: &str) -> Result<Self, PropsError> {
        let bytes = s.as_bytes();
        let (expr, pos) = parse_expr(bytes, 0)?;
        if pos != bytes.len() {
            return Err(PropsError::ParseFormula {
                position: pos,
                expected: "end of input".into(),
            });
        }
        Ok(expr)
    }

    /// Converts to an equivalent CNF by distribution — exponential in the
    /// worst case; used only for small reference formulas. For the
    /// size-preserving conversion use [`BoolExpr::tseytin`].
    pub fn to_cnf_by_distribution(&self) -> Cnf {
        fn go(f: &BoolExpr, positive: bool) -> Vec<Vec<Lit>> {
            match (f, positive) {
                (BoolExpr::Const(b), pos) => {
                    if *b == pos {
                        vec![] // true: no clauses
                    } else {
                        vec![vec![]] // false: one empty clause
                    }
                }
                (BoolExpr::Var(v), pos) => {
                    vec![vec![Lit {
                        var: v.clone(),
                        positive: pos,
                    }]]
                }
                (BoolExpr::Not(g), pos) => go(g, !pos),
                (BoolExpr::And(fs), true) | (BoolExpr::Or(fs), false) => {
                    fs.iter().flat_map(|g| go(g, positive)).collect()
                }
                (BoolExpr::Or(fs), true) | (BoolExpr::And(fs), false) => {
                    // Distribute: cross product of clause sets.
                    let mut acc: Vec<Vec<Lit>> = vec![vec![]];
                    for g in fs {
                        let cs = go(g, positive);
                        let mut next = Vec::new();
                        for a in &acc {
                            for c in &cs {
                                let mut merged = a.clone();
                                merged.extend(c.iter().cloned());
                                next.push(merged);
                            }
                        }
                        acc = next;
                    }
                    acc
                }
            }
        }
        Cnf {
            clauses: go(self, true),
        }
    }

    /// The Tseytin transformation: an equisatisfiable CNF of size linear in
    /// the formula, introducing auxiliary variables named
    /// `{aux_prefix}<n>`. Every satisfying valuation of the original
    /// extends to one of the CNF, and every satisfying valuation of the CNF
    /// restricts to one of the original (Theorem 20, step 1).
    pub fn tseytin(&self, aux_prefix: &str) -> Cnf {
        let mut out = Cnf {
            clauses: Vec::new(),
        };
        let mut counter = 0usize;
        let top = tseytin_go(self, aux_prefix, &mut counter, &mut out);
        out.clauses.push(vec![top]);
        out
    }
}

/// Encodes the literal for a subformula: either a variable literal directly
/// or a fresh auxiliary variable constrained to equal the subformula.
fn tseytin_go(f: &BoolExpr, prefix: &str, counter: &mut usize, out: &mut Cnf) -> Lit {
    match f {
        BoolExpr::Const(b) => {
            // Encode constants with a dedicated always-true auxiliary.
            let v = fresh(prefix, counter);
            let lit = Lit {
                var: v,
                positive: *b,
            };
            out.clauses.push(vec![Lit {
                var: lit.var.clone(),
                positive: true,
            }]);
            lit
        }
        BoolExpr::Var(v) => Lit {
            var: v.clone(),
            positive: true,
        },
        BoolExpr::Not(g) => {
            let l = tseytin_go(g, prefix, counter, out);
            Lit {
                var: l.var,
                positive: !l.positive,
            }
        }
        BoolExpr::And(fs) => {
            let ls: Vec<Lit> = fs
                .iter()
                .map(|g| tseytin_go(g, prefix, counter, out))
                .collect();
            let v = fresh(prefix, counter);
            // v ↔ ∧ ls:  (¬v ∨ lᵢ) for each i;  (v ∨ ¬l₁ ∨ … ∨ ¬l_n)
            for l in &ls {
                out.clauses.push(vec![
                    Lit {
                        var: v.clone(),
                        positive: false,
                    },
                    l.clone(),
                ]);
            }
            let mut big = vec![Lit {
                var: v.clone(),
                positive: true,
            }];
            big.extend(ls.iter().map(Lit::negate_ref));
            out.clauses.push(big);
            Lit {
                var: v,
                positive: true,
            }
        }
        BoolExpr::Or(fs) => {
            let ls: Vec<Lit> = fs
                .iter()
                .map(|g| tseytin_go(g, prefix, counter, out))
                .collect();
            let v = fresh(prefix, counter);
            // v ↔ ∨ ls:  (v ∨ ¬lᵢ);  (¬v ∨ l₁ ∨ … ∨ l_n)
            for l in &ls {
                out.clauses.push(vec![
                    Lit {
                        var: v.clone(),
                        positive: true,
                    },
                    l.negate_ref(),
                ]);
            }
            let mut big = vec![Lit {
                var: v.clone(),
                positive: false,
            }];
            big.extend(ls.iter().cloned());
            out.clauses.push(big);
            Lit {
                var: v,
                positive: true,
            }
        }
    }
}

fn fresh(prefix: &str, counter: &mut usize) -> String {
    let v = format!("{prefix}{counter}");
    *counter += 1;
    v
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::Const(true) => write!(f, "T"),
            BoolExpr::Const(false) => write!(f, "F"),
            BoolExpr::Var(v) => write!(f, "v{v}"),
            BoolExpr::Not(g) => write!(f, "!{g}"),
            BoolExpr::And(fs) => {
                write!(f, "&(")?;
                for (i, g) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, ")")
            }
            BoolExpr::Or(fs) => {
                write!(f, "|(")?;
                for (i, g) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{g}")?;
                }
                write!(f, ")")
            }
        }
    }
}

fn is_name_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b':' || b == b'-'
}

fn parse_expr(s: &[u8], pos: usize) -> Result<(BoolExpr, usize), PropsError> {
    match s.get(pos) {
        Some(b'T') => Ok((BoolExpr::Const(true), pos + 1)),
        Some(b'F') => Ok((BoolExpr::Const(false), pos + 1)),
        Some(b'v') => {
            let mut end = pos + 1;
            while end < s.len() && is_name_byte(s[end]) {
                end += 1;
            }
            if end == pos + 1 {
                return Err(PropsError::ParseFormula {
                    position: pos + 1,
                    expected: "variable name".into(),
                });
            }
            Ok((
                BoolExpr::Var(String::from_utf8_lossy(&s[pos + 1..end]).into_owned()),
                end,
            ))
        }
        Some(b'!') => {
            let (inner, next) = parse_expr(s, pos + 1)?;
            Ok((inner.negated(), next))
        }
        Some(op @ (b'&' | b'|')) => {
            if s.get(pos + 1) != Some(&b'(') {
                return Err(PropsError::ParseFormula {
                    position: pos + 1,
                    expected: "'('".into(),
                });
            }
            let mut items = Vec::new();
            let mut cur = pos + 2;
            if s.get(cur) == Some(&b')') {
                cur += 1;
            } else {
                loop {
                    let (item, next) = parse_expr(s, cur)?;
                    items.push(item);
                    match s.get(next) {
                        Some(b',') => cur = next + 1,
                        Some(b')') => {
                            cur = next + 1;
                            break;
                        }
                        _ => {
                            return Err(PropsError::ParseFormula {
                                position: next,
                                expected: "',' or ')'".into(),
                            })
                        }
                    }
                }
            }
            let e = if *op == b'&' {
                BoolExpr::And(items)
            } else {
                BoolExpr::Or(items)
            };
            Ok((e, cur))
        }
        _ => Err(PropsError::ParseFormula {
            position: pos,
            expected: "one of T, F, v, !, &(, |(".into(),
        }),
    }
}

/// A literal: a variable or its negation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit {
    /// The variable name.
    pub var: String,
    /// `true` for the positive literal.
    pub positive: bool,
}

impl Lit {
    /// The positive literal of a variable.
    pub fn pos(var: impl Into<String>) -> Self {
        Lit {
            var: var.into(),
            positive: true,
        }
    }

    /// The negative literal of a variable.
    pub fn neg(var: impl Into<String>) -> Self {
        Lit {
            var: var.into(),
            positive: false,
        }
    }

    /// The complementary literal (borrowing helper).
    pub fn negate_ref(&self) -> Lit {
        Lit {
            var: self.var.clone(),
            positive: !self.positive,
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.positive {
            write!(f, "v{}", self.var)
        } else {
            write!(f, "!v{}", self.var)
        }
    }
}

/// A clause: a disjunction of literals.
pub type Clause = Vec<Lit>;

/// A formula in conjunctive normal form.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cnf {
    /// The clauses (conjunction of disjunctions).
    pub clauses: Vec<Clause>,
}

impl Cnf {
    /// The variables occurring in the CNF.
    pub fn variables(&self) -> BTreeSet<String> {
        self.clauses
            .iter()
            .flatten()
            .map(|l| l.var.clone())
            .collect()
    }

    /// Whether every clause has at most 3 literals (3-CNF).
    pub fn is_three_cnf(&self) -> bool {
        self.clauses.iter().all(|c| c.len() <= 3)
    }

    /// Pads/splits clauses into an equisatisfiable 3-CNF, splitting long
    /// clauses with chained auxiliary variables named `{aux_prefix}<n>`.
    pub fn to_three_cnf(&self, aux_prefix: &str) -> Cnf {
        let mut out = Vec::new();
        let mut counter = 0usize;
        for clause in &self.clauses {
            if clause.len() <= 3 {
                out.push(clause.clone());
                continue;
            }
            // (l1 ∨ l2 ∨ a0) (¬a0 ∨ l3 ∨ a1) … (¬a_{m} ∨ l_{k-1} ∨ l_k)
            let mut rest = clause.clone();
            let mut prev: Option<String> = None;
            while rest.len() > 3 - usize::from(prev.is_some()) {
                let take = if prev.is_some() { 1 } else { 2 };
                let mut c: Clause = Vec::new();
                if let Some(p) = prev.take() {
                    c.push(Lit::neg(p));
                }
                for l in rest.drain(..take) {
                    c.push(l);
                }
                let aux = format!("{aux_prefix}{counter}");
                counter += 1;
                c.push(Lit::pos(aux.clone()));
                out.push(c);
                prev = Some(aux);
            }
            let mut c: Clause = Vec::new();
            if let Some(p) = prev {
                c.push(Lit::neg(p));
            }
            c.extend(rest);
            out.push(c);
        }
        Cnf { clauses: out }
    }

    /// Converts back to a [`BoolExpr`] (an `And` of `Or`s of literals).
    pub fn to_expr(&self) -> BoolExpr {
        BoolExpr::And(
            self.clauses
                .iter()
                .map(|c| {
                    BoolExpr::Or(
                        c.iter()
                            .map(|l| {
                                let v = BoolExpr::Var(l.var.clone());
                                if l.positive {
                                    v
                                } else {
                                    v.negated()
                                }
                            })
                            .collect(),
                    )
                })
                .collect(),
        )
    }
}

/// Whether a [`BoolExpr`] is syntactically a CNF with clauses of at most 3
/// literals (the label shape required by `3-SAT-GRAPH`).
pub fn expr_is_three_cnf(e: &BoolExpr) -> bool {
    fn is_literal(e: &BoolExpr) -> bool {
        matches!(e, BoolExpr::Var(_))
            || matches!(e, BoolExpr::Not(inner) if matches!(**inner, BoolExpr::Var(_)))
    }
    fn is_clause(e: &BoolExpr) -> bool {
        match e {
            BoolExpr::Or(ls) => ls.len() <= 3 && ls.iter().all(is_literal),
            other => is_literal(other),
        }
    }
    match e {
        BoolExpr::And(cs) => cs.iter().all(is_clause),
        BoolExpr::Const(_) => true,
        other => is_clause(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::cdcl_sat;

    #[test]
    fn parse_round_trip() {
        for src in [
            "T",
            "F",
            "vp",
            "!vq_1",
            "&(vp,|(!vq,vr))",
            "&()",
            "|()",
            "|(va,vb,vc)",
        ] {
            let e = BoolExpr::parse(src).unwrap();
            assert_eq!(e.to_string(), src);
            let e2 = BoolExpr::parse(&e.to_string()).unwrap();
            assert_eq!(e, e2);
        }
    }

    #[test]
    fn parse_errors_are_located() {
        let err = BoolExpr::parse("&(vp").unwrap_err();
        assert!(matches!(err, PropsError::ParseFormula { .. }));
        let err = BoolExpr::parse("vp,vq").unwrap_err();
        assert!(matches!(err, PropsError::ParseFormula { position: 2, .. }));
        assert!(BoolExpr::parse("v").is_err());
        assert!(BoolExpr::parse("x").is_err());
    }

    #[test]
    fn eval_semantics() {
        let e = BoolExpr::parse("&(vp,|(!vq,vr))").unwrap();
        let val = |p: bool, q: bool, r: bool| {
            move |name: &str| match name {
                "p" => p,
                "q" => q,
                "r" => r,
                _ => unreachable!(),
            }
        };
        assert!(e.eval(&val(true, false, false)));
        assert!(e.eval(&val(true, true, true)));
        assert!(!e.eval(&val(true, true, false)));
        assert!(!e.eval(&val(false, false, false)));
    }

    #[test]
    fn distribution_cnf_is_equivalent() {
        let e = BoolExpr::parse("|(&(vp,vq),!vr)").unwrap();
        let cnf = e.to_cnf_by_distribution();
        // Check equivalence over all 8 valuations.
        for mask in 0..8u8 {
            let val = |name: &str| match name {
                "p" => mask & 1 != 0,
                "q" => mask & 2 != 0,
                "r" => mask & 4 != 0,
                _ => unreachable!(),
            };
            let cnf_val = cnf
                .clauses
                .iter()
                .all(|c| c.iter().any(|l| val(&l.var) == l.positive));
            assert_eq!(cnf_val, e.eval(&val), "mask {mask}");
        }
    }

    #[test]
    fn tseytin_is_equisatisfiable() {
        for src in [
            "&(vp,!vp)",              // unsat
            "|(vp,!vp)",              // sat
            "&(|(vp,vq),|(!vp,!vq))", // sat (p ⊕ q)
            "&(vp,&(!vp,vq))",        // unsat
            "T",
            "F",
        ] {
            let e = BoolExpr::parse(src).unwrap();
            let brute = {
                let vars: Vec<String> = e.variables().into_iter().collect();
                (0..1u32 << vars.len()).any(|mask| {
                    e.eval(&|name: &str| {
                        let i = vars.iter().position(|v| v == name).unwrap();
                        mask >> i & 1 == 1
                    })
                })
            };
            let cnf = e.tseytin("aux.");
            assert_eq!(cdcl_sat(&cnf), brute, "formula {src}");
        }
    }

    #[test]
    fn tseytin_is_linear_in_size() {
        // A balanced conjunction of n disjunctions: CNF size must be O(n).
        let n = 50;
        let e = BoolExpr::And(
            (0..n)
                .map(|i| {
                    BoolExpr::Or(vec![
                        BoolExpr::var(format!("a{i}")),
                        BoolExpr::var(format!("b{i}")).negated(),
                    ])
                })
                .collect(),
        );
        let cnf = e.tseytin("x.");
        assert!(cnf.clauses.len() <= 6 * n + 10);
    }

    #[test]
    fn three_cnf_split_preserves_satisfiability() {
        // A single long clause: satisfiable.
        let long: Clause = (0..7).map(|i| Lit::pos(format!("p{i}"))).collect();
        let cnf = Cnf {
            clauses: vec![long],
        };
        let three = cnf.to_three_cnf("aux.");
        assert!(three.is_three_cnf());
        assert!(cdcl_sat(&three));
        // Force all literals false via units: unsat either way.
        let mut clauses = three.clauses.clone();
        for i in 0..7 {
            clauses.push(vec![Lit::neg(format!("p{i}"))]);
        }
        assert!(!cdcl_sat(&Cnf { clauses }));
    }

    #[test]
    fn three_cnf_shape_detection() {
        assert!(expr_is_three_cnf(
            &BoolExpr::parse("&(|(vp,!vq,vr),|(vs))").unwrap()
        ));
        assert!(expr_is_three_cnf(&BoolExpr::parse("vp").unwrap()));
        assert!(!expr_is_three_cnf(
            &BoolExpr::parse("|(vp,vq,vr,vs)").unwrap()
        ));
        assert!(!expr_is_three_cnf(&BoolExpr::parse("|(&(vp,vq))").unwrap()));
        assert!(!expr_is_three_cnf(&BoolExpr::parse("!!vp").unwrap()));
    }

    #[test]
    fn simplification_preserves_semantics() {
        use lph_graphs::generators::XorShift;
        fn random_expr(rng: &mut XorShift, depth: usize) -> BoolExpr {
            if depth == 0 {
                return match rng.below(3) {
                    0 => BoolExpr::Const(rng.bool()),
                    _ => BoolExpr::var(format!("v{}", rng.below(3))),
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
        let mut rng = XorShift::new(7);
        for _ in 0..200 {
            let e = random_expr(&mut rng, 3);
            let s = e.simplified();
            for mask in 0..8u8 {
                let val = |name: &str| {
                    let i: usize = name[1..].parse().unwrap();
                    mask >> i & 1 == 1
                };
                assert_eq!(e.eval(&val), s.eval(&val), "expr {e}");
            }
        }
        // Pure-constant trees collapse entirely.
        let e = BoolExpr::parse("&(T,|(F,T),!F)").unwrap();
        assert_eq!(e.simplified(), BoolExpr::Const(true));
    }

    #[test]
    fn rename_rescopes_variables() {
        let e = BoolExpr::parse("&(vp,!vq)").unwrap();
        let r = e.rename(&|v: &str| format!("7:{v}"));
        assert_eq!(r.to_string(), "&(v7:p,!v7:q)");
    }
}
