//! The serving registry: every arbiter and reduction a client can query
//! by key, with the metadata admission control and the `list` query need.
//!
//! Keys are stable snake-case slugs (they appear verbatim in
//! `PROTOCOL.md`). The registry is derived from the analyzer's artifact
//! tables ([`lph_analysis::corpus::ARBITERS`] and
//! [`lph_analysis::corpus::REDUCTIONS`]), where each shipped artifact's
//! key, factory and claims are declared once; it holds *factories*
//! instead of constructed artifacts, so each request builds its own
//! arbiter. The arbiter table is built once per process, on first use,
//! and every lookup borrows it; reductions are served from their table
//! as is.
//!
//! For TM-backed arbiters construction runs the flow tier's machine
//! analysis and records the certified Lemma 10 per-round step polynomial;
//! admission control prices requests with it. Closure-backed (Local)
//! arbiters have no certificate — they are marked uncertified and the
//! engine counts their admissions separately.
//!
//! The compiled execution tier gets the same treatment one level down:
//! construction compiles each TM arbiter to [`lph_machine::CompiledTm`]
//! bytecode, runs the translation validators (`VM001`–`VM004`) against
//! it, and records the step polynomial re-derived *from the bytecode* by
//! [`lph_analysis::analyze_bytecode`]; requests that pin
//! `"exec":"compiled"` are priced from that bound. Validation is a
//! construction invariant: a finding panics with the failed rule codes,
//! and `lph-serve` builds the registry before it serves, so unverified
//! bytecode stops the server at startup instead of reaching any
//! execution tier.

use std::sync::OnceLock;

use lph_analysis::corpus::{ArbiterDecl, ARBITERS, REDUCTIONS};
use lph_analysis::flow::bytecode::{analyze_bytecode, verify_bytecode};
use lph_analysis::flow::machine::analyze;
use lph_core::{Arbiter, ArbiterKind};
use lph_graphs::PolyBound;
use lph_machine::CompiledTm;

/// A registered arbiter.
pub struct ArbiterEntry {
    /// The wire key (`"eulerian_decider"` etc.).
    pub key: &'static str,
    /// Builds a fresh arbiter.
    pub factory: fn() -> Arbiter,
    /// The claimed hierarchy class, as declared in the artifact table.
    pub claimed_class: &'static str,
    /// The declared metered round count, as declared in the artifact table.
    pub declared_rounds: usize,
    /// Hierarchy level `ℓ` of the arbitrated game.
    pub level: usize,
    /// Certified per-round step polynomial from the flow tier, for
    /// TM-backed arbiters whose analysis produced a bound.
    pub certified_steps: Option<PolyBound>,
    /// Step polynomial re-derived from the compiled (and validated)
    /// bytecode, for TM-backed arbiters whose analysis produced a bound.
    pub bytecode_certified_steps: Option<PolyBound>,
}

/// A registered reduction: its artifact-table entry (wire key, factory,
/// lint probes).
pub type ReductionEntry = lph_analysis::corpus::ReductionDecl;

fn entry(decl: &ArbiterDecl) -> ArbiterEntry {
    let a = (decl.factory)();
    let (certified_steps, bytecode_certified_steps) = match a.kind() {
        ArbiterKind::Tm(tm) => {
            let flow = analyze(tm);
            let compiled = CompiledTm::compile(tm);
            let artifact = format!("dtm:{}", a.name());
            let findings: Vec<String> = verify_bytecode(&artifact, tm, &compiled, &flow)
                .into_iter()
                .map(|d| d.code)
                .collect();
            assert!(
                findings.is_empty(),
                "{}: compiled artifact fails translation validation ({})",
                decl.key,
                findings.join(", ")
            );
            (flow.steps, analyze_bytecode(&compiled).steps)
        }
        ArbiterKind::Local(_) => (None, None),
    };
    ArbiterEntry {
        key: decl.key,
        factory: decl.factory,
        claimed_class: decl.claimed_class,
        declared_rounds: decl.declared_rounds,
        level: a.spec().ell,
        certified_steps,
        bytecode_certified_steps,
    }
}

/// Every arbiter the service answers `membership` and `lint` queries for,
/// one per [`ARBITERS`] entry, in table order.
///
/// # Panics
///
/// On the first call, if a compiled artifact fails `VM001`–`VM004`.
pub fn arbiter_entries() -> &'static [ArbiterEntry] {
    static ENTRIES: OnceLock<Vec<ArbiterEntry>> = OnceLock::new();
    ENTRIES.get_or_init(|| ARBITERS.iter().map(entry).collect())
}

/// Every reduction the service answers `reduction` and `lint` queries for:
/// the [`REDUCTIONS`] table.
pub fn reduction_entries() -> &'static [ReductionEntry] {
    REDUCTIONS
}

/// Looks up an arbiter entry by wire key.
pub fn find_arbiter(key: &str) -> Option<&'static ArbiterEntry> {
    arbiter_entries().iter().find(|e| e.key == key)
}

/// Looks up a reduction entry by wire key.
pub fn find_reduction(key: &str) -> Option<&'static ReductionEntry> {
    reduction_entries().iter().find(|e| e.key == key)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_unique_and_stable() {
        let arbs = arbiter_entries();
        let mut keys: Vec<_> = arbs.iter().map(|e| e.key).collect();
        keys.extend(reduction_entries().iter().map(|e| e.key));
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len(), "duplicate registry key");
    }

    #[test]
    fn tm_backed_arbiters_carry_certified_bounds() {
        for key in ["all_selected_decider", "eulerian_decider"] {
            let e = find_arbiter(key).unwrap();
            let steps = e
                .certified_steps
                .as_ref()
                .unwrap_or_else(|| panic!("{key} should have a certified step bound"));
            assert!(steps.eval(8) > 0, "{key}");
        }
        assert!(find_arbiter("three_colorable_verifier")
            .unwrap()
            .certified_steps
            .is_none());
    }

    #[test]
    fn shipped_bytecode_verifies_and_matches_the_interpreter_tier() {
        for e in arbiter_entries() {
            // Where the interpreter tier certifies a bound, the bytecode
            // tier must too, and the bounds must agree at sample sizes
            // (VM004 pins mutual domination at construction).
            match (&e.certified_steps, &e.bytecode_certified_steps) {
                (Some(interp), Some(byte)) => {
                    for n in [1, 8, 64] {
                        assert_eq!(interp.eval(n), byte.eval(n), "{} at n={n}", e.key);
                    }
                }
                (None, None) => {}
                (a, b) => panic!("{}: tier mismatch {a:?} vs {b:?}", e.key),
            }
        }
    }

    #[test]
    fn lookups_borrow_the_one_registry() {
        let arbiter = || find_arbiter("eulerian_decider").unwrap();
        assert!(std::ptr::eq(arbiter(), arbiter()));
        let reduction = || find_reduction("all_selected_to_eulerian").unwrap();
        assert!(std::ptr::eq(reduction(), reduction()));
    }
}
