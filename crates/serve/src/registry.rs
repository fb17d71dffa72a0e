//! The serving registry: every arbiter and reduction a client can query
//! by key, with the metadata admission control and the `list` query need.
//!
//! Keys are stable snake-case slugs (they appear verbatim in
//! `PROTOCOL.md`). The registry mirrors the analyzer's built-in corpus
//! ([`lph_analysis::corpus::builtin`]) — same artifacts, same claims — but
//! holds *factories* instead of constructed artifacts, so each request
//! builds its own arbiter. The table is built once per process, on first
//! use, and every lookup borrows it.
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

use lph_analysis::flow::bytecode::{analyze_bytecode, verify_bytecode};
use lph_analysis::flow::machine::analyze;
use lph_core::{arbiters, Arbiter, ArbiterKind, Player};
use lph_graphs::PolyBound;
use lph_logic::examples;
use lph_machine::CompiledTm;
use lph_reductions::{
    cook_levin::LfoToSatGraph,
    eulerian::AllSelectedToEulerian,
    hamiltonian::{AllSelectedToHamiltonian, NotAllSelectedToHamiltonian},
    sat_to_three_sat::SatGraphToThreeSatGraph,
    three_col::ThreeSatGraphToThreeColorable,
    LocalReduction,
};

/// A registered arbiter.
pub struct ArbiterEntry {
    /// The wire key (`"eulerian_decider"` etc.).
    pub key: &'static str,
    /// Builds a fresh arbiter.
    pub factory: fn() -> Arbiter,
    /// The documented hierarchy class (matches the corpus claim).
    pub claimed_class: &'static str,
    /// The documented metered round count (matches the corpus claim).
    pub declared_rounds: usize,
    /// Hierarchy level `ℓ` of the arbitrated game.
    pub level: usize,
    /// `"Σ"` or `"Π"` by who moves first.
    pub side: &'static str,
    /// Certified per-round step polynomial from the flow tier, for
    /// TM-backed arbiters whose analysis produced a bound.
    pub certified_steps: Option<PolyBound>,
    /// Step polynomial re-derived from the compiled (and validated)
    /// bytecode, for TM-backed arbiters whose analysis produced a bound.
    pub bytecode_certified_steps: Option<PolyBound>,
}

/// A registered reduction.
pub struct ReductionEntry {
    /// The wire key (`"all_selected_to_eulerian"` etc.).
    pub key: &'static str,
    /// Builds a fresh reduction.
    pub factory: fn() -> Box<dyn LocalReduction + Send + Sync>,
}

fn entry(
    key: &'static str,
    factory: fn() -> Arbiter,
    claimed_class: &'static str,
    declared_rounds: usize,
) -> ArbiterEntry {
    let a = factory();
    let spec = a.spec();
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
                "{key}: compiled artifact fails translation validation ({})",
                findings.join(", ")
            );
            (flow.steps, analyze_bytecode(&compiled).steps)
        }
        ArbiterKind::Local(_) => (None, None),
    };
    ArbiterEntry {
        key,
        factory,
        claimed_class,
        declared_rounds,
        level: spec.ell,
        side: if spec.first == Player::Eve {
            "Σ"
        } else {
            "Π"
        },
        certified_steps,
        bytecode_certified_steps,
    }
}

fn distance_to_unselected_2() -> Arbiter {
    arbiters::distance_to_unselected_verifier(2)
}

fn lfo_all_selected() -> Box<dyn LocalReduction + Send + Sync> {
    Box::new(LfoToSatGraph::new(examples::all_selected()))
}

fn lfo_three_colorable() -> Box<dyn LocalReduction + Send + Sync> {
    Box::new(LfoToSatGraph::new(examples::three_colorable()))
}

/// Every arbiter the service answers `membership` and `lint` queries for.
/// Claims are copied from the analyzer corpus and cross-checked by a test.
///
/// # Panics
///
/// On the first call, if a compiled artifact fails `VM001`–`VM004`.
pub fn arbiter_entries() -> &'static [ArbiterEntry] {
    static ENTRIES: OnceLock<Vec<ArbiterEntry>> = OnceLock::new();
    ENTRIES.get_or_init(build_arbiters)
}

fn build_arbiters() -> Vec<ArbiterEntry> {
    vec![
        entry(
            "all_selected_decider",
            arbiters::all_selected_decider,
            "Σ0",
            1,
        ),
        entry("eulerian_decider", arbiters::eulerian_decider, "Σ0", 1),
        entry(
            "three_colorable_verifier",
            arbiters::three_colorable_verifier,
            "Σ1",
            2,
        ),
        entry(
            "two_colorable_verifier",
            arbiters::two_colorable_verifier,
            "Σ1",
            2,
        ),
        entry("sat_graph_verifier", arbiters::sat_graph_verifier, "Σ1", 2),
        entry("all_selected_pi1", arbiters::all_selected_pi1, "Π1", 1),
        entry(
            "not_all_selected_sigma3",
            arbiters::not_all_selected_sigma3,
            "Σ3",
            2,
        ),
        entry(
            "distance_to_unselected_verifier",
            distance_to_unselected_2,
            "Σ1",
            2,
        ),
        entry(
            "pointer_to_unselected_verifier",
            arbiters::pointer_to_unselected_verifier,
            "Σ1",
            2,
        ),
    ]
}

/// Every reduction the service answers `reduction` and `lint` queries for.
pub fn reduction_entries() -> &'static [ReductionEntry] {
    static ENTRIES: OnceLock<Vec<ReductionEntry>> = OnceLock::new();
    ENTRIES.get_or_init(build_reductions)
}

fn build_reductions() -> Vec<ReductionEntry> {
    vec![
        ReductionEntry {
            key: "all_selected_to_eulerian",
            factory: || Box::new(AllSelectedToEulerian),
        },
        ReductionEntry {
            key: "all_selected_to_hamiltonian",
            factory: || Box::new(AllSelectedToHamiltonian),
        },
        ReductionEntry {
            key: "not_all_selected_to_hamiltonian",
            factory: || Box::new(NotAllSelectedToHamiltonian),
        },
        ReductionEntry {
            key: "lfo_all_selected_to_sat_graph",
            factory: lfo_all_selected,
        },
        ReductionEntry {
            key: "lfo_three_colorable_to_sat_graph",
            factory: lfo_three_colorable,
        },
        ReductionEntry {
            key: "sat_graph_to_three_sat_graph",
            factory: || Box::new(SatGraphToThreeSatGraph),
        },
        ReductionEntry {
            key: "three_sat_graph_to_three_colorable",
            factory: || Box::new(ThreeSatGraphToThreeColorable),
        },
    ]
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
    fn claims_match_the_analyzer_corpus() {
        let corpus = lph_analysis::builtin();
        for e in arbiter_entries() {
            let name = (e.factory)().name().to_owned();
            let art = corpus
                .arbiters
                .iter()
                .find(|a| a.arbiter.name() == name)
                .unwrap_or_else(|| panic!("{name} not in the analyzer corpus"));
            assert_eq!(e.claimed_class, art.claimed_class, "{name}");
            assert_eq!(e.declared_rounds, art.declared_rounds, "{name}");
        }
        // Every corpus reduction is servable and vice versa.
        assert_eq!(reduction_entries().len(), corpus.reductions.len());
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

    #[test]
    fn derived_level_and_side_match_claims() {
        for e in arbiter_entries() {
            let claim = format!("{}{}", e.side, e.level);
            assert_eq!(claim, e.claimed_class, "{}", e.key);
        }
    }
}
