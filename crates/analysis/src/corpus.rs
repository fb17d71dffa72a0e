//! The built-in corpus: every hand-built machine, example sentence,
//! arbiter, and reduction shipped by the workspace, wrapped as artifacts
//! with the claims stated in their documentation.
//!
//! `lph-lint` runs the full rule set over [`builtin`]; the tier-1 test
//! `tests/lint_corpus.rs` asserts the result is empty.
//!
//! Arbiters and reductions are declared once, in the [`ARBITERS`] and
//! [`REDUCTIONS`] tables: wire key, factory, claims and probes. [`builtin`]
//! builds its artifacts from them, and `lph-serve` derives its registry
//! from the same tables, so the class and round count admission prices a
//! request with are the ones `ARB001`/`ARB002` check.
//!
//! Only *formal artifacts* — objects carrying paper-level claims —
//! register here. Infrastructure (`lph-runtime`, `lph-trace`) registers
//! nothing: tracing instruments several corpus reductions, but a
//! recorder has no claim a lint rule could recompute, and the
//! instrumented reductions stay lint-clean with tracing on or off.

use lph_core::{arbiters, Arbiter};
use lph_graphs::{generators, IdAssignment, LabeledGraph, PolyBound};
use lph_logic::examples;
use lph_machine::machines;
use lph_reductions::{
    apply,
    cook_levin::{lfo_to_sat_graph, LfoToSatGraph},
    eulerian::AllSelectedToEulerian,
    hamiltonian::{AllSelectedToHamiltonian, NotAllSelectedToHamiltonian},
    sat_to_three_sat::SatGraphToThreeSatGraph,
    three_col::ThreeSatGraphToThreeColorable,
    LocalReduction,
};

use crate::contract::{self, ArbiterArtifact, ClusterMapArtifact, ReductionArtifact};
use crate::diagnostic::{sort_diagnostics, Diagnostic};
use crate::dtm::{self, DtmArtifact};
use crate::formula::{self, SentenceArtifact};
use crate::proofcheck::GameClaim;
use crate::registry::RuleConfig;

/// Every artifact the analyzer ships with.
pub struct Corpus {
    /// Hand-built distributed Turing machines.
    pub dtms: Vec<DtmArtifact>,
    /// Example sentences with their hierarchy claims.
    pub sentences: Vec<SentenceArtifact>,
    /// Arbiters with class claims and probe inputs.
    pub arbiters: Vec<ArbiterArtifact>,
    /// Local reductions with probe inputs.
    pub reductions: Vec<ReductionArtifact>,
    /// Hand-presented cluster maps (empty in the built-in corpus; the
    /// reductions' maps are derived from probes).
    pub cluster_maps: Vec<ClusterMapArtifact>,
}

/// Small `{0,1}`-labeled probe inputs for selected-style artifacts.
///
/// Every probe satisfies [`crate::flow::reduction_domain_ok`]: the
/// Eulerian/Hamiltonian gadget reductions need every node to have an
/// incident edge to anchor their gadgets (`RED003` enforces this on any
/// probe set handed to those reductions).
fn selected_probes() -> Vec<LabeledGraph> {
    let probes = vec![
        generators::labeled_cycle(&["1", "1", "1"]),
        generators::labeled_path(&["1", "0"]),
    ];
    debug_assert!(probes.iter().all(crate::flow::reduction_domain_ok));
    probes
}

/// A well-formed `SAT-GRAPH` probe, produced by the Theorem 19 reduction
/// itself (the only shipped producer of that labeling).
fn sat_graph_probe() -> LabeledGraph {
    let g = generators::labeled_cycle(&["1", "1", "1"]);
    let id = IdAssignment::global(&g);
    let (sat_g, _) = lfo_to_sat_graph(&examples::all_selected(), &g, &id)
        .expect("Theorem 19 reduction on a well-formed probe");
    sat_g
}

/// A well-formed `3-SAT-GRAPH` probe (Tseytin applied to the SAT probe).
fn three_sat_graph_probe() -> LabeledGraph {
    let sat_g = sat_graph_probe();
    let id = IdAssignment::global(&sat_g);
    let (three_g, _) = apply(&SatGraphToThreeSatGraph, &sat_g, &id)
        .expect("Tseytin reduction on a well-formed probe");
    three_g
}

/// Probes for the deciders and colorability verifiers: a 4-cycle and a
/// triangle.
fn cycle_and_triangle_probes() -> Vec<LabeledGraph> {
    vec![generators::cycle(4), generators::complete(3)]
}

/// A shipped arbiter, declared once: its wire key, how to build it, the
/// claims `ARB001`/`ARB002` check, and the inputs the lint tier replays.
/// [`builtin`] builds its [`ArbiterArtifact`] from this entry, and
/// `lph-serve` its registry entry.
pub struct ArbiterDecl {
    /// The stable snake-case key clients name the arbiter by.
    pub key: &'static str,
    /// Builds a fresh arbiter.
    pub factory: fn() -> Arbiter,
    /// Claimed decision class, e.g. `"Σ1"` (see
    /// [`ArbiterArtifact::claimed_class`]).
    pub claimed_class: &'static str,
    /// Declared upper bound on communication rounds per run.
    pub declared_rounds: usize,
    /// Builds the labeled probe inputs.
    pub probes: fn() -> Vec<LabeledGraph>,
    /// Builds the game claims (`SAT001`–`SAT003`).
    pub game_claims: fn() -> Vec<GameClaim>,
}

/// A shipped local reduction, declared once: its wire key, how to build
/// it, and the inputs the lint tier replays.
pub struct ReductionDecl {
    /// The stable snake-case key clients name the reduction by.
    pub key: &'static str,
    /// Builds a fresh reduction.
    pub factory: fn() -> Box<dyn LocalReduction + Send + Sync>,
    /// Builds the labeled probe inputs.
    pub probes: fn() -> Vec<LabeledGraph>,
}

/// Every shipped arbiter, in corpus (and `list`) order.
pub static ARBITERS: &[ArbiterDecl] = &[
    ArbiterDecl {
        key: "all_selected_decider",
        factory: arbiters::all_selected_decider,
        claimed_class: "Σ0",
        declared_rounds: 1,
        probes: selected_probes,
        game_claims: Vec::new,
    },
    ArbiterDecl {
        key: "eulerian_decider",
        factory: arbiters::eulerian_decider,
        claimed_class: "Σ0",
        declared_rounds: 1,
        probes: cycle_and_triangle_probes,
        game_claims: Vec::new,
    },
    ArbiterDecl {
        key: "three_colorable_verifier",
        factory: arbiters::three_colorable_verifier,
        claimed_class: "Σ1",
        declared_rounds: 2,
        probes: cycle_and_triangle_probes,
        game_claims: Vec::new,
    },
    ArbiterDecl {
        key: "two_colorable_verifier",
        factory: arbiters::two_colorable_verifier,
        claimed_class: "Σ1",
        declared_rounds: 2,
        probes: || vec![generators::cycle(4), generators::path(3)],
        // Σ₁-no claim: an odd cycle is not 2-colorable, so the CDCL
        // backend must refute Eve's witness search — and `SAT001`
        // demands the refutation pass the independent RUP checker.
        game_claims: || {
            vec![
                GameClaim::new("odd 5-cycle (not 2-colorable)", generators::cycle(5), false),
                GameClaim::new("even 4-cycle (2-colorable)", generators::cycle(4), true),
            ]
        },
    },
    ArbiterDecl {
        key: "sat_graph_verifier",
        factory: arbiters::sat_graph_verifier,
        claimed_class: "Σ1",
        declared_rounds: 2,
        probes: || vec![sat_graph_probe()],
        game_claims: Vec::new,
    },
    ArbiterDecl {
        key: "all_selected_pi1",
        factory: arbiters::all_selected_pi1,
        claimed_class: "Π1",
        declared_rounds: 1,
        probes: selected_probes,
        // Π₁-yes claim: on an all-selected cycle Adam has no
        // refutation, so Eve's win *is* an UNSAT answer — the
        // deliberately-unsatisfiable instance that pins the checked
        // refutation path. The partially-selected path is the SAT
        // side (Adam's rejection play is found and replayed).
        game_claims: || {
            vec![
                GameClaim::new(
                    "all-selected 5-cycle (Adam has no play)",
                    generators::labeled_cycle(&["1", "1", "1", "1", "1"]),
                    true,
                ),
                GameClaim::new(
                    "partially-selected 2-path",
                    generators::labeled_path(&["1", "0"]),
                    false,
                ),
            ]
        },
    },
    ArbiterDecl {
        key: "not_all_selected_sigma3",
        factory: arbiters::not_all_selected_sigma3,
        claimed_class: "Σ3",
        declared_rounds: 2,
        probes: selected_probes,
        game_claims: Vec::new,
    },
    ArbiterDecl {
        key: "distance_to_unselected_verifier",
        factory: || arbiters::distance_to_unselected_verifier(2),
        claimed_class: "Σ1",
        declared_rounds: 2,
        probes: selected_probes,
        game_claims: Vec::new,
    },
    ArbiterDecl {
        key: "pointer_to_unselected_verifier",
        factory: arbiters::pointer_to_unselected_verifier,
        claimed_class: "Σ1",
        declared_rounds: 2,
        probes: selected_probes,
        game_claims: Vec::new,
    },
];

/// Every shipped local reduction, in corpus (and `list`) order.
pub static REDUCTIONS: &[ReductionDecl] = &[
    ReductionDecl {
        key: "all_selected_to_eulerian",
        factory: || Box::new(AllSelectedToEulerian),
        probes: selected_probes,
    },
    ReductionDecl {
        key: "all_selected_to_hamiltonian",
        factory: || Box::new(AllSelectedToHamiltonian),
        probes: selected_probes,
    },
    ReductionDecl {
        key: "not_all_selected_to_hamiltonian",
        factory: || Box::new(NotAllSelectedToHamiltonian),
        probes: selected_probes,
    },
    ReductionDecl {
        key: "lfo_all_selected_to_sat_graph",
        factory: || Box::new(LfoToSatGraph::new(examples::all_selected())),
        probes: selected_probes,
    },
    ReductionDecl {
        key: "lfo_three_colorable_to_sat_graph",
        factory: || Box::new(LfoToSatGraph::new(examples::three_colorable())),
        probes: selected_probes,
    },
    ReductionDecl {
        key: "sat_graph_to_three_sat_graph",
        factory: || Box::new(SatGraphToThreeSatGraph),
        probes: || vec![sat_graph_probe()],
    },
    ReductionDecl {
        key: "three_sat_graph_to_three_colorable",
        factory: || Box::new(ThreeSatGraphToThreeColorable),
        probes: || vec![three_sat_graph_probe()],
    },
];

/// The built-in corpus, with the claims stated in each artifact's
/// documentation: the machines and sentences below, plus one artifact per
/// [`ARBITERS`] and [`REDUCTIONS`] entry.
pub fn builtin() -> Corpus {
    // The step/space claims below are checked against the abstract
    // interpreter's derived certificates by `DTM009`: each claim must
    // dominate what `crate::flow::machine::analyze` derives (the
    // coefficients are the derived ones, rounded up). The radius claims
    // are likewise pinched between the variable-flow radius and the
    // syntactic radius by `FRM007`.
    let dtms = vec![
        DtmArtifact::new(
            "all_selected_decider",
            machines::all_selected_decider(),
            true,
        )
        .with_bounds(PolyBound::linear(128, 32), PolyBound::linear(384, 100)),
        DtmArtifact::new(
            "proper_coloring_verifier",
            machines::proper_coloring_verifier(),
            false,
        )
        .with_bounds(
            PolyBound::new(vec![128, 60, 4]),
            PolyBound::new(vec![384, 170, 12]),
        ),
        DtmArtifact::new("echo_machine", machines::echo_machine(), false)
            .with_bounds(PolyBound::linear(96, 24), PolyBound::linear(256, 80)),
        DtmArtifact::new("even_degree_decider", machines::even_degree_decider(), true)
            .with_bounds(PolyBound::linear(96, 28), PolyBound::linear(256, 90)),
        DtmArtifact::new(
            "project_label_machine",
            machines::project_label_machine(),
            true,
        )
        .with_bounds(PolyBound::linear(64, 16), PolyBound::linear(128, 50)),
    ];
    let sentences = vec![
        SentenceArtifact::new("all_selected", examples::all_selected(), "Σ0 = Π0").with_radius(2),
        SentenceArtifact::new("three_colorable", examples::three_colorable(), "Σ1")
            .monadic()
            .with_radius(2),
        SentenceArtifact::new("two_colorable", examples::k_colorable(2), "Σ1")
            .monadic()
            .with_radius(2),
        SentenceArtifact::new("not_all_selected", examples::not_all_selected(), "Σ3")
            .with_radius(3),
        SentenceArtifact::new("non_three_colorable", examples::non_three_colorable(), "Π4")
            .with_radius(3),
        SentenceArtifact::new("hamiltonian", examples::hamiltonian(), "Σ5").with_radius(4),
        SentenceArtifact::new("non_hamiltonian", examples::non_hamiltonian(), "Π4").with_radius(4),
    ];
    let arbiters = ARBITERS
        .iter()
        .map(|d| {
            ArbiterArtifact::new((d.factory)(), d.claimed_class, d.declared_rounds)
                .with_probes((d.probes)())
                .with_game_claims((d.game_claims)())
        })
        .collect();
    let reductions = REDUCTIONS
        .iter()
        .map(|d| ReductionArtifact::new((d.factory)(), (d.probes)()))
        .collect();
    Corpus {
        dtms,
        sentences,
        arbiters,
        reductions,
        cluster_maps: Vec::new(),
    }
}

/// Runs every rule over a corpus, applies the configuration, and sorts
/// the surviving diagnostics for stable output.
///
/// Each artifact is checked independently, so the walk fans the rule
/// replays out over the `lph-runtime` worker pool, one artifact at a
/// time, concatenating per-artifact diagnostics in corpus order — the
/// diagnostic stream is byte-identical to the sequential walk even before
/// the final severity sort.
pub fn run(corpus: &Corpus, config: &RuleConfig) -> Vec<Diagnostic> {
    run_with(corpus, config, false)
}

/// Runs every rule *plus* the semantic tier ([`crate::flow`]) over a
/// corpus: the five dataflow engines fan over the worker pool like the
/// syntactic rules do, each timed under its own `lph-trace` span
/// (`analysis/flow/{machine,sentence,reduction,bytecode,plan}`).
pub fn run_deep(corpus: &Corpus, config: &RuleConfig) -> Vec<Diagnostic> {
    run_with(corpus, config, true)
}

fn run_with(corpus: &Corpus, config: &RuleConfig, deep: bool) -> Vec<Diagnostic> {
    let mut diags = lph_runtime::par_flat_map(&corpus.dtms, dtm::check_all);
    diags.extend(lph_runtime::par_flat_map(
        &corpus.sentences,
        formula::check_all,
    ));
    diags.extend(lph_runtime::par_flat_map(
        &corpus.arbiters,
        contract::check_arbiter,
    ));
    diags.extend(lph_runtime::par_flat_map(
        &corpus.reductions,
        contract::check_reduction,
    ));
    diags.extend(lph_runtime::par_flat_map(
        &corpus.cluster_maps,
        contract::check_cluster_map,
    ));
    if deep {
        {
            let _span = lph_trace::span("analysis/flow/machine");
            diags.extend(lph_runtime::par_flat_map(
                &corpus.dtms,
                crate::flow::machine::check_machine,
            ));
        }
        {
            let _span = lph_trace::span("analysis/flow/sentence");
            diags.extend(lph_runtime::par_flat_map(
                &corpus.sentences,
                crate::flow::sentence::check_sentence,
            ));
        }
        {
            let _span = lph_trace::span("analysis/flow/reduction");
            diags.extend(lph_runtime::par_flat_map(
                &corpus.reductions,
                crate::flow::reduction::check_reduction_flow,
            ));
        }
        {
            let _span = lph_trace::span("analysis/flow/bytecode");
            diags.extend(lph_runtime::par_flat_map(
                &corpus.dtms,
                crate::flow::bytecode::check_bytecode,
            ));
        }
        {
            let _span = lph_trace::span("analysis/flow/plan");
            diags.extend(lph_runtime::par_flat_map(
                &corpus.sentences,
                crate::flow::plan::check_plan,
            ));
        }
    }
    let mut diags = config.apply(diags);
    sort_diagnostics(&mut diags);
    diags
}

/// Runs every rule over the built-in corpus.
pub fn run_builtin(config: &RuleConfig) -> Vec<Diagnostic> {
    run(&builtin(), config)
}

/// Runs every rule plus the semantic tier over the built-in corpus
/// (`lph-lint --analyze`).
pub fn run_builtin_deep(config: &RuleConfig) -> Vec<Diagnostic> {
    run_deep(&builtin(), config)
}
