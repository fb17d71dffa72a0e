//! Tier-1 gate for the compilation tier: over the *registered corpus* —
//! the artifacts every other gate trusts — the bytecode VM agrees with the
//! TM interpreter bit for bit, and the plan compiler agrees with the
//! sentence checker.

use lph::analysis::builtin;
use lph::graphs::{
    generators, BitString, CertificateAssignment, CertificateList, GraphStructure, IdAssignment,
    LabeledGraph,
};
use lph::logic::check::CheckOptions;
use lph::logic::CompiledSentence;
use lph::machine::{run_tm, run_tm_compiled, CompiledTm, ExecLimits, TmBackend};

fn probe_family() -> Vec<LabeledGraph> {
    vec![
        generators::labeled_cycle(&["1", "1", "1"]),
        generators::labeled_path(&["1", "0"]),
        generators::labeled_cycle(&["1", "0", "1", "1"]),
        generators::labeled_path(&["0", "1", "1", "0", "1"]),
        generators::star(5),
        generators::complete(4),
    ]
}

fn certificate_variants(g: &LabeledGraph) -> Vec<CertificateList> {
    vec![
        CertificateList::new(),
        CertificateList::from_assignments(vec![CertificateAssignment::uniform(
            g,
            BitString::from_bits01("01"),
        )]),
        CertificateList::from_assignments(vec![
            CertificateAssignment::uniform(g, BitString::from_bits01("1")),
            CertificateAssignment::uniform(g, BitString::from_bits01("0011")),
        ]),
    ]
}

#[test]
fn corpus_machines_agree_across_backends() {
    let corpus = builtin();
    assert!(!corpus.dtms.is_empty());
    for a in &corpus.dtms {
        let ct = CompiledTm::compile(&a.tm);
        for g in &probe_family() {
            let id = IdAssignment::global(g);
            for certs in certificate_variants(g) {
                let interp = run_tm(&a.tm, g, &id, &certs, &ExecLimits::default())
                    .unwrap_or_else(|e| panic!("{} failed on {g}: {e:?}", a.name));
                let compiled = run_tm_compiled(&ct, g, &id, &certs, &ExecLimits::default())
                    .unwrap_or_else(|e| panic!("{} (compiled) failed on {g}: {e:?}", a.name));
                assert_eq!(interp.rounds, compiled.rounds, "{}", a.name);
                assert_eq!(interp.result_labels, compiled.result_labels, "{}", a.name);
                assert_eq!(interp.verdicts, compiled.verdicts, "{}", a.name);
                assert_eq!(interp.accepted, compiled.accepted, "{}", a.name);
                assert_eq!(
                    interp.metrics.per_node, compiled.metrics.per_node,
                    "{}: metrics must be bit-identical",
                    a.name
                );
            }
        }
    }
}

#[test]
fn corpus_sentences_agree_across_backends() {
    let corpus = builtin();
    assert!(!corpus.sentences.is_empty());
    let opts = CheckOptions::default();
    for a in &corpus.sentences {
        let compiled = CompiledSentence::compile(&a.sentence);
        for g in [
            generators::labeled_cycle(&["1", "1", "1"]),
            generators::labeled_path(&["1", "0"]),
            generators::labeled_cycle(&["1", "0", "1", "1"]),
            generators::star(3),
        ] {
            let gs = GraphStructure::of(&g);
            let interp = a.sentence.check_on_graph(&gs, &opts);
            let fast = compiled.check_on_graph(&gs, &opts);
            assert_eq!(interp, fast, "{}: backends disagree on {g}", a.name);
        }
    }
}

#[test]
fn corpus_arbiters_agree_across_exec_backends() {
    // Arbiter::run routes TM arbiters through the VM by default; the
    // interpreted engine must remain reachable and agree, certificates
    // included.
    let corpus = builtin();
    let limits = ExecLimits::default();
    let mut checked = 0usize;
    for a in &corpus.arbiters {
        let lph::core::ArbiterKind::Tm(tm) = a.arbiter.kind() else {
            continue;
        };
        for g in &a.probes {
            let id = IdAssignment::global(g);
            for certs in certificate_variants(g) {
                let compiled = a.arbiter.run(g, &id, &certs, &limits);
                let interp = run_tm(tm, g, &id, &certs, &limits).map(|o| o.accepted);
                match (interp, compiled) {
                    (Ok(want), Ok(out)) => assert_eq!(want, out.accepted, "{}", a.arbiter.name()),
                    (Err(we), Err(ce)) => assert_eq!(we, ce, "{}", a.arbiter.name()),
                    (i, c) => panic!("{}: backends disagree: {i:?} vs {c:?}", a.arbiter.name()),
                }
                checked += 1;
            }
        }
    }
    assert!(checked >= 4, "corpus TM arbiters went missing");
}

#[test]
fn tm_backend_enum_defaults_to_auto() {
    assert_eq!(TmBackend::default(), TmBackend::Auto);
}
