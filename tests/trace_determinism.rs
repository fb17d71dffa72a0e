//! The `lph-trace` determinism contract, checked end to end over the
//! instrumented layers: the aggregated domain metrics (`machine/`,
//! `reduction/`, `lemma10/`) of a traced workload are **identical** under
//! `LPH_THREADS=1`-style sequential execution and ambient parallelism,
//! while a disabled recorder emits nothing at all.
//!
//! The recorder is global, so every test here serializes on one lock and
//! restores the disabled/clean state on exit (even across panics); the
//! rest of the workspace's tests never enable tracing.

use std::sync::{Mutex, MutexGuard, PoisonError};

use lph::graphs::{generators, CertificateList, GraphStructure, IdAssignment, NodeId};
use lph::machine::{machines, run_tm, ExecLimits};
use lph::reductions::{apply, eulerian::AllSelectedToEulerian};

static LOCK: Mutex<()> = Mutex::new(());

/// Restores the global recorder and pool width no matter how a test exits.
struct Clean;

impl Drop for Clean {
    fn drop(&mut self) {
        lph::trace::set_enabled(false);
        lph::trace::reset();
        lph::runtime::set_threads(0);
    }
}

/// Takes the lock and the clean-up guard. Tuple fields drop in order, so
/// `Clean` runs first and resets the recorder while the lock is still held.
fn exclusive() -> (Clean, MutexGuard<'static, ()>) {
    let guard = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    lph::trace::set_enabled(false);
    lph::trace::reset();
    (Clean, guard)
}

/// One pass over every instrumented call site: machine executions feeding
/// the Lemma 10 series, a gadget reduction, and a parallelized sweep.
fn traced_workload() {
    let tm = machines::proper_coloring_verifier();
    let exec = ExecLimits::default();
    for degree in [2usize, 4, 8] {
        let g = generators::star(degree + 1);
        let id = IdAssignment::global(&g);
        let out = run_tm(&tm, &g, &id, &CertificateList::new(), &exec).unwrap();
        let card = GraphStructure::of(&g).neighborhood_card(&g, NodeId(0), 8);
        out.metrics.trace_series("lemma10", 0, card as u64);
        out.metrics.trace_rounds(&format!("rounds/star{degree}"));
    }
    let mut labels = vec!["1"; 5];
    labels[0] = "0";
    let g = generators::labeled_cycle(&labels);
    let id = IdAssignment::global(&g);
    apply(&AllSelectedToEulerian, &g, &id).unwrap();
    let items: Vec<u64> = (0..200).collect();
    let squares = lph::runtime::par_map(&items, |&x| x * x);
    assert_eq!(squares[14], 196);
}

/// Runs the workload traced at the given pool width and returns the
/// snapshot.
fn traced_at_width(workers: usize) -> lph::trace::Snapshot {
    lph::trace::reset();
    lph::trace::set_enabled(true);
    lph::runtime::set_threads(workers);
    traced_workload();
    lph::trace::set_enabled(false);
    lph::runtime::set_threads(0);
    lph::trace::snapshot()
}

#[test]
fn aggregates_identical_across_pool_widths() {
    let _x = exclusive();
    let sequential = traced_at_width(1);
    let parallel = traced_at_width(4);
    // The deterministic fingerprint (everything outside `pool/`) must not
    // see the worker count at all.
    assert!(!sequential.is_empty());
    assert_eq!(
        sequential.deterministic_fingerprint(),
        parallel.deterministic_fingerprint()
    );
    // Spot-check the strongest consequences: bit-identical counters and
    // series for each instrumented domain layer.
    for name in ["machine/runs", "machine/steps", "reduction/applies"] {
        assert_eq!(sequential.counter(name), parallel.counter(name), "{name}");
        assert!(sequential.counter(name).is_some_and(|v| v > 0), "{name}");
    }
    for name in ["lemma10/steps", "lemma10/space", "rounds/star4/round_steps"] {
        assert_eq!(sequential.series(name), parallel.series(name), "{name}");
        assert!(sequential.series(name).is_some(), "{name}");
    }
}

#[test]
fn disabled_recorder_emits_nothing() {
    let _x = exclusive();
    let before = lph::trace::events();
    traced_workload();
    assert_eq!(
        lph::trace::events(),
        before,
        "a disabled recorder must count no events"
    );
    assert!(lph::trace::snapshot().is_empty());
    assert_eq!(lph::trace::counter_value("machine/runs"), 0);
}

#[test]
fn lemma10_series_within_the_asserted_polynomial() {
    let _x = exclusive();
    let snap = traced_at_width(2);
    // The same fixed quadratic `tests/lemma10_bounds.rs` asserts directly
    // on the metrics: f(card) = 40·card² + 200.
    for name in ["lemma10/steps", "lemma10/space"] {
        let points = snap.series(name).expect(name);
        assert_eq!(points.len(), 3, "{name}: one point per star size");
        for &(card, y) in points {
            assert!(
                y <= 40 * card * card + 200,
                "{name}: y = {y} breaks the bound at card = {card}"
            );
        }
    }
}

#[test]
fn snapshot_round_trips_through_schema_and_validator() {
    let _x = exclusive();
    let snap = traced_at_width(3);
    let doc = lph::analysis::trace_to_json(&snap);
    let stats = lph::analysis::validate_trace(&doc).expect("live snapshot must validate");
    assert!(stats.counters > 0 && stats.series > 0 && stats.spans > 0);
    // Emit → parse → validate: the document survives its own wire format.
    let reparsed = lph::analysis::Json::parse(&doc.emit()).unwrap();
    assert_eq!(lph::analysis::validate_trace(&reparsed), Ok(stats));
    // And the validator is not a rubber stamp: break the schema tag.
    let tampered =
        lph::analysis::Json::parse(&doc.emit().replacen("lph-trace/1", "lph-trace/9", 1)).unwrap();
    assert!(lph::analysis::validate_trace(&tampered).is_err());
}
