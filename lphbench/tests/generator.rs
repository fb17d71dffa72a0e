//! Self-tests of the seeded request generators: determinism, the
//! iso-class structure each workload claims, the mix shares, and the
//! built-in answers against the real engine.

use std::collections::HashMap;

use lph_e2ebench::check::check_response;
use lph_e2ebench::gen::{
    hot_warmup, ColdSource, Expect, HotStream, Registry, Req, BLOCK, HOT_CLASSES,
};
use lph_graphs::{are_isomorphic, LabeledGraph};
use lph_serve::cache::bucket_key;
use lph_serve::proto::{parse_request, Query};
use lph_serve::{Engine, EngineConfig};

const REGISTRY: Registry = Registry {
    arbiters: 9,
    reductions: 7,
};

fn hot(seed: u64, conn: usize, n: usize) -> Vec<Req> {
    let mut s = HotStream::new(seed, conn, REGISTRY);
    (0..n).map(|_| s.next_req()).collect()
}

fn cold(seed: u64, n: usize) -> Vec<Req> {
    let mut s = ColdSource::new(seed);
    (0..n).map(|i| s.get(i)).collect()
}

/// The cache bucket key and graph of a membership request.
fn keyed(req: &Req) -> Option<(String, LabeledGraph)> {
    let parsed = parse_request(&req.line).expect("generated lines parse");
    match parsed.query {
        Query::Membership {
            arbiter,
            graph,
            backend,
            exec,
            ..
        } => {
            let ctx = format!(
                "membership|{arbiter}|{}|{}",
                backend.as_str(),
                exec.as_str()
            );
            Some((bucket_key(&ctx, &graph), graph))
        }
        _ => None,
    }
}

fn text(reqs: &[Req]) -> String {
    reqs.iter().map(|r| format!("{}\n", r.line)).collect()
}

#[test]
fn same_seed_same_bytes_other_seed_other_bytes() {
    for conn in 0..2 {
        assert_eq!(text(&hot(7, conn, 300)), text(&hot(7, conn, 300)));
        assert_ne!(text(&hot(7, conn, 300)), text(&hot(8, conn, 300)));
    }
    assert_ne!(text(&hot(7, 0, 300)), text(&hot(7, 1, 300)));
    assert_eq!(text(&hot_warmup(7)), text(&hot_warmup(7)));
    assert_ne!(text(&hot_warmup(7)), text(&hot_warmup(8)));
    assert_eq!(text(&cold(7, 300)), text(&cold(7, 300)));
    assert_ne!(text(&cold(7, 300)), text(&cold(8, 300)));
}

#[test]
fn cold_instances_are_pairwise_non_isomorphic() {
    let mut buckets: HashMap<String, Vec<LabeledGraph>> = HashMap::new();
    for req in cold(3, 600) {
        let (key, g) = keyed(&req).expect("cold requests are membership requests");
        let bucket = buckets.entry(key).or_default();
        assert!(
            bucket.iter().all(|rep| !are_isomorphic(rep, &g)),
            "{} repeats an iso-class",
            req.id
        );
        bucket.push(g);
    }
    // Shared buckets are the point: negative checks grow with the run.
    assert!(buckets.values().any(|b| b.len() > 1));
}

#[test]
fn hot_working_set_has_exactly_its_classes_and_every_request_hits_one() {
    let warm = hot_warmup(5);
    assert_eq!(warm.len(), HOT_CLASSES);
    let mut classes: HashMap<String, Vec<LabeledGraph>> = HashMap::new();
    for req in &warm {
        let (key, g) = keyed(req).expect("warm-up requests are membership requests");
        let bucket = classes.entry(key).or_default();
        assert!(bucket.iter().all(|rep| !are_isomorphic(rep, &g)));
        bucket.push(g);
    }
    assert_eq!(classes.values().map(Vec::len).sum::<usize>(), HOT_CLASSES);
    for conn in 0..2 {
        for req in hot(5, conn, 400) {
            if req.kind != "member" {
                continue;
            }
            let (key, g) = keyed(&req).expect("membership request");
            let hits = classes.get(&key).map_or(0, |b| {
                b.iter().filter(|rep| are_isomorphic(rep, &g)).count()
            });
            assert_eq!(hits, 1, "{} must hit exactly one warmed class", req.id);
        }
    }
}

fn shares(reqs: &[Req]) -> HashMap<&'static str, f64> {
    let mut counts: HashMap<&'static str, f64> = HashMap::new();
    for r in reqs {
        *counts.entry(r.kind).or_default() += 1.0;
    }
    counts.values_mut().for_each(|c| *c /= reqs.len() as f64);
    counts
}

fn assert_share(shares: &HashMap<&'static str, f64>, kind: &str, want: f64, tol: f64) {
    let got = shares.get(kind).copied().unwrap_or(0.0);
    assert!((got - want).abs() <= tol, "{kind}: share {got} vs {want}");
}

#[test]
fn mix_shares_land_within_tolerance() {
    // Blocks are stratified, so any prefix is within one block of exact.
    let tol = 1.0 / BLOCK as f64 / 10.0;
    let hot = hot(11, 0, 40 * BLOCK + 7);
    let s = shares(&hot);
    assert_share(&s, "member", 0.80, tol);
    assert_share(&s, "shed", 0.05, tol);
    assert_share(&s, "list", 0.05, tol);
    assert_share(&s, "lint", 0.05, tol);
    assert_share(&s, "reduction", 0.05, tol);
    let cold = cold(11, 40 * BLOCK + 7);
    let s = shares(&cold);
    assert_share(&s, "3col", 0.25, tol);
    assert_share(&s, "2col", 0.25, tol);
    assert_share(&s, "k4", 0.05, tol);
    assert_share(&s, "pi1", 0.20, tol);
    assert_share(&s, "sigma0", 0.25, tol);
    let pi1: Vec<&Req> = cold.iter().filter(|r| r.kind == "pi1").collect();
    let yes = pi1
        .iter()
        .filter(|r| r.expect == Expect::Verdict(true))
        .count();
    let share = yes as f64 / pi1.len() as f64;
    assert!(
        (share - 0.25).abs() <= 0.02,
        "all-selected Π₁ share {share}"
    );
}

#[test]
fn cold_sizes_stay_in_their_stated_ranges() {
    for req in cold(2, 400) {
        let (_, g) = keyed(&req).expect("membership request");
        let n = g.node_count();
        let range = match req.kind {
            "3col" => 12..=40,
            "2col" => 15..=61,
            "k4" => 4..=4,
            "pi1" => 20..=60,
            _ => 32..=170,
        };
        assert!(range.contains(&n), "{}: {} nodes", req.id, n);
        if req.kind == "2col" {
            assert_eq!(req.expect, Expect::Verdict(n % 2 == 0));
        }
    }
}

#[test]
fn built_in_answers_agree_with_the_engine() {
    let engine = Engine::new(EngineConfig::default());
    let registry = Registry::current();
    assert_eq!((registry.arbiters, registry.reductions), (9, 7));
    let mut reqs = hot_warmup(4);
    let mut stream = HotStream::new(4, 0, registry);
    reqs.extend((0..3 * BLOCK).map(|_| stream.next_req()));
    let mut source = ColdSource::new(4);
    // One block of cold requests, K₄ refutation included.
    reqs.extend((0..BLOCK).map(|i| source.get(i)));
    for req in &reqs {
        let line = engine.process_line(&req.line);
        check_response(&line, &req.id, &req.expect).unwrap_or_else(|e| panic!("{e}"));
    }
}
