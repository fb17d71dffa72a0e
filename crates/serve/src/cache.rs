//! The iso-class verdict cache.
//!
//! Membership verdicts are properties of *iso-classes*, not of concrete
//! adjacency lists: every class in the local-polynomial hierarchy is
//! closed under label-preserving isomorphism (paper Section 3; the repo
//! pins this with `tests/isomorphism_closure.rs`). So the service caches
//! each computed membership payload under its instance's iso-class and
//! replays it for any isomorphic instance.
//!
//! Keying is two-stage, mirroring `lph_graphs::iso`:
//!
//! 1. an **invariant bucket** — query kind, artifact key, backend, node
//!    count, edge count, and the sorted `(degree, label)` multiset — is a
//!    cheap string that isomorphic graphs agree on;
//! 2. within a bucket, candidates are confirmed by the exact
//!    [`lph_graphs::are_isomorphic`] search, so invariant collisions
//!    (same bucket, non-isomorphic graphs) can never alias a verdict.
//!
//! The cached value is the serialized response *payload* (everything
//! after the `"id"` field), which is how cache hits are byte-identical
//! to cold verdicts: the engine splices the requester's id onto the
//! stored bytes. Hits and misses are counted under `serve/cache_hits`
//! and `serve/cache_misses` when the trace recorder is on.
//!
//! The cache can be **bounded** ([`IsoCache::with_cap`], exposed as
//! `lph-serve --cache-cap N`): when inserting a new iso-class
//! representative would exceed the cap, the least-recently-used
//! representative (hits count as uses) is evicted first, and the
//! eviction is counted under `serve/cache_evictions`. Unbounded remains
//! the default — the verdict corpus of a typical session is small — but
//! a long-lived TCP server facing adversarial or merely diverse traffic
//! can pin its memory with a cap.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use lph_graphs::{are_isomorphic, BitString, LabeledGraph};

use crate::proto::Payload;

/// One cached iso-class representative, stored as label text and an
/// edge list — two allocations instead of two per node, because
/// representatives are most of an unbounded cache's memory.
struct Slot {
    /// Node labels as `0`/`1` text, comma-separated in node order.
    labels: String,
    edges: Vec<(usize, usize)>,
    payload: Payload,
    /// Logical timestamp of the last lookup hit or the insertion.
    last_used: u64,
}

impl Slot {
    /// Rebuilds the representative for the exact isomorphism check.
    fn rep(&self) -> LabeledGraph {
        let labels = self.labels.split(',').map(BitString::from_bits01).collect();
        LabeledGraph::from_edges(labels, &self.edges).expect("stored from a valid graph")
    }
}

#[derive(Default)]
struct Inner {
    buckets: HashMap<String, Vec<Slot>>,
    /// Total representatives across buckets (maintained, not recounted).
    len: usize,
    /// Monotone logical clock driving the LRU order.
    tick: u64,
}

/// A concurrency-safe iso-class → payload map with optional LRU bound.
#[derive(Default)]
pub struct IsoCache {
    inner: Mutex<Inner>,
    cap: Option<usize>,
}

/// The invariant bucket key for `g` under a query context string.
/// Isomorphic graphs produce equal keys; unequal keys prove
/// non-isomorphism.
pub fn bucket_key(context: &str, g: &LabeledGraph) -> String {
    let mut sig: Vec<(usize, String)> = g
        .nodes()
        .map(|u| (g.degree(u), g.label(u).to_string()))
        .collect();
    sig.sort_unstable();
    let mut key = format!("{context}|n={}|m={}", g.node_count(), g.edge_count());
    for (d, l) in sig {
        let _ = write!(key, "|{d}:{l}");
    }
    key
}

impl IsoCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        IsoCache::default()
    }

    /// An empty cache evicting least-recently-used representatives past
    /// `cap` (a cap of 0 caches nothing).
    pub fn with_cap(cap: usize) -> Self {
        IsoCache {
            inner: Mutex::new(Inner::default()),
            cap: Some(cap),
        }
    }

    /// Replays the payload cached for `g`'s iso-class, if any, marking
    /// the class as recently used.
    pub fn lookup(&self, key: &str, g: &LabeledGraph) -> Option<Payload> {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.tick += 1;
        let tick = inner.tick;
        let hit = inner
            .buckets
            .get_mut(key)
            .and_then(|b| b.iter_mut().find(|s| are_isomorphic(&s.rep(), g)))
            .map(|s| {
                s.last_used = tick;
                s.payload.clone()
            });
        drop(inner);
        if hit.is_some() {
            lph_trace::add("serve/cache_hits", 1);
        } else {
            lph_trace::add("serve/cache_misses", 1);
        }
        hit
    }

    /// Records `g`'s iso-class representative and its payload, evicting
    /// the least-recently-used representative first when a cap is set
    /// and full. Two workers racing on the same class keep the first
    /// insertion; the loser's identical payload is dropped.
    pub fn insert(&self, key: String, g: LabeledGraph, payload: Payload) {
        if self.cap == Some(0) {
            return;
        }
        let mut inner = self.inner.lock().expect("cache lock");
        let already = inner
            .buckets
            .get(&key)
            .is_some_and(|b| b.iter().any(|s| are_isomorphic(&s.rep(), &g)));
        if already {
            return;
        }
        if let Some(cap) = self.cap {
            while inner.len >= cap {
                evict_lru(&mut inner);
                lph_trace::add("serve/cache_evictions", 1);
            }
        }
        inner.tick += 1;
        let last_used = inner.tick;
        inner.len += 1;
        let labels: Vec<String> = g
            .labels()
            .iter()
            .map(|l| l.iter().map(|b| if b { '1' } else { '0' }).collect())
            .collect();
        inner.buckets.entry(key).or_default().push(Slot {
            labels: labels.join(","),
            edges: g.edges().map(|(u, v)| (u.0, v.0)).collect(),
            payload,
            last_used,
        });
    }

    /// Number of cached iso-class representatives.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").len
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Removes the representative with the smallest `last_used` stamp. A
/// linear scan over every bucket — caps are small by construction, and
/// insertion is already behind an exact isomorphism search.
fn evict_lru(inner: &mut Inner) {
    let victim = inner
        .buckets
        .iter()
        .flat_map(|(k, b)| b.iter().map(move |s| (s.last_used, k.clone())))
        .min()
        .map(|(_, k)| k);
    let Some(key) = victim else {
        return;
    };
    let bucket = inner.buckets.get_mut(&key).expect("victim bucket exists");
    let oldest = bucket
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| s.last_used)
        .map(|(i, _)| i)
        .expect("victim bucket nonempty");
    bucket.remove(oldest);
    inner.len -= 1;
    if bucket.is_empty() {
        inner.buckets.remove(&key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lph_analysis::json::Json;
    use lph_graphs::generators;

    fn payload(tag: &str) -> Payload {
        vec![("tag".to_owned(), Json::Str(tag.to_owned()))]
    }

    #[test]
    fn isomorphic_instances_share_a_verdict() {
        let cache = IsoCache::new();
        // The same cycle with rotated labels: isomorphic, different arrays.
        let a = generators::labeled_cycle(&["1", "1", "0"]);
        let b = generators::labeled_cycle(&["0", "1", "1"]);
        let (ka, kb) = (bucket_key("m|x", &a), bucket_key("m|x", &b));
        assert_eq!(ka, kb);
        cache.insert(ka, a, payload("verdict"));
        assert_eq!(cache.lookup(&kb, &b).unwrap(), payload("verdict"));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn stored_representatives_keep_empty_and_multi_bit_labels() {
        let cache = IsoCache::new();
        let a = generators::labeled_path(&["", "10", "0"]);
        let b = generators::labeled_path(&["0", "10", ""]);
        cache.insert(bucket_key("m", &a), a, payload("p"));
        assert_eq!(cache.lookup(&bucket_key("m", &b), &b), Some(payload("p")));
    }

    #[test]
    fn bucket_collisions_do_not_alias() {
        // Equal (degree, label) multisets, different label order along
        // the path: 1-0-1-0 vs 1-1-0-0 agree on endpoints {1,0} and
        // middles {0,1} but neither forward nor reversed orders match.
        let a = generators::labeled_path(&["1", "0", "1", "0"]);
        let b = generators::labeled_path(&["1", "1", "0", "0"]);
        let (ka, kb) = (bucket_key("m|x", &a), bucket_key("m|x", &b));
        assert_eq!(ka, kb, "same invariants");
        assert!(!are_isomorphic(&a, &b));
        let cache = IsoCache::new();
        cache.insert(ka, a, payload("a"));
        assert!(cache.lookup(&kb, &b).is_none(), "must not alias");
    }

    #[test]
    fn different_context_never_hits() {
        let cache = IsoCache::new();
        let g = generators::cycle(4);
        cache.insert(bucket_key("m|arb1", &g), g.clone(), payload("a"));
        assert!(cache.lookup(&bucket_key("m|arb2", &g), &g).is_none());
    }

    #[test]
    fn cap_evicts_the_least_recently_used_class() {
        let cache = IsoCache::with_cap(2);
        let (g3, g4, g5) = (
            generators::cycle(3),
            generators::cycle(4),
            generators::cycle(5),
        );
        cache.insert(bucket_key("m", &g3), g3.clone(), payload("c3"));
        cache.insert(bucket_key("m", &g4), g4.clone(), payload("c4"));
        // Touch c3 so c4 becomes the LRU victim.
        assert!(cache.lookup(&bucket_key("m", &g3), &g3).is_some());
        cache.insert(bucket_key("m", &g5), g5.clone(), payload("c5"));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&bucket_key("m", &g4), &g4).is_none());
        assert!(cache.lookup(&bucket_key("m", &g3), &g3).is_some());
        assert!(cache.lookup(&bucket_key("m", &g5), &g5).is_some());
    }

    #[test]
    fn zero_cap_caches_nothing_and_reinsertion_respects_the_cap() {
        let zero = IsoCache::with_cap(0);
        let g = generators::cycle(3);
        zero.insert(bucket_key("m", &g), g.clone(), payload("x"));
        assert!(zero.is_empty());

        let one = IsoCache::with_cap(1);
        for n in 3..8 {
            let g = generators::cycle(n);
            one.insert(bucket_key("m", &g), g.clone(), payload("y"));
            assert_eq!(one.len(), 1, "cap holds after insert {n}");
        }
        // The survivor is the most recent insertion.
        let g7 = generators::cycle(7);
        assert!(one.lookup(&bucket_key("m", &g7), &g7).is_some());
    }

    #[test]
    fn eviction_counter_tracks_evictions() {
        lph_trace::set_enabled(true);
        let before = counter("serve/cache_evictions");
        let cache = IsoCache::with_cap(1);
        for n in 3..6 {
            let g = generators::cycle(n);
            cache.insert(bucket_key("m", &g), g, payload("z"));
        }
        // Other cap tests may race on the global counter; this cache
        // alone contributes exactly 2.
        assert!(counter("serve/cache_evictions") - before >= 2);
    }

    fn counter(name: &str) -> u64 {
        lph_trace::snapshot()
            .counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }
}
