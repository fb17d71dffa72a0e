//! Graph isomorphism for small graphs, and node permutations.
//!
//! Graph *properties* are by definition closed under isomorphism
//! (Section 3); the workspace tests use [`LabeledGraph::permuted`] and
//! [`are_isomorphic`] to verify that every implemented property and every
//! reduction respects this.

use crate::{BitString, LabeledGraph, NodeId};

impl LabeledGraph {
    /// The graph obtained by renaming node `i` to `perm[i]` (labels move
    /// with their nodes).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..node_count()`.
    pub fn permuted(&self, perm: &[usize]) -> LabeledGraph {
        let n = self.node_count();
        assert_eq!(perm.len(), n, "permutation length mismatch");
        let mut seen = vec![false; n];
        for &p in perm {
            assert!(p < n && !seen[p], "not a permutation");
            seen[p] = true;
        }
        let mut labels = vec![BitString::new(); n];
        for u in self.nodes() {
            labels[perm[u.0]] = self.label(u).clone();
        }
        let edges: Vec<(usize, usize)> =
            self.edges().map(|(u, v)| (perm[u.0], perm[v.0])).collect();
        LabeledGraph::from_edges(labels, &edges).expect("permutation preserves validity")
    }
}

/// Whether two labeled graphs are isomorphic (label-preserving), by
/// backtracking with degree/label pruning. Exponential in the worst case —
/// intended for the small instances of the experiments.
pub fn are_isomorphic(a: &LabeledGraph, b: &LabeledGraph) -> bool {
    find_isomorphism(a, b).is_some()
}

/// An isomorphism `a → b` as a node mapping, if one exists.
pub fn find_isomorphism(a: &LabeledGraph, b: &LabeledGraph) -> Option<Vec<NodeId>> {
    let n = a.node_count();
    if n != b.node_count() || a.edge_count() != b.edge_count() {
        return None;
    }
    // Degree/label multiset pruning.
    if signature(a) != signature(b) {
        return None;
    }
    let mut mapping: Vec<Option<NodeId>> = vec![None; n];
    let mut used = vec![false; n];
    // Order a's nodes by descending degree for earlier pruning.
    let mut order: Vec<NodeId> = a.nodes().collect();
    order.sort_by_key(|&u| std::cmp::Reverse(a.degree(u)));

    fn go(
        a: &LabeledGraph,
        b: &LabeledGraph,
        order: &[NodeId],
        i: usize,
        mapping: &mut Vec<Option<NodeId>>,
        used: &mut Vec<bool>,
    ) -> bool {
        let Some(&u) = order.get(i) else {
            return true;
        };
        'candidate: for v in b.nodes() {
            if used[v.0] || a.degree(u) != b.degree(v) || a.label(u) != b.label(v) {
                continue;
            }
            // Consistency with already-mapped neighbors.
            for &w in a.neighbors(u) {
                if let Some(wv) = mapping[w.0] {
                    if !b.has_edge(v, wv) {
                        continue 'candidate;
                    }
                }
            }
            // And non-neighbors must stay non-neighbors.
            for w in a.nodes() {
                if let Some(wv) = mapping[w.0] {
                    if !a.has_edge(u, w) && b.has_edge(v, wv) {
                        continue 'candidate;
                    }
                }
            }
            mapping[u.0] = Some(v);
            used[v.0] = true;
            if go(a, b, order, i + 1, mapping, used) {
                return true;
            }
            mapping[u.0] = None;
            used[v.0] = false;
        }
        false
    }

    if go(a, b, &order, 0, &mut mapping, &mut used) {
        Some(
            mapping
                .into_iter()
                .map(|m| m.expect("complete mapping"))
                .collect(),
        )
    } else {
        None
    }
}

/// The cheap isomorphism invariant used to pre-bucket graphs: node and
/// edge counts plus the sorted degree/label multiset. Isomorphic graphs
/// always share a signature; the converse needs the full search.
type IsoSignature = (usize, usize, Vec<(usize, BitString)>);

fn signature(g: &LabeledGraph) -> IsoSignature {
    let mut s: Vec<(usize, BitString)> = g
        .nodes()
        .map(|u| (g.degree(u), g.label(u).clone()))
        .collect();
    s.sort();
    (g.node_count(), g.edge_count(), s)
}

/// Partitions `graphs` into isomorphism classes, returned as index lists.
///
/// Classes are ordered by their representative — the **least** index in the
/// class — and members appear in ascending index order, so the output is
/// exactly what the sequential greedy bucketing (scan graphs in order,
/// join the first class with an isomorphic representative, else open a new
/// class) produces. The signature pass and the per-signature-bucket
/// searches fan out over the `lph-runtime` worker pool; the exponential
/// backtracking only ever runs *within* a bucket of signature-equal
/// graphs.
pub fn iso_classes(graphs: &[LabeledGraph]) -> Vec<Vec<usize>> {
    let signatures = lph_runtime::par_map(graphs, signature);
    let mut buckets: std::collections::BTreeMap<&IsoSignature, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, sig) in signatures.iter().enumerate() {
        buckets.entry(sig).or_default().push(i);
    }
    let buckets: Vec<Vec<usize>> = buckets.into_values().collect();
    let mut classes = lph_runtime::par_flat_map(&buckets, |members| {
        // Greedy within the bucket: representatives stay pairwise
        // non-isomorphic, so each graph matches at most one class.
        let mut local: Vec<Vec<usize>> = Vec::new();
        for &i in members {
            match local
                .iter_mut()
                .find(|class| are_isomorphic(&graphs[class[0]], &graphs[i]))
            {
                Some(class) => class.push(i),
                None => local.push(vec![i]),
            }
        }
        local
    });
    classes.sort_by_key(|class| class[0]);
    classes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn permutation_preserves_shape() {
        let g = generators::labeled_path(&["0", "1", "10"]);
        let p = g.permuted(&[2, 0, 1]);
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.edge_count(), 2);
        // Node 0 (label "0") is now node 2.
        assert_eq!(p.label(NodeId(2)), &BitString::from_bits01("0"));
        assert!(are_isomorphic(&g, &p));
    }

    #[test]
    fn identity_permutation_is_identity() {
        let g = generators::cycle(5);
        assert_eq!(g.permuted(&[0, 1, 2, 3, 4]), g);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_non_permutations() {
        let _ = generators::path(3).permuted(&[0, 0, 1]);
    }

    #[test]
    fn distinguishes_non_isomorphic_graphs() {
        // Path vs star on 4 nodes: same size, different degree sequence.
        assert!(!are_isomorphic(&generators::path(4), &generators::star(4)));
        // C6 vs two-triangles is impossible here (graphs are connected),
        // so use C6 vs the 6-path plus an extra chord.
        let g = LabeledGraph::from_edges(
            vec![BitString::from_bits01("1"); 6],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)],
        )
        .unwrap();
        assert!(are_isomorphic(&g, &generators::cycle(6)));
        let h = LabeledGraph::from_edges(
            vec![BitString::from_bits01("1"); 6],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2)],
        )
        .unwrap();
        assert!(!are_isomorphic(&g, &h));
    }

    #[test]
    fn labels_matter() {
        let a = generators::labeled_cycle(&["0", "1", "1"]);
        let b = generators::labeled_cycle(&["1", "0", "1"]);
        let c = generators::labeled_cycle(&["0", "0", "1"]);
        assert!(are_isomorphic(&a, &b), "rotation");
        assert!(!are_isomorphic(&a, &c), "label multisets differ");
    }

    #[test]
    fn iso_classes_bucket_small_families() {
        // path(3) and its relabelings/permutations collapse; star(4) and
        // path(4) stay apart.
        let graphs = vec![
            generators::path(4),
            generators::star(4),
            generators::path(4).permuted(&[3, 2, 1, 0]),
            generators::cycle(4),
        ];
        let classes = iso_classes(&graphs);
        assert_eq!(classes, vec![vec![0, 2], vec![1], vec![3]]);
    }

    #[test]
    fn iso_classes_on_exhaustive_enumeration() {
        // The 38 connected labeled graphs on 4 nodes form exactly 6
        // unlabeled isomorphism types (OEIS A001349: 1, 1, 2, 6, 21, ...).
        let graphs = crate::enumerate::connected_graphs(4);
        let classes = iso_classes(&graphs);
        assert_eq!(classes.len(), 6);
        assert_eq!(classes.iter().map(Vec::len).sum::<usize>(), graphs.len());
        // Classes are keyed by their least member, ascending.
        let reps: Vec<usize> = classes.iter().map(|c| c[0]).collect();
        let mut sorted = reps.clone();
        sorted.sort_unstable();
        assert_eq!(reps, sorted);
    }

    #[test]
    fn mapping_is_a_real_isomorphism() {
        let g = generators::labeled_cycle(&["0", "1", "10", "1"]);
        let p = g.permuted(&[3, 1, 0, 2]);
        let m = find_isomorphism(&g, &p).unwrap();
        for (u, v) in g.edges() {
            assert!(p.has_edge(m[u.0], m[v.0]));
        }
        for u in g.nodes() {
            assert_eq!(g.label(u), p.label(m[u.0]));
        }
    }
}
