//! Boolean graphs and the `SAT-GRAPH` satisfiability notion of Section 8:
//! each node carries a Boolean formula; the graph is satisfiable if nodes
//! can choose valuations that satisfy their own formulas while agreeing
//! with each *adjacent* node on every shared variable.

use std::collections::BTreeMap;

use lph_graphs::{BitString, LabeledGraph, NodeId};

use crate::boolean::{BoolExpr, Cnf};
use crate::sat::cdcl_sat;
use crate::PropsError;

/// A graph whose nodes are labeled with Boolean formulas (a *Boolean
/// graph*). The formula text codec of [`BoolExpr`] is embedded into the
/// paper's bit-string labels byte-wise.
///
/// # Example
///
/// ```
/// use lph_graphs::generators;
/// use lph_props::{BoolExpr, BooleanGraph};
///
/// let base = generators::path(2);
/// let bg = BooleanGraph::new(
///     base,
///     vec![BoolExpr::parse("vp").unwrap(), BoolExpr::parse("!vp").unwrap()],
/// ).unwrap();
/// // Adjacent nodes share p and demand opposite values: unsatisfiable.
/// assert!(!bg.is_satisfiable());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BooleanGraph {
    graph: LabeledGraph,
    formulas: Vec<BoolExpr>,
}

impl BooleanGraph {
    /// Pairs a graph's topology with explicit formulas (the labels of the
    /// stored graph are re-encoded from the formulas).
    ///
    /// # Errors
    ///
    /// Returns an error if the number of formulas does not match the node
    /// count.
    pub fn new(topology: LabeledGraph, formulas: Vec<BoolExpr>) -> Result<Self, PropsError> {
        if formulas.len() != topology.node_count() {
            return Err(PropsError::MalformedLabel {
                node: formulas.len(),
            });
        }
        let labels: Vec<BitString> = formulas
            .iter()
            .map(|f| BitString::from_bytes(f.to_string().as_bytes()))
            .collect();
        let graph = topology.with_labels(labels).expect("same node count");
        Ok(BooleanGraph { graph, formulas })
    }

    /// Decodes a labeled graph whose labels are byte-encoded formulas.
    ///
    /// # Errors
    ///
    /// Returns [`PropsError::MalformedLabel`] or a parse error if a label
    /// is not a valid formula encoding.
    pub fn decode(g: &LabeledGraph) -> Result<Self, PropsError> {
        let mut formulas = Vec::with_capacity(g.node_count());
        for u in g.nodes() {
            let bytes = g
                .label(u)
                .to_bytes()
                .ok_or(PropsError::MalformedLabel { node: u.0 })?;
            let text =
                String::from_utf8(bytes).map_err(|_| PropsError::MalformedLabel { node: u.0 })?;
            formulas.push(BoolExpr::parse(&text)?);
        }
        Ok(BooleanGraph {
            graph: g.clone(),
            formulas,
        })
    }

    /// The underlying labeled graph (labels encode the formulas).
    pub fn graph(&self) -> &LabeledGraph {
        &self.graph
    }

    /// The formula at a node.
    pub fn formula(&self, u: NodeId) -> &BoolExpr {
        &self.formulas[u.0]
    }

    /// All formulas, indexed by node.
    pub fn formulas(&self) -> &[BoolExpr] {
        &self.formulas
    }

    /// Whether every node's formula is syntactically in 3-CNF
    /// (`3-SAT-GRAPH` instances).
    pub fn is_three_cnf(&self) -> bool {
        self.formulas.iter().all(crate::boolean::expr_is_three_cnf)
    }

    /// The global CNF whose satisfiability coincides with the Boolean
    /// graph's: each node's formula is Tseytin-encoded over *scoped*
    /// variables, where a variable `P` of node `u` is scoped by the
    /// equivalence class of `(u, P)` under "adjacent nodes sharing `P`".
    ///
    /// The consistency requirement `val(u)(P) = val(v)(P)` for adjacent
    /// `u, v` sharing `P` is an equality constraint, whose transitive
    /// closure is exactly those classes — so identifying class members
    /// yields an equisatisfiable CNF.
    pub fn to_global_cnf(&self) -> Cnf {
        let scope = self.variable_scopes();
        let mut clauses = Vec::new();
        for u in self.graph.nodes() {
            // The scope is appended as a *suffix* so that the global
            // variable order follows the original names. Tseytin
            // auxiliaries are prefixed `zz.` to sort last: they are always
            // forced once the original variables are assigned.
            let scoped =
                self.formulas[u.0].rename(&|p: &str| format!("{p}.s{}", scope[&(u, p.to_owned())]));
            let cnf = scoped.tseytin(&format!("zz.{}.", u.0));
            clauses.extend(cnf.clauses);
        }
        Cnf { clauses }
    }

    /// Maps each `(node, variable)` pair to its equivalence-class id.
    fn variable_scopes(&self) -> BTreeMap<(NodeId, String), usize> {
        // Union-find over occurrences.
        let mut occurrences: Vec<(NodeId, String)> = Vec::new();
        for u in self.graph.nodes() {
            for v in self.formulas[u.0].variables() {
                occurrences.push((u, v));
            }
        }
        let index: BTreeMap<(NodeId, String), usize> = occurrences
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, occ)| (occ, i))
            .collect();
        let mut parent: Vec<usize> = (0..occurrences.len()).collect();
        fn find(parent: &mut Vec<usize>, i: usize) -> usize {
            if parent[i] != i {
                let r = find(parent, parent[i]);
                parent[i] = r;
            }
            parent[i]
        }
        for (u, v) in self.graph.edges() {
            let shared: Vec<String> = self.formulas[u.0]
                .variables()
                .intersection(&self.formulas[v.0].variables())
                .cloned()
                .collect();
            for p in shared {
                let a = index[&(u, p.clone())];
                let b = index[&(v, p)];
                let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
                parent[ra] = rb;
            }
        }
        occurrences
            .iter()
            .enumerate()
            .map(|(i, occ)| (occ.clone(), find(&mut parent, i)))
            .collect()
    }

    /// Decides `SAT-GRAPH` membership: is there a per-node valuation
    /// satisfying every formula and consistent across every edge?
    pub fn is_satisfiable(&self) -> bool {
        cdcl_sat(&self.to_global_cnf())
    }
}

/// `SAT-GRAPH` on raw labeled graphs: decodes and decides; malformed labels
/// make the graph a no-instance.
pub fn sat_graph_satisfiable(g: &LabeledGraph) -> bool {
    BooleanGraph::decode(g)
        .map(|bg| bg.is_satisfiable())
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lph_graphs::generators;

    fn bg(topology: LabeledGraph, formulas: &[&str]) -> BooleanGraph {
        BooleanGraph::new(
            topology,
            formulas
                .iter()
                .map(|s| BoolExpr::parse(s).unwrap())
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn encode_decode_round_trip() {
        let g = bg(generators::path(3), &["&(vp,vq)", "!vp", "T"]);
        let decoded = BooleanGraph::decode(g.graph()).unwrap();
        assert_eq!(decoded, g);
    }

    #[test]
    fn adjacent_consistency_is_enforced() {
        // u: p, v: ¬p on an edge → unsatisfiable.
        assert!(!bg(generators::path(2), &["vp", "!vp"]).is_satisfiable());
        // Different variables: satisfiable.
        assert!(bg(generators::path(2), &["vp", "!vq"]).is_satisfiable());
    }

    #[test]
    fn consistency_is_transitive_through_chains() {
        // p forced true at one end, ¬p at the other, shared along a path:
        // the equality chain makes it unsatisfiable.
        assert!(!bg(generators::path(3), &["vp", "|(vp,!vp)", "!vp"]).is_satisfiable());
    }

    #[test]
    fn non_adjacent_nodes_do_not_share_variables() {
        // Same formula variable p at the two endpoints of a path of length
        // 2, but the middle node does not mention p: no constraint links
        // them, so contradictory demands are fine.
        assert!(bg(generators::path(3), &["vp", "vq", "!vp"]).is_satisfiable());
    }

    #[test]
    fn local_unsatisfiability_propagates() {
        assert!(!bg(generators::cycle(3), &["&(vp,!vp)", "T", "T"]).is_satisfiable());
        assert!(bg(generators::cycle(3), &["T", "T", "T"]).is_satisfiable());
    }

    #[test]
    fn xor_ring_parity() {
        // On a triangle, each edge-shared variable forces agreement; the
        // formulas encode a 2-coloring-like contradiction:
        // node i demands its two incident "edge variables" differ; an odd
        // cycle of XOR constraints is unsatisfiable.
        let g = generators::cycle(3);
        // Edge variables: e01 shared by nodes 0,1; e12 by 1,2; e02 by 0,2.
        let bgraph = bg(
            g,
            &[
                "|(&(ve01,!ve02),&(!ve01,ve02))", // node 0: e01 ⊕ e02
                "|(&(ve01,!ve12),&(!ve01,ve12))", // node 1: e01 ⊕ e12
                "|(&(ve12,!ve02),&(!ve12,ve02))", // node 2: e12 ⊕ e02
            ],
        );
        assert!(!bgraph.is_satisfiable());
    }

    #[test]
    fn even_xor_ring_is_satisfiable() {
        let g = generators::cycle(4);
        let bgraph = bg(
            g,
            &[
                "|(&(ve01,!ve03),&(!ve01,ve03))",
                "|(&(ve01,!ve12),&(!ve01,ve12))",
                "|(&(ve12,!ve23),&(!ve12,ve23))",
                "|(&(ve23,!ve03),&(!ve23,ve03))",
            ],
        );
        assert!(bgraph.is_satisfiable());
    }

    #[test]
    fn malformed_labels_are_no_instances() {
        let g = generators::labeled_path(&["101", "1"]);
        assert!(!sat_graph_satisfiable(&g));
    }

    #[test]
    fn three_cnf_detection() {
        assert!(bg(generators::path(2), &["&(|(vp,vq),|(!vp))", "vq"]).is_three_cnf());
        assert!(!bg(generators::path(2), &["|(vp,vq,vr,vs)", "vq"]).is_three_cnf());
    }

    #[test]
    fn single_node_sat_graph_is_plain_sat() {
        let g = LabeledGraph::single_node(BitString::from_bytes("&(vp,!vp)".as_bytes()));
        assert!(!sat_graph_satisfiable(&g));
        let g = LabeledGraph::single_node(BitString::from_bytes("|(vp,!vp)".as_bytes()));
        assert!(sat_graph_satisfiable(&g));
    }
}
