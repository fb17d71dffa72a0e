use std::fmt;

use crate::{BitString, GraphError, IdAssignment, LabeledGraph, NodeId, PolyBound};

/// A symbol of the certificate-list alphabet `{0, 1, #}` (Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CertSymbol {
    /// The bit 0.
    Zero,
    /// The bit 1.
    One,
    /// The separator `#` between individual certificates.
    Sep,
}

impl fmt::Display for CertSymbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertSymbol::Zero => write!(f, "0"),
            CertSymbol::One => write!(f, "1"),
            CertSymbol::Sep => write!(f, "#"),
        }
    }
}

/// A certificate assignment `κ : V → {0,1}*` chosen by Eve or Adam in one
/// move of the certificate game (Section 3).
///
/// # Example
///
/// ```
/// use lph_graphs::{generators, CertificateAssignment, IdAssignment, PolyBound};
///
/// let g = generators::path(3);
/// let id = IdAssignment::global(&g);
/// let k = CertificateAssignment::uniform(&g, "01".into());
/// assert!(k.is_bounded(&g, &id, 1, &PolyBound::linear(0, 1)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CertificateAssignment {
    certs: Vec<BitString>,
}

impl CertificateAssignment {
    /// Wraps raw certificates (one per node, by node index).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::AssignmentLengthMismatch`] if the number of
    /// certificates differs from the graph's node count.
    pub fn from_vec(g: &LabeledGraph, certs: Vec<BitString>) -> Result<Self, GraphError> {
        if certs.len() != g.node_count() {
            return Err(GraphError::AssignmentLengthMismatch {
                expected: g.node_count(),
                found: certs.len(),
            });
        }
        Ok(CertificateAssignment { certs })
    }

    /// The trivial assignment giving every node the empty certificate.
    pub fn empty(g: &LabeledGraph) -> Self {
        CertificateAssignment {
            certs: vec![BitString::new(); g.node_count()],
        }
    }

    /// Gives every node the same certificate.
    pub fn uniform(g: &LabeledGraph, cert: BitString) -> Self {
        CertificateAssignment {
            certs: vec![cert; g.node_count()],
        }
    }

    /// The certificate `κ(u)`.
    pub fn cert(&self, u: NodeId) -> &BitString {
        &self.certs[u.0]
    }

    /// All certificates, indexed by node.
    pub fn certs(&self) -> &[BitString] {
        &self.certs
    }

    /// Replaces the certificate of a single node, returning the new
    /// assignment (used by *local repairability*, Section 6).
    pub fn with_cert(&self, u: NodeId, cert: BitString) -> Self {
        let mut certs = self.certs.clone();
        certs[u.0] = cert;
        CertificateAssignment { certs }
    }

    /// Whether the assignment is `(r, p)`-bounded (Section 3): for every
    /// node `u`,
    /// `len(κ(u)) ≤ p( Σ_{v ∈ N_r(u)} 1 + len(λ(v)) + len(id(v)) )`.
    pub fn is_bounded(&self, g: &LabeledGraph, id: &IdAssignment, r: usize, p: &PolyBound) -> bool {
        let id_lens = id.lengths();
        g.nodes()
            .all(|u| self.certs[u.0].len() <= p.eval(g.neighborhood_information(u, r, &id_lens)))
    }

    /// The per-node certificate length budget under the `(r, p)` bound.
    pub fn budget(g: &LabeledGraph, id: &IdAssignment, r: usize, p: &PolyBound) -> Vec<usize> {
        let id_lens = id.lengths();
        g.nodes()
            .map(|u| p.eval(g.neighborhood_information(u, r, &id_lens)))
            .collect()
    }
}

/// A certificate-list assignment `κ̄ = κ₁·κ₂·…·κℓ` encoding the sequence of
/// moves played so far, with `#` separating individual certificates
/// (Section 3).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct CertificateList {
    lists: Vec<CertificateAssignment>,
}

impl CertificateList {
    /// The empty list (no moves played yet).
    pub fn new() -> Self {
        CertificateList { lists: Vec::new() }
    }

    /// Builds a list from individual assignments.
    pub fn from_assignments(lists: Vec<CertificateAssignment>) -> Self {
        CertificateList { lists }
    }

    /// Appends one more move (`κ̄ · κ`).
    pub fn push(&mut self, k: CertificateAssignment) {
        self.lists.push(k);
    }

    /// Replaces node `u`'s certificate in move `i`, in place.
    ///
    /// # Panics
    ///
    /// Panics if there is no move `i` or no node `u`.
    pub fn set_cert(&mut self, i: usize, u: NodeId, cert: BitString) {
        self.lists[i].certs[u.0] = cert;
    }

    /// Returns a new list extended by one move, leaving `self` untouched.
    pub fn extended(&self, k: CertificateAssignment) -> Self {
        let mut lists = self.lists.clone();
        lists.push(k);
        CertificateList { lists }
    }

    /// The number of moves `ℓ` in the list.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// Whether no moves have been played.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// The `i`-th assignment (0-indexed).
    pub fn get(&self, i: usize) -> Option<&CertificateAssignment> {
        self.lists.get(i)
    }

    /// Iterates over the individual assignments.
    pub fn iter(&self) -> impl Iterator<Item = &CertificateAssignment> {
        self.lists.iter()
    }

    /// The string `κ̄(u) = κ₁(u) # κ₂(u) # … # κℓ(u)` over `{0,1,#}`
    /// written on node `u`'s internal tape at the start of an execution
    /// (Section 4, phase 2).
    pub fn node_string(&self, u: NodeId) -> Vec<CertSymbol> {
        let mut out = Vec::new();
        for (i, k) in self.lists.iter().enumerate() {
            if i > 0 {
                out.push(CertSymbol::Sep);
            }
            for bit in k.cert(u).iter() {
                out.push(if bit {
                    CertSymbol::One
                } else {
                    CertSymbol::Zero
                });
            }
        }
        out
    }

    /// Whether every constituent assignment is `(r, p)`-bounded.
    pub fn is_bounded(&self, g: &LabeledGraph, id: &IdAssignment, r: usize, p: &PolyBound) -> bool {
        self.lists.iter().all(|k| k.is_bounded(g, id, r, p))
    }
}

impl FromIterator<CertificateAssignment> for CertificateList {
    fn from_iter<I: IntoIterator<Item = CertificateAssignment>>(iter: I) -> Self {
        CertificateList {
            lists: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn boundedness_uses_neighborhood_information() {
        let g = generators::path(3); // labels "1" each (len 1)
        let id = IdAssignment::global(&g); // ids of len 2
                                           // Endpoint v0: N_1 = {v0, v1}: (1+1+2)+(1+1+2) = 8. Center: 12.
        let p = PolyBound::linear(0, 1); // p(n) = n
        let budget = CertificateAssignment::budget(&g, &id, 1, &p);
        assert_eq!(budget, vec![8, 12, 8]);

        let ok = CertificateAssignment::from_vec(
            &g,
            vec![
                BitString::from_usize(0, 8),
                BitString::from_usize(0, 12),
                BitString::from_usize(0, 8),
            ],
        )
        .unwrap();
        assert!(ok.is_bounded(&g, &id, 1, &p));

        let too_long = ok.with_cert(NodeId(0), BitString::from_usize(0, 9));
        assert!(!too_long.is_bounded(&g, &id, 1, &p));
    }

    #[test]
    fn empty_assignment_is_always_bounded() {
        let g = generators::cycle(5);
        let id = IdAssignment::small(&g, 1);
        let k = CertificateAssignment::empty(&g);
        assert!(k.is_bounded(&g, &id, 1, &PolyBound::constant(0)));
    }

    #[test]
    fn node_string_separates_certificates_with_hash() {
        let g = generators::path(2);
        let k1 = CertificateAssignment::from_vec(
            &g,
            vec![BitString::from_bits01("10"), BitString::from_bits01("0")],
        )
        .unwrap();
        let k2 = CertificateAssignment::from_vec(
            &g,
            vec![BitString::from_bits01(""), BitString::from_bits01("1")],
        )
        .unwrap();
        let list = CertificateList::from_assignments(vec![k1, k2]);
        let s: String = list
            .node_string(NodeId(0))
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        assert_eq!(s, "10#");
        let s: String = list
            .node_string(NodeId(1))
            .iter()
            .map(std::string::ToString::to_string)
            .collect();
        assert_eq!(s, "0#1");
    }

    #[test]
    fn empty_list_yields_empty_string() {
        let list = CertificateList::new();
        assert!(list.node_string(NodeId(0)).is_empty());
        assert!(list.is_empty());
    }

    #[test]
    fn list_boundedness_checks_every_move() {
        let g = generators::path(2);
        let id = IdAssignment::global(&g);
        let p = PolyBound::constant(1);
        let small = CertificateAssignment::uniform(&g, BitString::from_bits01("1"));
        let big = CertificateAssignment::uniform(&g, BitString::from_bits01("11"));
        let list = CertificateList::from_assignments(vec![small.clone(), big]);
        assert!(!list.is_bounded(&g, &id, 1, &p));
        let list = CertificateList::from_assignments(vec![small.clone(), small]);
        assert!(list.is_bounded(&g, &id, 1, &p));
    }

    #[test]
    fn extended_does_not_mutate_original() {
        let g = generators::path(2);
        let list = CertificateList::new();
        let ext = list.extended(CertificateAssignment::empty(&g));
        assert_eq!(list.len(), 0);
        assert_eq!(ext.len(), 1);
    }
}
