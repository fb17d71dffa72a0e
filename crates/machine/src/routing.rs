use lph_graphs::{IdAssignment, LabeledGraph, NodeId};

use crate::MachineError;

/// The message routing of one `(G, id)`: for every node, its neighbors in
/// ascending identifier order (the order in which its receiving tape
/// concatenates their messages, Section 4 phase 1), each paired with the
/// port under which that neighbor addresses it.
///
/// Routing depends only on the graph and the identifiers, never on the
/// certificates, so a caller replaying a machine on one graph under many
/// certificate lists prepares it once and hands it to the `*_routed`
/// engines ([`crate::run_local_routed`], [`crate::run_tm_routed`],
/// [`crate::run_tm_compiled_routed`]).
#[derive(Debug, Clone)]
pub struct Routing<'a> {
    g: &'a LabeledGraph,
    id: &'a IdAssignment,
    /// `ports[u][j] = (v, slot)`: `v` is `u`'s `j`-th neighbor in
    /// ascending identifier order, and `slot` is the position of `u` in
    /// `v`'s sorted neighbor list (which of `v`'s messages is addressed
    /// to `u`).
    ports: Vec<Vec<(NodeId, usize)>>,
}

impl<'a> Routing<'a> {
    /// Prepares the routing of `(G, id)`.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::IdsNotLocallyUnique`] if `id` is not
    /// 1-locally unique, the precondition of every LOCAL execution.
    pub fn new(g: &'a LabeledGraph, id: &'a IdAssignment) -> Result<Self, MachineError> {
        if !id.is_locally_unique(g, 1) {
            return Err(MachineError::IdsNotLocallyUnique);
        }
        let sorted: Vec<Vec<NodeId>> = g.nodes().map(|u| id.sorted_neighbors(g, u)).collect();
        let ports = g
            .nodes()
            .map(|u| {
                sorted[u.0]
                    .iter()
                    .map(|&v| {
                        let slot = sorted[v.0]
                            .iter()
                            .position(|&w| w == u)
                            .expect("neighbor lists are symmetric");
                        (v, slot)
                    })
                    .collect()
            })
            .collect();
        Ok(Routing { g, id, ports })
    }

    /// The graph the routing was prepared for.
    pub(crate) fn graph(&self) -> &'a LabeledGraph {
        self.g
    }

    /// The identifier assignment the routing was prepared for.
    pub(crate) fn ids(&self) -> &'a IdAssignment {
        self.id
    }

    /// Node `u`'s inbound ports in ascending identifier order: each
    /// sending neighbor and the slot of its outbox addressed to `u`.
    pub(crate) fn ports(&self, u: NodeId) -> &[(NodeId, usize)] {
        &self.ports[u.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lph_graphs::{generators, BitString};

    #[test]
    fn ports_pair_each_neighbor_with_its_outbox_slot() {
        // Star centre 0 with leaves 1..=3; the identifiers put the leaves
        // in the order 2, 3, 1.
        let g = generators::star(4);
        let ids = ["11", "10", "0", "01"].map(BitString::from_bits01).to_vec();
        let id = IdAssignment::from_vec(&g, ids).unwrap();
        let routing = Routing::new(&g, &id).unwrap();
        assert_eq!(
            routing.ports(NodeId(0)),
            [(NodeId(2), 0), (NodeId(3), 0), (NodeId(1), 0)]
        );
        // Each leaf hears from the centre, which addresses it by the
        // leaf's rank among the centre's sorted neighbors.
        assert_eq!(routing.ports(NodeId(1)), [(NodeId(0), 2)]);
        assert_eq!(routing.ports(NodeId(2)), [(NodeId(0), 0)]);
        assert_eq!(routing.ports(NodeId(3)), [(NodeId(0), 1)]);
    }
}
