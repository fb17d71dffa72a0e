//! Graph properties with ground-truth (centralized) deciders, plus the
//! Boolean-formula machinery behind `SAT-GRAPH` (Section 8 of *A LOCAL View
//! of the Polynomial Hierarchy*).
//!
//! Everything here is *reference semantics*: exact, centralized decision
//! procedures used to validate the distributed machines, arbiters, games,
//! and reductions built in the other crates.
//!
//! * [`GraphProperty`] — the trait for isomorphism-closed graph properties,
//!   with implementations for `ALL-SELECTED`, `NOT-ALL-SELECTED`,
//!   `k-COLORABLE`, `EULERIAN`, `HAMILTONIAN`, `TREE`, and `SAT-GRAPH`.
//! * [`BoolExpr`] / [`Cnf`] — Boolean formulas with a text codec (so they
//!   can live in node labels), the Tseytin transformation, and
//!   satisfiability through the `lph-sat` CDCL engine.
//! * [`BooleanGraph`] — graphs whose nodes are labeled with Boolean
//!   formulas, and the consistency-constrained satisfiability notion of
//!   `SAT-GRAPH` (adjacent nodes must agree on shared variables).
//!
//! # Example
//!
//! ```
//! use lph_graphs::generators;
//! use lph_props::{GraphProperty, KColorable, Hamiltonian, Eulerian};
//!
//! let c5 = generators::cycle(5);
//! assert!(!KColorable::new(2).holds(&c5));
//! assert!(KColorable::new(3).holds(&c5));
//! assert!(Hamiltonian.holds(&c5));
//! assert!(Eulerian.holds(&c5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boolean;
mod color;
mod error;
mod extra;
mod hamilton;
mod property;
mod sat;
mod satgraph;

pub use boolean::{expr_is_three_cnf, BoolExpr, Clause, Cnf, Lit};
pub use color::{chromatic_number, find_coloring, is_k_colorable, is_proper_coloring};
pub use error::PropsError;
pub use extra::{Bipartite, DiameterAtMost, Regular, SelectedExists};
pub use hamilton::{find_hamiltonian_cycle, is_hamiltonian};
pub use property::{
    AllSelected, Eulerian, GraphProperty, Hamiltonian, KColorable, NotAllSelected,
    PropertyComplement, SatGraph, ThreeSatGraph, Tree,
};
pub use sat::{cdcl_sat, cdcl_sat_with_model};
pub use satgraph::{sat_graph_satisfiable, BooleanGraph};
