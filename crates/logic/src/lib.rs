//! First-order logic with bounded quantifiers (`BF`), local first-order
//! logic (`LFO`), and the (local / monadic) second-order hierarchies of
//! Section 5 of *A LOCAL View of the Polynomial Hierarchy* (Reiter,
//! PODC 2024), together with model checking over the relational structures
//! of `lph-graphs`.
//!
//! # Layout
//!
//! * [`Formula`] — the quantifier-free/first-order core with both unbounded
//!   (`∃x φ`) and **bounded** (`∃x ⇌≤r y φ`) quantification, Table 1's
//!   syntax and semantics.
//! * [`Sentence`] — a prenex block of second-order quantifiers over an
//!   `LFO` or `FO` matrix; [`Sentence::level`] computes the position
//!   `Σℓ/Πℓ` in the (local) second-order hierarchy, and
//!   [`Sentence::is_monadic`] identifies the monadic fragments of
//!   Section 9.2.
//! * [`check`] — brute-force second-order model checking with support
//!   restrictions and an evaluation budget (the game between Eve and Adam,
//!   solved exhaustively on small structures).
//! * [`examples`] — the paper's Examples 2–7 as executable constructors:
//!   `ALL-SELECTED`, `3-COLORABLE` (`Σ₁`), `NOT-ALL-SELECTED` (`Σ₃`),
//!   `NON-3-COLORABLE` (`Π₄`), `HAMILTONIAN` (`Σ₅`),
//!   `NON-HAMILTONIAN` (`Π₄`).
//!
//! # Example
//!
//! ```
//! use lph_graphs::{generators, GraphStructure};
//! use lph_logic::{check::CheckOptions, examples};
//!
//! let g = generators::cycle(4);
//! let s = GraphStructure::of(&g);
//! let phi = examples::three_colorable();
//! assert!(phi.check_on_graph(&s, &CheckOptions::default()).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod dsl;
pub mod examples;
mod formula;
mod plan;
mod sentence;
mod var;

pub use formula::Formula;
pub use plan::{CompiledSentence, PlanOp};
pub use sentence::{Level, Matrix, Quantifier, Sentence, SoBlock, SoQuant, Support};
pub use var::{Assignment, FoVar, Relation, SoVar, VarPool};
