//! Distributed Turing machines and a synchronous LOCAL-model execution
//! engine, implementing Section 4 of *A LOCAL View of the Polynomial
//! Hierarchy* (Reiter, PODC 2024).
//!
//! Two levels of fidelity are provided, both running under the same
//! synchronous message-passing semantics (receive → compute → send, messages
//! sorted by ascending identifier order, acceptance by unanimity):
//!
//! * [`DistributedTm`] — the paper's three-tape Turing machines over the
//!   alphabet `{⊢, □, #, 0, 1}`, executed by an honest interpreter with
//!   step- and space-metering. The [`machines`] module contains hand-built
//!   transition tables for several concrete deciders/verifiers.
//! * [`LocalAlgorithm`] — a per-node step function with an explicit metered
//!   step budget, used for the heavyweight arbiters of the certificate
//!   games. Any polynomial-step `LocalAlgorithm` is simulable by a
//!   local-polynomial machine (and vice versa); the substitution is
//!   documented in `DESIGN.md`.
//!
//! The execution engines expose the per-node, per-round step and space
//! metrics needed to reproduce the polynomial bounds of Lemma 10. All
//! engines deliver messages through one [`Routing`] of `(G, id)`; the
//! `*_routed` forms take a prepared one, for callers that replay one graph
//! under many certificate lists.
//!
//! # Example
//!
//! ```
//! use lph_graphs::{generators, IdAssignment, CertificateList};
//! use lph_machine::{machines, run_tm, ExecLimits};
//!
//! let g = generators::cycle(5); // all labels "1"
//! let id = IdAssignment::small(&g, 1);
//! let out = run_tm(&machines::all_selected_decider(), &g, &id,
//!                  &CertificateList::new(), &ExecLimits::default()).unwrap();
//! assert!(out.accepted);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bytecode;
mod error;
mod exec;
mod local;
pub mod machines;
mod metrics;
mod routing;
mod tape;
mod tm;

pub use bytecode::{
    run_tm_backend, run_tm_compiled, run_tm_compiled_routed, CompiledTm, OpView, TmBackend,
};
pub use error::MachineError;
pub use exec::{run_tm, run_tm_routed, ExecLimits, TmOutcome};
pub use local::{
    run_local, run_local_routed, LocalAlgorithm, LocalOutcome, NodeCtx, NodeInput, NodeProgram,
    RoundAction,
};
pub use metrics::{ExecMetrics, RoundStats};
pub use routing::Routing;
pub use tape::{content_bits, split_messages, Tape};
pub use tm::{DistributedTm, Move, Pat, StateId, Sym, TmBuilder, Transition, WriteOp};
