//! `lph-serve` — a batched membership/lint/reduction query service over
//! the workspace's artifact registry.
//!
//! Reiter's paper frames local decision as query answering: a
//! prover/verifier exchange over an instance, at a cost bounded by the
//! hierarchy level's certificate game. This crate gives that framing a
//! serving shape. A client connects (TCP, or stdin/stdout in `--stdio`
//! mode), writes one JSON request per line, and reads one JSON response
//! per line, in request order — the `lph-serve/1` protocol, specified in
//! `PROTOCOL.md` at the repo root and structurally validated by
//! [`lph_analysis::servefmt`]. Three query kinds:
//!
//! * **membership** — decide an instance under a registered arbiter via
//!   [`lph_core::decide_game_backend`] (Σ₀ deciders through the Σ₃
//!   game arbiters, exhaustive or CDCL backend);
//! * **lint** — run the static-analysis rules for a registered artifact
//!   against a submitted probe graph;
//! * **reduction** — apply a registered local reduction and return the
//!   output graph.
//!
//! Around the queries sit the two serving-economics layers:
//!
//! * the [`cache`]: membership verdicts are cached per *iso-class*
//!   (classes of the local hierarchy are closed under label-preserving
//!   isomorphism, paper Section 3), keyed by an invariant bucket and
//!   confirmed by exact isomorphism search — cache hits are
//!   byte-identical to cold verdicts;
//! * [`admission`] control: requests against TM-backed arbiters are
//!   priced with the flow tier's *certified* Lemma 10 step polynomials,
//!   derived once per process when the [`registry`] is built, and a
//!   request over budget is shed up front with a structured
//!   `over_budget` error — the machine-checked certificates double as
//!   load-shedding policy.
//!
//! Batches of pipelined requests fan out over the [`lph_runtime`] pool
//! ([`lph_runtime::par_map`]), whose order-preservation
//! guarantee is what makes the protocol's response ordering
//! deterministic. Service counters land under the `serve/*` namespace of
//! [`lph_trace`] when tracing is on.
//!
//! # Example
//!
//! ```
//! use lph_serve::{Engine, EngineConfig};
//!
//! let engine = Engine::new(EngineConfig::default());
//! let response = engine.process_line(
//!     r#"{"id":"q1","kind":"membership","arbiter":"eulerian_decider","graph":{"family":"cycle","n":6}}"#,
//! );
//! assert!(response.contains(r#""eve_wins":true"#));
//! ```

#![forbid(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod engine;
pub mod proto;
pub mod registry;
pub mod server;

pub use admission::{Admission, Rejection};
pub use cache::IsoCache;
pub use engine::{Engine, EngineConfig};
pub use proto::{parse_request, ProtoError, Query, Request};
pub use registry::{
    arbiter_entries, find_arbiter, find_reduction, reduction_entries, ArbiterEntry, ReductionEntry,
};
pub use server::{serve_connection, serve_stdio, serve_tcp, ServerConfig};
