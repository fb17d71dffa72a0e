//! End-to-end benchmark for `lph-serve` and the lint walk.
//!
//! The binary (`src/main.rs`) drives the release `lph-serve` over TCP
//! for the `serve_hot` and `serve_cold` workloads and runs
//! `lph_analysis::run_builtin_deep` walks for `lint_corpus`; with
//! `--trace 1` it instead replays a fixed prefix of the same seeded
//! stream in process, layer by layer. See `README.md` in this directory
//! for the metrics and what each should move.

pub mod calib;
pub mod check;
pub mod client;
pub mod gen;
pub mod layers;
pub mod run;
