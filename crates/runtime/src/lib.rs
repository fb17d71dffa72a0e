//! Structured parallelism for the reproduction's embarrassingly parallel
//! sweeps — certificate-space enumeration, graph-family enumeration,
//! isomorphism bucketing, the lint-corpus walk, and the experiment series.
//!
//! The workspace builds in hermetic environments with no registry access,
//! so `rayon` is out of reach; this crate provides the small subset the
//! sweeps actually need, on `std` alone:
//!
//! * one scoped fork/join loop ([`std::thread::scope`], so borrowed
//!   inputs need no `'static` bounds) in which the calling thread and
//!   `threads() − 1` spawned workers claim the next contiguous chunk with
//!   one atomic `fetch_add` (self-scheduling — load balances even when
//!   per-item cost is wildly uneven, as in isomorphism search);
//! * [`par_map`], [`par_map_index`], [`par_filter_map_index`] and
//!   [`par_flat_map`], every one of which **returns exactly what the
//!   sequential left-to-right loop returns** — chunk results are merged
//!   in index order, so parallelism never changes an answer, only the
//!   time it takes to compute;
//! * panic propagation: a panic on any worker is captured and re-raised
//!   with its original payload on the calling thread;
//! * runtime thread-count control: the `LPH_THREADS` environment variable
//!   (with `LPH_THREADS=1` forcing fully sequential in-place execution for
//!   debugging), overridable per calling thread with [`set_threads`];
//! * observability: when the global [`lph_trace`] recorder is on, each
//!   fork/join region reports its spawned workers, per-worker chunk counts
//!   and per-chunk wall time under the `pool/` trace namespace (see the
//!   [`pool`-module docs](self) for the full list). Because scheduling is
//!   timing-dependent, `pool/` metrics are *by convention* excluded from
//!   trace fingerprints; the *results* of every `par_*` call stay
//!   bit-identical across worker counts regardless.
//!
//! # Example
//!
//! ```
//! let squares = lph_runtime::par_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // Identical to `(0..len).filter_map(..)`: survivors keep index order.
//! let odd = lph_runtime::par_filter_map_index(8, |i| (i % 2 == 1).then_some(i * 10));
//! assert_eq!(odd, vec![10, 30, 50, 70]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;

pub use pool::{par_filter_map_index, par_flat_map, par_map, par_map_index, set_threads, threads};
