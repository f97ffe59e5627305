//! In-process simulation service layer for Nano-Sim.
//!
//! `nanosim-serve` turns the one-shot [`nanosim_core::Simulator`] session
//! API into a long-lived, cache-backed service — with **no network stack
//! and no dependencies** (the vendored-offline build keeps working). Three
//! cooperating subsystems:
//!
//! * **Run registry** ([`store`]) — every accepted analysis gets a
//!   monotonically assigned [`RunId`] and a [`RunRecord`] tracking
//!   `queued → running → done | failed` (failures carry the full
//!   [`nanosim_core::SimError`] forensics). Finished payloads live in a
//!   [`ResultStore`] with LRU-by-bytes eviction.
//! * **Cross-request caching** ([`key`], [`pool`], [`service`]) — parsed
//!   decks are fingerprinted twice: a value-sensitive [`DeckKey`] guards
//!   the full result cache (hits are **bit-identical** to cold runs,
//!   because the engines are deterministic), and a pattern-only
//!   [`TopologyKey`] keys the [`SessionPool`], which rebinds pooled
//!   sessions to same-topology circuits so sparse-LU symbolic analyses
//!   and factor structures are paid once and refactored forever. A
//!   bounded memo keyed by [`RequestKey`] (deck text + overrides) lets an
//!   exact resubmit whose results are all cached skip the parse.
//! * **Batch front-end** ([`service::BatchRequest`], [`proto`]) — a
//!   parameter grid (`.param` overrides × the deck's analysis directives)
//!   fans out into one run per grid point, sharing pooled sessions; the
//!   JSON-lines protocol in [`proto`] makes the whole service scriptable
//!   from any stdin/stdout transport (see the `nanosim-serve` binary in
//!   the bench crate).
//! * **Run budgets & admission control** ([`SubmitOptions`],
//!   [`ServiceOptions`]) — per-request `timeout_ms`/`budget` limits are
//!   enforced cooperatively inside the engines at deterministic
//!   checkpoints (see [`nanosim_core::Budget`]), runs can be cancelled
//!   mid-flight or held queued, budget-killed runs salvage their accepted
//!   prefix under `allow_partial`, and configurable load limits (pending
//!   runs, deck bytes, element count) shed excess work with structured
//!   `overloaded` responses instead of queueing unboundedly.
//!
//! # Example
//!
//! ```
//! use nanosim_serve::{ServiceOptions, SimService};
//!
//! let mut svc = SimService::new(ServiceOptions::default());
//! let deck = "V1 in 0 DC 1\nR1 in out 100\nR2 out 0 100\n.op\n.end\n";
//! let runs = svc.submit(deck)?;
//! let rec = svc.result(runs[0])?;
//! let out = rec.result.as_ref().unwrap().dataset.value("out").unwrap();
//! assert!((out - 0.5).abs() < 1e-12);
//! // Submitting the same deck again answers from the result cache,
//! // bit-identically.
//! let again = svc.submit(deck)?;
//! assert_eq!(svc.stats().result_hits, 1);
//! # let _ = again;
//! # Ok::<(), nanosim_serve::ServeError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod error;
pub mod json;
pub mod key;
pub mod pool;
pub mod proto;
pub mod service;
pub mod stats;
pub mod store;

pub use error::ServeError;
pub use json::Json;
pub use key::{AnalysisKey, DeckKey, RequestKey, TopologyKey};
pub use pool::SessionPool;
pub use proto::{handle_line, mask_volatile};
pub use service::{expand_axes, BatchRequest, ServiceOptions, SimService, SubmitOptions};
pub use stats::{Histogram, ServeStats};
pub use store::{CacheDisposition, ResultStore, RunId, RunRecord, RunResult, RunStatus};
