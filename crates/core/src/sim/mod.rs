//! The unified simulation session API.
//!
//! The paper presents Nano-Sim as *one* simulator with several analyses;
//! this module is that surface. A [`Simulator`] session is opened on a
//! circuit, typed [`Analysis`] requests (built with builders) are run
//! through it, and every result comes back as one [`Dataset`] shape:
//!
//! ```text
//! Simulator::new(circuit)          // MNA assembled once, solver cached
//!     .run(Analysis)               // Op | DcSweep | Transient |
//!                                  // EmEnsemble | Mla | Pwl
//!         -> Dataset               // named signals x one axis + stats
//! ```
//!
//! Execution is a strategy, not an engine: an [`ExecPlan`] picks between
//! [`ExecPlan::Serial`] and [`ExecPlan::Sharded`] without changing a single
//! bit of the result.
//!
//! # Determinism contract
//!
//! Work is cut into chunks whose boundaries depend only on item indices
//! (the sweep points per chunk a [`DcSweep`] requests — the whole sweep by
//! default — and [`crate::em::PATH_CHUNK`] Monte-Carlo paths), each chunk
//! computes on its own workspace from a deterministic warm start, and
//! chunk results are stitched back in chunk order. Threads only decide
//! *when* a chunk runs, never what it computes — so for a given request
//! `Sharded { workers: n }` is **bit-identical** to `Serial` for every
//! `n`, and `tests/session.rs` locks that in.
//!
//! Engine-level types ([`crate::swec::SwecDcSweep`],
//! [`crate::swec::SwecTransient`], [`crate::em::EmEngine`], ...) remain
//! available for specialized work (explicit Wiener paths, Newton failure
//! forensics), but deck running, the examples and the benches all go
//! through the session API.

pub mod dataset;
pub mod plan;
pub mod request;
pub mod session;

pub use dataset::{AnalysisKind, Axis, Dataset};
pub use plan::ExecPlan;
pub use request::{
    Analysis, BaselineRequest, DcSweep, EmEnsemble, Mla, Op, Pwl, Transient, SWEEP_CHUNK,
};
pub use session::{run_ensemble, PreflightMode, SimOptions, Simulator};
