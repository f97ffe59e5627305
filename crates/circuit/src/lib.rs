//! Netlist representation, SPICE-like parser and modified nodal analysis
//! (MNA) assembly for the Nano-Sim simulator.
//!
//! The crate provides the substrate every simulation engine runs on:
//!
//! * [`node`] — node identifiers and the name ↔ id map (ground is node `0`,
//!   also addressable as `gnd`).
//! * [`element`] — circuit elements: passives, independent sources, and the
//!   nonlinear nano-devices from `nanosim-devices`.
//! * [`netlist`] — the [`Circuit`] builder API with validation
//!   (ground reference, connectivity, positive element values).
//! * [`mna`] — [`MnaSystem`]: assigns MNA variables (node voltages plus
//!   branch currents for voltage sources and inductors) and stamps the
//!   `G`/`C` matrices and right-hand side of the paper's eq. (1),
//!   `G(t)·V(t) + C·V̇(t) = b·u(t)`.
//! * [`subckt`] — hierarchy: [`SubcktDef`] subcircuit templates with
//!   parameter defaults, the [`CircuitBuilder`] front door, and flattening
//!   with deterministic name mangling (`X1.n3` nodes, `R1.X1` elements).
//! * [`hash`] — deterministic FNV-1a deck/topology fingerprints used by
//!   caching layers (value-sensitive vs. sparsity-pattern-only).
//! * [`lint`] — pass-based static analysis: connectivity, voltage-source
//!   loops, current-source cutsets, structural rank via bipartite matching,
//!   and deck hygiene — all pattern-only, no numeric solve.
//! * [`parser`] — a SPICE-like netlist parser with `.model` cards for the
//!   nano-devices (`YRTD`, `YNW`, `YRTT`), `.subckt`/`.ends`/`X` hierarchy,
//!   `.param` scoping, E/G/F/H controlled sources and `.tran`/`.dc`
//!   directives; errors carry line *and* column.
//!
//! # Example
//!
//! Building the paper's Figure 7(a) DC workload — an RTD in series with a
//! resistor across a voltage source:
//!
//! ```
//! use nanosim_circuit::netlist::Circuit;
//! use nanosim_devices::rtd::Rtd;
//! use nanosim_devices::sources::SourceWaveform;
//!
//! # fn main() -> Result<(), nanosim_circuit::CircuitError> {
//! let mut ckt = Circuit::new();
//! let vin = ckt.node("in");
//! let mid = ckt.node("mid");
//! ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(1.0))?;
//! ckt.add_resistor("R1", vin, mid, 50.0)?;
//! ckt.add_rtd("X1", mid, Circuit::GROUND, Rtd::date2005())?;
//! ckt.validate()?;
//! assert_eq!(ckt.node_count(), 3); // ground, in, mid
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod element;
pub mod error;
pub mod hash;
pub mod lint;
pub mod mna;
pub mod netlist;
pub mod node;
pub mod parser;
pub mod subckt;
pub mod writer;

pub use element::{Element, ElementKind};
pub use error::CircuitError;
pub use hash::{deck_fingerprint, fnv1a, fnv1a_extend, topology_fingerprint};
pub use lint::{
    lint_circuit, lint_deck, lint_system, Diagnostic, LintCode, LintReport, Severity, SourceMap,
    Span,
};
pub use mna::MnaSystem;
pub use netlist::Circuit;
pub use node::{NodeId, NodeMap};
pub use parser::{parse_netlist, parse_netlist_with_params, AnalysisDirective, ParsedDeck};
pub use subckt::{CircuitBuilder, ParamValue, SubcktDef, SubcktLib, WaveformTemplate};
pub use writer::write_netlist;

/// Convenience alias for fallible circuit operations.
pub type Result<T> = std::result::Result<T, CircuitError>;
