//! Shared harness utilities for the Nano-Sim benchmark/report suite.
//!
//! Every table and figure of the paper has a `report_*` binary in
//! `src/bin/` that prints the corresponding rows/series, and a criterion
//! bench in `benches/` that times the underlying computation. This library
//! holds the pieces they share: table formatting and the standard engine
//! configurations used throughout the comparison.

#![deny(missing_docs)]

use nanosim::prelude::*;
use nanosim_numeric::sparse::CsrMatrix;

/// Assembles the DC SWEC matrix `G_lin + Geq(x)` of the Table I N×N RTD
/// mesh at a fixed bias-like state, as CSR — the standard matrix of the
/// solver benches (`refactor`, `ordering`, `solve`) and their report
/// bins, kept in one place so every comparison stamps identical values.
pub fn table1_mesh_matrix(n: usize, bias: f64) -> CsrMatrix {
    let ckt = nanosim::workloads::rtd_mesh(n);
    let mna = MnaSystem::new(&ckt).expect("mesh assembles");
    let mut flops = FlopCounter::new();
    let mut g = mna.linear_g().clone();
    for b in mna.nonlinear_bindings() {
        let geq = b.device.equivalent_conductance(bias, &mut flops) + 1e-12;
        MnaSystem::stamp_conductance(&mut g, b.var_plus, b.var_minus, geq);
    }
    g.to_csr()
}

/// Prints a fixed-width table row.
pub fn row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (cell, w) in cells.iter().zip(widths.iter()) {
        line.push_str(&format!("{cell:>w$}  ", w = w));
    }
    println!("{}", line.trim_end());
}

/// Prints a rule matching the given column widths.
pub fn rule(widths: &[usize]) {
    let total: usize = widths.iter().map(|w| w + 2).sum();
    println!("{}", "-".repeat(total));
}

/// The SWEC configuration used by every comparison (paper defaults).
pub fn swec_options() -> SwecOptions {
    SwecOptions::default()
}

/// The MLA configuration used by Table I (cold-start current stepping per
/// \[1\]).
pub fn mla_options() -> MlaOptions {
    MlaOptions::default()
}

/// The SPICE3-like Newton configuration of Figure 8(c).
pub fn spice3_options() -> NrOptions {
    NrOptions::default()
}

/// SWEC configured for *fixed-step* transients (error control disabled):
/// used when comparing against the fixed-step Newton baselines so both
/// engines do exactly the same number of accepted steps.
pub fn swec_fixed_step_options() -> SwecOptions {
    SwecOptions {
        epsilon: 1e9,
        dv_max: f64::INFINITY,
        taylor_extrapolation: false,
        ..SwecOptions::default()
    }
}

/// Formats a flop count in engineering notation.
pub fn eng(x: f64) -> String {
    if x == 0.0 {
        return "0".into();
    }
    let mag = x.abs().log10().floor() as i32;
    match mag {
        0..=2 => format!("{x:.0}"),
        3..=5 => format!("{:.1}k", x / 1e3),
        6..=8 => format!("{:.1}M", x / 1e6),
        _ => format!("{:.2e}", x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eng_formatting() {
        assert_eq!(eng(0.0), "0");
        assert_eq!(eng(123.0), "123");
        assert_eq!(eng(45_600.0), "45.6k");
        assert_eq!(eng(7_890_000.0), "7.9M");
    }
}
