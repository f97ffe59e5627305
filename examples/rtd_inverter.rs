//! Figure 8 reproduction: the FET-RTD inverter transient, simulated by the
//! SWEC and PWL analyses of one `Simulator` session, plus the SPICE3-like
//! plain Newton engine (used directly, since reporting its NDR failures is
//! the point of the comparison).
//!
//! Run with: `cargo run --release --example rtd_inverter`

use nanosim::core::nr::{NrEngine, NrOptions};
use nanosim::prelude::*;

fn main() -> Result<(), SimError> {
    let circuit = nanosim::workloads::fet_rtd_inverter();
    println!("circuit: {}", circuit.summary());
    let (tstep, tstop) = (0.2e-9, 100e-9);
    let mut sim = Simulator::new(circuit.clone())?;

    // --- SWEC: the paper's method -------------------------------------
    let swec = sim.run(Analysis::transient(tstep, tstop))?;
    let out = swec.curve("out").expect("node exists");
    println!("\nFigure 8(b) — SWEC output:");
    println!("{}", out.ascii_plot(12, 64));
    println!(
        "levels: input low -> out {:.2} V, input high -> out {:.2} V",
        out.value_at(2e-9),
        out.value_at(25e-9)
    );
    println!("SWEC: {}", swec.stats);

    // --- SPICE3-like Newton baseline -----------------------------------
    let nr = NrEngine::new(NrOptions::default()).run_transient(&circuit, tstep, tstop)?;
    println!(
        "\nFigure 8(c) — SPICE3-like NR: {} non-converged steps out of {}",
        nr.failures.len(),
        nr.result.stats.steps
    );
    if let Some((t, outcome)) = nr.failures.first() {
        println!("first failure at t = {:.2} ns: {:?}", t * 1e9, outcome);
    }
    let nr_out = nr.result.curve("out").expect("node exists");
    println!(
        "NR-vs-SWEC rms difference: {:.3} V{}",
        nr_out.rms_difference(&out),
        if nr.failures.is_empty() {
            " (converged everywhere)"
        } else {
            " (untrustworthy where Newton failed)"
        }
    );

    // --- ACES-like PWL baseline ----------------------------------------
    let pwl = sim.run(Analysis::pwl_transient(tstep, tstop))?;
    let pwl_out = pwl.curve("out").expect("node exists");
    println!(
        "\nFigure 8(d) — PWL engine: rms difference vs SWEC {:.3} V",
        pwl_out.rms_difference(&out)
    );
    println!("PWL: {}", pwl.stats);
    Ok(())
}
