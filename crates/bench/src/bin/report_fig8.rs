//! Figure 8 reproduction: the FET-RTD inverter transient simulated by
//! (b) SWEC, (c) a SPICE3-like plain Newton engine, (d) the ACES-like PWL
//! engine — plus the NDR-stress variant on which plain Newton visibly
//! fails while SWEC completes.

use nanosim::prelude::*;
use nanosim_bench::{row, rule, spice3_options, swec_options};

fn sample_table(result_names: &[(&str, &Waveform)]) {
    let widths: Vec<usize> = std::iter::once(8)
        .chain(result_names.iter().map(|_| 12))
        .collect();
    let mut header = vec!["t (ns)".to_string()];
    header.extend(result_names.iter().map(|(n, _)| n.to_string()));
    row(&header, &widths);
    rule(&widths);
    for t_ns in [2.0, 6.0, 10.0, 25.0, 45.0, 49.5, 52.0, 70.0, 95.0] {
        let mut cells = vec![format!("{t_ns:.1}")];
        for (_, w) in result_names {
            cells.push(format!("{:.3}", w.value_at(t_ns * 1e-9)));
        }
        row(&cells, &widths);
    }
}

fn main() -> Result<(), SimError> {
    let circuit = nanosim::workloads::fet_rtd_inverter();
    let (tstep, tstop) = (0.2e-9, 100e-9);
    let mut sim = Simulator::new(circuit.clone())?;

    let swec = sim.run(Analysis::transient(tstep, tstop).options(swec_options()))?;
    let nr = NrEngine::new(spice3_options()).run_transient(&circuit, tstep, tstop)?;
    let pwl = sim.run(Analysis::pwl_transient(tstep, tstop))?;

    let s_out = swec.curve("out").expect("node exists");
    let n_out = nr.result.curve("out").expect("node exists");
    let p_out = pwl.curve("out").expect("node exists");
    let vin = swec.curve("in").expect("node exists");

    println!("Figure 8: FET-RTD inverter (input 0 <-> 5 V pulse)\n");
    sample_table(&[
        ("Vin", &vin),
        ("SWEC", &s_out),
        ("NR", &n_out),
        ("PWL", &p_out),
    ]);
    println!(
        "\nSWEC: {} accepted steps, {} rejected | NR failures: {} | PWL-vs-SWEC rms {:.3} V",
        swec.stats.steps,
        swec.stats.rejected_steps,
        nr.failures.len(),
        p_out.rms_difference(&s_out)
    );

    // The stress variant: Figure 8(c)'s "SPICE3 fails to converge".
    println!("\nNDR-stress variant (sharp RTDs, Vdd = 4 V, bistable divider):");
    let stress = nanosim::workloads::fet_rtd_inverter_stress();
    let nr_s = NrEngine::new(spice3_options()).run_transient(&stress, 0.5e-9, 30e-9)?;
    println!(
        "  SPICE3-like NR: {} non-converged steps out of {}",
        nr_s.failures.len(),
        nr_s.result.stats.steps
    );
    for (t, outcome) in nr_s.failures.iter().take(3) {
        println!("    t = {:.2} ns: {:?}", t * 1e9, outcome);
    }
    let swec_s =
        Simulator::new(stress)?.run(Analysis::transient(0.5e-9, 30e-9).options(swec_options()))?;
    let out_s = swec_s.curve("out").expect("node exists");
    println!(
        "  SWEC: completes cleanly, out(25 ns) = {:.3} V, {} steps",
        out_s.value_at(25e-9),
        swec_s.stats.steps
    );
    assert!(
        !nr_s.failures.is_empty(),
        "the stress deck must expose the NDR failure"
    );
    println!("\n\"SPICE3 fails to converge to the correct solution. SWEC generates");
    println!("more accurate response without needing to solve set of non linear");
    println!("equations\" (paper §5.2).");
    Ok(())
}
