//! Quickstart: sweep the paper's RTD divider (Figure 7(a)) through the
//! `Simulator` session API and print the captured I-V curve, its
//! peak/valley, and the cost accounting that backs the paper's Table I.
//!
//! Run with: `cargo run --release --example quickstart`

use nanosim::prelude::*;

fn main() -> Result<(), SimError> {
    // The paper's DC workload: V1 --- 50 ohm --- RTD (Schulman, the exact
    // §5.2 parameter set) --- ground.
    let circuit = nanosim::workloads::rtd_divider(50.0);
    println!("circuit: {}", circuit.summary());

    let mut sim = Simulator::new(circuit)?;
    let sweep = sim.run(Analysis::dc_sweep("V1", 0.0, 5.0, 0.02))?;

    let iv = sweep.curve("I(X1)").expect("device current is recorded");
    let (v_peak, i_peak) = iv.peak().expect("the RTD has a current peak");
    println!("\nRTD I-V captured by SWEC (current vs source voltage):");
    println!("{}", iv.ascii_plot(14, 64));
    println!("peak: {:.3} mA at V1 = {:.2} V", i_peak * 1e3, v_peak);

    // The mid node shows the NDR jump as the load line crosses the peak.
    let v_mid = sweep.at("mid", 5.0).expect("node voltage recorded");
    println!(
        "RTD terminal voltage at V1 = 5 V: {:.3} V (region: {:?})",
        v_mid,
        Rtd::date2005().region(v_mid)
    );

    // SWEC is non-iterative: about one linear solve per sweep point.
    println!("\ncost: {}", sweep.stats);
    println!(
        "solves per point: {:.2}",
        sweep.stats.linear_solves as f64 / sweep.points() as f64
    );

    // Scale-out is an execution plan, not a different engine. Cut into
    // 16-point chunks, the sweep runs on all cores, bit-identical to the
    // serial run of the same chunks; each chunk past the first pays a short
    // continuation ramp, so one chunk (the default) is cheapest serially.
    let chunked = Analysis::dc_sweep("V1", 0.0, 5.0, 0.02).chunk_points(16);
    let serial = sim.run(chunked.clone())?;
    let sharded = sim.run(chunked.plan(ExecPlan::sharded(0)))?;
    assert_eq!(serial.column("I(X1)"), sharded.column("I(X1)"));
    println!(
        "16-point chunks sharded over all cores: {:.3} ms (serial {:.3} ms, \
         one chunk {:.3} ms), bit-identical",
        sharded.stats.elapsed.as_secs_f64() * 1e3,
        serial.stats.elapsed.as_secs_f64() * 1e3,
        sweep.stats.elapsed.as_secs_f64() * 1e3
    );
    Ok(())
}
