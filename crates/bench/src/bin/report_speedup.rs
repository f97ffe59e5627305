//! §5 headline reproduction: "The experimental results show a 20-30 times
//! speedup comparing with existing simulators" — FLOP and wall-clock ratios
//! of SWEC against the MLA baseline on DC and transient workloads.
//!
//! One timing per engine does not reproduce (two runs of the same build
//! read a DC wall ratio of 17x and 24x), so each engine runs [`REPS`]
//! times, the two engines alternating, and the `wall x` column is the
//! ratio of their median run times.

use nanosim::numeric::stats::percentile;
use nanosim::prelude::*;
use nanosim_bench::{eng, mla_options, row, rule, swec_fixed_step_options, swec_options};

/// Runs per engine behind each `wall x` ratio.
const REPS: usize = 21;

/// Runs `swec` and `mla` on `sim` alternately, [`REPS`] times each.
/// Returns the first run of each (their counts are deterministic) and the
/// ratio of MLA's median run time to SWEC's.
fn alternate(
    sim: &mut Simulator,
    swec: impl Fn() -> Analysis,
    mla: impl Fn() -> Analysis,
) -> Result<(Dataset, Dataset, f64), SimError> {
    let (mut swec_s, mut mla_s) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    let mut first = None;
    for _ in 0..REPS {
        let s = sim.run(swec())?;
        let m = sim.run(mla())?;
        swec_s.push(s.stats.elapsed.as_secs_f64());
        mla_s.push(m.stats.elapsed.as_secs_f64());
        first.get_or_insert((s, m));
    }
    let median = |xs: &[f64]| percentile(xs, 0.5).expect("REPS > 0");
    let (s, m) = first.expect("REPS > 0");
    Ok((s, m, median(&mla_s) / median(&swec_s)))
}

fn main() -> Result<(), SimError> {
    println!("Headline speedup: SWEC vs MLA (SPICE-like augmented NR)\n");
    let widths = [24, 12, 12, 9, 12];
    row(
        &[
            "analysis".into(),
            "swec flops".into(),
            "mla flops".into(),
            "flops x".into(),
            "wall x".into(),
        ],
        &widths,
    );
    rule(&widths);

    // DC sweeps.
    for (name, ckt) in [
        ("dc: rtd divider", nanosim::workloads::rtd_divider(50.0)),
        ("dc: rtd chain x4", nanosim::workloads::rtd_chain(4)),
    ] {
        let mut sim = Simulator::new(ckt)?;
        let (swec, mla, wall) = alternate(
            &mut sim,
            || {
                Analysis::dc_sweep("V1", 0.0, 5.0, 0.05)
                    .options(swec_options())
                    .into()
            },
            || {
                Analysis::mla_dc_sweep("V1", 0.0, 5.0, 0.05)
                    .options(mla_options())
                    .into()
            },
        )?;
        row(
            &[
                name.into(),
                eng(swec.stats.flops.total() as f64),
                eng(mla.stats.flops.total() as f64),
                format!(
                    "{:.0}x",
                    mla.stats.flops.total() as f64 / swec.stats.flops.total() as f64
                ),
                format!("{wall:.1}x"),
            ],
            &widths,
        );
    }

    // Transient: RTD divider ramped through the NDR region.
    let mut ckt = Circuit::new();
    let a = ckt.node("in");
    let b = ckt.node("mid");
    ckt.add_voltage_source(
        "V1",
        a,
        Circuit::GROUND,
        SourceWaveform::pwl(vec![(0.0, 0.0), (10e-9, 5.0), (20e-9, 5.0)]).expect("valid"),
    )
    .expect("fresh");
    ckt.add_resistor("R1", a, b, 50.0).expect("fresh");
    ckt.add_rtd("X1", b, Circuit::GROUND, Rtd::date2005())
        .expect("fresh");
    ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-13)
        .expect("fresh");

    // Both engines at the SAME fixed step so the per-step cost is what is
    // compared (SWEC's error control is a separate feature the Newton
    // baseline does not have).
    let mut sim = Simulator::new(ckt)?;
    let (swec_tr, mla_tr, wall_tr) = alternate(
        &mut sim,
        || {
            Analysis::transient(0.05e-9, 20e-9)
                .options(swec_fixed_step_options())
                .into()
        },
        || {
            Analysis::mla_transient(0.05e-9, 20e-9)
                .options(mla_options())
                .into()
        },
    )?;
    row(
        &[
            "tran: rtd ramp".into(),
            eng(swec_tr.stats.flops.total() as f64),
            eng(mla_tr.stats.flops.total() as f64),
            format!(
                "{:.1}x",
                mla_tr.stats.flops.total() as f64 / swec_tr.stats.flops.total() as f64
            ),
            format!("{wall_tr:.1}x"),
        ],
        &widths,
    );
    rule(&widths);
    println!("\nwall x: ratio of median run times over {REPS} alternating runs per engine");
    println!(
        "\ntransient step counts: SWEC {} vs MLA {} (same fixed print step);",
        swec_tr.stats.steps, mla_tr.stats.steps
    );
    println!(
        "per accepted step: SWEC {:.0} flops, MLA {:.0} flops",
        swec_tr.stats.flops.total() as f64 / swec_tr.stats.steps as f64,
        mla_tr.stats.flops.total() as f64 / mla_tr.stats.steps as f64
    );
    println!("\npaper: \"over 20-30 times speedup over the SPICE-like simulator\"");
    println!("(DC ratios are dominated by MLA's per-point current-stepping ramp;");
    println!("transient ratios by its Newton iterations per accepted step — SWEC");
    println!("does exactly one linear solve per accepted step.)");
    Ok(())
}
