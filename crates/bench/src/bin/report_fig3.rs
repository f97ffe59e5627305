//! Figure 3 reproduction: equivalent conductance per the piecewise-linear
//! model (segment slope, negative in NDR) versus the step-wise model (I/V
//! secant, always positive).

use nanosim::circuit::element::SharedDevice;
use nanosim::core::pwl::PwlDeviceTable;
use nanosim::prelude::*;
use nanosim_bench::{row, rule};
use std::sync::Arc;

fn main() {
    let rtd = Rtd::date2005();
    let peak = rtd.peak().expect("peak");
    let valley = rtd.valley().expect("valley");
    let dev: SharedDevice = Arc::new(rtd);
    let table = PwlDeviceTable::tabulate(&dev, -1.0, 6.0, 300).expect("valid table");

    println!("Figure 3: PWL segment conductance vs SWEC equivalent conductance");
    println!(
        "RTD peak at {:.2} V, valley at {:.2} V\n",
        peak.voltage, valley.voltage
    );
    let widths = [8, 16, 16, 10];
    row(
        &[
            "V".into(),
            "g_pwl (mS)".into(),
            "Geq_swec (mS)".into(),
            "region".into(),
        ],
        &widths,
    );
    rule(&widths);
    let mut flops = FlopCounter::new();
    let mut negative_seen = 0usize;
    let mut v = 0.25;
    while v <= 6.0 + 1e-9 {
        let g_pwl = table.segment_conductance(v);
        let g_swec = dev.equivalent_conductance(v, &mut flops);
        let region = if v <= peak.voltage {
            "PDR1"
        } else if v < valley.voltage.min(6.0) {
            "NDR"
        } else {
            "PDR2"
        };
        if g_pwl < 0.0 {
            negative_seen += 1;
        }
        assert!(g_swec > 0.0, "SWEC conductance must stay positive");
        row(
            &[
                format!("{v:.2}"),
                format!("{:+.4}", g_pwl * 1e3),
                format!("{:+.4}", g_swec * 1e3),
                region.into(),
            ],
            &widths,
        );
        v += 0.25;
    }
    println!("\n{negative_seen} sampled points have NEGATIVE PWL conductance; SWEC has none.");
    println!("That sign difference is the NDR problem (paper §3.2, Figure 3).");
}
