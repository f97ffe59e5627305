//! Figure 10 reproduction: results from the EM method and the analytical
//! solution on a noisy nanoscale node (0..1 ns), with the "possible
//! performance peak about 0.6 V" callout.

use nanosim::core::em::EmEngine;
use nanosim::prelude::*;
use nanosim::sde::ou::OrnsteinUhlenbeck;
use nanosim::sde::wiener::WienerPath;
use nanosim_bench::{row, rule};
use nanosim_numeric::rng::Pcg64;

fn main() -> Result<(), SimError> {
    let circuit = nanosim::workloads::noisy_rc_node_fig10();
    let (g, c, i_dc, i_noise) = (1e-3, 1e-12, 0.85e-3, 2.2e-9);
    let horizon = 1e-9;
    let steps = 500;

    // One realization: EM vs the exact OU solution of the same Wiener path.
    let engine = EmEngine::new(EmOptions {
        dt: horizon / steps as f64,
        paths: 500,
        seed: 2005,
        ..EmOptions::default()
    });
    let mut rng = Pcg64::seed_from_u64(777);
    let path = WienerPath::generate(horizon, steps, &mut rng);
    let em = engine.run_with_paths(&circuit, &[path.clone()])?;
    let em_v = em.curve("v").expect("node exists");
    let ou = OrnsteinUhlenbeck::from_rc_node(g, c, i_dc, i_noise);
    let exact = ou.pathwise_reference(0.0, &path, 4, &mut rng);

    println!("Figure 10: EM method vs analytical solution (one Wiener path)\n");
    let widths = [9, 12, 12, 12];
    row(
        &[
            "t (ps)".into(),
            "EM (V)".into(),
            "exact (V)".into(),
            "mean (V)".into(),
        ],
        &widths,
    );
    rule(&widths);
    for k in (0..=steps).step_by(50) {
        let t = k as f64 * horizon / steps as f64;
        row(
            &[
                format!("{:.0}", t * 1e12),
                format!("{:.4}", em_v.value_at(t)),
                format!("{:.4}", exact[k]),
                format!("{:.4}", ou.mean(0.0, t)),
            ],
            &widths,
        );
    }
    let rms: f64 = {
        let n = exact.len() as f64;
        (em_v
            .values()
            .iter()
            .zip(exact.iter())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / n)
            .sqrt()
    };
    println!("\npathwise rms (EM vs exact, same path): {rms:.4} V");

    // Ensemble peak prediction (the 0.6 V callout), via the session API.
    let ensemble =
        Simulator::new(circuit)?.run(Analysis::em_ensemble(horizon).options(EmOptions {
            dt: horizon / steps as f64,
            paths: 500,
            seed: 2005,
            ..EmOptions::default()
        }))?;
    let peak = ensemble.peak_summary("v").expect("node exists");
    println!(
        "\nensemble ({} paths): peak in 0..1 ns — mean {:.3} V, p95 {:.3} V, worst {:.3} V",
        ensemble.paths(),
        peak.mean_peak,
        peak.p95_peak,
        peak.worst_peak
    );
    println!(
        "P(peak >= 0.6 V) = {:.2}   (paper: \"we observe a possible performance peak about 0.6 V\")",
        ensemble.exceedance("v", 0.6).expect("node exists")
    );
    assert!(peak.mean_peak > 0.45 && peak.mean_peak < 0.75);
    Ok(())
}
