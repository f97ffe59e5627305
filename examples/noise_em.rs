//! Figure 10 reproduction: the Euler–Maruyama method on a nanoscale node
//! with parasitic RC driven by an uncertain (white-noise) input, compared
//! against the exact Ornstein–Uhlenbeck solution of the *same* Wiener path,
//! plus the peak ("performance") prediction of §4.2.
//!
//! The ensemble runs as an `Analysis::em_ensemble` of the session API; the
//! single-path comparison drives `EmEngine::run_with_paths` directly, since
//! supplying explicit Wiener paths is specialized engine territory.
//!
//! Run with: `cargo run --release --example noise_em`

use nanosim::core::em::{EmEngine, EmOptions};
use nanosim::prelude::*;
use nanosim::sde::ou::OrnsteinUhlenbeck;
use nanosim::sde::peak::brownian_expected_peak;
use nanosim::sde::wiener::WienerPath;
use nanosim_numeric::rng::Pcg64;

fn main() -> Result<(), SimError> {
    // The Figure 10 parameter point: tau = 1 ns, the node climbs toward
    // 0.85 V and reaches ~0.54 V inside the 1 ns window.
    let circuit = nanosim::workloads::noisy_rc_node_fig10();
    let (g, c, i_dc, i_noise) = (1e-3, 1e-12, 0.85e-3, 2.2e-9);
    let horizon = 1e-9;
    let em_opts = EmOptions {
        dt: 2e-12,
        paths: 500,
        seed: 2005,
        ..EmOptions::default()
    };

    // --- One path: EM vs the exact solution ---------------------------
    let engine = EmEngine::new(em_opts.clone());
    let mut rng = Pcg64::seed_from_u64(777);
    let path = WienerPath::generate(horizon, 500, &mut rng);
    let em_path = engine.run_with_paths(&circuit, &[path.clone()])?;
    let em_v = em_path.curve("v").expect("node exists");

    let ou = OrnsteinUhlenbeck::from_rc_node(g, c, i_dc, i_noise);
    let reference = ou.pathwise_reference(0.0, &path, 4, &mut rng);
    let ref_wave = Waveform::from_samples(em_path.axis_values().to_vec(), reference);

    println!("Figure 10 — EM (one realization) vs true solution, 0..1 ns:");
    println!("{}", em_v.ascii_plot(12, 64));
    println!(
        "pathwise rms difference EM vs exact: {:.4} V",
        em_v.rms_difference(&ref_wave)
    );

    // --- Ensemble: mean/std and the 0.6 V peak callout ----------------
    let mut sim = Simulator::new(circuit)?;
    let ensemble = sim.run(
        Analysis::em_ensemble(horizon)
            .options(em_opts)
            .plan(ExecPlan::sharded(0)),
    )?;
    let mean = ensemble.curve("v").expect("node exists");
    let peak = ensemble.peak_summary("v").expect("node exists");
    println!(
        "\nensemble of {} paths: mean(1 ns) = {:.3} V, std(1 ns) = {:.3} V",
        ensemble.paths(),
        mean.final_value(),
        ensemble.std_curve("v").expect("exists").final_value()
    );
    println!(
        "performance peak in 0..1 ns: mean {:.3} V, p95 {:.3} V, worst {:.3} V",
        peak.mean_peak, peak.p95_peak, peak.worst_peak
    );
    println!(
        "P(peak >= 0.6 V) = {:.2}",
        ensemble.exceedance("v", 0.6).expect("exists")
    );

    // Analytic cross-check: driftless-BM reflection bound for the noise
    // part alone (loose, since OU reverts to the mean).
    let sigma_v = i_noise / c;
    println!(
        "(driftless-BM expected excursion over the window: {:.3} V)",
        brownian_expected_peak(sigma_v, horizon)
    );
    println!("\ncost: {}", ensemble.stats);
    Ok(())
}
