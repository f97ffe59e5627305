//! Cross-crate integration of the stochastic stack: circuit-level EM
//! against the closed-form Ornstein–Uhlenbeck facts from `nanosim-sde`.

use nanosim::core::em::EmEngine;
use nanosim::prelude::*;
use nanosim::sde::ou::OrnsteinUhlenbeck;
use nanosim::sde::wiener::WienerPath;
use nanosim_devices::sources::SourceWaveform;
use nanosim_numeric::flops::FlopCounter;
use nanosim_numeric::rng::Pcg64;
use nanosim_numeric::sparse::{CsrMatrix, SparseLu};

const G: f64 = 1e-3;
const C: f64 = 1e-12;

#[test]
fn em_ensemble_matches_ou_mean_and_variance() {
    let i_noise = 2e-9;
    let ckt = nanosim::workloads::noisy_rc_node(G, C, 0.0, i_noise);
    let engine = EmEngine::new(EmOptions {
        dt: 5e-12,
        paths: 500,
        seed: 99,
        ..EmOptions::default()
    });
    let horizon = 2e-9;
    let r = engine.run(&ckt, horizon).unwrap();
    let ou = OrnsteinUhlenbeck::from_rc_node(G, C, 0.0, i_noise);
    let sd = r.std_curve("v").unwrap().final_value();
    let expected = ou.variance(horizon).sqrt();
    assert!(
        (sd - expected).abs() < 0.12 * expected,
        "sd {sd} vs {expected}"
    );
}

#[test]
fn em_with_dc_drive_tracks_deterministic_mean() {
    let ckt = nanosim::workloads::noisy_rc_node(G, C, 0.5e-3, 1e-9);
    let engine = EmEngine::new(EmOptions {
        dt: 5e-12,
        paths: 400,
        seed: 7,
        ..EmOptions::default()
    });
    let r = engine.run(&ckt, 3e-9).unwrap();
    let mean = r.curve("v").unwrap();
    // mu = i_dc/G = 0.5 V, tau = 1 ns: at 3 tau the mean is ~0.475 V.
    let expected = 0.5 * (1.0 - (-3.0f64).exp());
    assert!(
        (mean.final_value() - expected).abs() < 0.03,
        "{} vs {expected}",
        mean.final_value()
    );
}

#[test]
fn figure10_peak_lands_near_paper_value() {
    // The Figure 10 parameter point: "we observe a possible performance
    // peak about 0.6 V" in 0..1 ns.
    let ckt = nanosim::workloads::noisy_rc_node_fig10();
    let engine = EmEngine::new(EmOptions {
        dt: 2e-12,
        paths: 400,
        seed: 2005,
        ..EmOptions::default()
    });
    let r = engine.run(&ckt, 1e-9).unwrap();
    let peak = r.peak_summary("v").unwrap();
    assert!(
        peak.mean_peak > 0.45 && peak.mean_peak < 0.75,
        "mean 0..1 ns peak {} should be near 0.6 V",
        peak.mean_peak
    );
    let p = r.exceedance("v", 0.6).unwrap();
    assert!(p > 0.05 && p < 0.95, "P(peak >= 0.6) = {p}");
}

#[test]
fn pathwise_em_converges_to_exact_solution_with_dt() {
    // Strong pathwise agreement: the circuit EM on a fine path is closer to
    // the bridge-refined exact OU solution than on a coarse path.
    let i_noise = 2e-9;
    let ckt = nanosim::workloads::noisy_rc_node(G, C, 0.0, i_noise);
    let ou = OrnsteinUhlenbeck::from_rc_node(G, C, 0.0, i_noise);
    let mut rng = Pcg64::seed_from_u64(31);
    let horizon = 1e-9;
    let mut err = |steps: usize| -> f64 {
        let mut total = 0.0;
        for _ in 0..20 {
            let path = WienerPath::generate(horizon, steps, &mut rng);
            let engine = EmEngine::new(EmOptions::default());
            let em = engine.run_with_paths(&ckt, &[path.clone()]).unwrap();
            let reference = ou.pathwise_reference(0.0, &path, 4, &mut rng);
            let v = em.column("v").unwrap();
            let e: f64 = v
                .iter()
                .zip(reference.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            total += e;
        }
        total / 20.0
    };
    let coarse = err(64);
    let fine = err(512);
    assert!(
        fine < coarse,
        "pathwise error must shrink with dt: fine {fine} vs coarse {coarse}"
    );
}

#[test]
fn parallel_and_serial_ensembles_are_bit_identical() {
    // The parallel Monte-Carlo engine derives per-path RNGs in path order
    // and merges chunk statistics in chunk order, so the thread count must
    // not change a single bit of the output. 37 paths is deliberately not a
    // multiple of the chunk size.
    let ckt = nanosim::workloads::noisy_rc_node_fig10();
    let base = EmOptions {
        dt: 5e-12,
        paths: 37,
        seed: 0xD5EE_D001,
        ..EmOptions::default()
    };
    let serial = EmEngine::new(EmOptions {
        threads: 1,
        ..base.clone()
    })
    .run(&ckt, 1e-9)
    .unwrap();
    for threads in [2, 4, 8] {
        let parallel = EmEngine::new(EmOptions {
            threads,
            ..base.clone()
        })
        .run(&ckt, 1e-9)
        .unwrap();
        // Means and std envelopes alike, plus each node's peak statistics.
        for name in serial.names() {
            assert_eq!(
                serial.column(name),
                parallel.column(name),
                "{name} differs at {threads} threads"
            );
            assert_eq!(
                serial.peak_summary(name),
                parallel.peak_summary(name),
                "peaks differ at {threads} threads"
            );
        }
        assert!(serial.peak_summary("v").is_some());
    }
}

#[test]
fn reproducible_with_same_seed() {
    let ckt = nanosim::workloads::noisy_rc_node_fig10();
    let opts = EmOptions {
        dt: 5e-12,
        paths: 10,
        seed: 123,
        ..EmOptions::default()
    };
    let a = EmEngine::new(opts.clone()).run(&ckt, 1e-9).unwrap();
    let b = EmEngine::new(opts).run(&ckt, 1e-9).unwrap();
    assert_eq!(a.column("v").unwrap(), b.column("v").unwrap());
    assert_eq!(a.column("std(v)").unwrap(), b.column("std(v)").unwrap());
    assert_eq!(a.peak_summary("v"), b.peak_summary("v"));
}

/// Two coupled RC nodes with a noise drive; the coupling capacitor makes
/// `C` non-diagonal so factoring each path's `C` does real elimination.
fn coupled_rc_pair() -> Circuit {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.add_current_source(
        "In",
        Circuit::GROUND,
        a,
        SourceWaveform::white_noise(1e-3, 1e-9).unwrap(),
    )
    .unwrap();
    ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
    ckt.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
    ckt.add_capacitor("C1", a, Circuit::GROUND, 1e-12).unwrap();
    ckt.add_capacitor("C2", b, Circuit::GROUND, 1e-12).unwrap();
    ckt.add_capacitor("Cc", a, b, 2e-13).unwrap();
    ckt
}

/// FNV-1a over a session EM dataset: the time axis, then every column in
/// name order (means, then `std(..)` envelopes), each node's column
/// followed by its running-maximum summary and the exceedance of its mean
/// peak.
fn dataset_digest(ds: &Dataset) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |xs: &[f64]| {
        for x in xs {
            for byte in x.to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    };
    eat(ds.axis_values());
    for name in ds.names() {
        eat(ds.column(name).unwrap());
        // Only node columns carry per-path maxima; `std(..)` columns do not.
        if let Some(peak) = ds.peak_summary(name) {
            eat(&[peak.mean_peak, peak.p95_peak, peak.worst_peak]);
            eat(&[ds.exceedance(name, peak.mean_peak).unwrap()]);
        }
    }
    h
}

/// The spread ensemble as the session returns it is pinned bit for bit:
/// the same 21 paths x 100 steps with 5 % spread, through
/// `Simulator::run` serially and sharded over two workers.
#[test]
fn param_spread_session_dataset_digest_is_pinned() {
    const PINNED: u64 = 0x88e4_7f3e_0b12_8031;
    let mut sim = Simulator::new(coupled_rc_pair()).unwrap();
    for plan in [ExecPlan::Serial, ExecPlan::sharded(2)] {
        let ds = sim
            .run(
                Analysis::em_ensemble(1e-10)
                    .options(EmOptions {
                        dt: 1e-12,
                        paths: 21,
                        seed: 0x5EED_0005,
                        param_spread: 0.05,
                        ..EmOptions::default()
                    })
                    .plan(plan),
            )
            .unwrap();
        assert_eq!(ds.stats.batched_factors, 3);
        assert_eq!(ds.paths(), 21);
        let digest = dataset_digest(&ds);
        assert_eq!(
            digest, PINNED,
            "spread session dataset digest {digest:#018x} under {plan:?}"
        );
    }
}

/// EM ensembles with per-path parameter spread factor each chunk's `C`
/// matrices once and reuse them for every step: at least 1.3× fewer
/// factor flops per path than a shared solver re-refactoring at every
/// path switch, i.e. `steps × R` per path.
#[test]
fn em_param_spread_factor_flops_beat_path_switch_refactoring() {
    let ckt = coupled_rc_pair();
    let dt = 1e-12;
    let horizon = 1e-10; // 100 steps
    let paths = 16usize; // 2 chunks of PATH_CHUNK = 8
    let engine = EmEngine::new(EmOptions {
        dt,
        paths,
        seed: 11,
        threads: 1,
        param_spread: 0.05,
    });
    let result = engine.run(&ckt, horizon).unwrap();
    let steps = (horizon / dt).round() as u64;
    assert_eq!(result.stats.batched_factors, 2);
    let per_path_chunked = result.stats.factor_flops as f64 / paths as f64;

    // Naive baseline: the same C pattern (node caps + coupling, MNA
    // stamping), refactored once per path switch per step.
    let c_mat = CsrMatrix::from_triplets(
        2,
        2,
        &[
            (0, 0, 1e-12 + 2e-13),
            (1, 1, 1e-12 + 2e-13),
            (0, 1, -2e-13),
            (1, 0, -2e-13),
        ],
    );
    let mut lu = SparseLu::factor(&c_mat, &mut FlopCounter::new()).unwrap();
    let mut refac_flops = FlopCounter::new();
    lu.refactor(&c_mat, &mut refac_flops).unwrap();
    let per_path_naive = (steps * refac_flops.total()) as f64;

    let ratio = per_path_naive / per_path_chunked;
    assert!(
        ratio >= 1.3,
        "chunked {per_path_chunked} vs per-switch {per_path_naive} flops/path ({ratio:.2}x)"
    );
}

/// The bitwise dataset digest of an EM run next to its exact work counts.
/// A change to the stepping kernel that keeps every result bit must keep
/// every one of these fields too.
#[derive(Debug, PartialEq)]
struct EmPin {
    digest: u64,
    /// Flops by kind: adds, muls, divs, funcs.
    flops: [u64; 4],
    linear_solves: u64,
    device_evals: u64,
    steps: usize,
    batched_factors: u64,
}

fn em_pin(ds: &Dataset) -> EmPin {
    let f = &ds.stats.flops;
    EmPin {
        digest: dataset_digest(ds),
        flops: [f.adds(), f.muls(), f.divs(), f.funcs()],
        linear_solves: ds.stats.linear_solves,
        device_evals: ds.stats.device_evals,
        steps: ds.stats.steps,
        batched_factors: ds.stats.batched_factors,
    }
}

/// Runs the ensemble through a session serially and over two workers and
/// asserts both match `want`.
fn assert_ensemble_pin(ckt: Circuit, horizon: f64, opts: EmOptions, want: &EmPin) {
    let mut sim = Simulator::new(ckt).unwrap();
    for plan in [ExecPlan::Serial, ExecPlan::sharded(2)] {
        let ds = sim
            .run(
                Analysis::em_ensemble(horizon)
                    .options(opts.clone())
                    .plan(plan),
            )
            .unwrap();
        assert_eq!(ds.paths(), opts.paths);
        let got = em_pin(&ds);
        assert_eq!(&got, want, "under {plan:?}: {got:#x?}");
    }
}

/// Nominal parameters: the shared factorization of `C` and one batched
/// solve per step. 21 paths leave the last chunk partial.
#[test]
fn nominal_shared_factor_ensemble_is_pinned() {
    let opts = EmOptions {
        dt: 1e-12,
        paths: 21,
        seed: 0x5EED_0021,
        ..EmOptions::default()
    };
    let want = EmPin {
        digest: 0x5cea_6caa_3b20_bf0b,
        flops: [18_901, 14_701, 4_201, 0],
        linear_solves: 2_100,
        device_evals: 0,
        steps: 2_100,
        batched_factors: 0,
    };
    assert_ensemble_pin(coupled_rc_pair(), 1e-10, opts, &want);
}

/// A noisy node loaded by an RTD and a MOSFET whose gate sits on a second
/// noisy node: `G` is restamped per path at every step. Pinned with nominal
/// parameters and with 5 % spread.
fn rtd_mosfet_node() -> Circuit {
    let mut ckt = Circuit::new();
    let v = ckt.node("v");
    let g = ckt.node("g");
    ckt.add_current_source(
        "In",
        Circuit::GROUND,
        v,
        SourceWaveform::white_noise(8e-3, 1e-9).unwrap(),
    )
    .unwrap();
    ckt.add_rtd("X1", v, Circuit::GROUND, Rtd::date2005())
        .unwrap();
    ckt.add_resistor("R1", v, Circuit::GROUND, 1e3).unwrap();
    ckt.add_capacitor("C1", v, Circuit::GROUND, 1e-12).unwrap();
    ckt.add_current_source(
        "Ig",
        Circuit::GROUND,
        g,
        SourceWaveform::white_noise(2e-3, 1e-9).unwrap(),
    )
    .unwrap();
    ckt.add_resistor("Rg", g, Circuit::GROUND, 1e3).unwrap();
    ckt.add_capacitor("Cg", g, Circuit::GROUND, 1e-12).unwrap();
    ckt.add_mosfet("M1", v, g, Circuit::GROUND, Mosfet::nmos())
        .unwrap();
    ckt
}

#[test]
fn nonlinear_ensemble_is_pinned() {
    let cases = [
        (
            0.0,
            EmPin {
                digest: 0xe38f_bb39_c2c5_9324,
                flops: [42_000, 33_768, 10_479, 8_442],
                linear_solves: 2_100,
                device_evals: 4_200,
                steps: 2_100,
                batched_factors: 0,
            },
        ),
        (
            0.05,
            EmPin {
                digest: 0x375e_7a91_4480_cd56,
                flops: [42_000, 37_968, 10_479, 8_442],
                linear_solves: 2_100,
                device_evals: 4_200,
                steps: 2_100,
                batched_factors: 3,
            },
        ),
    ];
    for (param_spread, want) in &cases {
        let opts = EmOptions {
            dt: 2e-12,
            paths: 21,
            seed: 0x5EED_00A7,
            param_spread: *param_spread,
            ..EmOptions::default()
        };
        assert_ensemble_pin(rtd_mosfet_node(), 2e-10, opts, want);
    }
}

/// `em_spread_mesh8`'s shape at 4×4: at every node 1 kΩ and 1 pF to ground
/// and the Fig 10 noise drive, 1 kΩ between grid neighbours.
fn noisy_rc_mesh(n: usize) -> Circuit {
    let mut ckt = Circuit::new();
    let nodes: Vec<Vec<_>> = (0..n)
        .map(|r| (0..n).map(|c| ckt.node(&format!("n{r}_{c}"))).collect())
        .collect();
    for r in 0..n {
        for c in 0..n {
            let v = nodes[r][c];
            let noise = SourceWaveform::white_noise(0.85e-3, 2.2e-9).unwrap();
            ckt.add_current_source(&format!("I{r}_{c}"), Circuit::GROUND, v, noise)
                .unwrap();
            ckt.add_resistor(&format!("Rg{r}_{c}"), v, Circuit::GROUND, 1e3)
                .unwrap();
            ckt.add_capacitor(&format!("C{r}_{c}"), v, Circuit::GROUND, 1e-12)
                .unwrap();
            if c + 1 < n {
                ckt.add_resistor(&format!("Rh{r}_{c}"), v, nodes[r][c + 1], 1e3)
                    .unwrap();
            }
            if r + 1 < n {
                ckt.add_resistor(&format!("Rv{r}_{c}"), v, nodes[r + 1][c], 1e3)
                    .unwrap();
            }
        }
    }
    ckt
}

#[test]
fn spread_rc_mesh_ensemble_is_pinned() {
    let opts = EmOptions {
        dt: 1e-11,
        paths: 20,
        seed: 0x5EED_0044,
        param_spread: 0.05,
        ..EmOptions::default()
    };
    let want = EmPin {
        digest: 0xd49b_4771_7258_5b1f,
        flops: [224_000, 224_000, 32_000, 0],
        linear_solves: 2_000,
        device_evals: 0,
        steps: 2_000,
        batched_factors: 3,
    };
    assert_ensemble_pin(noisy_rc_mesh(4), 1e-9, opts, &want);
}

/// One realization along caller-provided Wiener paths, one per noise
/// source of the RTD/MOSFET circuit.
#[test]
fn run_with_paths_realization_is_pinned() {
    let mut rng = Pcg64::seed_from_u64(0x5EED_0001);
    let wieners: Vec<WienerPath> = (0..2)
        .map(|_| WienerPath::generate(2e-10, 100, &mut rng))
        .collect();
    let ds = EmEngine::new(EmOptions::default())
        .run_with_paths(&rtd_mosfet_node(), &wieners)
        .unwrap();
    let want = EmPin {
        digest: 0x5585_4f9c_0f34_5a33,
        flops: [2_000, 1_608, 499, 402],
        linear_solves: 100,
        device_evals: 200,
        steps: 100,
        batched_factors: 0,
    };
    let got = em_pin(&ds);
    assert_eq!(got, want, "{got:#x?}");
}
