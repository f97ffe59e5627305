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
    const PINNED: u64 = 0xb68b_2b50_efdf_ecc2;
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
        digest: 0x2402_20d0_4950_e6c3,
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
                digest: 0xa9b3_e2af_2497_65c6,
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
                digest: 0x2eef_1b5b_ceec_a209,
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
        digest: 0xb656_8b03_551c_c1f3,
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
        digest: 0xcbd9_afc1_fc40_1c89,
        flops: [2_000, 1_608, 499, 402],
        linear_solves: 100,
        device_evals: 200,
        steps: 100,
        batched_factors: 0,
    };
    let got = em_pin(&ds);
    assert_eq!(got, want, "{got:#x?}");
}

// Ensemble-statistics oracle: the sampler against N(0, 1), and EM
// ensembles against the exact moments of the discrete scheme they run.
// Seeds and bounds are fixed; every bound is five standard errors.

/// `Pcg64::next_gaussian`, the source of every EM noise increment, against
/// the standard normal: 4 × 10⁶ draws checked on their first four moments,
/// a χ² over 80 bins of width 0.1 on [−4, 4] plus both tails, the two
/// tail masses beyond 3.4426 (the ziggurat's base-strip edge) and 4, and
/// the lag-1 correlation.
#[test]
fn oracle_gaussian_sampler_matches_standard_normal() {
    use nanosim::sde::gbm::normal_cdf;
    const N: usize = 4_000_000;
    const R: f64 = 3.442_619_855_899;
    let n = N as f64;
    let mut rng = Pcg64::seed_from_u64(0x0AC1_E5A3);
    // Raw power sums z, z², z³, z⁴ and Σ z_k·z_{k+1}.
    let (mut s1, mut s2, mut s3, mut s4, mut lag) = (0.0, 0.0, 0.0, 0.0, 0.0);
    // Bin 0 is (−∞, −4), bins 1..=80 tile [−4, 4), bin 81 is [4, ∞).
    let mut bins = [0u64; 82];
    let (mut beyond_r, mut beyond_4) = (0u64, 0u64);
    let mut prev = 0.0;
    for k in 0..N {
        let z = rng.next_gaussian();
        let z2 = z * z;
        s1 += z;
        s2 += z2;
        s3 += z2 * z;
        s4 += z2 * z2;
        if k > 0 {
            lag += prev * z;
        }
        prev = z;
        let bin = if z < -4.0 {
            0
        } else if z >= 4.0 {
            81
        } else {
            1 + (((z + 4.0) * 10.0).floor() as usize).min(79)
        };
        bins[bin] += 1;
        beyond_r += u64::from(z.abs() > R);
        beyond_4 += u64::from(z.abs() > 4.0);
    }

    let mean = s1 / n;
    let m2 = s2 / n - mean * mean;
    let m3 = s3 / n - 3.0 * mean * s2 / n + 2.0 * mean.powi(3);
    let m4 = s4 / n - 4.0 * mean * s3 / n + 6.0 * mean * mean * s2 / n - 3.0 * mean.powi(4);
    let lag1 = (lag / (n - 1.0) - mean * mean) / m2;
    let tail = |x: f64| 2.0 * (1.0 - normal_cdf(x));
    let binomial_z = |count: u64, p: f64| (count as f64 - n * p) / (n * p * (1.0 - p)).sqrt();
    // (check, z-score): each statistic over its standard error.
    let checks = [
        ("mean", mean / (1.0 / n).sqrt()),
        ("variance", (m2 - 1.0) / (2.0 / n).sqrt()),
        ("skewness", m3 / m2.powf(1.5) / (6.0 / n).sqrt()),
        (
            "excess kurtosis",
            (m4 / (m2 * m2) - 3.0) / (24.0 / n).sqrt(),
        ),
        ("P(|z| > R)", binomial_z(beyond_r, tail(R))),
        ("P(|z| > 4)", binomial_z(beyond_4, tail(4.0))),
        ("lag-1 correlation", lag1 * n.sqrt()),
    ];
    for (what, z) in checks {
        assert!(z.abs() <= 5.0, "{what}: {z:.2} standard errors");
    }

    let edges: Vec<f64> = (0..=80).map(|j| -4.0 + 0.1 * j as f64).collect();
    let chi2: f64 = bins
        .iter()
        .enumerate()
        .map(|(j, &count)| {
            let lo = if j == 0 {
                0.0
            } else {
                normal_cdf(edges[j - 1])
            };
            let hi = if j == 81 { 1.0 } else { normal_cdf(edges[j]) };
            let expected = n * (hi - lo);
            (count as f64 - expected).powi(2) / expected
        })
        .sum();
    // 82 cells with the total fixed: 81 degrees of freedom, mean 81 and
    // standard deviation √162.
    let dof = (bins.len() - 1) as f64;
    let chi2_z = (chi2 - dof) / (2.0 * dof).sqrt();
    assert!(
        chi2_z.abs() <= 5.0,
        "χ² {chi2:.1} on {dof} dof ({chi2_z:.2} σ)"
    );
    let worst = checks
        .iter()
        .map(|c| c.1.abs())
        .fold(chi2_z.abs(), f64::max);
    println!("sampler oracle: worst |z| {worst:.2}, χ² {chi2:.1} on {dof} dof");
}

/// A linear state-space circuit `C·dx = (b − G·x)·dt + B·dW`, written down
/// from its element values. Capacitance only runs to ground, so `C` is the
/// diagonal `c`.
struct LinearSde {
    g: Vec<Vec<f64>>,
    c: Vec<f64>,
    /// `B`, one row per node, one column per noise source.
    noise: Vec<Vec<f64>>,
    b: Vec<f64>,
}

impl LinearSde {
    /// Exact per-node mean and variance after every step `0..=steps` of the
    /// Euler–Maruyama scheme the engine runs from `x = 0`,
    /// `x_{k+1} = x_k + C⁻¹·[(b − G·x_k)·Δt + B·ΔW_k]` with
    /// `ΔW_k ~ N(0, Δt·I)`: `m_{k+1} = M·m_k + Δt·C⁻¹b` and
    /// `P_{k+1} = M·P_k·Mᵀ + Δt·C⁻¹BBᵀC⁻ᵀ`, `M = I − Δt·C⁻¹G`. The
    /// covariance runs densely, so the reference carries no discretisation
    /// bias of its own.
    fn em_moments(&self, dt: f64, steps: usize) -> Vec<(Vec<f64>, Vec<f64>)> {
        let n = self.c.len();
        let m_mat: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| f64::from(u8::from(i == j)) - dt * self.g[i][j] / self.c[i])
                    .collect()
            })
            .collect();
        let q: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        let bb: f64 = self.noise[i]
                            .iter()
                            .zip(&self.noise[j])
                            .map(|(a, b)| a * b)
                            .sum();
                        dt * bb / (self.c[i] * self.c[j])
                    })
                    .collect()
            })
            .collect();
        let mut m = vec![0.0; n];
        let mut p = vec![vec![0.0; n]; n];
        let mut out = vec![(m.clone(), vec![0.0; n])];
        for _ in 0..steps {
            m = (0..n)
                .map(|i| {
                    let mm: f64 = m_mat[i].iter().zip(&m).map(|(a, x)| a * x).sum();
                    mm + dt * self.b[i] / self.c[i]
                })
                .collect();
            // M·P, then (M·P)·Mᵀ + Q.
            let mp: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    (0..n)
                        .map(|j| (0..n).map(|k| m_mat[i][k] * p[k][j]).sum())
                        .collect()
                })
                .collect();
            p = (0..n)
                .map(|i| {
                    (0..n)
                        .map(|j| {
                            let mpm: f64 = mp[i].iter().zip(&m_mat[j]).map(|(a, b)| a * b).sum();
                            mpm + q[i][j]
                        })
                        .collect()
                })
                .collect();
            out.push((m.clone(), (0..n).map(|i| p[i][i]).collect()));
        }
        out
    }
}

/// Checks an EM ensemble of `paths` paths against `exact` at ¼, ½ and 1 of
/// its `steps`, at every node of `nodes` (in the order of `exact`'s
/// entries): `|mean − m| ≤ 5·√(P_ii/N)` and
/// `|std² / P_ii − 1| ≤ 5·√(2/(N−1))`. Returns the worst mean z-score and
/// the range of `std² / P_ii`.
fn check_exact_moments(
    ds: &Dataset,
    nodes: &[String],
    exact: &[(Vec<f64>, Vec<f64>)],
    paths: usize,
) -> (f64, f64, f64) {
    let steps = exact.len() - 1;
    assert_eq!(ds.axis_values().len(), steps + 1);
    assert_eq!(ds.paths(), paths);
    let n = paths as f64;
    let ratio_bound = 5.0 * (2.0 / (n - 1.0)).sqrt();
    let (mut worst_z, mut lo, mut hi) = (0.0f64, f64::INFINITY, f64::NEG_INFINITY);
    for k in [steps / 4, steps / 2, steps] {
        let (m, p) = &exact[k];
        for (i, node) in nodes.iter().enumerate() {
            let mean = ds.column(node).unwrap()[k];
            let sd = ds.column(&format!("std({node})")).unwrap()[k];
            let z = (mean - m[i]) / (p[i] / n).sqrt();
            let ratio = sd * sd / p[i];
            assert!(
                z.abs() <= 5.0,
                "{node} at step {k}: mean {mean} vs exact {} ({z:.2} σ)",
                m[i]
            );
            assert!(
                (ratio - 1.0).abs() <= ratio_bound,
                "{node} at step {k}: std²/P {ratio:.4}, bound 1 ± {ratio_bound:.4}"
            );
            worst_z = worst_z.max(z.abs());
            lo = lo.min(ratio);
            hi = hi.max(ratio);
        }
    }
    (worst_z, lo, hi)
}

/// The RC node with a DC drive: 20 000 paths of 200 steps against the
/// exact moments of its EM recursion.
#[test]
fn oracle_em_rc_node_matches_exact_discrete_moments() {
    let (i_dc, i_noise, dt, steps, paths) = (0.5e-3, 2e-9, 1e-11, 200, 20_000);
    let ckt = nanosim::workloads::noisy_rc_node(G, C, i_dc, i_noise);
    let ds = EmEngine::new(EmOptions {
        dt,
        paths,
        seed: 0x0AC1_E001,
        ..EmOptions::default()
    })
    .run(&ckt, steps as f64 * dt)
    .unwrap();
    let sde = LinearSde {
        g: vec![vec![G]],
        c: vec![C],
        noise: vec![vec![i_noise]],
        b: vec![i_dc],
    };
    let exact = sde.em_moments(dt, steps);
    let (z, lo, hi) = check_exact_moments(&ds, &["v".to_string()], &exact, paths);
    println!("rc node oracle: worst mean |z| {z:.2}, std²/P in [{lo:.4}, {hi:.4}]");
}

/// The 8×8 RC mesh of `em_spread_mesh8` at nominal parameters: 1 024
/// paths of 100 steps of 10 ps against the exact moments at all 64 nodes.
#[test]
fn oracle_em_rc_mesh8_matches_exact_discrete_moments() {
    const N: usize = 8;
    let (g, c, i_dc, i_noise) = (1e-3, 1e-12, 0.85e-3, 2.2e-9);
    let (dt, steps, paths) = (1e-11, 100, 1_024);
    let ds = EmEngine::new(EmOptions {
        dt,
        paths,
        seed: 0x0AC1_E008,
        ..EmOptions::default()
    })
    .run(&noisy_rc_mesh(N), steps as f64 * dt)
    .unwrap();
    // Node `r * N + c` is `n{r}_{c}`: 1 kΩ to ground and to each grid
    // neighbour, 1 pF to ground, and its own noise source.
    let dim = N * N;
    let mut gm = vec![vec![0.0; dim]; dim];
    let mut noise = vec![vec![0.0; dim]; dim];
    for r in 0..N {
        for col in 0..N {
            let i = r * N + col;
            gm[i][i] += g;
            noise[i][i] = i_noise;
            let right = (col + 1 < N).then_some(i + 1);
            let down = (r + 1 < N).then_some(i + N);
            for j in [right, down].into_iter().flatten() {
                gm[i][i] += g;
                gm[j][j] += g;
                gm[i][j] -= g;
                gm[j][i] -= g;
            }
        }
    }
    let sde = LinearSde {
        g: gm,
        c: vec![c; dim],
        noise,
        b: vec![i_dc; dim],
    };
    let exact = sde.em_moments(dt, steps);
    let nodes: Vec<String> = (0..dim).map(|i| format!("n{}_{}", i / N, i % N)).collect();
    let (z, lo, hi) = check_exact_moments(&ds, &nodes, &exact, paths);
    println!("rc mesh8 oracle: worst mean |z| {z:.2}, std²/P in [{lo:.4}, {hi:.4}]");
}
