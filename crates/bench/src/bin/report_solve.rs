//! Triangular-solve kernel report: scalar reference vs blocked
//! (supernodal-panel) `solve_into`, batched `solve_many_into` vs `k`
//! independent solves, and the scalar-vs-blocked refactor, on the Table I
//! RTD mesh family under every fill ordering.
//!
//! Run with `cargo run --release -p nanosim-bench --bin report_solve`.
//!
//! The blocked path's single-RHS win concentrates where the factor
//! carries wide low-padding supernodes (the banded natural/RCM factors);
//! AMD mesh factors — already ~50% smaller thanks to supervariable mass
//! elimination — stay near parity on one right-hand side and win through
//! the blocked refactor and the batched multi-RHS path instead.

use nanosim::prelude::*;
use nanosim_numeric::solve::{LinearSolver, SparseLuSolver};
use nanosim_numeric::sparse::{OrderingChoice, PivotStrategy, SparseLu};
use std::hint::black_box;
use std::time::Instant;

fn time<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    // One warm-up pass, then the best of three measured passes (seconds
    // per rep) to damp scheduler noise on shared hosts.
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

const K: usize = 8;

fn main() {
    println!("triangular-solve kernel report (RTD mesh family, k = {K} batched RHS)");
    println!(
        "{:>7} {:>8} {:>7} {:>9} {:>10} {:>10} {:>8} {:>8} {:>10} {:>10} {:>8} {:>9}",
        "mesh",
        "ordering",
        "nnz_lu",
        "sn(cols)",
        "scalar_us",
        "blocked_us",
        "speedup",
        "slv64_us",
        "singles_us",
        "batched_us",
        "speedup",
        "refac_spd"
    );
    for n in [10usize, 20, 40] {
        let a = nanosim_bench::table1_mesh_matrix(n, 0.8);
        let dim = a.rows();
        let reps = if n >= 40 { 200 } else { 1000 };
        for ordering in [
            OrderingChoice::Natural,
            OrderingChoice::Rcm,
            OrderingChoice::Amd,
        ] {
            let mut lu = SparseLu::factor_ordered(
                &a,
                ordering,
                PivotStrategy::default(),
                &mut FlopCounter::new(),
            )
            .expect("factors");
            // Force the panel kernels on so the blocked columns always
            // measure them; the `gate` column says whether production
            // routes this factor through them by default (factors under
            // 512 unknowns keep the scalar hot path).
            let default_gate = lu.blocked_kernels();
            lu.set_blocked_kernels(true);
            let b: Vec<f64> = (0..dim).map(|i| (i as f64 * 0.37).sin()).collect();
            let bk: Vec<f64> = (0..dim * K).map(|i| (i as f64 * 0.11).cos()).collect();
            let (mut x, mut w) = (Vec::new(), Vec::new());
            let mut flops = FlopCounter::new();

            let t_scalar = time(reps, || {
                lu.solve_into_scalar(black_box(&b), &mut x, &mut w, &mut flops)
                    .unwrap();
            });
            let t_blocked = time(reps, || {
                lu.solve_into(black_box(&b), &mut x, &mut w, &mut flops)
                    .unwrap();
            });
            let t_singles = time(reps, || {
                for j in 0..K {
                    lu.solve_into(
                        black_box(&bk[j * dim..(j + 1) * dim]),
                        &mut x,
                        &mut w,
                        &mut flops,
                    )
                    .unwrap();
                }
            });
            let t_batched = time(reps, || {
                lu.solve_many_into(black_box(&bk), K, &mut x, &mut w, &mut flops)
                    .unwrap();
            });

            // Solver-level row: includes the per-call tolerant refactor
            // every engine solve pays.
            let mut slv64 = SparseLuSolver::with_ordering(ordering);
            let mut x64 = Vec::new();
            let t_slv64 = time(reps, || {
                slv64
                    .solve_into(black_box(&a), &b, &mut x64, &mut flops)
                    .unwrap();
            });
            let mut a2 = a.clone();
            for (i, v) in a2.values_mut().iter_mut().enumerate() {
                *v *= 1.0 + 1e-4 * ((i % 7) as f64);
            }
            let mut lu_b = lu.clone();
            let mut lu_s = lu.clone();
            let t_ref_blocked = time(reps, || {
                lu_b.refactor(black_box(&a2), &mut flops).unwrap();
            });
            let t_ref_scalar = time(reps, || {
                lu_s.refactor_scalar(black_box(&a2), &mut flops).unwrap();
            });

            println!(
                "{:>5}x{:<2} {:>8} {:>7} {:>4}({:>4}) {:>10.2} {:>10.2} {:>7.2}x {:>8.2} {:>10.2} {:>10.2} {:>7.2}x {:>8.2}x  {}",
                n,
                n,
                lu.ordering_name(),
                lu.nnz(),
                lu.supernode_count(),
                lu.supernode_cols(),
                t_scalar * 1e6,
                t_blocked * 1e6,
                t_scalar / t_blocked,
                t_slv64 * 1e6,
                t_singles * 1e6,
                t_batched * 1e6,
                t_singles / t_batched,
                t_ref_scalar / t_ref_blocked,
                if default_gate { "gate:blocked" } else { "gate:scalar" },
            );
        }
    }
}
