//! Solver-core benches for the hot-path overhaul: KLU-style refactor vs
//! full factorization on the Table I RTD mesh matrix, the allocation-free
//! `solve_into` path, and Monte-Carlo ensemble thread scaling.

use criterion::{criterion_group, criterion_main, Criterion};
use nanosim::core::em::EmEngine;
use nanosim::core::swec::SwecDcSweep;
use nanosim::prelude::*;
use nanosim_numeric::sparse::SparseLu;
use std::hint::black_box;

fn bench_refactor(c: &mut Criterion) {
    let mut group = c.benchmark_group("lu_refactor");
    group.sample_size(30);
    // Table I mesh: 10x10 grid = 101 MNA variables, 100 RTDs.
    let a1 = nanosim_bench::table1_mesh_matrix(10, 0.8);
    let a2 = nanosim_bench::table1_mesh_matrix(10, 1.1); // same pattern, step-updated conductances
    let b: Vec<f64> = (0..a1.rows()).map(|i| (i as f64 * 0.37).sin()).collect();

    group.bench_function("full_factor_mesh10", |bch| {
        bch.iter(|| SparseLu::factor(black_box(&a1), &mut FlopCounter::new()).expect("factors"))
    });
    group.bench_function("refactor_mesh10", |bch| {
        let mut lu = SparseLu::factor(&a1, &mut FlopCounter::new()).expect("factors");
        let mut which = false;
        bch.iter(|| {
            which = !which;
            let a = if which { &a2 } else { &a1 };
            lu.refactor(black_box(a), &mut FlopCounter::new())
                .expect("same pattern");
        })
    });
    group.bench_function("solve_into_mesh10", |bch| {
        let lu = SparseLu::factor(&a1, &mut FlopCounter::new()).expect("factors");
        let mut x = Vec::new();
        let mut work = Vec::new();
        bch.iter(|| {
            lu.solve_into(black_box(&b), &mut x, &mut work, &mut FlopCounter::new())
                .expect("solves")
        })
    });
    group.bench_function("caching_solver_mesh10", |bch| {
        // The caching-solver view: alternating same-pattern matrices go
        // through refactor after the first call.
        let mut solver = nanosim_numeric::solve::SparseLuSolver::new();
        let mut x = Vec::new();
        let mut which = false;
        bch.iter(|| {
            which = !which;
            let a = if which { &a2 } else { &a1 };
            solver
                .solve_into(black_box(a), &b, &mut x, &mut FlopCounter::new())
                .expect("solves");
        })
    });
    group.finish();
}

fn bench_engine_refactor_win(c: &mut Criterion) {
    // Whole-engine effect on the Table I mesh DC sweep: every solve after
    // the first reuses the symbolic analysis (see stats.refactors).
    let mut group = c.benchmark_group("engine_refactor");
    group.sample_size(10);
    let mesh = nanosim::workloads::rtd_mesh(6);
    group.bench_function("swec_dc_mesh6", |b| {
        b.iter(|| {
            SwecDcSweep::new(SwecOptions::default())
                .run(black_box(&mesh), "V1", 0.0, 3.0, 0.1)
                .expect("sweep runs")
        })
    });
    let r = SwecDcSweep::new(SwecOptions::default())
        .run(&mesh, "V1", 0.0, 3.0, 0.1)
        .expect("sweep runs");
    println!(
        "  swec_dc_mesh6 solver mix: {} full factorizations, {} refactorizations",
        r.stats.full_factors, r.stats.refactors
    );
    group.finish();
}

fn bench_em_thread_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("em_thread_scaling");
    group.sample_size(10);
    let ckt = nanosim::workloads::noisy_rc_node_fig10();
    for threads in [1usize, 2, 4, 8] {
        let engine = EmEngine::new(EmOptions {
            dt: 2e-12,
            paths: 256,
            seed: 7,
            threads,
            ..EmOptions::default()
        });
        group.bench_function(&format!("ensemble_256x500_t{threads}"), |b| {
            b.iter(|| engine.run(black_box(&ckt), 1e-9).expect("runs"))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_refactor,
    bench_engine_refactor_win,
    bench_em_thread_scaling
);
criterion_main!(benches);
