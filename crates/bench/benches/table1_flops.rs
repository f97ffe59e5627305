//! Table I timing companion: wall-clock of the DC sweeps whose FLOP counts
//! `report_table1` prints (SWEC vs MLA on the RTD divider).

use criterion::{criterion_group, criterion_main, Criterion};
use nanosim::core::mla::MlaEngine;
use nanosim::core::swec::SwecDcSweep;
use nanosim::prelude::*;
use nanosim_bench::{mla_options, swec_options};
use std::hint::black_box;

fn bench_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_dc");
    group.sample_size(20);
    let ckt = nanosim::workloads::rtd_divider(50.0);
    group.bench_function("swec_rtd_divider", |b| {
        b.iter(|| {
            SwecDcSweep::new(swec_options())
                .run(black_box(&ckt), "V1", 0.0, 5.0, 0.05)
                .expect("sweep runs")
        })
    });
    group.bench_function("mla_rtd_divider", |b| {
        b.iter(|| {
            MlaEngine::new(mla_options())
                .run_dc_sweep(black_box(&ckt), "V1", 0.0, 5.0, 0.05)
                .expect("sweep runs")
        })
    });
    let chain = nanosim::workloads::rtd_chain(4);
    group.bench_function("swec_rtd_chain4", |b| {
        b.iter(|| {
            SwecDcSweep::new(swec_options())
                .run(black_box(&chain), "V1", 0.0, 5.0, 0.05)
                .expect("sweep runs")
        })
    });
    group.finish();
}

/// Refactor-vs-factor variant on the Table I mesh matrix: the values-only
/// refactorization that the sweep's inner loop performs after its first
/// solve, against the full symbolic + numeric factorization.
fn bench_table1_refactor(c: &mut Criterion) {
    use nanosim_numeric::sparse::SparseLu;
    let mut group = c.benchmark_group("table1_refactor");
    group.sample_size(30);
    let mesh = nanosim::workloads::rtd_mesh(8);
    let mna = MnaSystem::new(&mesh).expect("mesh assembles");
    let mut flops = FlopCounter::new();
    let assemble = |bias: f64, flops: &mut FlopCounter| {
        let mut g = mna.linear_g().clone();
        for b in mna.nonlinear_bindings() {
            let geq = b.device.equivalent_conductance(bias, flops) + 1e-12;
            MnaSystem::stamp_conductance(&mut g, b.var_plus, b.var_minus, geq);
        }
        g.to_csr()
    };
    let a1 = assemble(0.7, &mut flops);
    let a2 = assemble(1.2, &mut flops);
    group.bench_function("mesh8_full_factor", |b| {
        b.iter(|| SparseLu::factor(black_box(&a1), &mut FlopCounter::new()).expect("factors"))
    });
    group.bench_function("mesh8_refactor", |b| {
        let mut lu = SparseLu::factor(&a1, &mut FlopCounter::new()).expect("factors");
        let mut which = false;
        b.iter(|| {
            which = !which;
            let a = if which { &a2 } else { &a1 };
            lu.refactor(black_box(a), &mut FlopCounter::new())
                .expect("same pattern")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_table1, bench_table1_refactor);
criterion_main!(benches);
