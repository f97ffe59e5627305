//! Figure 8 timing companion: the FET-RTD inverter transient under the
//! SWEC, Newton and PWL engines (shortened window to keep iterations
//! tractable for criterion).

use criterion::{criterion_group, criterion_main, Criterion};
use nanosim::core::pwl::PwlEngine;
use nanosim::core::swec::SwecTransient;
use nanosim::prelude::*;
use nanosim_bench::{spice3_options, swec_options};
use std::hint::black_box;

fn bench_inverter(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_inverter");
    group.sample_size(10);
    let ckt = nanosim::workloads::fet_rtd_inverter();
    let (tstep, tstop) = (0.2e-9, 20e-9);
    group.bench_function("swec", |b| {
        b.iter(|| {
            SwecTransient::new(swec_options())
                .run(black_box(&ckt), tstep, tstop)
                .expect("runs")
        })
    });
    group.bench_function("nr_spice3", |b| {
        b.iter(|| {
            NrEngine::new(spice3_options())
                .run_transient(black_box(&ckt), tstep, tstop)
                .expect("runs")
        })
    });
    group.bench_function("pwl_aces", |b| {
        b.iter(|| {
            PwlEngine::new()
                .run_transient(black_box(&ckt), tstep, tstop)
                .expect("runs")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_inverter);
criterion_main!(benches);
