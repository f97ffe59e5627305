//! Figure 1 timing companion: cost of evaluating the RTT and nanowire
//! models (current + differential conductance), the inner loop of every
//! engine.

use criterion::{criterion_group, criterion_main, Criterion};
use nanosim::prelude::*;
use std::hint::black_box;

fn bench_devices(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig1_devices");
    let rtt = Rtt::three_peak();
    let wire = Nanowire::metallic_cnt();
    let rtd = Rtd::date2005();
    group.bench_function("rtt_current", |b| {
        let mut flops = FlopCounter::new();
        b.iter(|| rtt.current(black_box(2.3), &mut flops))
    });
    group.bench_function("nanowire_conductance", |b| {
        let mut flops = FlopCounter::new();
        b.iter(|| wire.differential_conductance(black_box(1.3), &mut flops))
    });
    group.bench_function("rtd_current", |b| {
        let mut flops = FlopCounter::new();
        b.iter(|| rtd.current(black_box(3.1), &mut flops))
    });
    group.bench_function("rtd_geq_with_taylor_term", |b| {
        let mut flops = FlopCounter::new();
        b.iter(|| rtd.equivalent_conductance_and_slope(black_box(3.1), &mut flops))
    });
    group.finish();
}

criterion_group!(benches, bench_devices);
criterion_main!(benches);
