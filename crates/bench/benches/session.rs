//! Session-API benches: serial vs sharded chunked DC sweep wall-time on
//! the Table I RTD mesh, and the cost of the session facade itself (the
//! sharded runs are bit-identical to serial — see `tests/session.rs` —
//! so this measures pure scheduling).

use criterion::{criterion_group, criterion_main, Criterion};
use nanosim::core::sim::SWEEP_CHUNK;
use nanosim::prelude::*;
use std::hint::black_box;

fn bench_sharded_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_sweep");
    group.sample_size(10);
    // Table I mesh: 10x10 grid = 101 MNA variables, 100 RTDs; 121 sweep
    // points = 8 chunks of `SWEEP_CHUNK` points.
    let circuit = nanosim::workloads::rtd_mesh(10);
    let mut sim = Simulator::new(circuit).expect("mesh assembles");
    for workers in [1usize, 2, 4, 8] {
        let plan = if workers == 1 {
            ExecPlan::Serial
        } else {
            ExecPlan::sharded(workers)
        };
        group.bench_function(&format!("dc_mesh10_121pts_w{workers}"), |b| {
            b.iter(|| {
                sim.run(black_box(
                    Analysis::dc_sweep("V1", 0.0, 3.0, 0.025)
                        .chunk_points(SWEEP_CHUNK)
                        .plan(plan),
                ))
                .expect("sweep runs")
            })
        });
    }
    group.finish();
}

fn bench_session_vs_engine(c: &mut Criterion) {
    // The facade must not tax the serial path: compare the session serial
    // sweep against the legacy engine on the same workload.
    let mut group = c.benchmark_group("session_overhead");
    group.sample_size(10);
    let circuit = nanosim::workloads::rtd_mesh(6);
    let mut sim = Simulator::new(circuit.clone()).expect("mesh assembles");
    group.bench_function("session_serial_mesh6", |b| {
        b.iter(|| {
            sim.run(black_box(Analysis::dc_sweep("V1", 0.0, 3.0, 0.1)))
                .expect("sweep runs")
        })
    });
    group.bench_function("legacy_engine_mesh6", |b| {
        b.iter(|| {
            nanosim::core::swec::SwecDcSweep::new(SwecOptions::default())
                .run(black_box(&circuit), "V1", 0.0, 3.0, 0.1)
                .expect("sweep runs")
        })
    });
    group.finish();
}

fn bench_transient_ensemble(c: &mut Criterion) {
    // Parameter-variation transient ensemble through run_ensemble.
    let mut group = c.benchmark_group("session_ensemble");
    group.sample_size(10);
    let variants: Vec<Circuit> = (0..8)
        .map(|i| {
            let mut ckt = Circuit::new();
            let a = ckt.node("in");
            let b = ckt.node("mid");
            ckt.add_voltage_source(
                "V1",
                a,
                Circuit::GROUND,
                SourceWaveform::pwl(vec![(0.0, 0.0), (5e-9, 3.0), (10e-9, 3.0)]).unwrap(),
            )
            .unwrap();
            ckt.add_resistor("R1", a, b, 50.0).unwrap();
            ckt.add_rtd("X1", b, Circuit::GROUND, Rtd::date2005())
                .unwrap();
            ckt.add_capacitor("C1", b, Circuit::GROUND, (1.0 + i as f64) * 5e-14)
                .unwrap();
            ckt
        })
        .collect();
    let analysis: nanosim::core::sim::Analysis = Analysis::transient(0.1e-9, 10e-9).into();
    for workers in [1usize, 4] {
        let plan = if workers == 1 {
            ExecPlan::Serial
        } else {
            ExecPlan::sharded(workers)
        };
        group.bench_function(&format!("tran_ensemble_8x_w{workers}"), |b| {
            b.iter(|| run_ensemble(black_box(&variants), &analysis, plan).expect("ensemble runs"))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sharded_sweep,
    bench_session_vs_engine,
    bench_transient_ensemble
);
criterion_main!(benches);
