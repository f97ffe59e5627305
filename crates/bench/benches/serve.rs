//! Service-layer benches: the latency ladder the caches buy.
//!
//! For the parameterized Table I meshes (`rtd_mesh_param_deck`) each DC
//! sweep submit is measured three ways:
//!
//! * **cold** — a fresh `SimService` per iteration: pays parsing, the
//!   sparse-LU symbolic analysis and every factor;
//! * **warm_session** — one long-lived service, a new `rgrid` override per
//!   iteration: same topology, different values, so the pooled session
//!   rebinds and only *refactors* (0 full factors after the first submit);
//! * **result_hit** — the identical deck resubmitted: answered from the
//!   full result cache, bit-identically, with no parse and no engine work.
//!
//! The acceptance bar for the service layer is warm_session and
//! result_hit strictly below cold on mesh20.

use criterion::{criterion_group, criterion_main, Criterion};
use nanosim::serve::{ServiceOptions, SimService};
use std::hint::black_box;

fn bench_service_ladder(c: &mut Criterion) {
    for n in [10usize, 20] {
        let name = format!("serve_mesh{n}");
        let mut group = c.benchmark_group(&name);
        group.sample_size(10);
        let deck = nanosim::workloads::rtd_mesh_param_deck(n);

        group.bench_function("cold", |b| {
            b.iter(|| {
                let mut svc = SimService::new(ServiceOptions::default());
                svc.submit(black_box(&deck)).expect("deck submits")
            })
        });

        // One service, a fresh resistance value every iteration: the
        // DeckKey always changes (no result-cache hit) but the topology
        // never does, so every submit after the first rides a rebound
        // session.
        let mut warm_svc = SimService::new(ServiceOptions::default());
        warm_svc.submit(&deck).expect("priming submit");
        let mut variant = 0u64;
        group.bench_function("warm_session", |b| {
            b.iter(|| {
                variant += 1;
                let rgrid = 100.0 + variant as f64 * 1e-3;
                warm_svc
                    .submit_opts(black_box(&deck), &[("rgrid".into(), rgrid)])
                    .expect("deck submits")
            })
        });

        let mut hit_svc = SimService::new(ServiceOptions::default());
        hit_svc.submit(&deck).expect("priming submit");
        group.bench_function("result_hit", |b| {
            b.iter(|| hit_svc.submit(black_box(&deck)).expect("deck submits"))
        });

        group.finish();
    }
}

criterion_group!(benches, bench_service_ladder);
criterion_main!(benches);
