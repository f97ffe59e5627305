//! Integration tests of the `nanosim-serve` service layer.
//!
//! The contracts under test: result-cache hits are **bit-identical** to
//! cold runs, in the same service and in a fresh one; value-only deck
//! changes never collide on
//! `DeckKey` but share a `TopologyKey`; a same-topology resubmit rides a
//! warm session and pays **zero** new full factorizations; the store
//! evicts by bytes without forgetting run metadata; batch fan-out shares
//! one pooled session across a whole parameter grid; and the JSON-lines
//! front-end answers junk and preflight-failing decks with structured
//! errors, never a panic.

use nanosim::core::Budget;
use nanosim::serve::{
    handle_line, BatchRequest, CacheDisposition, RunStatus, ServiceOptions, SimService,
    SubmitOptions,
};
use nanosim::workloads::{param_grid, rtd_mesh_param_deck};
use proptest::prelude::*;

/// Every column of both datasets, compared at the bit level.
fn assert_bit_identical(a: &nanosim::core::sim::Dataset, b: &nanosim::core::sim::Dataset) {
    assert_eq!(a.names(), b.names());
    assert_eq!(a.points(), b.points());
    for name in a.names() {
        let ca = a.column(name).expect("column exists");
        let cb = b.column(name).expect("column exists");
        let bits_a: Vec<u64> = ca.iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u64> = cb.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "column {name} differs");
    }
}

#[test]
fn result_cache_hit_is_bit_identical_to_the_cold_run() {
    let deck = rtd_mesh_param_deck(4);

    // Cold run.
    let mut svc = SimService::new(ServiceOptions::default());
    let ids = svc.submit(&deck).unwrap();
    assert_eq!(ids.len(), 1);
    let cold = {
        let rec = svc.result(ids[0]).unwrap();
        assert_eq!(rec.cache, CacheDisposition::Cold);
        rec.result.as_ref().unwrap().dataset.clone()
    };

    // The identical request answers from the result cache — without even
    // a parse — and must be bit-identical to the run that seeded it.
    let ids = svc.submit(&deck).unwrap();
    let rec = svc.result(ids[0]).unwrap();
    assert_eq!(rec.cache, CacheDisposition::ResultHit);
    assert_eq!(rec.full_factors, 0);
    assert_bit_identical(&cold, &rec.result.as_ref().unwrap().dataset);
    assert_eq!(svc.stats().result_hits, 1);

    // And a cold run in a fresh service agrees bit for bit, which is what
    // lets a cache keyed by deck and directive answer for the engine.
    let mut fresh = SimService::new(ServiceOptions::default());
    let ids = fresh.submit(&deck).unwrap();
    let rec = fresh.result(ids[0]).unwrap();
    assert_eq!(rec.cache, CacheDisposition::Cold);
    assert_bit_identical(&cold, &rec.result.as_ref().unwrap().dataset);
}

#[test]
fn param_override_changes_deck_key_but_not_topology_key() {
    let deck = rtd_mesh_param_deck(3);
    let base = nanosim::circuit::parse_netlist(&deck).unwrap();
    let over =
        nanosim::circuit::parse_netlist_with_params(&deck, &[("rgrid".into(), 220.0)]).unwrap();
    assert_ne!(
        nanosim::serve::DeckKey::of(&base.circuit),
        nanosim::serve::DeckKey::of(&over.circuit),
        "value change must change the result-cache key"
    );
    assert_eq!(
        nanosim::serve::TopologyKey::of(&base.circuit),
        nanosim::serve::TopologyKey::of(&over.circuit),
        "value change must keep the session-pool key"
    );

    // End to end: the override's runs must not answer from the base
    // deck's result cache.
    let mut svc = SimService::new(ServiceOptions::default());
    let a = svc.submit(&deck).unwrap();
    let b = svc.submit_opts(&deck, &[("rgrid".into(), 220.0)]).unwrap();
    let rec_b = svc.result(b[0]).unwrap();
    assert_ne!(rec_b.cache, CacheDisposition::ResultHit);
    let rec_a = svc.result(a[0]).unwrap();
    let va = rec_a.result.as_ref().unwrap().dataset.clone();
    let vb = svc
        .result(b[0])
        .unwrap()
        .result
        .as_ref()
        .unwrap()
        .dataset
        .clone();
    assert_ne!(
        va.column("g0_0").unwrap(),
        vb.column("g0_0").unwrap(),
        "different resistances must produce different node voltages"
    );
}

#[test]
fn warm_session_resubmit_pays_zero_full_factors() {
    let deck = rtd_mesh_param_deck(4);
    let mut svc = SimService::new(ServiceOptions::default());
    let first = svc.submit(&deck).unwrap();
    let cold_full_factors = svc.stats().full_factors;
    assert!(cold_full_factors > 0, "cold run must factor at least once");
    assert_eq!(svc.status(first[0]).unwrap().cache, CacheDisposition::Cold);

    // New values, same pattern: the pooled session rebinds and only
    // refactors — ServeStats reports zero *new* full factors.
    let second = svc.submit_opts(&deck, &[("rgrid".into(), 150.0)]).unwrap();
    let rec = svc.status(second[0]).unwrap();
    assert_eq!(rec.cache, CacheDisposition::WarmSession);
    assert_eq!(rec.full_factors, 0, "warm session must not re-factor");
    assert!(rec.refactors > 0, "warm session refactors instead");
    assert_eq!(
        svc.stats().full_factors,
        cold_full_factors,
        "second same-topology submit reports 0 new full factors"
    );
    assert_eq!(svc.stats().session_warm, 1);
    assert_eq!(svc.sessions(), 1, "one pooled session serves both decks");
}

#[test]
fn store_evicts_payloads_by_bytes_but_keeps_run_metadata() {
    let opts = ServiceOptions {
        store_capacity_bytes: 1, // room for exactly one payload (min kept)
        ..ServiceOptions::default()
    };
    let mut svc = SimService::new(opts);
    let a = svc
        .submit("V1 in 0 DC 1\nR1 in out 100\nR2 out 0 100\n.op\n.end\n")
        .unwrap();
    let b = svc
        .submit("V1 in 0 DC 1\nR1 in out 100\nR2 out 0 220\n.op\n.end\n")
        .unwrap();

    // The first payload was evicted to admit the second.
    let rec = svc.status(a[0]).unwrap();
    assert!(rec.evicted, "status still answers for evicted runs");
    assert!(matches!(rec.status, RunStatus::Done));
    let err = svc.result(a[0]).expect_err("payload is gone");
    assert_eq!(err.kind(), "evicted");
    assert!(svc.result(b[0]).unwrap().result.is_some());
    assert!(svc.stats().store_evictions > 0);

    // Explicit eviction still works and is idempotent.
    assert!(svc.evict(b[0]).unwrap());
    assert!(!svc.evict(b[0]).unwrap());
}

#[test]
fn batch_grid_shares_one_pooled_session() {
    let deck = rtd_mesh_param_deck(3);
    let grid = param_grid(&[("rgrid".into(), vec![50.0, 100.0, 150.0])]);
    let mut svc = SimService::new(ServiceOptions::default());
    let ids = svc.batch(&BatchRequest { deck, grid }).unwrap();
    assert_eq!(ids.len(), 3, "one run per grid point");
    for id in &ids {
        let rec = svc.status(*id).unwrap();
        assert!(matches!(rec.status, RunStatus::Done), "run {id:?} failed");
    }
    assert_eq!(svc.stats().session_cold, 1, "only the first point is cold");
    assert_eq!(svc.stats().session_warm, 2, "the rest rebind the session");
    assert_eq!(svc.sessions(), 1);
    assert_eq!(svc.stats().batches, 1);
}

#[test]
fn preflight_failing_deck_yields_structured_failed_run() {
    // R2/R3 form a two-node island with no DC path to ground: parses fine,
    // fails preflight at session construction.
    let deck = "V1 a 0 DC 1\nR1 a 0 100\nR2 x y 100\nR3 y x 100\n.op\n.end\n";
    let mut svc = SimService::new(ServiceOptions::default());
    let ids = svc.submit(deck).unwrap();
    let rec = svc.status(ids[0]).unwrap();
    let RunStatus::Failed { error } = &rec.status else {
        panic!("expected a failed run, got {:?}", rec.status);
    };
    assert!(
        error.preflight_report().is_some(),
        "failure must carry the lint report, got: {error}"
    );

    // Through the JSON-lines front-end the same deck is a structured
    // "failed" run summary, not a transport error.
    let mut svc = SimService::new(ServiceOptions::default());
    let line = format!(
        "{{\"cmd\":\"submit\",\"deck\":{}}}",
        nanosim::serve::Json::Str(deck.to_string()).render()
    );
    let response = handle_line(&mut svc, &line);
    assert!(response.contains("\"ok\":true"), "{response}");
    assert!(response.contains("\"status\":\"failed\""), "{response}");
    assert!(response.contains("\"preflight\""), "{response}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random junk lines — arbitrary ASCII, often unbalanced JSON — must
    /// always produce a structured error response and leave the service
    /// usable.
    #[test]
    fn junk_lines_get_structured_errors(bytes in proptest::collection::vec(0u32..128, 0..60)) {
        let line: String = bytes
            .iter()
            .filter_map(|&b| char::from_u32(b))
            .collect();
        let mut svc = SimService::new(ServiceOptions::default());
        let response = handle_line(&mut svc, &line);
        let parsed = nanosim::serve::json::parse(&response)
            .expect("response is always valid JSON");
        prop_assert!(
            parsed.get("ok").is_some(),
            "response lacks ok field: {response}"
        );
        // The service survives: a well-formed submit still works.
        let good = "{\"cmd\":\"submit\",\"deck\":\"V1 a 0 DC 1\\nR1 a 0 100\\n.op\\n.end\\n\"}";
        let after = handle_line(&mut svc, good);
        prop_assert!(after.contains("\"ok\":true"), "{after}");
    }
}

#[test]
fn admission_limits_shed_with_structured_overloaded_responses() {
    const OP_DECK: &str = "V1 a 0 DC 1\nR1 a 0 100\n.op\n.end\n";

    // Deck-size limit.
    let mut svc = SimService::new(ServiceOptions {
        max_deck_bytes: 16,
        ..ServiceOptions::default()
    });
    let err = svc.submit(OP_DECK).unwrap_err();
    assert_eq!(err.kind(), "overloaded");
    assert_eq!(svc.runs(), 0, "a shed request registers nothing");
    assert_eq!(svc.stats().shed, 1);

    // Element-count limit.
    let mut svc = SimService::new(ServiceOptions {
        max_deck_elements: 1,
        ..ServiceOptions::default()
    });
    let err = svc.submit(OP_DECK).unwrap_err();
    assert_eq!(err.kind(), "overloaded");
    assert_eq!(svc.stats().shed, 1);

    // Pending-run limit: a held run occupies the queue.
    let mut svc = SimService::new(ServiceOptions {
        max_pending_runs: 1,
        ..ServiceOptions::default()
    });
    let held = svc
        .submit_with(
            OP_DECK,
            &SubmitOptions {
                hold: true,
                ..SubmitOptions::default()
            },
        )
        .unwrap();
    assert_eq!(held.len(), 1);
    let err = svc.submit(OP_DECK).unwrap_err();
    assert_eq!(err.kind(), "overloaded");
    assert_eq!(svc.stats().shed, 1);
    // Draining the queue restores admission.
    assert!(svc.cancel(held[0]).unwrap());
    svc.submit(OP_DECK).unwrap();

    // The protocol renders sheds with a top-level back-off code.
    let mut svc = SimService::new(ServiceOptions {
        max_deck_bytes: 16,
        ..ServiceOptions::default()
    });
    let r = handle_line(
        &mut svc,
        "{\"cmd\":\"submit\",\"deck\":\"V1 a 0 DC 1\\nR1 a 0 100\\n.op\\n.end\\n\"}",
    );
    assert!(
        r.contains("\"ok\":false") && r.contains("\"code\":\"overloaded\""),
        "{r}"
    );
}

#[test]
fn result_larger_than_the_store_is_shed_before_it_runs() {
    // 2 x 10^10 sweep points: the engine would abort the process
    // collecting them, so admission sheds the directive first, on the
    // parse path and again on the memo path.
    let line = r#"{"cmd":"submit","deck":"V1 in 0 DC 1\nR1 in out 100\nR2 out 0 100\n.dc V1 0 1 5e-11\n.end\n"}"#;
    let mut svc = SimService::new(ServiceOptions::default());
    for _ in 0..2 {
        let r = handle_line(&mut svc, line);
        assert!(
            r.contains("\"ok\":false") && r.contains("\"code\":\"overloaded\""),
            "{r}"
        );
        assert!(
            r.contains("40000000512 bytes") && r.contains(&format!("{}", 64 << 20)),
            "{r}"
        );
    }
    assert_eq!(svc.runs(), 0);
}

#[test]
fn print_step_below_h_min_fails_the_run_without_a_panic() {
    // A window of 100 print steps fits the store, so the run starts and
    // SWEC rejects the print step below its 1e-18 s minimum step.
    let deck = "V1 a 0 DC 1\nR1 a b 1k\nC1 b 0 1p\n.tran 1e-30 1e-28\n.end\n";
    let mut svc = SimService::new(ServiceOptions::default());
    let r = handle_line(&mut svc, &submit_line(deck));
    assert!(r.contains("\"status\":\"failed\""), "{r}");
    assert!(r.contains("h_min"), "{r}");
    // The service goes on answering.
    let r = handle_line(&mut svc, r#"{"cmd":"stats"}"#);
    assert!(r.contains("\"ok\":true"), "{r}");
}

#[test]
fn hold_run_and_cancel_lifecycle() {
    const OP_DECK: &str = "V1 a 0 DC 1\nR1 a 0 100\n.op\n.end\n";
    let mut svc = SimService::default();
    let opts = SubmitOptions {
        hold: true,
        ..SubmitOptions::default()
    };

    // Held runs stay queued until explicitly started…
    let ids = svc.submit_with(OP_DECK, &opts).unwrap();
    assert_eq!(svc.status(ids[0]).unwrap().status.tag(), "queued");
    svc.run_queued(ids[0]).unwrap();
    assert_eq!(svc.status(ids[0]).unwrap().status.tag(), "done");
    // …and a second start is a structured protocol error.
    assert!(svc.run_queued(ids[0]).is_err());

    // Cancelled held runs never execute.
    let ids = svc.submit_with(OP_DECK, &opts).unwrap();
    assert!(svc.cancel(ids[0]).unwrap());
    assert_eq!(svc.status(ids[0]).unwrap().status.tag(), "cancelled");
    assert!(svc.run_queued(ids[0]).is_err());
    assert!(!svc.cancel(ids[0]).unwrap(), "cancel is not re-entrant");
    assert_eq!(svc.stats().cancelled, 1);

    // Cancelling a finished run is a no-op, unknown ids are structured.
    let done = svc.submit(OP_DECK).unwrap();
    assert!(!svc.cancel(done[0]).unwrap());
    assert!(svc.cancel(nanosim::serve::RunId(999)).is_err());
}

#[test]
fn budget_limited_runs_count_stats_and_never_poison_the_result_cache() {
    const TRAN_DECK: &str = "V1 in 0 DC 1\nR1 in out 1000\nC1 out 0 1e-6\n.tran 1e-6 1e-4\n.end\n";
    let mut svc = SimService::default();
    let capped = SubmitOptions {
        budget: Some(Budget::unlimited().with_max_transient_steps(2)),
        ..SubmitOptions::default()
    };

    // Without allow_partial the run fails and is counted.
    let ids = svc.submit_with(TRAN_DECK, &capped).unwrap();
    assert_eq!(svc.status(ids[0]).unwrap().status.tag(), "failed");
    assert_eq!(svc.stats().budget_exceeded, 1);
    assert_eq!(svc.stats().deadline_timeouts, 0);

    // With allow_partial the accepted prefix is salvaged…
    let partial = SubmitOptions {
        allow_partial: true,
        ..capped.clone()
    };
    let ids = svc.submit_with(TRAN_DECK, &partial).unwrap();
    let rec = svc.result(ids[0]).unwrap();
    assert_eq!(rec.status.tag(), "done");
    let truncated_points = rec.result.as_ref().unwrap().dataset.points();
    assert!(rec.result.as_ref().unwrap().dataset.is_truncated());

    // …but never seeds the result cache: a later unlimited submit of the
    // same deck re-runs the engine and gets the full waveform.
    let misses_before = svc.stats().result_misses;
    let ids = svc.submit(TRAN_DECK).unwrap();
    {
        let rec = svc.result(ids[0]).unwrap();
        let full = &rec.result.as_ref().unwrap().dataset;
        assert!(!full.is_truncated());
        assert!(full.points() > truncated_points);
    }
    assert_eq!(svc.stats().result_misses, misses_before + 1);

    // A zero timeout trips the deadline deterministically at the first
    // checkpoint and is counted as a timeout.
    let timed_out = SubmitOptions {
        timeout: Some(std::time::Duration::ZERO),
        ..SubmitOptions::default()
    };
    let ids = svc
        .submit_with("V1 z 0 DC 1\nR1 z 0 77\n.op\n.end\n", &timed_out)
        .unwrap();
    assert_eq!(svc.status(ids[0]).unwrap().status.tag(), "failed");
    assert_eq!(svc.stats().budget_exceeded, 2);
    assert_eq!(svc.stats().deadline_timeouts, 1);
}

/// Runnable deck pairs that differ in exactly one device-model or waveform
/// parameter. A deck key that guessed device parameters from preset I(V)
/// curves gave each pair one key.
const ONE_PARAMETER_APART: [(&str, &str, &str); 6] = [
    (
        "rtd a",
        ".model m RTD (a=2.2e-4)\nV1 in 0 DC 0\nR1 in x 50\nYRTD1 x 0 m\n.dc V1 0 2 0.5\n.end\n",
        ".model m RTD (a=3e-4)\nV1 in 0 DC 0\nR1 in x 50\nYRTD1 x 0 m\n.dc V1 0 2 0.5\n.end\n",
    ),
    (
        "nanowire g0",
        ".model w NW (g0=7.7e-5)\nV1 in 0 DC 0\nR1 in x 1k\nYNW1 x 0 w\n.dc V1 0 2 0.5\n.end\n",
        ".model w NW (g0=1e-4)\nV1 in 0 DC 0\nR1 in x 1k\nYNW1 x 0 w\n.dc V1 0 2 0.5\n.end\n",
    ),
    (
        "diode n",
        ".model d D (is=1e-14 n=1)\nV1 in 0 DC 0\nR1 in x 1k\nD1 x 0 d\n.dc V1 0 2 0.5\n.end\n",
        ".model d D (is=1e-14 n=1.5)\nV1 in 0 DC 0\nR1 in x 1k\nD1 x 0 d\n.dc V1 0 2 0.5\n.end\n",
    ),
    (
        "mosfet vto",
        ".model mn NMOS (kp=1e-4 w=10 l=1 vto=0.7)\nVdd d 0 DC 5\nVg g 0 DC 0\n\
         Rd d x 10k\nM1 x g 0 mn\n.dc Vg 0 3 0.5\n.end\n",
        ".model mn NMOS (kp=1e-4 w=10 l=1 vto=0.8)\nVdd d 0 DC 5\nVg g 0 DC 0\n\
         Rd d x 10k\nM1 x g 0 mn\n.dc Vg 0 3 0.5\n.end\n",
    ),
    (
        "pulse v2",
        "V1 in 0 PULSE(0 1 1n 1n 1n 5n 20n)\nR1 in x 1k\nC1 x 0 1p\n.tran 0.1n 10n\n.end\n",
        "V1 in 0 PULSE(0 1.5 1n 1n 1n 5n 20n)\nR1 in x 1k\nC1 x 0 1p\n.tran 0.1n 10n\n.end\n",
    ),
    (
        "pwl value",
        "V1 in 0 PWL(0 0 2n 1 10n 1)\nR1 in x 1k\nC1 x 0 1p\n.tran 0.1n 10n\n.end\n",
        "V1 in 0 PWL(0 0 2n 1.2 10n 1)\nR1 in x 1k\nC1 x 0 1p\n.tran 0.1n 10n\n.end\n",
    ),
];

fn submit_line(deck: &str) -> String {
    format!(
        "{{\"cmd\":\"submit\",\"deck\":{}}}",
        nanosim::serve::Json::Str(deck.to_string()).render()
    )
}

/// The `cache` tag of the first run in a submit response.
fn first_cache_tag(response: &str) -> String {
    let v = nanosim::serve::json::parse(response).expect("response is JSON");
    let run = &v.get("runs").and_then(|r| r.as_array()).expect("runs")[0];
    assert_eq!(
        run.get("status").and_then(|s| s.as_str()),
        Some("done"),
        "{response}"
    );
    run.get("cache")
        .and_then(|c| c.as_str())
        .expect("done runs carry a cache tag")
        .to_string()
}

#[test]
fn decks_one_parameter_apart_get_distinct_deck_keys_and_fresh_results() {
    use nanosim::circuit::parse_netlist;
    use nanosim::serve::{DeckKey, RunId, TopologyKey};
    for (what, a, b) in ONE_PARAMETER_APART {
        let ca = parse_netlist(a).unwrap().circuit;
        let cb = parse_netlist(b).unwrap().circuit;
        assert_ne!(DeckKey::of(&ca), DeckKey::of(&cb), "{what}: deck keys");
        // Same topology, so the second submit meets the first's pooled
        // session and must rebind it.
        assert_eq!(TopologyKey::of(&ca), TopologyKey::of(&cb), "{what}");

        let mut svc = SimService::new(ServiceOptions::default());
        assert_eq!(
            first_cache_tag(&handle_line(&mut svc, &submit_line(a))),
            "cold"
        );
        let tag = first_cache_tag(&handle_line(&mut svc, &submit_line(b)));
        assert!(
            tag != "result-hit" && tag != "same-deck",
            "{what}: second deck answered as {tag}"
        );

        let mut fresh = SimService::new(ServiceOptions::default());
        assert_eq!(
            first_cache_tag(&handle_line(&mut fresh, &submit_line(b))),
            "cold"
        );
        let want = fresh.result(RunId(1)).unwrap().result.clone().unwrap();
        let got = svc.result(RunId(2)).unwrap().result.clone().unwrap();
        assert_bit_identical(&want.dataset, &got.dataset);
        let first = svc.result(RunId(1)).unwrap().result.clone().unwrap();
        assert!(
            first
                .dataset
                .names()
                .iter()
                .any(|n| first.dataset.column(n) != got.dataset.column(n)),
            "{what}: the two decks must behave differently"
        );
    }
}

#[test]
fn sixty_four_kilobyte_submit_line_runs_to_completion() {
    let deck = rtd_mesh_param_deck(30);
    let line = submit_line(&deck);
    assert!(line.len() > 64_000, "{} bytes", line.len());
    let mut svc = SimService::new(ServiceOptions::default());
    let response = handle_line(&mut svc, &line);
    assert_eq!(first_cache_tag(&response), "cold");
    let rec = svc.result(nanosim::serve::RunId(1)).unwrap();
    let ds = &rec.result.as_ref().unwrap().dataset;
    assert_eq!(ds.points(), 7);
    assert!(ds.column("g29_29").unwrap().iter().all(|v| v.is_finite()));
}

#[test]
fn result_rejects_a_non_boolean_data_member() {
    let mut svc = SimService::new(ServiceOptions::default());
    handle_line(
        &mut svc,
        &submit_line("V1 a 0 DC 1\nR1 a 0 100\n.op\n.end\n"),
    );
    for junk in ["\"no\"", "0", "1", "null", "[]", "{}"] {
        let r = handle_line(
            &mut svc,
            &format!("{{\"cmd\":\"result\",\"run\":1,\"data\":{junk}}}"),
        );
        assert!(
            r.contains("\"ok\":false") && r.contains("`data` must be a boolean"),
            "data {junk}: {r}"
        );
    }
    // Absent means true; an explicit false drops the columns.
    let with = handle_line(&mut svc, r#"{"cmd":"result","run":1}"#);
    assert!(with.contains("\"columns\""), "{with}");
    let without = handle_line(&mut svc, r#"{"cmd":"result","run":1,"data":false}"#);
    assert!(
        without.contains("\"ok\":true") && !without.contains("\"columns\""),
        "{without}"
    );
}

#[test]
fn workers_member_is_ignored_like_any_unknown_member() {
    let deck = "V1 a 0 DC 0\nR1 a 0 100\n.dc V1 0 1 0.5\n.end\n";
    let deck_json = nanosim::serve::Json::Str(deck.to_string()).render();
    let mut svc = SimService::new(ServiceOptions::default());
    for (line, cache) in [
        (
            format!("{{\"cmd\":\"submit\",\"deck\":{deck_json},\"workers\":4}}"),
            "cold",
        ),
        (
            format!("{{\"cmd\":\"submit\",\"deck\":{deck_json},\"workers\":\"junk\"}}"),
            "result-hit",
        ),
        (
            format!("{{\"cmd\":\"batch\",\"deck\":{deck_json},\"grid\":[{{}}],\"workers\":-1}}"),
            "result-hit",
        ),
    ] {
        assert_eq!(
            first_cache_tag(&handle_line(&mut svc, &line)),
            cache,
            "{line}"
        );
    }
}
