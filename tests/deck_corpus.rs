//! Golden-netlist corpus: every deck under `tests/decks/` must parse,
//! flatten, validate, survive a `write -> parse` round trip, and run its
//! first analysis through the session API. Expectations are annotated in
//! the decks themselves:
//!
//! ```text
//! * @expect nodes=<n> elements=<m> subckts=<k> analyses=<j>
//! * @op-check <column>=<value>        (op decks only, tol 1e-6)
//! * @expect-lint <code> [line:col]    (known-bad decks only)
//! ```
//!
//! Decks carrying an `@expect-lint` annotation are *known-bad*: the
//! preflight linter must reject them with exactly the annotated error
//! codes (at the annotated positions when given) and `Simulator::new`
//! must refuse them before any factorization. All other decks are golden
//! and must additionally lint clean.
//!
//! A frontend regression therefore fails with the *name* of the deck that
//! broke, not an anonymous assertion.

use nanosim::circuit::element::SharedDevice;
use nanosim::circuit::{
    deck_fingerprint, parse_netlist_with_params, topology_fingerprint, Element, ElementKind,
};
use nanosim::prelude::*;
use nanosim::workloads;
use std::collections::HashMap;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/decks")
}

fn all_decks() -> Vec<(String, String)> {
    let mut decks: Vec<(String, String)> = std::fs::read_dir(corpus_dir())
        .expect("tests/decks exists")
        .filter_map(|e| {
            let path = e.ok()?.path();
            if path.extension().is_some_and(|x| x == "cir") {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                let text = std::fs::read_to_string(&path).expect("deck readable");
                Some((name, text))
            } else {
                None
            }
        })
        .collect();
    decks.sort();
    assert!(
        decks.len() >= 5,
        "corpus unexpectedly small: {} decks",
        decks.len()
    );
    decks
}

fn is_known_bad(text: &str) -> bool {
    text.lines()
        .any(|l| l.trim_start_matches(['*', ' ']).starts_with("@expect-lint"))
}

/// The golden decks: parse, validate, run, and lint clean.
fn corpus() -> Vec<(String, String)> {
    all_decks()
        .into_iter()
        .filter(|(_, text)| !is_known_bad(text))
        .collect()
}

/// The known-bad decks: rejected by preflight with annotated codes.
fn known_bad() -> Vec<(String, String)> {
    all_decks()
        .into_iter()
        .filter(|(_, text)| is_known_bad(text))
        .collect()
}

/// Parses `* @expect-lint <code> [line:col]` annotations.
fn lint_expectations(text: &str) -> Vec<(LintCode, Option<(usize, usize)>)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(rest) = line
            .trim()
            .strip_prefix('*')
            .map(str::trim)
            .and_then(|t| t.strip_prefix("@expect-lint"))
        else {
            continue;
        };
        let mut fields = rest.split_whitespace();
        let code = LintCode::parse(fields.next().expect("@expect-lint needs a code"))
            .expect("@expect-lint names a known code");
        let at = fields.next().map(|pos| {
            let (l, c) = pos
                .split_once(':')
                .expect("@expect-lint position is line:col");
            (l.parse().unwrap(), c.parse().unwrap())
        });
        out.push((code, at));
    }
    out
}

/// Parses `* @expect k=v ...` and `* @op-check col=value` annotations.
fn annotations(text: &str) -> (HashMap<String, usize>, Vec<(String, f64)>) {
    let mut expect = HashMap::new();
    let mut op_checks = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("* @expect ") {
            for pair in rest.split_whitespace() {
                let (k, v) = pair.split_once('=').expect("@expect k=v");
                expect.insert(k.to_string(), v.parse().expect("@expect usize"));
            }
        } else if let Some(rest) = line.strip_prefix("* @op-check ") {
            let (k, v) = rest.split_once('=').expect("@op-check col=value");
            op_checks.push((k.to_string(), v.parse().expect("@op-check f64")));
        }
    }
    (expect, op_checks)
}

#[test]
fn every_deck_parses_flattens_and_matches_expectations() {
    for (name, text) in corpus() {
        let deck = parse_netlist(&text).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        deck.circuit
            .validate()
            .unwrap_or_else(|e| panic!("{name}: validation failed: {e}"));
        let (expect, _) = annotations(&text);
        assert!(!expect.is_empty(), "{name}: missing @expect annotation");
        let got = [
            ("nodes", deck.circuit.node_count()),
            ("elements", deck.circuit.elements().len()),
            ("subckts", deck.subckts.len()),
            ("analyses", deck.analyses.len()),
        ];
        for (key, actual) in got {
            if let Some(&want) = expect.get(key) {
                assert_eq!(actual, want, "{name}: {key} mismatch");
            }
        }
    }
}

#[test]
fn every_deck_roundtrips_through_the_writer() {
    for (name, text) in corpus() {
        let deck = parse_netlist(&text).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        let written = write_netlist(&deck.circuit);
        let again = parse_netlist(&written)
            .unwrap_or_else(|e| panic!("{name}: writer output failed to parse: {e}"));
        assert_eq!(
            deck.circuit.elements().len(),
            again.circuit.elements().len(),
            "{name}: element count changed through write -> parse"
        );
        assert_eq!(
            deck.circuit.node_count(),
            again.circuit.node_count(),
            "{name}: node count changed through write -> parse"
        );
        let node_names = |c: &Circuit, e: &Element| -> Vec<String> {
            e.nodes()
                .iter()
                .map(|&n| c.node_name(n).to_string())
                .collect()
        };
        for (ea, eb) in deck.circuit.elements().iter().zip(again.circuit.elements()) {
            assert_eq!(ea.name(), eb.name(), "{name}: element name changed");
            assert_eq!(
                node_names(&deck.circuit, ea),
                node_names(&again.circuit, eb),
                "{name}: element {} changed nodes",
                ea.name()
            );
            // `Debug` prints every value, waveform parameter and device
            // parameter in shortest round-trip form, so equal text means
            // bit-equal values.
            assert_eq!(
                format!("{:?}", ea.kind()),
                format!("{:?}", eb.kind()),
                "{name}: element {} changed kind or values",
                ea.name()
            );
            if let (ElementKind::Nonlinear { device: da }, ElementKind::Nonlinear { device: db }) =
                (ea.kind(), eb.kind())
            {
                let params = |d: &SharedDevice| {
                    let mut v = Vec::new();
                    d.for_each_param(&mut |k, x| v.push((k, x.to_bits())));
                    v
                };
                assert_eq!(params(da), params(db), "{name}: {} params", ea.name());
            }
        }
        // With the title carried over, the round trip is the same circuit
        // down to the deck fingerprint.
        let mut original = deck.circuit.clone();
        original.set_title(again.circuit.title().unwrap_or_default());
        assert_eq!(
            deck_fingerprint(&original),
            deck_fingerprint(&again.circuit),
            "{name}: deck fingerprint changed through write -> parse"
        );
    }
}

#[test]
fn every_deck_runs_its_first_analysis() {
    for (name, text) in corpus() {
        let deck = parse_netlist(&text).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        let directive = deck
            .analyses
            .first()
            .unwrap_or_else(|| panic!("{name}: corpus decks must request an analysis"));
        let analysis = Analysis::from_directive(directive, &SwecOptions::default());
        let mut sim =
            Simulator::new(deck.circuit).unwrap_or_else(|e| panic!("{name}: assembly failed: {e}"));
        let data = sim
            .run(analysis)
            .unwrap_or_else(|e| panic!("{name}: analysis failed: {e}"));
        assert!(data.points() > 0, "{name}: empty dataset");
        for v in data.names().iter().filter_map(|n| data.value(n)) {
            assert!(v.is_finite(), "{name}: non-finite result");
        }
        let (_, op_checks) = annotations(&text);
        for (col, want) in op_checks {
            let got = data
                .value(&col)
                .unwrap_or_else(|| panic!("{name}: @op-check column {col} missing"));
            assert!(
                (got - want).abs() < 1e-6,
                "{name}: op value {col} = {got}, expected {want}"
            );
        }
    }
}

#[test]
fn every_golden_deck_lints_clean() {
    for (name, text) in corpus() {
        let report = lint_deck(&text);
        assert!(
            report.is_clean(),
            "{name}: golden deck is not lint-clean:\n{report}"
        );
    }
}

#[test]
fn known_bad_decks_are_rejected_with_the_annotated_codes() {
    let bad = known_bad();
    assert!(
        bad.len() >= 3,
        "expected at least 3 known-bad decks, found {}",
        bad.len()
    );
    for (name, text) in bad {
        let expected = lint_expectations(&text);
        assert!(!expected.is_empty(), "{name}: missing @expect-lint");
        let report = lint_deck(&text);
        let errors: Vec<&Diagnostic> = report.errors().collect();
        for (code, at) in &expected {
            let hits: Vec<_> = errors.iter().filter(|d| d.code == *code).collect();
            assert!(
                !hits.is_empty(),
                "{name}: expected error[{code}]:\n{report}"
            );
            if let Some((line, col)) = at {
                assert!(
                    hits.iter()
                        .any(|d| d.span.is_some_and(|s| (s.line, s.column) == (*line, *col))),
                    "{name}: error[{code}] not at {line}:{col}:\n{report}"
                );
            }
        }
        for d in &errors {
            assert!(
                expected.iter().any(|(code, _)| *code == d.code),
                "{name}: unexpected error: {d}"
            );
        }
    }
}

#[test]
fn known_bad_decks_are_refused_by_the_simulator_before_assembly() {
    for (name, text) in known_bad() {
        let deck = parse_netlist(&text).unwrap_or_else(|e| panic!("{name}: parse failed: {e}"));
        let err = Simulator::new(deck.circuit)
            .err()
            .unwrap_or_else(|| panic!("{name}: preflight accepted a known-bad deck"));
        let report = err
            .preflight_report()
            .unwrap_or_else(|| panic!("{name}: expected SimError::Preflight, got: {err}"));
        assert!(
            report.has_errors(),
            "{name}: preflight report has no errors"
        );
    }
}

/// Every deck the front end builds, flattened: each corpus deck that
/// parses, the Table I mesh decks, and the Fig 8 inverter and Fig 9
/// flip-flop written out and parsed back.
fn flattened_decks() -> Vec<(String, Circuit)> {
    let mut out: Vec<(String, Circuit)> = all_decks()
        .into_iter()
        .filter_map(|(name, text)| Some((name, parse_netlist(&text).ok()?.circuit)))
        .collect();
    let parse = |text: &str, overrides: &[(String, f64)]| {
        parse_netlist_with_params(text, overrides)
            .expect("generated deck parses")
            .circuit
    };
    let mesh = workloads::rtd_mesh_deck(4);
    let param_mesh = workloads::rtd_mesh_param_deck(4);
    out.push(("rtd_mesh_deck(4)".into(), parse(&mesh, &[])));
    out.push(("rtd_mesh_param_deck(4)".into(), parse(&param_mesh, &[])));
    out.push((
        "rtd_mesh_param_deck(4) rgrid=220".into(),
        parse(&param_mesh, &[("rgrid".into(), 220.0)]),
    ));
    for (name, ckt) in [
        ("fig8 inverter", workloads::fet_rtd_inverter()),
        ("fig9 flip-flop", workloads::rtd_d_flip_flop()),
    ] {
        out.push((name.into(), parse(&write_netlist(&ckt), &[])));
    }
    out
}

/// The front end's output, pinned: `deck_fingerprint` covers node names in
/// interning order, element order, names and every value's bits;
/// `topology_fingerprint` the structure. A change to parsing or flattening
/// that moves any of these fails here with the deck's name.
#[test]
fn flattened_decks_are_pinned() {
    const PINS: &[(&str, u64, u64)] = &[
        (
            "controlled_sources.cir",
            0x64f5f663263466d6,
            0x464dbe3a0d3d8c68,
        ),
        ("custom_models.cir", 0x4592263490098a5f, 0xc46f03b19083e1f8),
        ("flipflop.cir", 0xcad32631427df0e9, 0x5a9d426181245ce4),
        ("floating_node.cir", 0xd6494cb4b1f94c4c, 0xd2a8443c8134afb2),
        (
            "hierarchy_nested.cir",
            0x39a8fd96b7408591,
            0xa540c1914447353d,
        ),
        ("inverter.cir", 0x8285985f8f425ff1, 0x30b36b9c964d933f),
        ("isource_cutset.cir", 0x147753442946088a, 0xbca0799a3ad7a77c),
        ("mesh_subckt.cir", 0x92743d05cfc14a72, 0x794eec36c0b1ba10),
        ("params.cir", 0xe372209ad18fc157, 0x69df72d4b000404c),
        (
            "structural_singular.cir",
            0xb4626fdcb67acc8c,
            0xc0c6419378e556ed,
        ),
        ("vloop.cir", 0x7f3a736ca1d716a8, 0x3861f4b1336f9159),
        ("rtd_mesh_deck(4)", 0x9083354acfcf1cf2, 0x3cf29a960f5c21c3),
        (
            "rtd_mesh_param_deck(4)",
            0x611393701ec6afd1,
            0x3cf29a960f5c21c3,
        ),
        (
            "rtd_mesh_param_deck(4) rgrid=220",
            0xf46faecadfea83a1,
            0x3cf29a960f5c21c3,
        ),
        ("fig8 inverter", 0x3dd8eac91d577d05, 0x30b36b9c964d933f),
        ("fig9 flip-flop", 0xc7a85861cae036ae, 0x5a9d426181245ce4),
    ];
    let decks = flattened_decks();
    assert_eq!(
        decks.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        PINS.iter().map(|p| p.0).collect::<Vec<_>>(),
        "pinned deck set"
    );
    for ((name, ckt), &(_, deck, topo)) in decks.iter().zip(PINS) {
        assert_eq!(deck_fingerprint(ckt), deck, "{name}: deck fingerprint");
        assert_eq!(
            topology_fingerprint(ckt),
            topo,
            "{name}: topology fingerprint"
        );
    }
}
