//! Property-based tests for the circuit substrate: random ladder networks
//! must satisfy Kirchhoff's laws through the MNA assembly, random circuits
//! must round-trip through the netlist writer/parser, and random
//! *hierarchical* decks (subckts, params, controlled sources) must flatten
//! deterministically: `parse(write(parse(d)))` equals `parse(d)`
//! structurally.

use nanosim_circuit::{deck_fingerprint, parse_netlist, write_netlist, Circuit, MnaSystem};
use nanosim_devices::sources::SourceWaveform;
use nanosim_numeric::sparse::SparseLu;
use nanosim_numeric::FlopCounter;
use proptest::prelude::*;

/// A random resistive ladder: V source into a chain of nodes, each with a
/// series resistor and a shunt resistor to ground.
fn ladder_strategy() -> impl Strategy<Value = (f64, Vec<(f64, f64)>)> {
    (
        0.1f64..10.0,
        proptest::collection::vec((1.0f64..1e4, 1.0f64..1e4), 1..8),
    )
}

fn build_ladder(vs: f64, sections: &[(f64, f64)]) -> Circuit {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("in");
    ckt.add_voltage_source("V1", prev, Circuit::GROUND, SourceWaveform::dc(vs))
        .unwrap();
    for (k, &(rs, rp)) in sections.iter().enumerate() {
        let node = ckt.node(&format!("n{k}"));
        ckt.add_resistor(&format!("Rs{k}"), prev, node, rs).unwrap();
        ckt.add_resistor(&format!("Rp{k}"), node, Circuit::GROUND, rp)
            .unwrap();
        prev = node;
    }
    ckt
}

proptest! {
    /// MNA solution of a resistive ladder satisfies KCL at every node:
    /// currents into each node sum to zero.
    #[test]
    fn ladder_satisfies_kcl((vs, sections) in ladder_strategy()) {
        let ckt = build_ladder(vs, &sections);
        let mna = MnaSystem::new(&ckt).unwrap();
        let dim = mna.dim();
        let g = mna.linear_g();
        let mut rhs = vec![0.0; dim];
        mna.stamp_rhs(0.0, &mut rhs);
        let mut flops = FlopCounter::new();
        let lu = SparseLu::factor(&g.to_csr(), &mut flops).unwrap();
        let x = lu.solve(&rhs, &mut flops).unwrap();
        let var = |name: &str| mna.var_of_node(ckt.find_node(name).unwrap()).unwrap();
        // Voltage at the source node equals the source.
        let vin = var("in");
        prop_assert!((x[vin] - vs).abs() < 1e-9 * (1.0 + vs.abs()));
        // KCL at every internal node.
        for (k, &(rs, rp)) in sections.iter().enumerate() {
            let v_here = x[var(&format!("n{k}"))];
            let v_prev = if k == 0 {
                x[vin]
            } else {
                x[var(&format!("n{}", k - 1))]
            };
            let v_next = sections.get(k + 1).map(|&(rs_next, _)| {
                let vn = x[var(&format!("n{}", k + 1))];
                (vn - v_here) / rs_next
            });
            let i_in = (v_prev - v_here) / rs;
            let i_shunt = v_here / rp;
            let i_out = v_next.unwrap_or(0.0);
            prop_assert!(
                (i_in - i_shunt + i_out).abs() < 1e-9 * (1.0 + i_in.abs()),
                "kcl violated at node {k}"
            );
        }
        // Voltages decay monotonically along the ladder.
        let mut last = x[vin].abs();
        for k in 0..sections.len() {
            let v = x[var(&format!("n{k}"))].abs();
            prop_assert!(v <= last + 1e-9);
            last = v;
        }
    }

    /// write -> parse round-trips the ladder topology and values.
    #[test]
    fn ladder_roundtrips_through_netlist((vs, sections) in ladder_strategy()) {
        let ckt = build_ladder(vs, &sections);
        let text = write_netlist(&ckt);
        let deck = parse_netlist(&text).unwrap();
        prop_assert_eq!(deck.circuit.elements().len(), ckt.elements().len());
        prop_assert_eq!(deck.circuit.node_count(), ckt.node_count());
        for e in ckt.elements() {
            let round = deck.circuit.element(e.name());
            prop_assert!(round.is_some(), "element {} lost", e.name());
            // Bit-exact values: `Debug` prints shortest round-trip form.
            prop_assert_eq!(format!("{:?}", e.kind()), format!("{:?}", round.unwrap().kind()));
        }
    }

    /// The two MNA solve paths (dense reference vs sparse) agree on random
    /// ladders.
    #[test]
    fn dense_sparse_mna_agree((vs, sections) in ladder_strategy()) {
        let ckt = build_ladder(vs, &sections);
        let mna = MnaSystem::new(&ckt).unwrap();
        let dim = mna.dim();
        let g = mna.linear_g();
        let mut rhs = vec![0.0; dim];
        mna.stamp_rhs(0.0, &mut rhs);
        let mut flops = FlopCounter::new();
        let xs = SparseLu::factor(&g.to_csr(), &mut flops)
            .unwrap()
            .solve(&rhs, &mut flops)
            .unwrap();
        let xd = g.to_dense().solve(&rhs, &mut flops).unwrap();
        for (a, b) in xs.iter().zip(xd.iter()) {
            prop_assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    /// Superposition: solutions scale linearly with the source value.
    #[test]
    fn mna_is_linear_in_source((vs, sections) in ladder_strategy(), scale in 0.1f64..5.0) {
        let solve = |v: f64| -> Vec<f64> {
            let ckt = build_ladder(v, &sections);
            let mna = MnaSystem::new(&ckt).unwrap();
            let dim = mna.dim();
            let g = mna.linear_g();
            let mut rhs = vec![0.0; dim];
            mna.stamp_rhs(0.0, &mut rhs);
            let mut flops = FlopCounter::new();
            SparseLu::factor(&g.to_csr(), &mut flops)
                .unwrap()
                .solve(&rhs, &mut flops)
                .unwrap()
        };
        let base = solve(vs);
        let scaled = solve(vs * scale);
        for (a, b) in base.iter().zip(scaled.iter()) {
            prop_assert!((a * scale - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }
}

/// Random ingredients of a hierarchical deck: element values, an optional
/// instance override, and whether a second nesting level is used.
fn hier_strategy() -> impl Strategy<Value = (f64, f64, f64, f64, f64, f64, Option<f64>, bool)> {
    (
        1.0f64..1e4,    // r1: cell default
        1.0f64..1e4,    // r2: fixed body resistor / CCVS transres
        1e-15f64..1e-9, // c
        0.1f64..10.0,   // vs
        -5.0f64..5.0,   // vcvs/cccs gain
        1e-6f64..1e-2,  // vccs gm
        // Optional instance override of r (None half the time).
        (0.0f64..1.0, 1.0f64..1e4).prop_map(|(p, v)| (p < 0.5).then_some(v)),
        // Whether to nest a second subckt level.
        (0.0f64..1.0).prop_map(|p| p < 0.5),
    )
}

#[allow(clippy::too_many_arguments)]
fn hier_deck(
    r1: f64,
    r2: f64,
    c: f64,
    vs: f64,
    gain: f64,
    gm: f64,
    ov: Option<f64>,
    nested: bool,
) -> String {
    let mut d = String::from(".title random hierarchical deck\n");
    d.push_str(&format!(".param rload={r2:e}\n"));
    d.push_str(&format!(
        ".subckt cell p q r={r1:e}\n\
         Ra p mid {{r}}\n\
         Cb mid 0 {c:e}\n\
         Rb mid q {r2:e}\n\
         .ends cell\n"
    ));
    if nested {
        d.push_str(&format!(
            ".subckt pair p q\n\
             X1 p m cell\n\
             X2 m q cell r={r1:e}\n\
             .ends pair\n"
        ));
    }
    d.push_str(&format!("V1 a 0 DC {vs:e}\n"));
    match ov {
        Some(o) => d.push_str(&format!("X1 a b cell r={o:e}\n")),
        None => d.push_str("X1 a b cell\n"),
    }
    if nested {
        d.push_str("X2 b dd pair\n");
    } else {
        d.push_str("X2 b dd cell\n");
    }
    d.push_str(&format!(
        "RL dd 0 {{rload}}\n\
         E1 e 0 b 0 {gain:e}\n\
         RE e 0 1k\n\
         G1 f 0 b 0 {gm:e}\n\
         RG f 0 1k\n\
         F1 h 0 V1 {gain:e}\n\
         RF h 0 1k\n\
         H1 i 0 V1 {r2:e}\n\
         RH i 0 1k\n\
         .end\n"
    ));
    d
}

/// Exact structural equality of two flat circuits: node table, element
/// names/connections/kinds and all numeric values, waveform parameters and
/// device parameters (values round-trip bit-exactly through the writer's
/// `{:e}` format, and `Debug` prints each in shortest round-trip form).
fn assert_flat_eq(a: &Circuit, b: &Circuit) -> Result<(), proptest::TestCaseError> {
    prop_assert_eq!(a.node_count(), b.node_count());
    // The writer serializes elements (not the node table), so re-parsing
    // may intern nodes in a different order; compare by *name*.
    let mut names_a: Vec<&str> = a.nodes().iter().map(|(_, n)| n).collect();
    let mut names_b: Vec<&str> = b.nodes().iter().map(|(_, n)| n).collect();
    names_a.sort_unstable();
    names_b.sort_unstable();
    prop_assert_eq!(names_a, names_b);
    prop_assert_eq!(a.elements().len(), b.elements().len());
    for (ea, eb) in a.elements().iter().zip(b.elements()) {
        prop_assert_eq!(ea.name(), eb.name());
        let conn_a: Vec<&str> = ea.nodes().iter().map(|&n| a.node_name(n)).collect();
        let conn_b: Vec<&str> = eb.nodes().iter().map(|&n| b.node_name(n)).collect();
        prop_assert_eq!(conn_a, conn_b);
        prop_assert_eq!(format!("{:?}", ea.kind()), format!("{:?}", eb.kind()));
    }
    Ok(())
}

proptest! {
    /// Hierarchical decks flatten deterministically and round-trip through
    /// the writer: `parse(write(parse(d)))` is structurally identical to
    /// `parse(d)`.
    #[test]
    fn hierarchical_deck_roundtrips(
        (r1, r2, c, vs, gain, gm, ov, nested) in hier_strategy()
    ) {
        let deck = hier_deck(r1, r2, c, vs, gain, gm, ov, nested);
        let d1 = parse_netlist(&deck).expect("generated deck parses");
        // The hierarchy metadata survives parsing.
        prop_assert_eq!(d1.subckts.len(), if nested { 2 } else { 1 });
        prop_assert!(d1.params.contains_key("rload"));
        // Flattening is valid and assembles.
        prop_assert!(d1.circuit.validate().is_ok());
        prop_assert!(MnaSystem::new(&d1.circuit).is_ok());
        // Writer emits the flat circuit; re-parsing reproduces it exactly.
        let text = write_netlist(&d1.circuit);
        let d2 = parse_netlist(&text).expect("writer output parses");
        assert_flat_eq(&d1.circuit, &d2.circuit)?;
        // Parsing is deterministic.
        let d3 = parse_netlist(&deck).expect("second parse");
        assert_flat_eq(&d1.circuit, &d3.circuit)?;
    }
}

/// Random model cards for every device family plus PULSE/PWL/SIN sources.
fn device_deck_strategy() -> impl Strategy<Value = String> {
    (
        (1e-5f64..1e-3, -1.0f64..3.0, 0.5f64..2.0, 0.05f64..0.5),
        (0.1f64..0.6, 0.0f64..0.05, 0.0f64..1e-7, 250.0f64..400.0),
        (1e-5f64..1e-4, 1u32..5, 0.2f64..0.8, 1u32..6, 0.01f64..0.05),
        (1e-16f64..1e-12, 0.8f64..2.0, 0.5f64..2.0),
        (1e-5f64..1e-3, 1.0f64..50.0, 0.5f64..5.0, 0.2f64..1.5, 0.0f64..0.1),
        (0.1f64..5.0, 1e-9f64..1e-8, 0.1f64..3.0),
    )
        .prop_map(|(r1, r2, nw, d, m, w)| {
            let (a, b, c, dd) = r1;
            let (n1, n2, h, temp) = r2;
            let (g0, base, step, steps, smear) = nw;
            let (is, n, vbe) = d;
            let (kp, wid, len, vto, lambda) = m;
            let (v2, t1, v3) = w;
            format!(
                ".title random device cards\n\
                 .model mr RTD (a={a:e} b={b:e} c={c:e} d={dd:e} n1={n1:e} n2={n2:e} h={h:e} temp={temp:e})\n\
                 .model mw NW (g0={g0:e} base={base} step={step:e} steps={steps} smear={smear:e})\n\
                 .model md D (is={is:e} n={n:e})\n\
                 .model mt RTT (vbe={vbe:e})\n\
                 .model mm NMOS (kp={kp:e} w={wid:e} l={len:e} vto={vto:e} lambda={lambda:e})\n\
                 V1 a 0 PULSE(0 {v2:e} {t1:e} 1n 1n 5n 20n)\n\
                 V2 g 0 PWL(0 0 {t1:e} {v3:e} 20n {v2:e})\n\
                 V3 s 0 SIN(0 {v3:e} 1meg)\n\
                 R1 a b 100\nR2 s b 1k\n\
                 YRTD1 b 0 mr\nYNW1 b 0 mw\nD1 b 0 md\nYRTT1 b 0 mt\nM1 b g 0 mm\n\
                 .op\n.end\n"
            )
        })
}

proptest! {
    /// Custom model cards and waveforms survive `write -> parse` exactly,
    /// and the round trip keeps the deck fingerprint.
    #[test]
    fn model_cards_roundtrip_exactly(deck in device_deck_strategy()) {
        let d1 = parse_netlist(&deck).expect("generated deck parses");
        let d2 = parse_netlist(&write_netlist(&d1.circuit)).expect("writer output parses");
        assert_flat_eq(&d1.circuit, &d2.circuit)?;
        prop_assert_eq!(deck_fingerprint(&d1.circuit), deck_fingerprint(&d2.circuit));
    }
}
