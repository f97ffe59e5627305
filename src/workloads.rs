//! The circuits behind every experiment in the paper.
//!
//! | Builder | Paper artifact |
//! |---------|----------------|
//! | [`rtd_divider`] | Figure 7(a) DC workload, Table I row |
//! | [`nanowire_divider`] | Figure 7(b) DC workload, Table I row |
//! | [`fet_rtd_inverter`] | Figure 8(a) transient workload |
//! | [`rtd_d_flip_flop`] | Figure 9(a) clocked-latch workload |
//! | [`noisy_rc_node`] | Figure 10 stochastic workload |
//! | [`rtd_chain`], [`rtd_mesh`] | Table I scaling rows |
//!
//! Every builder returns a validated [`Circuit`]; source/element names are
//! stable so analyses can reference them (`"V1"`, `"Vin"`, `"Vclk"`,
//! `"out"`, ...).

use nanosim_circuit::Circuit;
use nanosim_devices::mosfet::{MosType, Mosfet, MosfetParams};
use nanosim_devices::nanowire::Nanowire;
use nanosim_devices::rtd::Rtd;
use nanosim_devices::sources::{PulseParams, SourceWaveform};

/// Figure 7(a): a voltage source driving an RTD through a series resistor
/// ("the circuit consisted of a series combination of a resistor and an RTD
/// across a voltage source"). Sweep `V1`; the RTD current is `I(X1)` and
/// the RTD voltage is node `mid`.
pub fn rtd_divider(series_ohms: f64) -> Circuit {
    let mut ckt = Circuit::new();
    ckt.set_title("rtd voltage divider (paper fig. 7a)");
    let vin = ckt.node("in");
    let mid = ckt.node("mid");
    ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(0.0))
        .expect("fresh names");
    ckt.add_resistor("R1", vin, mid, series_ohms)
        .expect("positive resistance");
    ckt.add_rtd("X1", mid, Circuit::GROUND, Rtd::date2005())
        .expect("fresh names");
    ckt
}

/// Figure 7(b): the same divider with a quantum wire / CNT in place of the
/// RTD ("a range of voltages were applied to the series combination of a
/// nanowire and a resistor"). Sweep `V1`; the wire current is `I(W1)`.
pub fn nanowire_divider(series_ohms: f64) -> Circuit {
    let mut ckt = Circuit::new();
    ckt.set_title("nanowire voltage divider (paper fig. 7b)");
    let vin = ckt.node("in");
    let mid = ckt.node("mid");
    ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(0.0))
        .expect("fresh names");
    ckt.add_resistor("R1", vin, mid, series_ohms)
        .expect("positive resistance");
    ckt.add_nanowire("W1", mid, Circuit::GROUND, Nanowire::metallic_cnt())
        .expect("fresh names");
    ckt
}

/// The wide NMOS used as the inverter pull-down and the flip-flop data
/// switch — strong enough to out-drive an RTD branch.
fn switch_fet() -> Mosfet {
    Mosfet::new(MosfetParams {
        mos_type: MosType::Nmos,
        k: 1e-4,
        w: 100.0,
        l: 1.0,
        vth: 1.0,
        lambda: 0.0,
    })
    .expect("valid parameters")
}

/// Figure 8(a): the FET-RTD inverter. Two series RTDs between `vdd` (5 V)
/// and ground form the load; the output is "the junction of two RTDs"
/// (node `out`), and the input FET in parallel with the lower RTD pulls it
/// down. `Vin` pulses 0 → 5 V (paper §5.2).
///
/// With `Vin` low the RTD pair divides 5 V symmetrically (`out` ≈ 2.5 V);
/// with `Vin` high the FET wins and `out` drops — an inverter whose upper
/// RTD is pushed through its NDR region at every edge, which is what breaks
/// SPICE3 in Figure 8(c).
pub fn fet_rtd_inverter() -> Circuit {
    let mut ckt = Circuit::new();
    ckt.set_title("fet-rtd inverter (paper fig. 8a)");
    let vdd = ckt.node("vdd");
    let out = ckt.node("out");
    let vin = ckt.node("in");
    ckt.add_voltage_source("Vdd", vdd, Circuit::GROUND, SourceWaveform::dc(5.0))
        .expect("fresh names");
    ckt.add_voltage_source(
        "Vin",
        vin,
        Circuit::GROUND,
        SourceWaveform::pulse(PulseParams {
            v1: 0.0,
            v2: 5.0,
            delay: 5e-9,
            rise: 1e-9,
            fall: 1e-9,
            width: 44e-9,
            period: 100e-9,
        })
        .expect("valid pulse"),
    )
    .expect("fresh names");
    ckt.add_rtd("X1", vdd, out, Rtd::date2005())
        .expect("fresh names");
    ckt.add_rtd("X2", out, Circuit::GROUND, Rtd::date2005())
        .expect("fresh names");
    ckt.add_mosfet("M1", out, vin, Circuit::GROUND, switch_fet())
        .expect("fresh names");
    ckt.add_capacitor("CL", out, Circuit::GROUND, 10e-15)
        .expect("fresh names");
    // Small input-side parasitic keeps the source node well-behaved.
    ckt.add_capacitor("Cin", vin, Circuit::GROUND, 1e-15)
        .expect("fresh names");
    ckt
}

/// The Figure 8(c) stress variant of the inverter: narrow-resonance RTDs
/// (`Rtd::sharp_valley`, NDR window ≈ 0.1 V) at `Vdd = 4 V`, which parks
/// the divider in its bistable region. Plain Newton–Raphson fails on steps
/// of this deck (reported via `NrTransientResult::failures`) while SWEC
/// completes — the paper's "SPICE3 fails to converge to the correct
/// solution".
pub fn fet_rtd_inverter_stress() -> Circuit {
    let mut ckt = Circuit::new();
    ckt.set_title("fet-rtd inverter, NDR stress variant (paper fig. 8c)");
    let vdd = ckt.node("vdd");
    let out = ckt.node("out");
    let vin = ckt.node("in");
    ckt.add_voltage_source("Vdd", vdd, Circuit::GROUND, SourceWaveform::dc(4.0))
        .expect("fresh names");
    ckt.add_voltage_source(
        "Vin",
        vin,
        Circuit::GROUND,
        SourceWaveform::pulse(PulseParams {
            v1: 0.0,
            v2: 5.0,
            delay: 5e-9,
            rise: 1e-9,
            fall: 1e-9,
            width: 44e-9,
            period: 100e-9,
        })
        .expect("valid pulse"),
    )
    .expect("fresh names");
    ckt.add_rtd("X1", vdd, out, Rtd::sharp_valley())
        .expect("fresh names");
    ckt.add_rtd("X2", out, Circuit::GROUND, Rtd::sharp_valley())
        .expect("fresh names");
    ckt.add_mosfet("M1", out, vin, Circuit::GROUND, switch_fet())
        .expect("fresh names");
    ckt.add_capacitor("CL", out, Circuit::GROUND, 10e-15)
        .expect("fresh names");
    ckt.add_capacitor("Cin", vin, Circuit::GROUND, 1e-15)
        .expect("fresh names");
    ckt
}

/// Figure 9(a): the RTD D-flip-flop — a MOBILE-style clocked latch
/// (Mazumder et al., paper ref. \[6\]). Two series RTDs are biased by the
/// clock; the data FET in parallel with the *load* RTD steers which RTD
/// switches into its high-voltage state on the rising clock edge, latching
/// `D` onto `out` until the clock falls.
///
/// Default timing matches Figure 9: 100 ns clock period (rising edges at
/// 50, 150, 250, **350** ns...), data switching at **300 ns** — the output
/// follows at the 350 ns edge.
pub fn rtd_d_flip_flop() -> Circuit {
    let mut ckt = Circuit::new();
    ckt.set_title("rtd d flip-flop (paper fig. 9a)");
    let clk = ckt.node("clk");
    let out = ckt.node("out");
    let d = ckt.node("d");
    ckt.add_voltage_source(
        "Vclk",
        clk,
        Circuit::GROUND,
        SourceWaveform::pulse(PulseParams {
            v1: 0.0,
            v2: 6.5,
            delay: 50e-9,
            rise: 5e-9,
            fall: 5e-9,
            width: 40e-9,
            period: 100e-9,
        })
        .expect("valid pulse"),
    )
    .expect("fresh names");
    ckt.add_voltage_source(
        "Vd",
        d,
        Circuit::GROUND,
        SourceWaveform::pwl(vec![(0.0, 0.0), (300e-9, 0.0), (302e-9, 5.0), (1e-3, 5.0)])
            .expect("valid pwl"),
    )
    .expect("fresh names");
    // Load RTD (clk -> out) with the data FET in parallel.
    ckt.add_rtd("Xload", clk, out, Rtd::date2005())
        .expect("fresh names");
    ckt.add_mosfet("Md", clk, d, out, switch_fet())
        .expect("fresh names");
    // Driver RTD (out -> gnd).
    ckt.add_rtd("Xdrv", out, Circuit::GROUND, Rtd::date2005())
        .expect("fresh names");
    ckt.add_capacitor("CL", out, Circuit::GROUND, 10e-15)
        .expect("fresh names");
    ckt.add_capacitor("Cd", d, Circuit::GROUND, 1e-15)
        .expect("fresh names");
    ckt
}

/// Figure 10: a nanoscale node with parasitic RC driven by an uncertain
/// (white-noise) current — the Ornstein–Uhlenbeck workload of §5.3.
///
/// `g` siemens to ground, `c` farads to ground, DC drive `i_dc` and noise
/// intensity `i_noise` (A·√s). The node is named `v`.
///
/// # Panics
/// Panics if `g`, `c` are not positive or `i_noise` is negative.
pub fn noisy_rc_node(g: f64, c: f64, i_dc: f64, i_noise: f64) -> Circuit {
    let mut ckt = Circuit::new();
    ckt.set_title("noisy rc node (paper fig. 10)");
    let v = ckt.node("v");
    ckt.add_current_source(
        "In",
        Circuit::GROUND,
        v,
        SourceWaveform::white_noise(i_dc, i_noise).expect("non-negative intensity"),
    )
    .expect("fresh names");
    ckt.add_resistor("R1", v, Circuit::GROUND, 1.0 / g)
        .expect("positive resistance");
    ckt.add_capacitor("C1", v, Circuit::GROUND, c)
        .expect("positive capacitance");
    ckt
}

/// The paper's Figure 10 parameter point: τ = 1 ns (g = 1 mS, c = 1 pF),
/// 0.85 V asymptotic operating point (the node reaches ≈ 0.54 V within the
/// 1 ns window) and noise sized so the 0–1 ns running maximum lands near
/// the paper's "possible performance peak about 0.6 V".
pub fn noisy_rc_node_fig10() -> Circuit {
    noisy_rc_node(1e-3, 1e-12, 0.85e-3, 2.2e-9)
}

/// Table I scaling workload: a chain of `n` R-RTD sections
/// (`in -R- m1 -R- m2 ...` with an RTD to ground at every tap). Node names
/// are `m1..mn`; devices are `X1..Xn`.
///
/// # Panics
/// Panics if `n == 0`.
pub fn rtd_chain(n: usize) -> Circuit {
    assert!(n > 0, "chain needs at least one section");
    let mut ckt = Circuit::new();
    ckt.set_title(format!("rtd chain x{n} (table I)"));
    let vin = ckt.node("in");
    ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(0.0))
        .expect("fresh names");
    let mut prev = vin;
    for k in 1..=n {
        let node = ckt.node(&format!("m{k}"));
        ckt.add_resistor(&format!("R{k}"), prev, node, 50.0)
            .expect("fresh names");
        ckt.add_rtd(&format!("X{k}"), node, Circuit::GROUND, Rtd::date2005())
            .expect("fresh names");
        prev = node;
    }
    ckt
}

/// Table I scaling workload: an `n x n` resistor mesh with an RTD to ground
/// at every grid node and the source at the corner. Grid nodes are named
/// `g<r>_<c>`.
///
/// The MNA system has `n² + 2` unknowns (`n²` grid nodes, the feed node,
/// one source branch current), so `n = 10` stays below
/// [`crate::prelude::OrderingChoice`]'s auto-AMD threshold while `n ≥ 12`
/// crosses it. [`rtd_mesh_cells`] (builder + `.subckt`) and
/// [`rtd_mesh_deck`] (deck text) produce the same flat topology.
///
/// # Panics
/// Panics if `n == 0`.
pub fn rtd_mesh(n: usize) -> Circuit {
    assert!(n > 0, "mesh needs at least one node");
    let mut ckt = Circuit::new();
    ckt.set_title(format!("rtd mesh {n}x{n} (table I)"));
    let vin = ckt.node("in");
    ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(0.0))
        .expect("fresh names");
    // Corner feed.
    let first = ckt.node("g0_0");
    ckt.add_resistor("Rin", vin, first, 50.0).expect("fresh");
    for r in 0..n {
        for c in 0..n {
            let here = ckt.node(&format!("g{r}_{c}"));
            ckt.add_rtd(&format!("X{r}_{c}"), here, Circuit::GROUND, Rtd::date2005())
                .expect("fresh names");
            if c + 1 < n {
                let right = ckt.node(&format!("g{r}_{}", c + 1));
                ckt.add_resistor(&format!("Rh{r}_{c}"), here, right, 100.0)
                    .expect("fresh names");
            }
            if r + 1 < n {
                let down = ckt.node(&format!("g{}_{c}", r + 1));
                ckt.add_resistor(&format!("Rv{r}_{c}"), here, down, 100.0)
                    .expect("fresh names");
            }
        }
    }
    ckt
}

/// The Table I mesh expressed hierarchically: one `.subckt cell` holding
/// the repeated nano-cell (the RTD to ground), instantiated `n²` times,
/// with the grid resistors wired at top level.
///
/// Produces the **same flat circuit topology, node order and element
/// order** as [`rtd_mesh`] — only names differ by the deterministic
/// mangling (`X<r>_<c>` instances, `YRTD1.X<r>_<c>` devices) — so engine
/// results are bit-identical to the hand-unrolled mesh (locked by
/// `tests/hierarchy.rs`).
///
/// # Panics
/// Panics if `n == 0`.
pub fn rtd_mesh_cells(n: usize) -> Circuit {
    assert!(n > 0, "mesh needs at least one node");
    let mut b = nanosim_circuit::CircuitBuilder::new();
    b.set_title(format!("rtd mesh {n}x{n} as subckt cells (table I)"));
    let mut cell = nanosim_circuit::SubcktDef::new("cell", ["t"]);
    cell.rtd("YRTD1", "t", "0", Rtd::date2005());
    b.define(cell).expect("fresh definition");
    let vin = b.node("in");
    b.circuit_mut()
        .add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(0.0))
        .expect("fresh names");
    let first = b.node("g0_0");
    b.circuit_mut()
        .add_resistor("Rin", vin, first, 50.0)
        .expect("fresh");
    for r in 0..n {
        for c in 0..n {
            let here = b.node(&format!("g{r}_{c}"));
            b.instantiate(&format!("X{r}_{c}"), "cell", &[here], &[])
                .expect("cell instantiates");
            if c + 1 < n {
                let right = b.node(&format!("g{r}_{}", c + 1));
                b.circuit_mut()
                    .add_resistor(&format!("Rh{r}_{c}"), here, right, 100.0)
                    .expect("fresh names");
            }
            if r + 1 < n {
                let down = b.node(&format!("g{}_{c}", r + 1));
                b.circuit_mut()
                    .add_resistor(&format!("Rv{r}_{c}"), here, down, 100.0)
                    .expect("fresh names");
            }
        }
    }
    b.finish()
}

/// The Table I mesh as SPICE-like deck text: `.subckt cell` plus `n²`
/// `X` instance lines (the headline hierarchical-frontend demo; parsing
/// it reproduces [`rtd_mesh_cells`] exactly).
pub fn rtd_mesh_deck(n: usize) -> String {
    assert!(n > 0, "mesh needs at least one node");
    let mut deck = String::new();
    deck.push_str(&format!(
        ".title rtd mesh {n}x{n} as subckt cells (table I)\n"
    ));
    deck.push_str(".subckt cell t\nYRTD1 t 0\n.ends cell\n");
    deck.push_str("V1 in 0 DC 0\nRin in g0_0 50\n");
    for r in 0..n {
        for c in 0..n {
            deck.push_str(&format!("X{r}_{c} g{r}_{c} cell\n"));
            if c + 1 < n {
                deck.push_str(&format!("Rh{r}_{c} g{r}_{c} g{r}_{} 100\n", c + 1));
            }
            if r + 1 < n {
                deck.push_str(&format!("Rv{r}_{c} g{r}_{c} g{}_{c} 100\n", r + 1));
            }
        }
    }
    deck.push_str(".end\n");
    deck
}

/// Parameterized variant of [`rtd_mesh_deck`]: the grid and feed
/// resistances come from `.param rgrid`/`rfeed` globals referenced via
/// `{name}`, and the deck carries a `.dc` sweep directive so it can be
/// submitted to the service layer as-is. Override the parameters through
/// [`nanosim_circuit::parse_netlist_with_params`] (or a service
/// `BatchRequest`) to fan one topology into a whole resistance study —
/// every grid point shares the same sparsity pattern, so pooled sessions
/// stay warm across the sweep.
///
/// # Panics
/// Panics if `n == 0`.
pub fn rtd_mesh_param_deck(n: usize) -> String {
    assert!(n > 0, "mesh needs at least one node");
    let mut deck = String::new();
    deck.push_str(&format!(
        ".title rtd mesh {n}x{n} parameter study (table I)\n"
    ));
    deck.push_str(".param rgrid=100 rfeed=50\n");
    deck.push_str(".subckt cell t\nYRTD1 t 0\n.ends cell\n");
    deck.push_str("V1 in 0 DC 0\nRin in g0_0 {rfeed}\n");
    for r in 0..n {
        for c in 0..n {
            deck.push_str(&format!("X{r}_{c} g{r}_{c} cell\n"));
            if c + 1 < n {
                deck.push_str(&format!("Rh{r}_{c} g{r}_{c} g{r}_{} {{rgrid}}\n", c + 1));
            }
            if r + 1 < n {
                deck.push_str(&format!("Rv{r}_{c} g{r}_{c} g{}_{c} {{rgrid}}\n", r + 1));
            }
        }
    }
    deck.push_str(".dc V1 0 3 0.5\n.end\n");
    deck
}

/// Cartesian parameter grid over named axes, first axis slowest — the
/// batch front-end's fan-out order. Returns one `(name, value)` override
/// list per grid point; feed each to
/// [`nanosim_circuit::parse_netlist_with_params`] or a service
/// `BatchRequest`'s `grid`.
///
/// ```
/// let grid = nanosim::workloads::param_grid(&[
///     ("rgrid".into(), vec![50.0, 100.0]),
///     ("rfeed".into(), vec![25.0]),
/// ]);
/// assert_eq!(grid.len(), 2);
/// assert_eq!(grid[0], vec![("rgrid".into(), 50.0), ("rfeed".into(), 25.0)]);
/// ```
pub fn param_grid(axes: &[(String, Vec<f64>)]) -> Vec<Vec<(String, f64)>> {
    nanosim_serve::expand_axes(axes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_validate() {
        for (name, ckt) in [
            ("rtd_divider", rtd_divider(50.0)),
            ("nanowire_divider", nanowire_divider(100.0)),
            ("fet_rtd_inverter", fet_rtd_inverter()),
            ("rtd_d_flip_flop", rtd_d_flip_flop()),
            ("noisy_rc_node", noisy_rc_node_fig10()),
            ("rtd_chain", rtd_chain(4)),
            ("rtd_mesh", rtd_mesh(3)),
        ] {
            assert!(ckt.validate().is_ok(), "{name} failed validation");
        }
    }

    #[test]
    fn chain_and_mesh_scale() {
        assert_eq!(rtd_chain(1).elements().len(), 3);
        assert_eq!(rtd_chain(5).elements().len(), 11);
        // Mesh n x n: 1 source + 1 feed resistor + n^2 RTDs + 2n(n-1) wires.
        let n = 3;
        let expected = 2 + n * n + 2 * n * (n - 1);
        assert_eq!(rtd_mesh(n).elements().len(), expected);
    }

    #[test]
    fn stable_names_for_analyses() {
        let ckt = fet_rtd_inverter();
        assert!(ckt.element("Vin").is_some());
        assert!(ckt.element("X1").is_some());
        assert!(ckt.find_node("out").is_some());
        let ckt = rtd_d_flip_flop();
        assert!(ckt.element("Vclk").is_some());
        assert!(ckt.element("Vd").is_some());
        assert!(ckt.find_node("out").is_some());
    }

    #[test]
    #[should_panic(expected = "at least one section")]
    fn chain_rejects_zero() {
        rtd_chain(0);
    }

    #[test]
    fn param_deck_matches_mesh_topology_and_honors_overrides() {
        let n = 3;
        let base = nanosim_circuit::parse_netlist(&rtd_mesh_param_deck(n)).unwrap();
        let plain = nanosim_circuit::parse_netlist(&rtd_mesh_deck(n)).unwrap();
        assert_eq!(
            nanosim_circuit::topology_fingerprint(&base.circuit),
            nanosim_circuit::topology_fingerprint(&plain.circuit),
            "parameterized mesh must share the plain mesh's pattern"
        );
        assert_eq!(base.analyses.len(), 1, "deck carries its .dc directive");
        let over = nanosim_circuit::parse_netlist_with_params(
            &rtd_mesh_param_deck(n),
            &[("rgrid".into(), 220.0)],
        )
        .unwrap();
        assert_eq!(over.params["rgrid"], 220.0);
        assert_ne!(
            nanosim_circuit::deck_fingerprint(&base.circuit),
            nanosim_circuit::deck_fingerprint(&over.circuit),
            "override must change component values"
        );
        assert_eq!(
            nanosim_circuit::topology_fingerprint(&base.circuit),
            nanosim_circuit::topology_fingerprint(&over.circuit),
            "override must not change the pattern"
        );
    }

    #[test]
    fn param_grid_is_cartesian_first_axis_slowest() {
        let grid = param_grid(&[
            ("rgrid".into(), vec![50.0, 100.0]),
            ("rfeed".into(), vec![25.0, 75.0]),
        ]);
        assert_eq!(grid.len(), 4);
        assert_eq!(
            grid[0],
            vec![("rgrid".into(), 50.0), ("rfeed".into(), 25.0)]
        );
        assert_eq!(
            grid[1],
            vec![("rgrid".into(), 50.0), ("rfeed".into(), 75.0)]
        );
        assert_eq!(
            grid[3],
            vec![("rgrid".into(), 100.0), ("rfeed".into(), 75.0)]
        );
    }

    #[test]
    fn rtd_mesh_n_scales_to_bench_sizes() {
        for n in [10usize, 20, 40] {
            let ckt = rtd_mesh(n);
            let expected = 2 + n * n + 2 * n * (n - 1);
            assert_eq!(ckt.elements().len(), expected, "n = {n}");
            assert!(ckt.validate().is_ok(), "n = {n}");
            // The deck variant names the same cells.
            let deck = rtd_mesh_deck(n);
            assert!(deck.contains(&format!("X{}_{} g{}_{} cell", n - 1, n - 1, n - 1, n - 1)));
        }
    }
}
