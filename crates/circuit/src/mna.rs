//! Modified nodal analysis (MNA) assembly.
//!
//! Maps a [`Circuit`] onto the paper's state equation (eq. 1)
//!
//! ```text
//! G(t)·V(t) + C·V̇(t) = b·u(t)
//! ```
//!
//! with one unknown per non-ground node voltage plus one branch current per
//! voltage source and inductor. The *linear* parts of `G`, all of `C` and
//! the source vector `b` are stamped here; the nonlinear devices are exposed
//! as [`NonlinearBinding`]s / [`MosfetBinding`]s so each engine can stamp
//! them its own way — `Geq` for SWEC, the Newton companion model for the
//! SPICE baseline, segment conductances for the PWL baseline.

use crate::element::{ElementKind, SharedDevice};
use crate::error::CircuitError;
use crate::netlist::Circuit;
use crate::node::NodeId;
use crate::Result;
use nanosim_devices::mosfet::Mosfet;
use nanosim_devices::sources::SourceWaveform;
use nanosim_numeric::sparse::{CsrMatrix, TripletMatrix};

/// A nonlinear two-terminal device bound to its MNA variables.
#[derive(Debug, Clone)]
pub struct NonlinearBinding {
    /// Index into [`Circuit::elements`].
    pub element_index: usize,
    /// Element name.
    pub name: String,
    /// MNA variable of the positive terminal (`None` = ground).
    pub var_plus: Option<usize>,
    /// MNA variable of the negative terminal (`None` = ground).
    pub var_minus: Option<usize>,
    /// The device model.
    pub device: SharedDevice,
}

/// A MOSFET bound to its MNA variables (`drain`, `gate`, `source`).
#[derive(Debug, Clone)]
pub struct MosfetBinding {
    /// Index into [`Circuit::elements`].
    pub element_index: usize,
    /// Element name.
    pub name: String,
    /// Drain variable (`None` = ground).
    pub var_drain: Option<usize>,
    /// Gate variable (`None` = ground).
    pub var_gate: Option<usize>,
    /// Source variable (`None` = ground).
    pub var_source: Option<usize>,
    /// The device model.
    pub model: Mosfet,
}

/// A stochastic (white-noise) source bound to its MNA rows: contributes the
/// column `B(:, k)` of the paper's `B·dW` term.
#[derive(Debug, Clone)]
pub struct NoiseBinding {
    /// Index into [`Circuit::elements`].
    pub element_index: usize,
    /// Element name.
    pub name: String,
    /// `(mna_row, coefficient)` pairs of the B-matrix column.
    pub rows: Vec<(usize, f64)>,
}

/// The MNA view of a circuit: variable numbering, the stamped linear parts
/// of `G` and `C`, and stamping routines.
#[derive(Debug, Clone)]
pub struct MnaSystem {
    circuit: Circuit,
    /// The linear (time-invariant) part of `G` as triplets.
    g_lin: TripletMatrix,
    /// The capacitance/inductance matrix `C` as triplets.
    c: TripletMatrix,
    /// `C` in CSR form, for `C·x` products and EM's factorization.
    c_csr: CsrMatrix,
    num_nodes: usize,
    num_branches: usize,
    /// element index -> branch variable offset (voltage sources, inductors,
    /// VCVS and CCVS elements).
    branch_of: Vec<Option<usize>>,
    /// element index -> branch offset of the *controlling* element (CCCS /
    /// CCVS current references, resolved by name at construction).
    ctrl_branch_of: Vec<Option<usize>>,
    nonlinear: Vec<NonlinearBinding>,
    mosfets: Vec<MosfetBinding>,
    noise: Vec<NoiseBinding>,
}

impl MnaSystem {
    /// Builds the MNA structure for a validated circuit.
    ///
    /// # Errors
    /// Propagates [`Circuit::validate`] failures.
    pub fn new(circuit: &Circuit) -> Result<Self> {
        circuit.validate()?;
        let num_nodes = circuit.node_count() - 1; // ground eliminated
        let mut branch_of = vec![None; circuit.elements().len()];
        let mut num_branches = 0usize;
        for (i, e) in circuit.elements().iter().enumerate() {
            if e.kind().needs_branch_current() {
                branch_of[i] = Some(num_branches);
                num_branches += 1;
            }
        }
        // Resolve F/H current references (by case-insensitive name, as the
        // parser preserves user spelling) to the controlling element's
        // branch offset. `Circuit::validate` has already rejected missing or
        // branchless references.
        let mut ctrl_branch_of = vec![None; circuit.elements().len()];
        for (i, e) in circuit.elements().iter().enumerate() {
            if let Some(control) = e.kind().control_name() {
                let target = circuit
                    .elements()
                    .iter()
                    .position(|c| c.name() == control)
                    .or_else(|| {
                        circuit
                            .elements()
                            .iter()
                            .position(|c| c.name().eq_ignore_ascii_case(control))
                    });
                match target.and_then(|t| branch_of[t]) {
                    Some(b) => ctrl_branch_of[i] = Some(b),
                    None => {
                        return Err(CircuitError::UnknownControl {
                            element: e.name().to_string(),
                            control: control.to_string(),
                        });
                    }
                }
            }
        }
        let var_of = |n: NodeId| -> Option<usize> {
            if n.is_ground() {
                None
            } else {
                Some(n.index() - 1)
            }
        };
        let mut nonlinear = Vec::new();
        let mut mosfets = Vec::new();
        let mut noise = Vec::new();
        for (i, e) in circuit.elements().iter().enumerate() {
            match e.kind() {
                ElementKind::Nonlinear { device } => nonlinear.push(NonlinearBinding {
                    element_index: i,
                    name: e.name().to_string(),
                    var_plus: var_of(e.node_plus()),
                    var_minus: var_of(e.node_minus()),
                    device: device.clone(),
                }),
                ElementKind::Mosfet { model } => {
                    let ns = e.nodes();
                    mosfets.push(MosfetBinding {
                        element_index: i,
                        name: e.name().to_string(),
                        var_drain: var_of(ns[0]),
                        var_gate: var_of(ns[1]),
                        var_source: var_of(ns[2]),
                        model: model.clone(),
                    });
                }
                ElementKind::CurrentSource { waveform } if waveform.is_stochastic() => {
                    let mut rows = Vec::new();
                    let intensity = waveform.noise_intensity();
                    if let Some(p) = var_of(e.node_plus()) {
                        rows.push((p, -intensity));
                    }
                    if let Some(m) = var_of(e.node_minus()) {
                        rows.push((m, intensity));
                    }
                    noise.push(NoiseBinding {
                        element_index: i,
                        name: e.name().to_string(),
                        rows,
                    });
                }
                ElementKind::VoltageSource { waveform } if waveform.is_stochastic() => {
                    let br = branch_of[i].expect("voltage source has a branch");
                    noise.push(NoiseBinding {
                        element_index: i,
                        name: e.name().to_string(),
                        rows: vec![(num_nodes + br, waveform.noise_intensity())],
                    });
                }
                _ => {}
            }
        }
        let dim = num_nodes + num_branches;
        let mut mna = MnaSystem {
            circuit: circuit.clone(),
            g_lin: TripletMatrix::default(),
            c: TripletMatrix::default(),
            c_csr: CsrMatrix::from_triplets(0, 0, &[]),
            num_nodes,
            num_branches,
            branch_of,
            ctrl_branch_of,
            nonlinear,
            mosfets,
            noise,
        };
        let (mut g_lin, mut c) = (TripletMatrix::new(dim, dim), TripletMatrix::new(dim, dim));
        mna.stamp_linear_g(&mut g_lin);
        mna.stamp_c(&mut c);
        mna.c_csr = c.to_csr();
        (mna.g_lin, mna.c) = (g_lin, c);
        Ok(mna)
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Number of MNA unknowns (node voltages + branch currents).
    pub fn dim(&self) -> usize {
        self.num_nodes + self.num_branches
    }

    /// Number of non-ground node-voltage unknowns.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of branch-current unknowns.
    pub fn num_branches(&self) -> usize {
        self.num_branches
    }

    /// MNA variable index of a node (`None` for ground).
    pub fn var_of_node(&self, n: NodeId) -> Option<usize> {
        if n.is_ground() {
            None
        } else {
            Some(n.index() - 1)
        }
    }

    /// Branch-current variable of an element, if it has one.
    pub fn branch_var(&self, element_index: usize) -> Option<usize> {
        self.branch_of
            .get(element_index)
            .copied()
            .flatten()
            .map(|b| self.num_nodes + b)
    }

    /// The nonlinear two-terminal device bindings.
    pub fn nonlinear_bindings(&self) -> &[NonlinearBinding] {
        &self.nonlinear
    }

    /// The MOSFET bindings.
    pub fn mosfet_bindings(&self) -> &[MosfetBinding] {
        &self.mosfets
    }

    /// The stochastic-source bindings (columns of `B`).
    pub fn noise_bindings(&self) -> &[NoiseBinding] {
        &self.noise
    }

    /// Stamps a conductance `g` between two MNA node variables.
    pub fn stamp_conductance(
        t: &mut TripletMatrix,
        var_plus: Option<usize>,
        var_minus: Option<usize>,
        g: f64,
    ) {
        if let Some(p) = var_plus {
            t.push(p, p, g);
            if let Some(m) = var_minus {
                t.push(p, m, -g);
                t.push(m, p, -g);
            }
        }
        if let Some(m) = var_minus {
            t.push(m, m, g);
        }
    }

    /// The linear (time-invariant) part of `G` as triplets: resistors plus
    /// the voltage-source, inductor and controlled-source relations.
    pub fn linear_g(&self) -> &TripletMatrix {
        &self.g_lin
    }

    /// The capacitance matrix `C` as triplets: capacitors on node variables
    /// and `-L` on inductor branch diagonals (the branch equation
    /// `v - L·di/dt = 0`).
    pub fn c_triplets(&self) -> &TripletMatrix {
        &self.c
    }

    /// `C` in CSR form (see [`MnaSystem::c_triplets`]), built once with
    /// the system.
    pub fn c_matrix(&self) -> &CsrMatrix {
        &self.c_csr
    }

    /// Stamps the linear part of `G` (see [`MnaSystem::linear_g`]).
    fn stamp_linear_g(&self, t: &mut TripletMatrix) {
        for (i, e) in self.circuit.elements().iter().enumerate() {
            let vp = self.var_of_node(e.node_plus());
            let vm = if e.nodes().len() >= 2 {
                self.var_of_node(e.nodes()[1])
            } else {
                None
            };
            // Branch incidence: the branch current enters at p and leaves
            // at m, and the branch row reads v(p) - v(m).
            let incidence = |t: &mut TripletMatrix, br: usize| {
                if let Some(p) = vp {
                    t.push(p, br, 1.0);
                    t.push(br, p, 1.0);
                }
                if let Some(m) = vm {
                    t.push(m, br, -1.0);
                    t.push(br, m, -1.0);
                }
            };
            match e.kind() {
                ElementKind::Resistor { resistance } => {
                    Self::stamp_conductance(t, vp, vm, 1.0 / resistance);
                }
                ElementKind::VoltageSource { .. } | ElementKind::Inductor { .. } => {
                    incidence(t, self.num_nodes + self.branch_of[i].expect("branch"));
                }
                ElementKind::Vcvs { gain } => {
                    // Branch row: v(p) - v(m) - gain·(v(cp) - v(cm)) = 0.
                    let br = self.num_nodes + self.branch_of[i].expect("branch");
                    let vcp = self.var_of_node(e.nodes()[2]);
                    let vcm = self.var_of_node(e.nodes()[3]);
                    incidence(t, br);
                    if let Some(cp) = vcp {
                        t.push(br, cp, -gain);
                    }
                    if let Some(cm) = vcm {
                        t.push(br, cm, *gain);
                    }
                }
                ElementKind::Vccs { gm } => {
                    // i(p→m) = gm·(v(cp) - v(cm)) as KCL injections.
                    let vcp = self.var_of_node(e.nodes()[2]);
                    let vcm = self.var_of_node(e.nodes()[3]);
                    for (node, sign) in [(vp, 1.0), (vm, -1.0)] {
                        if let Some(n) = node {
                            if let Some(cp) = vcp {
                                t.push(n, cp, sign * gm);
                            }
                            if let Some(cm) = vcm {
                                t.push(n, cm, -sign * gm);
                            }
                        }
                    }
                }
                ElementKind::Cccs { gain, .. } => {
                    // i(p→m) = gain·i(control): couple to the controlling
                    // element's branch-current column.
                    let bc = self.num_nodes + self.ctrl_branch_of[i].expect("resolved control");
                    if let Some(p) = vp {
                        t.push(p, bc, *gain);
                    }
                    if let Some(m) = vm {
                        t.push(m, bc, -gain);
                    }
                }
                ElementKind::Ccvs { r, .. } => {
                    // Branch row: v(p) - v(m) - r·i(control) = 0.
                    let br = self.num_nodes + self.branch_of[i].expect("branch");
                    let bc = self.num_nodes + self.ctrl_branch_of[i].expect("resolved control");
                    incidence(t, br);
                    t.push(br, bc, -r);
                }
                _ => {}
            }
        }
    }

    /// Stamps `C` (see [`MnaSystem::c_triplets`]).
    fn stamp_c(&self, t: &mut TripletMatrix) {
        for (i, e) in self.circuit.elements().iter().enumerate() {
            match e.kind() {
                ElementKind::Capacitor { capacitance, .. } => {
                    let vp = self.var_of_node(e.node_plus());
                    let vm = self.var_of_node(e.nodes()[1]);
                    Self::stamp_conductance(t, vp, vm, *capacitance);
                }
                ElementKind::Inductor { inductance } => {
                    let br = self.num_nodes + self.branch_of[i].expect("branch");
                    t.push(br, br, -inductance);
                }
                _ => {}
            }
        }
    }

    /// The system-matrix pattern every engine assembles into, in CSR form,
    /// and the one place that decides which `(row, col)` slots a stamp may
    /// write. Its values are the linear part of `G`; every nonlinear-device
    /// and MOSFET drain–source conductance site holds a structural zero, as
    /// do the MOSFET transconductance sites `(d,g)`, `(d,s)`, `(s,g)`,
    /// `(s,s)` when `with_mos_gm` (Newton companions) and the `C` sites when
    /// `with_c` (transient `G + C/h`). `(false, false)` is the pattern every
    /// operating point factors.
    pub fn system_pattern(&self, with_mos_gm: bool, with_c: bool) -> CsrMatrix {
        let dim = self.dim();
        // One allocation: the linear-G entries plus a bound on the rest.
        let sites = self.c.len() + 4 * self.nonlinear.len() + 8 * self.mosfets.len();
        let mut t = TripletMatrix::with_capacity(dim, dim, self.g_lin.len() + sites);
        for &(r, c, v) in self.g_lin.iter() {
            t.push(r, c, v);
        }
        // Structural zeros. The push order fixes the order `to_csr` sums
        // duplicates in, so keep it: assembled values stay bit for bit.
        let zeros = |t: &mut TripletMatrix, sites: [(Option<usize>, Option<usize>); 4]| {
            for (r, c) in sites {
                if let (Some(r), Some(c)) = (r, c) {
                    t.push(r, c, 0.0);
                }
            }
        };
        for b in &self.nonlinear {
            let (p, m) = (b.var_plus, b.var_minus);
            zeros(&mut t, [(p, p), (m, m), (p, m), (m, p)]);
        }
        for m in &self.mosfets {
            let (d, g, s) = (m.var_drain, m.var_gate, m.var_source);
            zeros(&mut t, [(d, d), (s, s), (d, s), (s, d)]);
            if with_mos_gm {
                zeros(&mut t, [(d, g), (d, s), (s, g), (s, s)]);
            }
        }
        if with_c {
            for &(r, c, _) in self.c.iter() {
                t.push(r, c, 0.0);
            }
        }
        t.to_csr()
    }

    /// Fills the deterministic right-hand side `b(t)`: current-source
    /// injections on node rows, voltage-source values on branch rows.
    ///
    /// # Panics
    /// Panics if `out.len() != self.dim()`.
    pub fn stamp_rhs(&self, time: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim(), "rhs length mismatch");
        out.fill(0.0);
        for (i, e) in self.circuit.elements().iter().enumerate() {
            match e.kind() {
                ElementKind::CurrentSource { waveform } => {
                    let j = waveform.value(time);
                    if let Some(p) = self.var_of_node(e.node_plus()) {
                        out[p] -= j;
                    }
                    if let Some(m) = self.var_of_node(e.nodes()[1]) {
                        out[m] += j;
                    }
                }
                ElementKind::VoltageSource { waveform } => {
                    let br = self.num_nodes + self.branch_of[i].expect("branch");
                    out[br] += waveform.value(time);
                }
                _ => {}
            }
        }
    }

    /// Largest source slew `max_i |dV_i/dt|` at `time` over all voltage
    /// sources — the `α` of the paper's adaptive time-step bound (eq. 11).
    pub fn max_source_slew(&self, time: f64) -> f64 {
        self.circuit
            .elements()
            .iter()
            .filter_map(|e| match e.kind() {
                ElementKind::VoltageSource { waveform }
                | ElementKind::CurrentSource { waveform } => Some(waveform.slew(time).abs()),
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    /// Source waveform of an element, if it is an independent source.
    pub fn source_waveform(&self, element_index: usize) -> Option<&SourceWaveform> {
        match self.circuit.elements().get(element_index)?.kind() {
            ElementKind::VoltageSource { waveform } | ElementKind::CurrentSource { waveform } => {
                Some(waveform)
            }
            _ => None,
        }
    }

    /// Initial MNA solution vector honoring capacitor initial conditions
    /// (zero elsewhere).
    pub fn initial_state(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.dim()];
        for e in self.circuit.elements() {
            if let ElementKind::Capacitor {
                initial_voltage: Some(v0),
                ..
            } = e.kind()
            {
                // Apply v0 across the capacitor, referenced to the minus node.
                if let Some(p) = self.var_of_node(e.node_plus()) {
                    x[p] = *v0;
                }
            }
        }
        x
    }

    /// Grounded capacitance per node variable, `C_j` in the paper's
    /// time-step bound (eq. 12). Floating capacitors contribute to both
    /// their terminals.
    pub fn node_capacitance(&self) -> Vec<f64> {
        let mut c = vec![0.0; self.num_nodes];
        for e in self.circuit.elements() {
            if let ElementKind::Capacitor { capacitance, .. } = e.kind() {
                if let Some(p) = self.var_of_node(e.node_plus()) {
                    c[p] += capacitance;
                }
                if let Some(m) = self.var_of_node(e.nodes()[1]) {
                    c[m] += capacitance;
                }
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanosim_devices::rtd::Rtd;
    use nanosim_devices::sources::{PulseParams, SourceWaveform};
    use nanosim_numeric::FlopCounter;

    fn rc_circuit() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(5.0))
            .unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_capacitor("C1", b, Circuit::GROUND, 1e-9).unwrap();
        ckt
    }

    #[test]
    fn dimensions_count_nodes_and_branches() {
        let mna = MnaSystem::new(&rc_circuit()).unwrap();
        assert_eq!(mna.num_nodes(), 2);
        assert_eq!(mna.num_branches(), 1);
        assert_eq!(mna.dim(), 3);
    }

    #[test]
    fn var_mapping_skips_ground() {
        let ckt = rc_circuit();
        let mna = MnaSystem::new(&ckt).unwrap();
        assert_eq!(mna.var_of_node(Circuit::GROUND), None);
        let a = ckt.find_node("a").unwrap();
        assert_eq!(mna.var_of_node(a), Some(0));
        assert_eq!(mna.var_of_node(ckt.find_node("b").unwrap()), Some(1));
        assert_eq!(ckt.find_node("zz"), None);
    }

    #[test]
    fn linear_g_stamp_matches_hand_mna() {
        let mna = MnaSystem::new(&rc_circuit()).unwrap();
        let g = mna.linear_g().to_dense();
        let k = 1.0 / 1e3;
        // Node a (var 0): resistor + branch column.
        assert_eq!(g[(0, 0)], k);
        assert_eq!(g[(0, 1)], -k);
        assert_eq!(g[(1, 0)], -k);
        assert_eq!(g[(1, 1)], k);
        // Voltage source branch rows/cols.
        assert_eq!(g[(0, 2)], 1.0);
        assert_eq!(g[(2, 0)], 1.0);
        assert_eq!(g[(2, 2)], 0.0);
    }

    #[test]
    fn c_stamp_and_node_capacitance() {
        let mna = MnaSystem::new(&rc_circuit()).unwrap();
        let c = mna.c_triplets().to_dense();
        assert_eq!(c[(1, 1)], 1e-9);
        assert_eq!(c[(0, 0)], 0.0);
        assert_eq!(mna.node_capacitance(), vec![0.0, 1e-9]);
    }

    #[test]
    fn rhs_places_source_values() {
        let mna = MnaSystem::new(&rc_circuit()).unwrap();
        let mut b = vec![0.0; 3];
        mna.stamp_rhs(0.0, &mut b);
        assert_eq!(b, vec![0.0, 0.0, 5.0]);
    }

    #[test]
    fn current_source_injection_signs() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_current_source("I1", a, Circuit::GROUND, SourceWaveform::dc(2e-3))
            .unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let mna = MnaSystem::new(&ckt).unwrap();
        let mut b = vec![0.0; 1];
        mna.stamp_rhs(0.0, &mut b);
        // Current flows a -> ground through the source, so it leaves node a.
        assert_eq!(b[0], -2e-3);
        // Solving G v = b gives v = -2 V, consistent with SPICE conventions.
        let g = mna.linear_g().to_dense();
        let v = g.solve(&b, &mut FlopCounter::new()).unwrap();
        assert!((v[0] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn inductor_gets_branch_and_negative_l_in_c() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        ckt.add_inductor("L1", a, Circuit::GROUND, 2e-9).unwrap();
        let mna = MnaSystem::new(&ckt).unwrap();
        assert_eq!(mna.num_branches(), 2);
        let c = mna.c_triplets().to_dense();
        // Inductor branch is the second branch (var index 1 + 1 = 2).
        assert_eq!(c[(2, 2)], -2e-9);
    }

    #[test]
    fn nonlinear_bindings_exposed() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, b, 50.0).unwrap();
        ckt.add_rtd("X1", b, Circuit::GROUND, Rtd::date2005())
            .unwrap();
        let mna = MnaSystem::new(&ckt).unwrap();
        let nb = mna.nonlinear_bindings();
        assert_eq!(nb.len(), 1);
        assert_eq!(nb[0].name, "X1");
        assert_eq!(nb[0].var_plus, Some(1));
        assert_eq!(nb[0].var_minus, None);
        assert_eq!(nb[0].device.device_kind(), "rtd");
    }

    #[test]
    fn mosfet_bindings_exposed() {
        let mut ckt = Circuit::new();
        let d = ckt.node("d");
        let g = ckt.node("g");
        ckt.add_mosfet(
            "M1",
            d,
            g,
            Circuit::GROUND,
            nanosim_devices::mosfet::Mosfet::nmos(),
        )
        .unwrap();
        ckt.add_voltage_source("Vd", d, Circuit::GROUND, SourceWaveform::dc(5.0))
            .unwrap();
        ckt.add_voltage_source("Vg", g, Circuit::GROUND, SourceWaveform::dc(2.0))
            .unwrap();
        let mna = MnaSystem::new(&ckt).unwrap();
        let mb = mna.mosfet_bindings();
        assert_eq!(mb.len(), 1);
        assert_eq!(mb[0].var_drain, Some(0));
        assert_eq!(mb[0].var_gate, Some(1));
        assert_eq!(mb[0].var_source, None);
    }

    #[test]
    fn noise_bindings_for_stochastic_sources() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_current_source(
            "In",
            a,
            Circuit::GROUND,
            SourceWaveform::white_noise(0.0, 1e-3).unwrap(),
        )
        .unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        ckt.add_capacitor("C1", a, Circuit::GROUND, 1e-12).unwrap();
        let mna = MnaSystem::new(&ckt).unwrap();
        assert!(!mna.noise_bindings().is_empty());
        let nb = mna.noise_bindings();
        assert_eq!(nb.len(), 1);
        assert_eq!(nb[0].rows, vec![(0, -1e-3)]);
    }

    #[test]
    fn deterministic_circuit_has_no_noise() {
        let mna = MnaSystem::new(&rc_circuit()).unwrap();
        assert!(mna.noise_bindings().is_empty());
    }

    #[test]
    fn max_source_slew_follows_pulse_edges() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_voltage_source(
            "V1",
            a,
            Circuit::GROUND,
            SourceWaveform::pulse(PulseParams {
                v1: 0.0,
                v2: 5.0,
                delay: 0.0,
                rise: 1e-9,
                fall: 1e-9,
                width: 10e-9,
                period: 100e-9,
            })
            .unwrap(),
        )
        .unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1.0).unwrap();
        let mna = MnaSystem::new(&ckt).unwrap();
        assert!((mna.max_source_slew(0.5e-9) - 5e9).abs() < 1.0);
        assert_eq!(mna.max_source_slew(5e-9), 0.0);
    }

    #[test]
    fn initial_state_honors_capacitor_ic() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_capacitor_ic("C1", a, Circuit::GROUND, 1e-12, Some(3.0))
            .unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let mna = MnaSystem::new(&ckt).unwrap();
        assert_eq!(mna.initial_state(), vec![3.0]);
    }

    #[test]
    fn source_waveform_accessor() {
        let ckt = rc_circuit();
        let mna = MnaSystem::new(&ckt).unwrap();
        assert!(mna.source_waveform(0).is_some());
        assert!(mna.source_waveform(1).is_none());
        assert!(mna.source_waveform(99).is_none());
    }

    /// Solves `G x = b` densely for hand-checkable controlled-source tests.
    fn solve_op(ckt: &Circuit) -> (MnaSystem, Vec<f64>) {
        let mna = MnaSystem::new(ckt).unwrap();
        let dim = mna.dim();
        let g = mna.linear_g();
        let mut b = vec![0.0; dim];
        mna.stamp_rhs(0.0, &mut b);
        let x = g.to_dense().solve(&b, &mut FlopCounter::new()).unwrap();
        (mna, x)
    }

    #[test]
    fn vcvs_matches_hand_mna() {
        // V1 = 1 V at `in`; E1 forces v(out) = 2·v(in); R1 loads `out`.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        ckt.add_vcvs("E1", out, Circuit::GROUND, vin, Circuit::GROUND, 2.0)
            .unwrap();
        ckt.add_resistor("R1", out, Circuit::GROUND, 1e3).unwrap();
        let (mna, x) = solve_op(&ckt);
        assert!((x[mna.var_of_node(out).unwrap()] - 2.0).abs() < 1e-12);
        // KCL at `out`: v/R + i_E = 0  =>  i_E = -2 mA.
        let i_e = x[mna.branch_var(1).unwrap()];
        assert!((i_e + 2e-3).abs() < 1e-15);
    }

    #[test]
    fn vccs_matches_hand_mna() {
        // G1 drives gm·v(in) = 1 mA out of node `out` into ground;
        // v(out) = -gm·v(in)·R = -2 V.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        ckt.add_vccs("G1", out, Circuit::GROUND, vin, Circuit::GROUND, 1e-3)
            .unwrap();
        ckt.add_resistor("RL", out, Circuit::GROUND, 2e3).unwrap();
        let (mna, x) = solve_op(&ckt);
        assert!((x[mna.var_of_node(out).unwrap()] + 2.0).abs() < 1e-12);
    }

    #[test]
    fn cccs_matches_hand_mna() {
        // i(V1) = -1 mA (1 V across 1 kΩ); F1 mirrors 2·i(V1) into `out`
        // loaded by 1 kΩ: v(out) = -2·i(V1)·R = +2 V.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", vin, Circuit::GROUND, 1e3).unwrap();
        ckt.add_cccs("F1", out, Circuit::GROUND, "V1", 2.0).unwrap();
        ckt.add_resistor("RL", out, Circuit::GROUND, 1e3).unwrap();
        let (mna, x) = solve_op(&ckt);
        assert!((x[mna.branch_var(0).unwrap()] + 1e-3).abs() < 1e-15);
        assert!((x[mna.var_of_node(out).unwrap()] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ccvs_matches_hand_mna() {
        // H1 forces v(out) = 500·i(V1) = -0.5 V.
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_voltage_source("V1", vin, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", vin, Circuit::GROUND, 1e3).unwrap();
        ckt.add_ccvs("H1", out, Circuit::GROUND, "V1", 500.0)
            .unwrap();
        ckt.add_resistor("RL", out, Circuit::GROUND, 1e3).unwrap();
        let (mna, x) = solve_op(&ckt);
        assert!((x[mna.var_of_node(out).unwrap()] + 0.5).abs() < 1e-12);
        assert_eq!(mna.num_branches(), 2);
    }

    #[test]
    fn control_reference_is_case_insensitive() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.add_voltage_source("Vdrv", vin, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", vin, Circuit::GROUND, 1e3).unwrap();
        ckt.add_cccs("F1", out, Circuit::GROUND, "VDRV", 1.0)
            .unwrap();
        ckt.add_resistor("RL", out, Circuit::GROUND, 1e3).unwrap();
        assert!(MnaSystem::new(&ckt).is_ok());
    }

    #[test]
    fn missing_control_is_error() {
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        ckt.add_cccs("F1", out, Circuit::GROUND, "V9", 1.0).unwrap();
        ckt.add_resistor("RL", out, Circuit::GROUND, 1e3).unwrap();
        assert!(matches!(
            MnaSystem::new(&ckt),
            Err(CircuitError::UnknownControl { .. })
        ));
        // A resistor carries no branch current either.
        let mut ckt = Circuit::new();
        let out = ckt.node("out");
        ckt.add_ccvs("H1", out, Circuit::GROUND, "RL", 1.0).unwrap();
        ckt.add_resistor("RL", out, Circuit::GROUND, 1e3).unwrap();
        assert!(matches!(
            MnaSystem::new(&ckt),
            Err(CircuitError::UnknownControl { .. })
        ));
    }

    #[test]
    fn branch_var_lookup() {
        let mna = MnaSystem::new(&rc_circuit()).unwrap();
        assert_eq!(mna.branch_var(0), Some(2));
        assert_eq!(mna.branch_var(1), None);
    }
}
