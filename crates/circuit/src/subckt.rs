//! Hierarchical circuit descriptions: subcircuit definitions, parameter
//! scoping, and flattening into the flat [`Circuit`] the engines consume.
//!
//! A [`SubcktDef`] is a reusable template — a port list, a parameter list
//! with defaults, and a body of element templates whose numeric values may
//! reference parameters ([`ParamValue::Ref`], written `{name}` in netlist
//! text). Instantiating a definition *flattens* it: every body element is
//! cloned into the target circuit with deterministic name mangling
//!
//! * internal nodes become `<instance path>.<node>` (e.g. `X1.n3`,
//!   `X1.X2.n3` for nested instances), ports map to the caller's nodes,
//!   and `0`/`gnd` always mean the global ground;
//! * elements become `<name>.<instance path>` (e.g. `R1.X1`) — the
//!   original SPICE type prefix stays first, so a flattened circuit written
//!   by [`crate::writer::write_netlist`] re-parses to the same structure.
//!
//! Bodies may instantiate other subcircuits ([`SubcktDef::instance`]);
//! recursion is detected and rejected. Engines and the MNA assembly only
//! ever see the flat result — hierarchy is purely a frontend construct.
//!
//! One emitter, `emit_element`, turns an element template into its
//! `Circuit::add_*` call, for flattened bodies and for the parser's
//! top-level lines alike, and one routine, `flatten_instance`, flattens
//! every instance: [`Circuit::instantiate`],
//! [`CircuitBuilder::instantiate`] and instances nested in bodies.
//!
//! # Example
//!
//! ```
//! use nanosim_circuit::{Circuit, SubcktDef};
//!
//! # fn main() -> Result<(), nanosim_circuit::CircuitError> {
//! // A parameterized RC low-pass filter.
//! let mut lp = SubcktDef::new("lowpass", ["a", "b"]);
//! lp.param("r", 1e3)
//!     .param("c", 1e-9)
//!     .resistor("R1", "a", "mid", "{r}")
//!     .capacitor("C1", "mid", "0", "{c}")
//!     .resistor("R2", "mid", "b", "{r}");
//!
//! let mut ckt = Circuit::new();
//! let (x, y) = (ckt.node("x"), ckt.node("y"));
//! ckt.instantiate("X1", &lp, &[x, y], &[("r", 50.0)])?;
//! assert!(ckt.element("R1.X1").is_some());
//! assert!(ckt.find_node("X1.mid").is_some());
//! # Ok(())
//! # }
//! ```

use crate::element::SharedDevice;
use crate::error::CircuitError;
use crate::netlist::Circuit;
use crate::node::{lowercase_key, NodeId};
use crate::Result;
use nanosim_devices::diode::Diode;
use nanosim_devices::mosfet::Mosfet;
use nanosim_devices::nanowire::Nanowire;
use nanosim_devices::rtd::Rtd;
use nanosim_devices::rtt::Rtt;
use nanosim_devices::sources::{PulseParams, SinParams, SourceWaveform};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A numeric value inside a subcircuit body: either a literal or a
/// reference to a parameter (`{name}` in netlist text), resolved against
/// the instance's parameter scope at flatten time.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// A literal number.
    Lit(f64),
    /// A reference to a parameter by (case-insensitive) name.
    Ref(String),
}

impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::Lit(v)
    }
}

impl From<&str> for ParamValue {
    /// `"{name}"` becomes a reference; anything else must parse as a
    /// number later and is kept as a reference to fail loudly — prefer
    /// `ParamValue::from(f64)` for literals.
    fn from(s: &str) -> Self {
        let t = s.trim();
        if let Some(inner) = t.strip_prefix('{').and_then(|r| r.strip_suffix('}')) {
            ParamValue::Ref(inner.trim().to_string())
        } else {
            ParamValue::Ref(t.to_string())
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Lit(v) => write!(f, "{v:e}"),
            ParamValue::Ref(name) => write!(f, "{{{name}}}"),
        }
    }
}

/// Resolves a [`ParamValue`] against a local scope with a global fallback.
fn resolve(
    value: &ParamValue,
    local: &HashMap<String, f64>,
    global: &HashMap<String, f64>,
    context: &str,
) -> Result<f64> {
    match value {
        ParamValue::Lit(v) => Ok(*v),
        ParamValue::Ref(name) => {
            let key = lowercase_key(name);
            local
                .get(key.as_ref())
                .or_else(|| global.get(key.as_ref()))
                .copied()
                .ok_or_else(|| CircuitError::UnknownParam {
                    name: name.clone(),
                    context: context.to_string(),
                })
        }
    }
}

/// An independent-source waveform template: a literal [`SourceWaveform`],
/// or a `PULSE(..)`/`SIN(..)`/DC spec whose value positions may reference
/// parameters (`{name}` in netlist text), resolved per instantiation.
///
/// One clock-driver subckt can therefore serve every timing corner:
///
/// ```
/// use nanosim_circuit::{Circuit, SubcktDef, WaveformTemplate};
///
/// # fn main() -> Result<(), nanosim_circuit::CircuitError> {
/// let mut drv = SubcktDef::new("clkdrv", ["clk"]);
/// drv.param("period", 100e-9).param("vhi", 5.0);
/// drv.voltage_source(
///     "Vck",
///     "clk",
///     "0",
///     WaveformTemplate::pulse(0.0, "{vhi}", 0.0, 1e-9, 1e-9, 4e-9, "{period}"),
/// );
/// let mut ckt = Circuit::new();
/// let clk = ckt.node("clk");
/// ckt.instantiate("X1", &drv, &[clk], &[("period", 10e-9)])?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub enum WaveformTemplate {
    /// A fully literal waveform (validated at construction; DC, PWL and
    /// NOISE specs are always literal).
    Literal(SourceWaveform),
    /// `DC value` with a resolvable value.
    Dc {
        /// The DC level.
        value: ParamValue,
    },
    /// `PULSE(v1 v2 td tr tf pw per)` with resolvable positions.
    Pulse {
        /// Initial value (V/A).
        v1: ParamValue,
        /// Pulsed value (V/A).
        v2: ParamValue,
        /// Delay before the first edge (s).
        delay: ParamValue,
        /// Rise time (s).
        rise: ParamValue,
        /// Fall time (s).
        fall: ParamValue,
        /// Pulse width (s).
        width: ParamValue,
        /// Period (s).
        period: ParamValue,
    },
    /// `SIN(vo va freq td theta)` with resolvable positions.
    Sin {
        /// Offset (V/A).
        offset: ParamValue,
        /// Amplitude (V/A).
        amplitude: ParamValue,
        /// Frequency (Hz).
        frequency: ParamValue,
        /// Delay (s).
        delay: ParamValue,
        /// Damping factor (1/s).
        theta: ParamValue,
    },
}

impl From<SourceWaveform> for WaveformTemplate {
    fn from(wf: SourceWaveform) -> Self {
        WaveformTemplate::Literal(wf)
    }
}

impl WaveformTemplate {
    /// A DC template (use a `"{name}"` argument for a parameter
    /// reference).
    pub fn dc(value: impl Into<ParamValue>) -> Self {
        WaveformTemplate::Dc {
            value: value.into(),
        }
    }

    /// A PULSE template; every position accepts a literal or a `"{name}"`
    /// reference.
    #[allow(clippy::too_many_arguments)]
    pub fn pulse(
        v1: impl Into<ParamValue>,
        v2: impl Into<ParamValue>,
        delay: impl Into<ParamValue>,
        rise: impl Into<ParamValue>,
        fall: impl Into<ParamValue>,
        width: impl Into<ParamValue>,
        period: impl Into<ParamValue>,
    ) -> Self {
        WaveformTemplate::Pulse {
            v1: v1.into(),
            v2: v2.into(),
            delay: delay.into(),
            rise: rise.into(),
            fall: fall.into(),
            width: width.into(),
            period: period.into(),
        }
    }

    /// A SIN template; every position accepts a literal or a `"{name}"`
    /// reference.
    pub fn sin(
        offset: impl Into<ParamValue>,
        amplitude: impl Into<ParamValue>,
        frequency: impl Into<ParamValue>,
        delay: impl Into<ParamValue>,
        theta: impl Into<ParamValue>,
    ) -> Self {
        WaveformTemplate::Sin {
            offset: offset.into(),
            amplitude: amplitude.into(),
            frequency: frequency.into(),
            delay: delay.into(),
            theta: theta.into(),
        }
    }

    /// Resolves every parameter reference and validates the resulting
    /// waveform.
    pub(crate) fn resolve(
        &self,
        local: &HashMap<String, f64>,
        global: &HashMap<String, f64>,
        context: &str,
    ) -> Result<SourceWaveform> {
        let r = |pv: &ParamValue| resolve(pv, local, global, context);
        match self {
            WaveformTemplate::Literal(wf) => Ok(wf.clone()),
            WaveformTemplate::Dc { value } => Ok(SourceWaveform::dc(r(value)?)),
            WaveformTemplate::Pulse {
                v1,
                v2,
                delay,
                rise,
                fall,
                width,
                period,
            } => Ok(SourceWaveform::pulse(PulseParams {
                v1: r(v1)?,
                v2: r(v2)?,
                delay: r(delay)?,
                rise: r(rise)?,
                fall: r(fall)?,
                width: r(width)?,
                period: r(period)?,
            })?),
            WaveformTemplate::Sin {
                offset,
                amplitude,
                frequency,
                delay,
                theta,
            } => Ok(SourceWaveform::sin(SinParams {
                offset: r(offset)?,
                amplitude: r(amplitude)?,
                frequency: r(frequency)?,
                delay: r(delay)?,
                theta: r(theta)?,
            })?),
        }
    }
}

/// One element template inside a subcircuit body.
#[derive(Debug, Clone)]
pub(crate) struct BodyElement {
    pub(crate) name: String,
    pub(crate) nodes: Vec<String>,
    pub(crate) kind: BodyKind,
}

/// The template counterpart of [`crate::element::ElementKind`], with
/// parameter-resolvable values plus nested instances.
#[derive(Debug, Clone)]
pub(crate) enum BodyKind {
    Resistor {
        ohms: ParamValue,
    },
    Capacitor {
        farads: ParamValue,
        ic: Option<ParamValue>,
    },
    Inductor {
        henries: ParamValue,
    },
    VoltageSource {
        waveform: WaveformTemplate,
    },
    CurrentSource {
        waveform: WaveformTemplate,
    },
    Vcvs {
        gain: ParamValue,
    },
    Vccs {
        gm: ParamValue,
    },
    Cccs {
        gain: ParamValue,
        control: String,
    },
    Ccvs {
        r: ParamValue,
        control: String,
    },
    Nonlinear {
        device: SharedDevice,
    },
    Mosfet {
        model: Mosfet,
    },
    Instance {
        subckt: String,
        overrides: Vec<(String, ParamValue)>,
    },
}

/// A subcircuit definition: name, ordered port list, parameters with
/// defaults, and a body of element templates.
///
/// Built fluently (see the [module example](self)) or parsed from
/// `.subckt` / `.ends` netlist blocks. Node names inside the body are
/// strings: ports connect to the caller, `0`/`gnd` is the global ground,
/// and everything else becomes a private, name-mangled internal node.
#[derive(Debug, Clone)]
pub struct SubcktDef {
    name: String,
    ports: Vec<String>,
    params: Vec<(String, f64)>,
    body: Vec<BodyElement>,
}

impl SubcktDef {
    /// Creates an empty definition with the given port order.
    pub fn new<S: Into<String>, P: AsRef<str>>(
        name: S,
        ports: impl IntoIterator<Item = P>,
    ) -> Self {
        SubcktDef {
            name: name.into(),
            ports: ports.into_iter().map(|p| p.as_ref().to_string()).collect(),
            params: Vec::new(),
            body: Vec::new(),
        }
    }

    /// The definition name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared ports, in connection order.
    pub fn ports(&self) -> &[String] {
        &self.ports
    }

    /// The declared parameters and their defaults, in declaration order.
    pub fn params(&self) -> &[(String, f64)] {
        &self.params
    }

    /// Iterates over every node name referenced by the body elements
    /// (with repeats), for connectivity-style lint checks.
    pub fn body_nodes(&self) -> impl Iterator<Item = &str> {
        self.body
            .iter()
            .flat_map(|b| b.nodes.iter().map(String::as_str))
    }

    /// Declares a parameter with a default value.
    pub fn param(&mut self, name: impl Into<String>, default: f64) -> &mut Self {
        self.params.push((name.into(), default));
        self
    }

    fn push(&mut self, name: &str, nodes: &[&str], kind: BodyKind) -> &mut Self {
        self.body.push(BodyElement {
            name: name.to_string(),
            nodes: nodes.iter().map(|n| n.to_string()).collect(),
            kind,
        });
        self
    }

    /// Adds a resistor template.
    pub fn resistor(
        &mut self,
        name: &str,
        n1: &str,
        n2: &str,
        ohms: impl Into<ParamValue>,
    ) -> &mut Self {
        self.push(name, &[n1, n2], BodyKind::Resistor { ohms: ohms.into() })
    }

    /// Adds a capacitor template.
    pub fn capacitor(
        &mut self,
        name: &str,
        n1: &str,
        n2: &str,
        farads: impl Into<ParamValue>,
    ) -> &mut Self {
        self.push(
            name,
            &[n1, n2],
            BodyKind::Capacitor {
                farads: farads.into(),
                ic: None,
            },
        )
    }

    /// Adds a capacitor template with an initial voltage.
    pub fn capacitor_ic(
        &mut self,
        name: &str,
        n1: &str,
        n2: &str,
        farads: impl Into<ParamValue>,
        ic: impl Into<ParamValue>,
    ) -> &mut Self {
        self.push(
            name,
            &[n1, n2],
            BodyKind::Capacitor {
                farads: farads.into(),
                ic: Some(ic.into()),
            },
        )
    }

    /// Adds an inductor template.
    pub fn inductor(
        &mut self,
        name: &str,
        n1: &str,
        n2: &str,
        henries: impl Into<ParamValue>,
    ) -> &mut Self {
        self.push(
            name,
            &[n1, n2],
            BodyKind::Inductor {
                henries: henries.into(),
            },
        )
    }

    /// Adds an independent voltage source template. Accepts a literal
    /// [`SourceWaveform`] or a [`WaveformTemplate`] whose `PULSE`/`SIN`/DC
    /// positions reference parameters.
    pub fn voltage_source(
        &mut self,
        name: &str,
        n1: &str,
        n2: &str,
        waveform: impl Into<WaveformTemplate>,
    ) -> &mut Self {
        self.push(
            name,
            &[n1, n2],
            BodyKind::VoltageSource {
                waveform: waveform.into(),
            },
        )
    }

    /// Adds an independent current source template (waveform semantics as
    /// in [`SubcktDef::voltage_source`]).
    pub fn current_source(
        &mut self,
        name: &str,
        n1: &str,
        n2: &str,
        waveform: impl Into<WaveformTemplate>,
    ) -> &mut Self {
        self.push(
            name,
            &[n1, n2],
            BodyKind::CurrentSource {
                waveform: waveform.into(),
            },
        )
    }

    /// Adds a VCVS template (see [`Circuit::add_vcvs`]).
    pub fn vcvs(
        &mut self,
        name: &str,
        n1: &str,
        n2: &str,
        nc1: &str,
        nc2: &str,
        gain: impl Into<ParamValue>,
    ) -> &mut Self {
        self.push(
            name,
            &[n1, n2, nc1, nc2],
            BodyKind::Vcvs { gain: gain.into() },
        )
    }

    /// Adds a VCCS template (see [`Circuit::add_vccs`]).
    pub fn vccs(
        &mut self,
        name: &str,
        n1: &str,
        n2: &str,
        nc1: &str,
        nc2: &str,
        gm: impl Into<ParamValue>,
    ) -> &mut Self {
        self.push(name, &[n1, n2, nc1, nc2], BodyKind::Vccs { gm: gm.into() })
    }

    /// Adds a CCCS template. A `control` naming a sibling element in this
    /// body resolves to that sibling's flattened name; otherwise it is
    /// looked up among the instantiating circuit's elements.
    pub fn cccs(
        &mut self,
        name: &str,
        n1: &str,
        n2: &str,
        control: &str,
        gain: impl Into<ParamValue>,
    ) -> &mut Self {
        self.push(
            name,
            &[n1, n2],
            BodyKind::Cccs {
                gain: gain.into(),
                control: control.to_string(),
            },
        )
    }

    /// Adds a CCVS template (control scoping as in [`SubcktDef::cccs`]).
    pub fn ccvs(
        &mut self,
        name: &str,
        n1: &str,
        n2: &str,
        control: &str,
        r: impl Into<ParamValue>,
    ) -> &mut Self {
        self.push(
            name,
            &[n1, n2],
            BodyKind::Ccvs {
                r: r.into(),
                control: control.to_string(),
            },
        )
    }

    /// Adds an arbitrary nonlinear two-terminal device template.
    pub fn nonlinear(&mut self, name: &str, n1: &str, n2: &str, device: SharedDevice) -> &mut Self {
        self.push(name, &[n1, n2], BodyKind::Nonlinear { device })
    }

    /// Adds a resonant tunneling diode template.
    pub fn rtd(&mut self, name: &str, n1: &str, n2: &str, rtd: Rtd) -> &mut Self {
        self.nonlinear(name, n1, n2, Arc::new(rtd))
    }

    /// Adds a quantum-wire / CNT template.
    pub fn nanowire(&mut self, name: &str, n1: &str, n2: &str, wire: Nanowire) -> &mut Self {
        self.nonlinear(name, n1, n2, Arc::new(wire))
    }

    /// Adds a resonant tunneling transistor template.
    pub fn rtt(&mut self, name: &str, n1: &str, n2: &str, rtt: Rtt) -> &mut Self {
        self.nonlinear(name, n1, n2, Arc::new(rtt))
    }

    /// Adds a diode template.
    pub fn diode(&mut self, name: &str, n1: &str, n2: &str, diode: Diode) -> &mut Self {
        self.nonlinear(name, n1, n2, Arc::new(diode))
    }

    /// Adds a MOSFET template with terminals `(drain, gate, source)`.
    pub fn mosfet(&mut self, name: &str, d: &str, g: &str, s: &str, model: Mosfet) -> &mut Self {
        self.push(name, &[d, g, s], BodyKind::Mosfet { model })
    }

    /// Adds a nested subcircuit instance connecting `nodes` to the child's
    /// ports in order.
    pub fn instance(&mut self, name: &str, subckt: &str, nodes: &[&str]) -> &mut Self {
        self.instance_with(name, subckt, nodes, &[])
    }

    /// [`SubcktDef::instance`] with parameter overrides; override values
    /// may themselves reference this definition's parameters.
    pub fn instance_with(
        &mut self,
        name: &str,
        subckt: &str,
        nodes: &[&str],
        overrides: &[(&str, ParamValue)],
    ) -> &mut Self {
        self.push(
            name,
            nodes,
            BodyKind::Instance {
                subckt: subckt.to_string(),
                overrides: overrides
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            },
        )
    }

    pub(crate) fn body(&self) -> &[BodyElement] {
        &self.body
    }

    pub(crate) fn push_body(&mut self, element: BodyElement) {
        self.body.push(element);
    }

    /// Builds the local parameter scope for one instantiation: declared
    /// defaults overridden by the caller's (already resolved) values.
    fn scope(&self, overrides: &[(&str, f64)], instance: &str) -> Result<HashMap<String, f64>> {
        let mut scope: HashMap<String, f64> = self
            .params
            .iter()
            .map(|(k, v)| (k.to_ascii_lowercase(), *v))
            .collect();
        for (k, v) in overrides {
            let key = k.to_ascii_lowercase();
            if !scope.contains_key(&key) {
                return Err(CircuitError::UnknownParam {
                    name: k.to_string(),
                    context: format!("instance {instance} of subckt {}", self.name),
                });
            }
            scope.insert(key, *v);
        }
        Ok(scope)
    }
}

/// A named collection of subcircuit definitions, resolved case-insensitively.
#[derive(Debug, Clone, Default)]
pub struct SubcktLib {
    defs: Vec<SubcktDef>,
}

impl SubcktLib {
    /// Creates an empty library.
    pub fn new() -> Self {
        SubcktLib::default()
    }

    /// Adds a definition.
    ///
    /// # Errors
    /// Rejects a second definition with the same (case-insensitive) name.
    pub fn define(&mut self, def: SubcktDef) -> Result<&mut Self> {
        if self.get(def.name()).is_some() {
            return Err(CircuitError::DuplicateElement {
                name: format!("subckt {}", def.name()),
            });
        }
        // Reject duplicate body names at definition time (the parser does
        // this with positions; this covers programmatic construction).
        let mut seen: std::collections::HashSet<&str> = std::collections::HashSet::new();
        for b in &def.body {
            if !seen.insert(b.name.as_str()) {
                return Err(CircuitError::DuplicateElement {
                    name: format!("{} (in subckt {})", b.name, def.name()),
                });
            }
        }
        self.defs.push(def);
        Ok(self)
    }

    /// Looks up a definition by case-insensitive name.
    pub fn get(&self, name: &str) -> Option<&SubcktDef> {
        self.defs
            .iter()
            .find(|d| d.name().eq_ignore_ascii_case(name))
    }

    /// The definitions in insertion order.
    pub fn defs(&self) -> &[SubcktDef] {
        &self.defs
    }

    /// Number of definitions.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the library holds no definitions.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }
}

/// Flattens one instance of `def` into `circuit`.
///
/// `path` is the full mangled instance path ("X1", "X1.X2", ...); `local`
/// is the already-resolved parameter scope of this body; `stack` carries
/// the chain of definition names for recursion detection.
fn flatten_into<'l>(
    circuit: &mut Circuit,
    lib: &'l SubcktLib,
    def: &'l SubcktDef,
    path: &str,
    port_nodes: &[NodeId],
    local: &HashMap<String, f64>,
    global: &HashMap<String, f64>,
    stack: &mut Vec<&'l str>,
) -> Result<()> {
    // The instance name shares the SPICE element namespace: a second `X1`
    // would silently merge both instances' `X1.<node>` internals.
    circuit.reserve_name(path)?;
    if port_nodes.len() != def.ports.len() {
        return Err(CircuitError::PortMismatch {
            subckt: def.name.clone(),
            instance: path.to_string(),
            expected: def.ports.len(),
            got: port_nodes.len(),
        });
    }
    let node_of = |circuit: &mut Circuit, raw: &str| -> NodeId {
        if raw == "0" || raw.eq_ignore_ascii_case("gnd") {
            return Circuit::GROUND;
        }
        // Ports match case-insensitively; a repeated port name binds to
        // its last position.
        match def.ports.iter().rposition(|p| p.eq_ignore_ascii_case(raw)) {
            Some(i) => port_nodes[i],
            None => circuit.node(&format!("{path}.{raw}")),
        }
    };
    for be in def.body() {
        let name = format!("{}.{path}", be.name);
        let BodyKind::Instance { subckt, overrides } = &be.kind else {
            let mut nodes = [Circuit::GROUND; 4];
            for (slot, raw) in nodes.iter_mut().zip(&be.nodes) {
                *slot = node_of(circuit, raw);
            }
            emit_element(circuit, &name, nodes, &be.kind, local, global, |control| {
                scope_control(def, control, path)
            })?;
            continue;
        };
        let child_path = format!("{path}.{}", be.name);
        let child = lib.get(subckt).ok_or_else(|| CircuitError::UnknownSubckt {
            name: subckt.clone(),
            instance: child_path.clone(),
        })?;
        if stack.iter().any(|s| s.eq_ignore_ascii_case(subckt)) {
            let mut chain = stack.clone();
            chain.push(child.name());
            return Err(CircuitError::RecursiveSubckt {
                path: chain.join(" -> "),
            });
        }
        // Override values may reference *this* body's parameters.
        let mut resolved = Vec::with_capacity(overrides.len());
        for (k, pv) in overrides {
            resolved.push((k.as_str(), resolve(pv, local, global, &name)?));
        }
        let child_ports: Vec<NodeId> = be.nodes.iter().map(|n| node_of(circuit, n)).collect();
        flatten_instance(
            circuit,
            lib,
            child,
            &child_path,
            &child_ports,
            &resolved,
            global,
            stack,
        )?;
    }
    Ok(())
}

/// Flattens one instance of `def` at `path`, the one routine behind
/// [`Circuit::instantiate`], [`CircuitBuilder::instantiate`] and nested
/// instances: builds the instance's parameter scope from its resolved
/// `overrides`, pushes `def` onto the recursion `stack` and flattens the
/// body. Top-level callers pass an empty stack with room for `def`.
fn flatten_instance<'l>(
    circuit: &mut Circuit,
    lib: &'l SubcktLib,
    def: &'l SubcktDef,
    path: &str,
    ports: &[NodeId],
    overrides: &[(&str, f64)],
    global: &HashMap<String, f64>,
    stack: &mut Vec<&'l str>,
) -> Result<()> {
    let local = def.scope(overrides, path)?;
    stack.push(def.name());
    flatten_into(circuit, lib, def, path, ports, &local, global, stack)?;
    stack.pop();
    Ok(())
}

/// Adds the element template `kind` to `circuit` as `name`: the one place
/// a [`BodyKind`] element becomes a `Circuit::add_*` call, for top-level
/// netlist lines and subcircuit bodies alike. `nodes` are its terminals,
/// already interned (unused slots stay ground). Values resolve against
/// `local`, then `global`, and `control_of` maps a CCCS/CCVS control to
/// the flat name of the element it names.
///
/// # Panics
/// On [`BodyKind::Instance`]: instances are flattened, not emitted.
pub(crate) fn emit_element<'k>(
    circuit: &mut Circuit,
    name: &str,
    nodes: [NodeId; 4],
    kind: &'k BodyKind,
    local: &HashMap<String, f64>,
    global: &HashMap<String, f64>,
    control_of: impl Fn(&'k str) -> Cow<'k, str>,
) -> Result<()> {
    let value = |pv: &ParamValue| resolve(pv, local, global, name);
    let [n1, n2, n3, n4] = nodes;
    match kind {
        BodyKind::Resistor { ohms } => circuit.add_resistor(name, n1, n2, value(ohms)?),
        BodyKind::Capacitor { farads, ic } => {
            let v = value(farads)?;
            let ic = ic.as_ref().map(value).transpose()?;
            circuit.add_capacitor_ic(name, n1, n2, v, ic)
        }
        BodyKind::Inductor { henries } => circuit.add_inductor(name, n1, n2, value(henries)?),
        BodyKind::VoltageSource { waveform } => {
            let wf = waveform.resolve(local, global, name)?;
            circuit.add_voltage_source(name, n1, n2, wf)
        }
        BodyKind::CurrentSource { waveform } => {
            let wf = waveform.resolve(local, global, name)?;
            circuit.add_current_source(name, n1, n2, wf)
        }
        BodyKind::Vcvs { gain } => circuit.add_vcvs(name, n1, n2, n3, n4, value(gain)?),
        BodyKind::Vccs { gm } => circuit.add_vccs(name, n1, n2, n3, n4, value(gm)?),
        BodyKind::Cccs { gain, control } => {
            let v = value(gain)?;
            circuit.add_cccs(name, n1, n2, &control_of(control), v)
        }
        BodyKind::Ccvs { r, control } => {
            let v = value(r)?;
            circuit.add_ccvs(name, n1, n2, &control_of(control), v)
        }
        BodyKind::Nonlinear { device } => circuit.add_nonlinear(name, n1, n2, device.clone()),
        BodyKind::Mosfet { model } => circuit.add_mosfet(name, n1, n2, n3, model.clone()),
        BodyKind::Instance { .. } => unreachable!("instances are flattened, not emitted"),
    }?;
    Ok(())
}

/// A CCCS/CCVS control naming a sibling element in the same body resolves
/// to the sibling's mangled name; anything else is left for the caller's
/// scope (top-level element names).
fn scope_control<'c>(def: &SubcktDef, control: &'c str, path: &str) -> Cow<'c, str> {
    if def
        .body()
        .iter()
        .any(|be| be.name.eq_ignore_ascii_case(control))
    {
        Cow::Owned(format!("{control}.{path}"))
    } else {
        Cow::Borrowed(control)
    }
}

impl Circuit {
    /// Flattens one instance of `def` into this circuit, connecting
    /// `ports` to the definition's ports in order and overriding declared
    /// parameters by name. Internal nodes become `<inst_name>.<node>`,
    /// elements become `<name>.<inst_name>`.
    ///
    /// Definitions whose bodies instantiate *other* subcircuits need a
    /// library to resolve them — use [`CircuitBuilder`] for that; this
    /// convenience method resolves against an empty library.
    ///
    /// # Errors
    /// Port-count mismatch, unknown override/parameter references,
    /// nested instances (no library), and element validation failures.
    pub fn instantiate(
        &mut self,
        inst_name: &str,
        def: &SubcktDef,
        ports: &[NodeId],
        overrides: &[(&str, f64)],
    ) -> Result<&mut Self> {
        let lib = SubcktLib::new();
        let global = HashMap::new();
        flatten_instance(
            self,
            &lib,
            def,
            inst_name,
            ports,
            overrides,
            &global,
            &mut Vec::with_capacity(1),
        )?;
        Ok(self)
    }
}

/// A hierarchical circuit under construction: a flat [`Circuit`], a
/// [`SubcktLib`], and a global parameter scope (`.param` in netlist text).
///
/// Flat elements are added directly through [`CircuitBuilder::circuit_mut`];
/// [`CircuitBuilder::instantiate`] flattens library subcircuits in place,
/// preserving element order. [`CircuitBuilder::finish`] returns the flat
/// circuit the engines consume.
///
/// # Example
/// ```
/// use nanosim_circuit::{CircuitBuilder, SubcktDef};
/// use nanosim_devices::rtd::Rtd;
///
/// # fn main() -> Result<(), nanosim_circuit::CircuitError> {
/// let mut b = CircuitBuilder::new();
/// let mut cell = SubcktDef::new("cell", ["t"]);
/// cell.rtd("YRTD1", "t", "0", Rtd::date2005());
/// b.define(cell)?;
/// let n = b.node("n1");
/// use nanosim_devices::sources::SourceWaveform;
/// b.circuit_mut()
///     .add_voltage_source("V1", n, nanosim_circuit::Circuit::GROUND, SourceWaveform::dc(1.0))?;
/// b.instantiate("X1", "cell", &[n], &[])?;
/// let ckt = b.finish();
/// assert!(ckt.element("YRTD1.X1").is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CircuitBuilder {
    circuit: Circuit,
    lib: SubcktLib,
    params: HashMap<String, f64>,
}

impl CircuitBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CircuitBuilder::default()
    }

    /// Sets the circuit title.
    pub fn set_title(&mut self, title: impl Into<String>) -> &mut Self {
        self.circuit.set_title(title);
        self
    }

    /// Returns (creating on first use) the named top-level node.
    pub fn node(&mut self, name: &str) -> NodeId {
        self.circuit.node(name)
    }

    /// Defines a global parameter (referable as `{name}` in instance
    /// overrides and, in netlist text, in any value position).
    pub fn set_param(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.params.insert(name.into().to_ascii_lowercase(), value);
        self
    }

    /// Looks up a global parameter.
    pub fn param(&self, name: &str) -> Option<f64> {
        self.params.get(&name.to_ascii_lowercase()).copied()
    }

    /// Resolves a [`ParamValue`] against the global scope.
    ///
    /// # Errors
    /// [`CircuitError::UnknownParam`] for unresolved references.
    pub fn resolve_value(&self, value: &ParamValue, context: &str) -> Result<f64> {
        resolve(value, &HashMap::new(), &self.params, context)
    }

    /// Adds one top-level element template (see [`emit_element`]): values
    /// resolve against the global parameters, and CCCS/CCVS controls name
    /// top-level elements as written.
    pub(crate) fn add_element(
        &mut self,
        name: &str,
        nodes: [NodeId; 4],
        kind: &BodyKind,
    ) -> Result<()> {
        let local = HashMap::new();
        emit_element(
            &mut self.circuit,
            name,
            nodes,
            kind,
            &local,
            &self.params,
            Cow::Borrowed,
        )
    }

    /// Adds a subcircuit definition to the library.
    ///
    /// # Errors
    /// Rejects duplicate definition names.
    pub fn define(&mut self, def: SubcktDef) -> Result<&mut Self> {
        self.lib.define(def)?;
        Ok(self)
    }

    /// The subcircuit library.
    pub fn subckts(&self) -> &SubcktLib {
        &self.lib
    }

    /// The flat circuit built so far.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Mutable access to the flat circuit for direct element adds.
    pub fn circuit_mut(&mut self) -> &mut Circuit {
        &mut self.circuit
    }

    /// Flattens one instance of the library subcircuit `subckt` (see
    /// [`Circuit::instantiate`] for mangling rules). Override values may
    /// reference global parameters.
    ///
    /// # Errors
    /// Unknown subcircuit, port mismatch, unresolved parameters, recursive
    /// instantiation, or element validation failures.
    pub fn instantiate(
        &mut self,
        inst_name: &str,
        subckt: &str,
        ports: &[NodeId],
        overrides: &[(&str, ParamValue)],
    ) -> Result<&mut Self> {
        let def = self
            .lib
            .get(subckt)
            .ok_or_else(|| CircuitError::UnknownSubckt {
                name: subckt.to_string(),
                instance: inst_name.to_string(),
            })?;
        let mut resolved = Vec::with_capacity(overrides.len());
        for &(k, ref pv) in overrides {
            resolved.push((k, resolve(pv, &HashMap::new(), &self.params, inst_name)?));
        }
        flatten_instance(
            &mut self.circuit,
            &self.lib,
            def,
            inst_name,
            ports,
            &resolved,
            &self.params,
            &mut Vec::with_capacity(1),
        )?;
        Ok(self)
    }

    /// Consumes the builder, returning the flat circuit.
    pub fn finish(self) -> Circuit {
        self.circuit
    }

    /// Consumes the builder, returning the flat circuit plus the hierarchy
    /// metadata (the parser's path into [`crate::parser::ParsedDeck`]).
    pub fn into_parts(self) -> (Circuit, SubcktLib, HashMap<String, f64>) {
        (self.circuit, self.lib, self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::ElementKind;

    fn divider_def() -> SubcktDef {
        let mut d = SubcktDef::new("div", ["top", "out"]);
        d.param("r1", 1e3)
            .param("r2", 1e3)
            .resistor("Ra", "top", "out", "{r1}")
            .resistor("Rb", "out", "0", "{r2}");
        d
    }

    #[test]
    fn instantiate_flattens_with_mangled_names() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        ckt.instantiate("X1", &divider_def(), &[a, b], &[]).unwrap();
        assert!(ckt.element("Ra.X1").is_some());
        assert!(ckt.element("Rb.X1").is_some());
        assert_eq!(ckt.elements().len(), 3);
        assert!(ckt.validate().is_ok());
    }

    #[test]
    fn internal_nodes_are_private_per_instance() {
        let mut d = SubcktDef::new("rc", ["a"]);
        d.resistor("R1", "a", "mid", 50.0)
            .capacitor("C1", "mid", "0", 1e-12);
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        ckt.add_resistor("Rab", a, b, 1.0).unwrap();
        ckt.instantiate("X1", &d, &[a], &[]).unwrap();
        ckt.instantiate("X2", &d, &[b], &[]).unwrap();
        assert!(ckt.find_node("X1.mid").is_some());
        assert!(ckt.find_node("X2.mid").is_some());
        assert_ne!(ckt.find_node("X1.mid"), ckt.find_node("X2.mid"));
        assert!(ckt.validate().is_ok());
    }

    #[test]
    fn overrides_replace_defaults() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.instantiate("X1", &divider_def(), &[a, b], &[("r1", 5e3)])
            .unwrap();
        match ckt.element("Ra.X1").unwrap().kind() {
            ElementKind::Resistor { resistance } => assert_eq!(*resistance, 5e3),
            _ => panic!("wrong kind"),
        }
        match ckt.element("Rb.X1").unwrap().kind() {
            ElementKind::Resistor { resistance } => assert_eq!(*resistance, 1e3),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn unknown_override_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        assert!(matches!(
            ckt.instantiate("X1", &divider_def(), &[a, b], &[("nope", 1.0)]),
            Err(CircuitError::UnknownParam { .. })
        ));
    }

    #[test]
    fn port_mismatch_rejected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        assert!(matches!(
            ckt.instantiate("X1", &divider_def(), &[a], &[]),
            Err(CircuitError::PortMismatch {
                expected: 2,
                got: 1,
                ..
            })
        ));
    }

    #[test]
    fn nested_instances_flatten_through_builder() {
        let mut b = CircuitBuilder::new();
        b.define(divider_def()).unwrap();
        let mut pair = SubcktDef::new("pair", ["top", "out"]);
        pair.param("r", 2e3)
            .instance_with(
                "Xa",
                "div",
                &["top", "m"],
                &[("r1", ParamValue::Ref("r".into()))],
            )
            .instance("Xb", "div", &["m", "out"]);
        b.define(pair).unwrap();
        let a = b.node("a");
        let c = b.node("c");
        b.instantiate("X1", "pair", &[a, c], &[("r", ParamValue::Lit(7e3))])
            .unwrap();
        let ckt = b.finish();
        // Nested mangling: element Ra of div inside Xa inside X1.
        let e = ckt.element("Ra.X1.Xa").expect("nested element");
        match e.kind() {
            ElementKind::Resistor { resistance } => assert_eq!(*resistance, 7e3),
            _ => panic!("wrong kind"),
        }
        assert!(ckt.find_node("X1.m").is_some());
        assert_eq!(ckt.elements().len(), 4);
    }

    #[test]
    fn recursion_detected() {
        let mut b = CircuitBuilder::new();
        let mut a = SubcktDef::new("a", ["p"]);
        a.instance("X1", "b", &["p"]);
        let mut bb = SubcktDef::new("b", ["p"]);
        bb.instance("X1", "a", &["p"]);
        b.define(a).unwrap();
        b.define(bb).unwrap();
        let n = b.node("n");
        let err = b.instantiate("X1", "a", &[n], &[]).unwrap_err();
        assert!(matches!(err, CircuitError::RecursiveSubckt { .. }));
        assert!(err.to_string().contains("->"));
    }

    #[test]
    fn duplicate_instance_names_rejected() {
        // Two instances called X1 would merge their `X1.<node>` internals.
        let mut d = SubcktDef::new("rc", ["a"]);
        d.resistor("R1", "a", "mid", 50.0)
            .capacitor("C1", "mid", "0", 1e-12);
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.instantiate("X1", &d, &[a], &[]).unwrap();
        assert!(matches!(
            ckt.instantiate("X1", &d, &[b], &[]),
            Err(CircuitError::DuplicateElement { .. })
        ));
        // An instance may not shadow an existing element name either.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add_resistor("X9", a, Circuit::GROUND, 1.0).unwrap();
        assert!(ckt.instantiate("X9", &d, &[a], &[]).is_err());
    }

    #[test]
    fn unknown_subckt_rejected() {
        let mut b = CircuitBuilder::new();
        let n = b.node("n");
        assert!(matches!(
            b.instantiate("X1", "ghost", &[n], &[]),
            Err(CircuitError::UnknownSubckt { .. })
        ));
    }

    #[test]
    fn duplicate_definition_rejected() {
        let mut lib = SubcktLib::new();
        lib.define(divider_def()).unwrap();
        assert!(lib.define(divider_def()).is_err());
        assert_eq!(lib.len(), 1);
        assert!(!lib.is_empty());
    }

    #[test]
    fn global_params_reachable_from_bodies() {
        let mut b = CircuitBuilder::new();
        b.set_param("rr", 9e3);
        let mut d = SubcktDef::new("shunt", ["p"]);
        d.resistor("R1", "p", "0", "{rr}");
        b.define(d).unwrap();
        let n = b.node("n");
        b.instantiate("X1", "shunt", &[n], &[]).unwrap();
        match b.circuit().element("R1.X1").unwrap().kind() {
            ElementKind::Resistor { resistance } => assert_eq!(*resistance, 9e3),
            _ => panic!("wrong kind"),
        }
        assert_eq!(b.param("RR"), Some(9e3));
    }

    #[test]
    fn control_scoping_local_then_outer() {
        // A CCCS inside the body referencing its sibling V source.
        let mut d = SubcktDef::new("mirror", ["inp", "outp"]);
        d.voltage_source("Vs", "inp", "internal", SourceWaveform::dc(0.0))
            .resistor("Rs", "internal", "0", 1e3)
            .cccs("F1", "outp", "0", "Vs", 2.0);
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let o = ckt.node("o");
        ckt.add_voltage_source("Vdrv", a, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        ckt.add_resistor("RL", o, Circuit::GROUND, 1e3).unwrap();
        ckt.instantiate("X1", &d, &[a, o], &[]).unwrap();
        match ckt.element("F1.X1").unwrap().kind() {
            ElementKind::Cccs { control, .. } => assert_eq!(control, "Vs.X1"),
            _ => panic!("wrong kind"),
        }
        assert!(crate::mna::MnaSystem::new(&ckt).is_ok());
    }

    #[test]
    fn ground_aliases_map_to_global_ground() {
        let mut d = SubcktDef::new("g", ["p"]);
        d.resistor("R1", "p", "GND", 50.0);
        let mut ckt = Circuit::new();
        let n = ckt.node("n");
        ckt.instantiate("X1", &d, &[n], &[]).unwrap();
        let e = ckt.element("R1.X1").unwrap();
        assert!(e.node_minus().is_ground());
    }

    #[test]
    fn waveform_template_resolves_per_instance() {
        let mut d = SubcktDef::new("drv", ["out"]);
        d.param("vhi", 5.0).param("per", 100e-9).voltage_source(
            "Vp",
            "out",
            "0",
            WaveformTemplate::pulse(0.0, "{vhi}", 0.0, 1e-9, 1e-9, 4e-9, "{per}"),
        );
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_resistor("Ra", a, Circuit::GROUND, 1e3).unwrap();
        ckt.add_resistor("Rb", b, Circuit::GROUND, 1e3).unwrap();
        ckt.instantiate("X1", &d, &[a], &[]).unwrap();
        ckt.instantiate("X2", &d, &[b], &[("vhi", 2.0), ("per", 10e-9)])
            .unwrap();
        let wf = |name: &str| match ckt.element(name).unwrap().kind() {
            ElementKind::VoltageSource { waveform } => waveform.clone(),
            _ => panic!("wrong kind"),
        };
        assert_eq!(wf("Vp.X1").value(2e-9), 5.0);
        assert_eq!(wf("Vp.X2").value(2e-9), 2.0);
        // Period override: X2 is high again one (short) period later.
        assert_eq!(wf("Vp.X2").value(12e-9), 2.0);
        assert_eq!(wf("Vp.X1").value(12e-9), 0.0);
    }

    #[test]
    fn waveform_template_sin_and_dc_resolve() {
        let mut d = SubcktDef::new("src", ["p"]);
        d.param("f", 1e6)
            .param("lvl", 0.5)
            .voltage_source(
                "Vs",
                "p",
                "internal",
                WaveformTemplate::sin(0.0, 1.0, "{f}", 0.0, 0.0),
            )
            .current_source("Is", "internal", "0", WaveformTemplate::dc("{lvl}"));
        let mut ckt = Circuit::new();
        let p = ckt.node("p");
        ckt.instantiate("X1", &d, &[p], &[("f", 2e6)]).unwrap();
        match ckt.element("Vs.X1").unwrap().kind() {
            ElementKind::VoltageSource { waveform } => {
                // Quarter period of 2 MHz = 125 ns.
                assert!((waveform.value(125e-9) - 1.0).abs() < 1e-9);
            }
            _ => panic!("wrong kind"),
        }
        match ckt.element("Is.X1").unwrap().kind() {
            ElementKind::CurrentSource { waveform } => assert_eq!(waveform.value(0.0), 0.5),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn waveform_template_unknown_ref_rejected() {
        let mut d = SubcktDef::new("bad", ["p"]);
        d.voltage_source("V1", "p", "0", WaveformTemplate::dc("{missing}"));
        let mut ckt = Circuit::new();
        let p = ckt.node("p");
        assert!(matches!(
            ckt.instantiate("X1", &d, &[p], &[]),
            Err(CircuitError::UnknownParam { .. })
        ));
    }

    #[test]
    fn param_value_display_and_from() {
        assert_eq!(ParamValue::from(5.0), ParamValue::Lit(5.0));
        assert_eq!(ParamValue::from("{w}"), ParamValue::Ref("w".into()));
        assert_eq!(ParamValue::Lit(1e3).to_string(), "1e3");
        assert_eq!(ParamValue::Ref("r".into()).to_string(), "{r}");
    }
}
