//! Canonical circuit fingerprints for cross-request caching.
//!
//! Two 64-bit FNV-1a fingerprints over a flattened [`Circuit`]:
//!
//! * [`deck_fingerprint`] — hashes the circuit itself: the title, every
//!   node name, and for every element its name, type tag, node ids,
//!   control name and the exact `f64` bits of every value, waveform
//!   parameter and device or MOSFET model parameter (device parameters
//!   come from
//!   [`for_each_param`](nanosim_devices::traits::NonlinearTwoTerminal::for_each_param)). Any value change
//!   changes the fingerprint, so equal fingerprints mean equal circuits.
//!   This is the full-result cache key. It renders no text and allocates
//!   nothing.
//! * [`topology_fingerprint`] — hashes only the structure that determines
//!   the MNA sparsity pattern: element type tags, terminal node ids,
//!   branch-current bookkeeping and controlled-source references — never
//!   component values. Circuits that differ only in values share a
//!   topology fingerprint, and therefore share symbolic LU analyses and
//!   factor structures when sessions are pooled per topology.
//!
//! Both are deterministic across processes and platforms (no
//! `DefaultHasher` seeds, no pointer identity), which keeps service-level
//! caches and golden corpus tests stable.

use crate::element::ElementKind;
use crate::netlist::Circuit;
use nanosim_devices::mosfet::MosType;
use nanosim_devices::sources::SourceWaveform;

/// 64-bit FNV-1a over a byte slice — the same portable, dependency-free
/// hash used across the workspace for deterministic fingerprints.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Folds more bytes into an existing FNV-1a state (chain with the result
/// of a previous [`fnv1a`] / [`fnv1a_extend`] call to hash composites).
#[must_use]
pub fn fnv1a_extend(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x100_0000_01b3);
    }
    state
}

/// Value-sensitive fingerprint of a flattened circuit: FNV-1a over its
/// title, node names, and every element's name, type, connectivity and
/// exact parameter bits. Any change to values, waveforms, models, names or
/// connectivity changes the fingerprint.
///
/// # Example
/// ```
/// use nanosim_circuit::{deck_fingerprint, parse_netlist};
/// let a = parse_netlist("V1 in 0 DC 1\nR1 in 0 100\n.end\n")?;
/// let b = parse_netlist("V1 in 0 DC 1\nR1 in 0 220\n.end\n")?;
/// assert_ne!(deck_fingerprint(&a.circuit), deck_fingerprint(&b.circuit));
/// # Ok::<(), nanosim_circuit::CircuitError>(())
/// ```
#[must_use]
pub fn deck_fingerprint(circuit: &Circuit) -> u64 {
    let mut h = Fnv(fnv1a(b"nanosim-deck-v2"));
    match circuit.title() {
        Some(title) => {
            h.byte(1);
            h.str(title);
        }
        None => h.byte(0),
    }
    h.count(circuit.node_count());
    for (_, name) in circuit.nodes().iter() {
        h.str(name);
    }
    h.count(circuit.elements().len());
    for e in circuit.elements() {
        // The type tag fixes the terminal count, so node ids need no
        // length prefix.
        h.str(e.name());
        h.str(e.kind().type_tag());
        for &n in e.nodes() {
            h.count(n.index());
        }
        hash_values(&mut h, e.kind());
    }
    h.0
}

/// FNV-1a state with typed feeds. Strings end in `0xff`, a byte UTF-8
/// never contains, so adjacent fields can never alias each other.
struct Fnv(u64);

impl Fnv {
    fn byte(&mut self, b: u8) {
        self.0 = fnv1a_extend(self.0, &[b]);
    }

    fn count(&mut self, n: usize) {
        self.0 = fnv1a_extend(self.0, &(n as u32).to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.0 = fnv1a_extend(self.0, &v.to_bits().to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.0 = fnv1a_extend(self.0, s.as_bytes());
        self.byte(0xff);
    }
}

/// Feeds every value of one element kind: component values, the control
/// name, waveform parameters and device/MOSFET model parameters.
fn hash_values(h: &mut Fnv, kind: &ElementKind) {
    match kind {
        ElementKind::Resistor { resistance: v }
        | ElementKind::Inductor { inductance: v }
        | ElementKind::Vcvs { gain: v }
        | ElementKind::Vccs { gm: v } => h.f64(*v),
        ElementKind::Capacitor {
            capacitance,
            initial_voltage,
        } => {
            h.f64(*capacitance);
            match initial_voltage {
                Some(ic) => {
                    h.byte(1);
                    h.f64(*ic);
                }
                None => h.byte(0),
            }
        }
        ElementKind::VoltageSource { waveform } | ElementKind::CurrentSource { waveform } => {
            hash_waveform(h, waveform);
        }
        ElementKind::Cccs { gain: v, control } | ElementKind::Ccvs { r: v, control } => {
            h.f64(*v);
            h.str(control);
        }
        ElementKind::Nonlinear { device } => {
            // The device kind fixes the parameter names and order; the
            // count covers kinds with variable-length lists (RTT levels).
            h.str(device.device_kind());
            let mut count = 0;
            device.for_each_param(&mut |_, value| {
                h.f64(value);
                count += 1;
            });
            h.count(count);
        }
        ElementKind::Mosfet { model } => {
            let p = model.params();
            h.byte(match p.mos_type {
                MosType::Nmos => 0,
                MosType::Pmos => 1,
            });
            for v in [p.k, p.w, p.l, p.vth, p.lambda] {
                h.f64(v);
            }
        }
    }
}

fn hash_waveform(h: &mut Fnv, waveform: &SourceWaveform) {
    match waveform {
        SourceWaveform::Dc(v) => {
            h.byte(0);
            h.f64(*v);
        }
        SourceWaveform::Pulse(p) => {
            h.byte(1);
            for v in [p.v1, p.v2, p.delay, p.rise, p.fall, p.width, p.period] {
                h.f64(v);
            }
        }
        SourceWaveform::Sin(s) => {
            h.byte(2);
            for v in [s.offset, s.amplitude, s.frequency, s.delay, s.theta] {
                h.f64(v);
            }
        }
        SourceWaveform::Pwl(f) => {
            h.byte(3);
            h.count(f.points().len());
            for &(t, v) in f.points() {
                h.f64(t);
                h.f64(v);
            }
        }
        SourceWaveform::WhiteNoise { mean, intensity } => {
            h.byte(4);
            h.f64(*mean);
            h.f64(*intensity);
        }
    }
}

/// Structure-only fingerprint: hashes exactly the inputs that determine
/// the MNA variable layout and matrix sparsity pattern — node count,
/// element type tags, terminal node ids, and controlled-source branch
/// references — and none of the component values.
///
/// # Example
/// ```
/// use nanosim_circuit::{parse_netlist, topology_fingerprint};
/// let a = parse_netlist("V1 in 0 DC 1\nR1 in 0 100\n.end\n")?;
/// let b = parse_netlist("V1 in 0 DC 2\nR1 in 0 220\n.end\n")?;
/// assert_eq!(topology_fingerprint(&a.circuit), topology_fingerprint(&b.circuit));
/// # Ok::<(), nanosim_circuit::CircuitError>(())
/// ```
#[must_use]
pub fn topology_fingerprint(circuit: &Circuit) -> u64 {
    let mut h = Fnv(fnv1a(b"nanosim-topology-v2"));
    h.count(circuit.node_count());
    for e in circuit.elements() {
        // The type tag fixes the terminal count and whether a control name
        // follows, so each element's feed is self-delimiting.
        h.str(e.kind().type_tag());
        h.byte(u8::from(e.kind().needs_branch_current()));
        for &n in e.nodes() {
            h.count(n.index());
        }
        if let Some(ctrl) = e.kind().control_name() {
            // Controlled sources stamp the controlling element's branch
            // column; which element that is, is structural.
            h.str(ctrl);
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_netlist;

    #[test]
    fn value_change_moves_deck_but_not_topology() {
        let a = parse_netlist("V1 in 0 DC 1\nR1 in mid 100\nR2 mid 0 50\n.end\n").unwrap();
        let b = parse_netlist("V1 in 0 DC 1\nR1 in mid 101\nR2 mid 0 50\n.end\n").unwrap();
        assert_ne!(deck_fingerprint(&a.circuit), deck_fingerprint(&b.circuit));
        assert_eq!(
            topology_fingerprint(&a.circuit),
            topology_fingerprint(&b.circuit)
        );
    }

    #[test]
    fn connectivity_change_moves_topology() {
        let a = parse_netlist("V1 in 0 DC 1\nR1 in mid 100\nR2 mid 0 50\n.end\n").unwrap();
        let b = parse_netlist("V1 in 0 DC 1\nR1 in 0 100\nR2 in 0 50\n.end\n").unwrap();
        assert_ne!(
            topology_fingerprint(&a.circuit),
            topology_fingerprint(&b.circuit)
        );
    }

    #[test]
    fn fingerprints_are_deterministic() {
        let a = parse_netlist("V1 in 0 DC 1\nR1 in 0 100\n.end\n").unwrap();
        let b = parse_netlist("V1 in 0 DC 1\nR1 in 0 100\n.end\n").unwrap();
        assert_eq!(deck_fingerprint(&a.circuit), deck_fingerprint(&b.circuit));
        assert_eq!(
            topology_fingerprint(&a.circuit),
            topology_fingerprint(&b.circuit)
        );
    }

    /// Decks that differ in exactly one parameter the old text-probing key
    /// could not see (custom model cards) or in one waveform value.
    const VARIANTS: [(&str, &str); 9] = [
        (
            ".model m RTD (a=2.2e-4)\nV1 a 0 DC 1\nYRTD1 a 0 m\n.op\n",
            ".model m RTD (a=3e-4)\nV1 a 0 DC 1\nYRTD1 a 0 m\n.op\n",
        ),
        (
            ".model w NW (g0=1e-4)\nV1 a 0 DC 1\nYNW1 a 0 w\n.op\n",
            ".model w NW (g0=2e-4)\nV1 a 0 DC 1\nYNW1 a 0 w\n.op\n",
        ),
        (
            ".model d D (is=1e-14 n=1.0)\nV1 a 0 DC 1\nD1 a 0 d\n.op\n",
            ".model d D (is=1e-14 n=1.5)\nV1 a 0 DC 1\nD1 a 0 d\n.op\n",
        ),
        (
            ".model m NMOS (kp=1e-4 vto=0.7)\nV1 a 0 DC 1\nM1 a a 0 m\n.op\n",
            ".model m NMOS (kp=1e-4 vto=0.8)\nV1 a 0 DC 1\nM1 a a 0 m\n.op\n",
        ),
        (
            ".model t RTT (vbe=1.0)\nV1 a 0 DC 1\nYRTT1 a 0 t\n.op\n",
            ".model t RTT (vbe=1.1)\nV1 a 0 DC 1\nYRTT1 a 0 t\n.op\n",
        ),
        (
            "V1 a 0 PULSE(0 1 0 1n 1n 5n 10n)\nR1 a 0 1\n.op\n",
            "V1 a 0 PULSE(0 1 0 1n 1n 5n 11n)\nR1 a 0 1\n.op\n",
        ),
        (
            "V1 a 0 PWL(0 0 1n 1 2n 1)\nR1 a 0 1\n.op\n",
            "V1 a 0 PWL(0 0 1n 1 2n 1.5)\nR1 a 0 1\n.op\n",
        ),
        (
            "V1 a 0 SIN(0 1 1meg)\nR1 a 0 1\n.op\n",
            "V1 a 0 SIN(0 1 2meg)\nR1 a 0 1\n.op\n",
        ),
        (
            "V1 a 0 1\nC1 a 0 1p IC=0.5\nR1 a 0 1\n.op\n",
            "V1 a 0 1\nC1 a 0 1p IC=0.6\nR1 a 0 1\n.op\n",
        ),
    ];

    #[test]
    fn one_parameter_moves_the_deck_fingerprint() {
        for (a, b) in VARIANTS {
            let a = parse_netlist(a).unwrap().circuit;
            let b = parse_netlist(b).unwrap().circuit;
            assert_ne!(deck_fingerprint(&a), deck_fingerprint(&b), "{a}");
            assert_eq!(topology_fingerprint(&a), topology_fingerprint(&b), "{a}");
        }
    }

    #[test]
    fn names_titles_and_structure_move_the_deck_fingerprint() {
        let base = "t1\nV1 a 0 1\nR1 a 0 1\n.op\n";
        let fp = |deck: &str| deck_fingerprint(&parse_netlist(deck).unwrap().circuit);
        for other in [
            "t2\nV1 a 0 1\nR1 a 0 1\n.op\n",
            "t1\nV1 b 0 1\nR1 b 0 1\n.op\n",
            "t1\nV1 a 0 1\nR2 a 0 1\n.op\n",
            "t1\nV1 a 0 1\nR1 0 a 1\n.op\n",
        ] {
            assert_ne!(fp(base), fp(other), "{other}");
        }
        // The control name of a current-controlled source.
        assert_ne!(
            fp("V1 a 0 1\nV2 b 0 1\nF1 a 0 V1 2\nR1 b 0 1\n.op\n"),
            fp("V1 a 0 1\nV2 b 0 1\nF1 a 0 V2 2\nR1 b 0 1\n.op\n")
        );
    }

    #[test]
    fn fnv1a_matches_reference_vector() {
        // FNV-1a 64 reference: empty input hashes to the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}
