//! Netlist serialization: renders a [`Circuit`] back into the SPICE-like
//! text the [`crate::parser`] reads, including `.model` cards for the
//! nano-devices. `parse(write(circuit))` reproduces the circuit: values
//! render in shortest round-trip form and model cards carry each device's
//! exact parameters from
//! [`for_each_param`](nanosim_devices::traits::NonlinearTwoTerminal::for_each_param).
//! The one exception is the RTT, whose card sets only `vbe`: an RTT built
//! through the API with other parameters parses back as the three-peak
//! device. The round-trip property is tested in the crate's property suite
//! and on the deck corpus.

use crate::element::ElementKind;
use crate::netlist::Circuit;
use nanosim_devices::mosfet::MosType;
use nanosim_devices::sources::SourceWaveform;
use std::fmt::Write as _;

/// Renders `circuit` as parseable netlist text.
///
/// Models are emitted per element (named `m_<element>`), which keeps the
/// writer simple and the output self-contained; identical devices simply
/// repeat their card.
pub fn write_netlist(circuit: &Circuit) -> String {
    let mut out = String::new();
    let title = circuit.title().unwrap_or("generated by nanosim");
    let _ = writeln!(out, ".title {title}");

    // Model cards first.
    for e in circuit.elements() {
        match e.kind() {
            ElementKind::Nonlinear { device } => {
                let name = format!("m_{}", e.name().to_ascii_lowercase());
                let card = match device.device_kind() {
                    "rtd" => "RTD",
                    "nanowire" => "NW",
                    "rtt" => "RTT",
                    "diode" => "D",
                    other => {
                        let _ = writeln!(out, "* unknown device kind {other} for {}", e.name());
                        continue;
                    }
                };
                let _ = write!(out, ".model {name} {card} (");
                let mut first = true;
                device.for_each_param(&mut |key, value| {
                    // The RTT card reads only `vbe`; its other parameters
                    // are the parser's fixed three-peak set.
                    if card == "RTT" && key != "vbe" {
                        return;
                    }
                    let sep = if first { "" } else { " " };
                    first = false;
                    let _ = write!(out, "{sep}{key}={value:e}");
                });
                let _ = writeln!(out, ")");
            }
            ElementKind::Mosfet { model } => {
                let p = model.params();
                let kind = match p.mos_type {
                    MosType::Nmos => "NMOS",
                    MosType::Pmos => "PMOS",
                };
                let _ = writeln!(
                    out,
                    ".model m_{} {kind} (kp={:e} w={} l={} vto={} lambda={})",
                    e.name().to_ascii_lowercase(),
                    p.k,
                    p.w,
                    p.l,
                    p.vth,
                    p.lambda
                );
            }
            _ => {}
        }
    }

    // Element lines.
    for e in circuit.elements() {
        let nodes: Vec<&str> = e.nodes().iter().map(|&n| circuit.node_name(n)).collect();
        match e.kind() {
            ElementKind::Resistor { resistance } => {
                let _ = writeln!(
                    out,
                    "{} {} {} {:e}",
                    e.name(),
                    nodes[0],
                    nodes[1],
                    resistance
                );
            }
            ElementKind::Capacitor {
                capacitance,
                initial_voltage,
            } => {
                let _ = write!(
                    out,
                    "{} {} {} {:e}",
                    e.name(),
                    nodes[0],
                    nodes[1],
                    capacitance
                );
                if let Some(ic) = initial_voltage {
                    let _ = write!(out, " IC={ic:e}");
                }
                let _ = writeln!(out);
            }
            ElementKind::Inductor { inductance } => {
                let _ = writeln!(
                    out,
                    "{} {} {} {:e}",
                    e.name(),
                    nodes[0],
                    nodes[1],
                    inductance
                );
            }
            ElementKind::VoltageSource { waveform } | ElementKind::CurrentSource { waveform } => {
                let _ = writeln!(
                    out,
                    "{} {} {} {}",
                    e.name(),
                    nodes[0],
                    nodes[1],
                    source_spec(waveform)
                );
            }
            ElementKind::Nonlinear { device } => {
                let prefix = match device.device_kind() {
                    "rtd" => "YRTD",
                    "nanowire" => "YNW",
                    "rtt" => "YRTT",
                    "diode" => "D",
                    _ => "Y",
                };
                // Element names already start with a type letter from the
                // builder API or parser; preserve them verbatim when they
                // carry the right prefix, otherwise synthesize one.
                let name = e.name();
                let upper = name.to_ascii_uppercase();
                let line_name = if upper.starts_with(prefix) {
                    name.to_string()
                } else {
                    format!("{prefix}{name}")
                };
                let _ = writeln!(
                    out,
                    "{line_name} {} {} m_{}",
                    nodes[0],
                    nodes[1],
                    name.to_ascii_lowercase()
                );
            }
            ElementKind::Mosfet { .. } => {
                let name = e.name();
                let upper = name.to_ascii_uppercase();
                let line_name = if upper.starts_with('M') {
                    name.to_string()
                } else {
                    format!("M{name}")
                };
                let _ = writeln!(
                    out,
                    "{line_name} {} {} {} m_{}",
                    nodes[0],
                    nodes[1],
                    nodes[2],
                    name.to_ascii_lowercase()
                );
            }
            ElementKind::Vcvs { gain } => {
                let _ = writeln!(
                    out,
                    "{} {} {} {} {} {:e}",
                    e.name(),
                    nodes[0],
                    nodes[1],
                    nodes[2],
                    nodes[3],
                    gain
                );
            }
            ElementKind::Vccs { gm } => {
                let _ = writeln!(
                    out,
                    "{} {} {} {} {} {:e}",
                    e.name(),
                    nodes[0],
                    nodes[1],
                    nodes[2],
                    nodes[3],
                    gm
                );
            }
            ElementKind::Cccs { gain, control } => {
                let _ = writeln!(
                    out,
                    "{} {} {} {} {:e}",
                    e.name(),
                    nodes[0],
                    nodes[1],
                    control,
                    gain
                );
            }
            ElementKind::Ccvs { r, control } => {
                let _ = writeln!(
                    out,
                    "{} {} {} {} {:e}",
                    e.name(),
                    nodes[0],
                    nodes[1],
                    control,
                    r
                );
            }
        }
    }
    let _ = writeln!(out, ".end");
    out
}

fn source_spec(waveform: &SourceWaveform) -> String {
    match waveform {
        SourceWaveform::Dc(v) => format!("DC {v:e}"),
        SourceWaveform::Pulse(p) => format!(
            "PULSE({:e} {:e} {:e} {:e} {:e} {:e} {:e})",
            p.v1, p.v2, p.delay, p.rise, p.fall, p.width, p.period
        ),
        SourceWaveform::Sin(s) => format!(
            "SIN({:e} {:e} {:e} {:e} {:e})",
            s.offset, s.amplitude, s.frequency, s.delay, s.theta
        ),
        SourceWaveform::Pwl(f) => {
            let pts: Vec<String> = f
                .points()
                .iter()
                .map(|(t, v)| format!("{t:e} {v:e}"))
                .collect();
            format!("PWL({})", pts.join(" "))
        }
        SourceWaveform::WhiteNoise { mean, intensity } => {
            format!("NOISE({mean:e} {intensity:e})")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_netlist;
    use nanosim_devices::mosfet::Mosfet;
    use nanosim_devices::rtd::Rtd;
    use nanosim_devices::sources::{PulseParams, SourceWaveform};

    fn build_full_circuit() -> Circuit {
        let mut ckt = Circuit::new();
        ckt.set_title("writer test");
        let a = ckt.node("a");
        let b = ckt.node("b");
        let g = ckt.node("g");
        ckt.add_voltage_source(
            "V1",
            a,
            Circuit::GROUND,
            SourceWaveform::pulse(PulseParams {
                v1: 0.0,
                v2: 5.0,
                delay: 1e-9,
                rise: 1e-10,
                fall: 1e-10,
                width: 5e-9,
                period: 20e-9,
            })
            .unwrap(),
        )
        .unwrap();
        ckt.add_resistor("R1", a, b, 50.0).unwrap();
        ckt.add_capacitor_ic("C1", b, Circuit::GROUND, 1e-13, Some(0.5))
            .unwrap();
        ckt.add_inductor("L1", a, g, 1e-9).unwrap();
        ckt.add_rtd("YRTD1", b, Circuit::GROUND, Rtd::date2005())
            .unwrap();
        ckt.add_mosfet("M1", b, g, Circuit::GROUND, Mosfet::nmos())
            .unwrap();
        ckt.add_current_source(
            "I1",
            Circuit::GROUND,
            b,
            SourceWaveform::white_noise(1e-3, 1e-9).unwrap(),
        )
        .unwrap();
        ckt
    }

    #[test]
    fn writer_output_parses_back() {
        let ckt = build_full_circuit();
        let text = write_netlist(&ckt);
        let deck = parse_netlist(&text).expect("writer output must parse");
        assert_eq!(deck.circuit.elements().len(), ckt.elements().len());
        assert_eq!(deck.circuit.node_count(), ckt.node_count());
        assert_eq!(deck.circuit.title(), Some("writer test"));
    }

    #[test]
    fn roundtrip_preserves_element_values() {
        let ckt = build_full_circuit();
        let text = write_netlist(&ckt);
        let deck = parse_netlist(&text).unwrap();
        match deck.circuit.element("R1").unwrap().kind() {
            ElementKind::Resistor { resistance } => assert_eq!(*resistance, 50.0),
            _ => panic!("wrong kind"),
        }
        match deck.circuit.element("C1").unwrap().kind() {
            ElementKind::Capacitor {
                capacitance,
                initial_voltage,
            } => {
                assert_eq!(*capacitance, 1e-13);
                assert_eq!(*initial_voltage, Some(0.5));
            }
            _ => panic!("wrong kind"),
        }
        match deck.circuit.element("I1").unwrap().kind() {
            ElementKind::CurrentSource { waveform } => {
                assert!(waveform.is_stochastic());
                assert_eq!(waveform.noise_intensity(), 1e-9);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn roundtrip_preserves_rtd_behavior() {
        use nanosim_numeric::FlopCounter;
        let ckt = build_full_circuit();
        let deck = parse_netlist(&write_netlist(&ckt)).unwrap();
        let orig = match ckt.element("YRTD1").unwrap().kind() {
            ElementKind::Nonlinear { device } => device.clone(),
            _ => panic!("wrong kind"),
        };
        let round = match deck.circuit.element("YRTD1").unwrap().kind() {
            ElementKind::Nonlinear { device } => device.clone(),
            _ => panic!("wrong kind"),
        };
        let mut flops = FlopCounter::new();
        for v in [0.4, 1.2, 3.3, 4.8] {
            let a = orig.current(v, &mut flops);
            let b = round.current(v, &mut flops);
            assert!((a - b).abs() < 1e-12 * (1.0 + a.abs()), "v={v}");
        }
    }

    #[test]
    fn pulse_source_roundtrip() {
        let ckt = build_full_circuit();
        let deck = parse_netlist(&write_netlist(&ckt)).unwrap();
        match deck.circuit.element("V1").unwrap().kind() {
            ElementKind::VoltageSource { waveform } => {
                assert_eq!(waveform.value(3e-9), 5.0);
                assert_eq!(waveform.value(0.0), 0.0);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn sin_and_pwl_specs() {
        let sin = SourceWaveform::sin(nanosim_devices::sources::SinParams {
            offset: 1.0,
            amplitude: 2.0,
            frequency: 1e6,
            delay: 0.0,
            theta: 0.0,
        })
        .unwrap();
        let spec = source_spec(&sin);
        assert!(spec.starts_with("SIN("), "{spec}");
        let pwl = SourceWaveform::pwl(vec![(0.0, 0.0), (1e-9, 1.0)]).unwrap();
        assert!(source_spec(&pwl).starts_with("PWL("));
    }
}
