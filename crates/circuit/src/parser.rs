//! SPICE-like netlist parser.
//!
//! Supports the subset of the SPICE language the Nano-Sim experiments need,
//! plus `Y`-prefixed nano-devices and hierarchical subcircuits:
//!
//! ```text
//! * comment lines and trailing ; comments
//! R<name> n+ n- value            resistor
//! C<name> n+ n- value [IC=v0]    capacitor
//! L<name> n+ n- value            inductor
//! V<name> n+ n- <source>         voltage source
//! I<name> n+ n- <source>         current source
//! E<name> n+ n- nc+ nc- gain     voltage-controlled voltage source
//! G<name> n+ n- nc+ nc- gm       voltage-controlled current source
//! F<name> n+ n- vname gain       current-controlled current source
//! H<name> n+ n- vname r          current-controlled voltage source
//! D<name> n+ n- [model]          diode
//! M<name> nd ng ns <model>       level-1 MOSFET
//! YRTD<name> n+ n- [model]       resonant tunneling diode
//! YNW<name>  n+ n- [model]       quantum wire / CNT
//! YRTT<name> nc ne [model]       resonant tunneling transistor
//! X<name> n1 n2 ... subckt [p=v ...]   subcircuit instance
//!
//! <source> ::= [DC] value
//!            | PULSE(v1 v2 td tr tf pw per)
//!            | SIN(vo va freq [td [theta]])
//!            | PWL(t1 v1 t2 v2 ...)
//!            | NOISE(mean intensity)
//!
//! .model <name> RTD  (a=.. b=.. c=.. d=.. h=.. n1=.. n2=.. [temp=..])
//! .model <name> NMOS (kp=.. w=.. l=.. vto=.. [lambda=..])
//! .model <name> PMOS (kp=.. w=.. l=.. vto=.. [lambda=..])
//! .model <name> D    (is=.. [n=..] [temp=..])
//! .model <name> NW   ([g0=..] [base=..] [step=..] [steps=..] [smear=..])
//! .model <name> RTT  ([vbe=..])
//!
//! .subckt <name> port1 port2 ... [param=default ...]
//!   <element lines, including nested X instances>
//! .ends [<name>]
//! .param name=value [name=value ...]
//!
//! .tran tstep tstop
//! .dc <source> start stop step
//! .op
//! .end
//! ```
//!
//! Values accept SPICE magnitude suffixes (`t g meg k m u n p f`) and
//! trailing unit letters (`10pF`, `5V`, `1k`). Inside subcircuit bodies
//! (and, against `.param` globals, anywhere) an element value, a capacitor
//! `IC` and a `DC`/`PULSE(..)`/`SIN(..)` waveform position may be a
//! `{name}` parameter reference; instances override declared parameters
//! with `Xcell a b inv R=5k`. `PWL(..)` and `NOISE(..)` positions are
//! literal numbers.
//!
//! Top-level element lines and flattened subcircuit bodies build their
//! elements through one emitter, so both resolve parameters and check
//! values the same way.
//!
//! Parse errors report the 1-based **line and column** of the offending
//! token, so a bad value in a generated 500-line deck is locatable.

use crate::error::CircuitError;
use crate::lint::{SourceMap, Span};
use crate::netlist::Circuit;
use crate::node::NodeId;
use crate::subckt::{
    BodyElement, BodyKind, CircuitBuilder, ParamValue, SubcktDef, SubcktLib, WaveformTemplate,
};
use crate::Result;
use nanosim_devices::diode::{Diode, DiodeParams};
use nanosim_devices::mosfet::{MosType, Mosfet, MosfetParams};
use nanosim_devices::nanowire::{Nanowire, NanowireParams};
use nanosim_devices::rtd::{Rtd, RtdParams};
use nanosim_devices::rtt::Rtt;
use nanosim_devices::sources::{PulseParams, SinParams, SourceWaveform};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// An analysis request found in the netlist.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisDirective {
    /// `.op` — DC operating point.
    Op,
    /// `.tran tstep tstop` — transient analysis.
    Tran {
        /// Suggested (maximum) time step in seconds.
        tstep: f64,
        /// Stop time in seconds.
        tstop: f64,
    },
    /// `.dc source start stop step` — DC sweep of a named source.
    Dc {
        /// Name of the swept V/I source.
        source: String,
        /// Sweep start value.
        start: f64,
        /// Sweep end value.
        stop: f64,
        /// Sweep increment.
        step: f64,
    },
}

/// Result of parsing a netlist: the flattened circuit, its analysis
/// directives, and the hierarchy the deck declared (for tooling).
#[derive(Debug, Clone)]
pub struct ParsedDeck {
    /// The parsed, fully flattened circuit.
    pub circuit: Circuit,
    /// Analyses in file order.
    pub analyses: Vec<AnalysisDirective>,
    /// Subcircuit definitions the deck declared.
    pub subckts: SubcktLib,
    /// Global `.param` values (keys lowercased).
    pub params: HashMap<String, f64>,
    /// Source position of every flattened element (elements produced by
    /// instance flattening map to their `X` line), for lint diagnostics.
    pub spans: SourceMap,
}

#[derive(Debug, Clone)]
struct ModelCard {
    type_name: String,
    params: HashMap<String, f64>,
}

/// One source token, borrowed from the deck text, with its physical
/// location (continuation lines keep their own line numbers, so errors land
/// on the exact `+` line).
#[derive(Debug, Clone, Copy)]
struct Tok<'a> {
    text: &'a str,
    line: usize,
    /// 1-based column of the token's first character.
    col: usize,
    /// Whether the token was immediately followed by `=` (marks the start
    /// of `name=value` override/parameter pairs).
    eq: bool,
}

impl Tok<'_> {
    /// Case-insensitive keyword match.
    fn is(&self, keyword: &str) -> bool {
        self.text.eq_ignore_ascii_case(keyword)
    }

    /// Case-insensitive prefix match.
    fn starts_with(&self, prefix: &str) -> bool {
        self.text
            .as_bytes()
            .get(..prefix.len())
            .is_some_and(|head| head.eq_ignore_ascii_case(prefix.as_bytes()))
    }

    /// The first character, uppercased (ASCII only).
    fn letter(&self) -> Option<char> {
        self.text.chars().next().map(|c| c.to_ascii_uppercase())
    }
}

/// The dot directives, in their canonical uppercase spelling.
const DIRECTIVES: [&str; 9] = [
    ".MODEL", ".SUBCKT", ".ENDS", ".END", ".TITLE", ".PARAM", ".OP", ".TRAN", ".DC",
];

/// The canonical spelling of a directive token, if it names one.
fn directive(tok: &Tok) -> Option<&'static str> {
    DIRECTIVES.into_iter().find(|d| tok.is(d))
}

/// A logical netlist line: its range in the deck's token list
/// (continuations folded in) plus the raw text for title handling.
#[derive(Debug, Clone)]
struct Line<'a> {
    line_no: usize,
    toks: std::ops::Range<usize>,
    raw: Cow<'a, str>,
}

/// Parses SPICE-like netlist text into a flattened circuit.
///
/// # Errors
/// Returns [`CircuitError::Parse`] with 1-based line *and column* numbers
/// for syntax errors, and propagates element/model/hierarchy validation
/// failures ([`CircuitError::UnknownSubckt`], [`CircuitError::UnknownParam`],
/// ...).
///
/// # Example
/// ```
/// let deck = nanosim_circuit::parse_netlist(
///     "* rtd divider as a subckt\n\
///      .subckt cell in r=50\n\
///      R1 in mid {r}\n\
///      YRTD1 mid 0\n\
///      .ends\n\
///      V1 in 0 DC 1.0\n\
///      X1 in cell r=75\n\
///      .dc V1 0 2.5 0.01\n\
///      .end\n",
/// )?;
/// assert_eq!(deck.circuit.elements().len(), 3);
/// assert!(deck.circuit.element("R1.X1").is_some());
/// assert!(deck.circuit.find_node("X1.mid").is_some());
/// # Ok::<(), nanosim_circuit::CircuitError>(())
/// ```
pub fn parse_netlist(text: &str) -> Result<ParsedDeck> {
    parse_netlist_with_params(text, &[])
}

/// Parses netlist text with global `.param` overrides applied.
///
/// Each `(name, value)` pair (names are case-insensitive) is installed as a
/// global parameter *before* the deck body is read, and any `.param`
/// assignment of the same name inside the deck is ignored (its value
/// expression is still validated). Elements referencing `{name}` therefore
/// see the override. This is the entry point for parameter-grid studies:
/// the same deck text fans out into one parse per grid point.
///
/// # Errors
/// Same contract as [`parse_netlist`].
///
/// # Example
/// ```
/// let deck = "\
///     .param rload=100\n\
///     V1 in 0 DC 1.0\n\
///     R1 in out {rload}\n\
///     R2 out 0 50\n\
///     .op\n\
///     .end\n";
/// let parsed =
///     nanosim_circuit::parse_netlist_with_params(deck, &[("rload".into(), 220.0)])?;
/// assert_eq!(parsed.params["rload"], 220.0);
/// # Ok::<(), nanosim_circuit::CircuitError>(())
/// ```
pub fn parse_netlist_with_params(text: &str, overrides: &[(String, f64)]) -> Result<ParsedDeck> {
    let (all_toks, lines) = preprocess(text);

    // Pass 1: collect .model cards (they may be referenced before defined;
    // models are global, even when written inside a .subckt block).
    let mut models: HashMap<String, ModelCard> = HashMap::new();
    for line in &lines {
        let toks = &all_toks[line.toks.clone()];
        if toks.is_empty() || !toks[0].is(".model") {
            continue;
        }
        if toks.len() < 3 {
            return Err(parse_err(
                line.line_no,
                0,
                "`.model` needs a name and a type",
            ));
        }
        let name = toks[1].text.to_ascii_lowercase();
        let type_name = toks[2].text.to_ascii_lowercase();
        let mut params = HashMap::new();
        let rest = &toks[3..];
        if rest.len() % 2 != 0 {
            return Err(parse_err(
                line.line_no,
                0,
                "`.model` parameters must be key=value pairs",
            ));
        }
        for pair in rest.chunks(2) {
            let key = pair[0].text.to_ascii_lowercase();
            let value = parse_value(pair[1].text).ok_or_else(|| bad_value(&pair[1]))?;
            params.insert(key, value);
        }
        models.insert(name, ModelCard { type_name, params });
    }

    // Pass 1.5: collect `.subckt` definitions (bodies become templates) so
    // instances may appear before their definition. Consumed lines are
    // skipped by pass 2.
    let mut builder = CircuitBuilder::new();
    let mut overridden: HashSet<String> = HashSet::new();
    for (name, value) in overrides {
        builder.set_param(name.clone(), *value);
        overridden.insert(name.to_ascii_lowercase());
    }
    let mut consumed = vec![false; lines.len()];
    let mut open_def: Option<SubcktDef> = None;
    let mut open_line = (0usize, 0usize);
    let mut open_names: HashSet<String> = HashSet::new();
    for (idx, line) in lines.iter().enumerate() {
        let toks = &all_toks[line.toks.clone()];
        if toks.is_empty() {
            continue;
        }
        let head = directive(&toks[0]);
        if let Some(def) = open_def.as_mut() {
            consumed[idx] = true;
            match head {
                Some(".ENDS") => {
                    if let Some(tok) = toks.get(1) {
                        if !tok.text.eq_ignore_ascii_case(def.name()) {
                            return Err(parse_err(
                                tok.line,
                                tok.col,
                                &format!(
                                    "`.ends {}` does not close `.subckt {}`",
                                    tok.text,
                                    def.name()
                                ),
                            ));
                        }
                    }
                    let def = open_def.take().expect("checked above");
                    builder.define(def).map_err(|e| match e {
                        // A redefinition is located at its `.subckt` line.
                        CircuitError::DuplicateElement { name } => {
                            CircuitError::DuplicateElementAt {
                                name,
                                line: open_line.0,
                                column: open_line.1,
                            }
                        }
                        other => other,
                    })?;
                }
                Some(".MODEL") => {} // collected in pass 1; models are global
                _ if toks[0].text.starts_with('.') => {
                    return Err(parse_err(
                        toks[0].line,
                        toks[0].col,
                        &format!("directive `{}` is not allowed inside .subckt", toks[0].text),
                    ));
                }
                _ => {
                    let el = parse_element(toks, &models)?;
                    if !open_names.insert(el.name.to_string()) {
                        return Err(CircuitError::DuplicateElementAt {
                            name: el.name.to_string(),
                            line: toks[0].line,
                            column: toks[0].col,
                        });
                    }
                    def.push_body(BodyElement {
                        name: el.name.to_string(),
                        nodes: el.nodes.iter().map(|t| t.text.to_string()).collect(),
                        kind: el.kind,
                    });
                }
            }
        } else if head == Some(".SUBCKT") {
            consumed[idx] = true;
            if toks.len() < 2 {
                return Err(parse_err(
                    toks[0].line,
                    toks[0].col,
                    "`.subckt` needs a name",
                ));
            }
            // Ports run until the first `name=value` pair.
            let first_eq = toks.iter().position(|t| t.eq).unwrap_or(toks.len());
            if first_eq < 2 {
                return Err(parse_err(
                    toks[first_eq].line,
                    toks[first_eq].col,
                    "`.subckt` needs a name before any name=value parameters",
                ));
            }
            let ports: Vec<&str> = toks[2..first_eq].iter().map(|t| t.text).collect();
            let mut def = SubcktDef::new(toks[1].text, ports);
            let rest = &toks[first_eq..];
            if rest.len() % 2 != 0 {
                return Err(parse_err(
                    toks[0].line,
                    toks[0].col,
                    "`.subckt` parameters must be name=value pairs",
                ));
            }
            for pair in rest.chunks(2) {
                if !pair[0].eq {
                    return Err(parse_err(
                        pair[0].line,
                        pair[0].col,
                        "`.subckt` parameters must be name=value pairs",
                    ));
                }
                let v = parse_value(pair[1].text).ok_or_else(|| bad_value(&pair[1]))?;
                def.param(pair[0].text, v);
            }
            open_def = Some(def);
            open_line = (toks[0].line, toks[0].col);
            open_names.clear();
        } else if head == Some(".END") {
            break;
        }
    }
    if let Some(def) = open_def {
        return Err(parse_err(
            open_line.0,
            open_line.1,
            &format!("`.subckt {}` is never closed by `.ends`", def.name()),
        ));
    }

    // Pass 2: top-level elements, instances and directives.
    let mut analyses = Vec::new();
    let mut spans = SourceMap::new();
    let mut first_content_line = true;
    for (idx, line) in lines.iter().enumerate() {
        let toks = &all_toks[line.toks.clone()];
        if toks.is_empty() {
            continue;
        }
        if consumed[idx] {
            first_content_line = false;
            continue;
        }
        let is_directive = toks[0].text.starts_with('.');

        // SPICE-style title line: the first line that is neither a directive
        // nor an element becomes the title. E/G/F/H/X joined the element
        // alphabet in this release, so for *those* head letters an
        // unparseable first line (e.g. "Example rtd deck", "Xor latch")
        // still falls back to the title — decks that titled themselves this
        // way keep parsing. The pre-existing R/C/L/V/I/D/M/Y letters keep
        // their strict behavior: a malformed first element line is an error.
        if first_content_line && !is_directive {
            first_content_line = false;
            if !is_element_head(&toks[0]) {
                builder.set_title(line.raw.trim());
                continue;
            }
            let new_letter = matches!(toks[0].letter(), Some('E' | 'G' | 'F' | 'H' | 'X'));
            if new_letter {
                // Only lines that *cannot* be the new element kinds fall
                // back to the title: too few fields for E/G/F/H, or an X
                // "instance" of a subckt nobody defined. A first line with
                // element-like arity that fails on a bad token (e.g.
                // `X1 a cell r=bogus` with `cell` defined) is a user error
                // and must be reported, not silently titled away.
                let plausible = match toks[0].letter() {
                    Some('E' | 'G') => toks.len() >= 6,
                    Some('F' | 'H') => toks.len() >= 5,
                    _ => {
                        // X line: plausible iff its subckt-name position
                        // names a defined subcircuit.
                        let first_eq = toks.iter().position(|t| t.eq).unwrap_or(toks.len());
                        first_eq >= 2 && builder.subckts().get(toks[first_eq - 1].text).is_some()
                    }
                };
                if !plausible {
                    builder.set_title(line.raw.trim());
                    continue;
                }
            }
            let el = parse_element(toks, &models)?;
            emit_top_level(&mut builder, el, &toks[0], &mut spans)?;
            continue;
        }
        first_content_line = false;

        if is_directive {
            match directive(&toks[0]) {
                Some(".MODEL") => {} // handled in pass 1
                Some(".END") => break,
                Some(".TITLE") => {
                    let title = line
                        .raw
                        .trim_start()
                        .get(6..)
                        .map(str::trim)
                        .unwrap_or_default();
                    builder.set_title(title);
                }
                Some(".ENDS") => {
                    return Err(parse_err(
                        toks[0].line,
                        toks[0].col,
                        "`.ends` without an open `.subckt`",
                    ));
                }
                Some(".PARAM") => {
                    let rest = &toks[1..];
                    if rest.is_empty() || rest.len() % 2 != 0 {
                        return Err(parse_err(
                            toks[0].line,
                            toks[0].col,
                            "`.param` needs name=value pairs",
                        ));
                    }
                    for pair in rest.chunks(2) {
                        if !pair[0].eq {
                            return Err(parse_err(
                                pair[0].line,
                                pair[0].col,
                                "`.param` needs name=value pairs",
                            ));
                        }
                        // Values may reference previously defined globals.
                        let pv = parse_pvalue(&pair[1])?;
                        let v = builder.resolve_value(&pv, &format!(".param {}", pair[0].text))?;
                        // A caller-supplied override wins over the deck's
                        // own assignment (the expression is still checked).
                        if !overridden.contains(&pair[0].text.to_ascii_lowercase()) {
                            builder.set_param(pair[0].text, v);
                        }
                    }
                }
                Some(".OP") => analyses.push(AnalysisDirective::Op),
                Some(".TRAN") => {
                    if toks.len() < 3 {
                        return Err(parse_err(
                            toks[0].line,
                            toks[0].col,
                            "`.tran` needs tstep and tstop",
                        ));
                    }
                    let tstep = parse_value(toks[1].text).ok_or_else(|| bad_value(&toks[1]))?;
                    let tstop = parse_value(toks[2].text).ok_or_else(|| bad_value(&toks[2]))?;
                    if !(tstep > 0.0 && tstop > tstep) {
                        return Err(parse_err(
                            toks[0].line,
                            toks[0].col,
                            "`.tran` needs 0 < tstep < tstop",
                        ));
                    }
                    analyses.push(AnalysisDirective::Tran { tstep, tstop });
                }
                Some(".DC") => {
                    if toks.len() < 5 {
                        return Err(parse_err(
                            toks[0].line,
                            toks[0].col,
                            "`.dc` needs source, start, stop, step",
                        ));
                    }
                    let start = parse_value(toks[2].text).ok_or_else(|| bad_value(&toks[2]))?;
                    let stop = parse_value(toks[3].text).ok_or_else(|| bad_value(&toks[3]))?;
                    let step = parse_value(toks[4].text).ok_or_else(|| bad_value(&toks[4]))?;
                    if step == 0.0 {
                        return Err(parse_err(
                            toks[4].line,
                            toks[4].col,
                            "`.dc` step must be nonzero",
                        ));
                    }
                    analyses.push(AnalysisDirective::Dc {
                        source: toks[1].text.to_string(),
                        start,
                        stop,
                        step,
                    });
                }
                _ => {
                    return Err(parse_err(
                        toks[0].line,
                        toks[0].col,
                        &format!("unknown directive `{}`", toks[0].text.to_ascii_uppercase()),
                    ));
                }
            }
            continue;
        }

        let el = parse_element(toks, &models)?;
        emit_top_level(&mut builder, el, &toks[0], &mut spans)?;
    }

    let (circuit, subckts, params) = builder.into_parts();
    Ok(ParsedDeck {
        circuit,
        analyses,
        subckts,
        params,
        spans,
    })
}

fn is_element_head(head: &Tok) -> bool {
    matches!(
        head.letter(),
        Some('R' | 'C' | 'L' | 'V' | 'I' | 'D' | 'M' | 'Y' | 'X' | 'E' | 'G' | 'F' | 'H')
    )
}

/// Strips comments, folds `+` continuations, tokenizes with locations.
/// Returns the deck's tokens and its logical lines, each line a range of
/// that token list.
fn preprocess(text: &str) -> (Vec<Tok<'_>>, Vec<Line<'_>>) {
    let mut toks: Vec<Tok> = Vec::new();
    let mut out: Vec<Line> = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let trimmed = raw.trim_start();
        if trimmed.is_empty() || trimmed.starts_with('*') {
            continue;
        }
        // Cut trailing comments; columns are computed on the *raw* line so
        // they match what the user sees in an editor.
        let mut cut = raw.len();
        for sep in [';', '$'] {
            if let Some(pos) = raw.find(sep) {
                cut = cut.min(pos);
            }
        }
        let content = &raw[..cut];
        if content.trim().is_empty() {
            continue;
        }
        if let Some(plus) = content.trim_start().strip_prefix('+') {
            if let Some(last) = out.last_mut() {
                // The last line's tokens end the list, so its range grows.
                let offset = content.len() - plus.len();
                tokenize(&mut toks, plus, line_no, offset + 1);
                last.toks.end = toks.len();
                let raw = last.raw.to_mut();
                raw.push(' ');
                raw.push_str(plus.trim());
                continue;
            }
        }
        let leading = content.len() - content.trim_start().len();
        let first = toks.len();
        tokenize(&mut toks, content.trim_start(), line_no, leading + 1);
        out.push(Line {
            line_no,
            toks: first..toks.len(),
            raw: Cow::Borrowed(content.trim()),
        });
    }
    (toks, out)
}

/// Splits text into located tokens, appended to `toks`. `(`, `)` and `,`
/// separate tokens; `=` separates too and flags the preceding token as a
/// `name=` key.
fn tokenize<'a>(toks: &mut Vec<Tok<'a>>, text: &'a str, line: usize, col0: usize) {
    let first = toks.len();
    let mut start: Option<usize> = None;
    let flush = |toks: &mut Vec<Tok<'a>>, start: &mut Option<usize>, end: usize| {
        if let Some(s) = start.take() {
            toks.push(Tok {
                text: &text[s..end],
                line,
                col: col0 + s,
                eq: false,
            });
        }
    };
    for (i, ch) in text.char_indices() {
        match ch {
            c if c.is_whitespace() => flush(toks, &mut start, i),
            '(' | ')' | ',' => flush(toks, &mut start, i),
            '=' => {
                flush(toks, &mut start, i);
                // Only this call's tokens: a continuation line's leading
                // `=` marks nothing on the previous line.
                if toks.len() > first {
                    if let Some(last) = toks.last_mut() {
                        last.eq = true;
                    }
                }
            }
            _ => {
                start.get_or_insert(i);
            }
        }
    }
    flush(toks, &mut start, text.len());
}

/// Parses a SPICE value with magnitude suffix and optional trailing units
/// (case-insensitive).
fn parse_value(token: &str) -> Option<f64> {
    let t = token.trim();
    if t.is_empty() {
        return None;
    }
    // Split numeric prefix from alphabetic suffix.
    let mut split = t.len();
    for (i, ch) in t.char_indices() {
        if ch.is_ascii_alphabetic()
            && !(i > 0 && ch.eq_ignore_ascii_case(&'e') && has_digit_after(t, i))
        {
            split = i;
            break;
        }
    }
    let (num, suffix) = t.split_at(split);
    let base: f64 = num.parse().ok()?;
    let is_meg = suffix
        .as_bytes()
        .get(..3)
        .is_some_and(|s| s.eq_ignore_ascii_case(b"meg"));
    let mult = if is_meg {
        1e6
    } else {
        match suffix.chars().next().map(|c| c.to_ascii_lowercase()) {
            None => 1.0,
            Some('t') => 1e12,
            Some('g') => 1e9,
            Some('k') => 1e3,
            Some('m') => 1e-3,
            Some('u') => 1e-6,
            Some('n') => 1e-9,
            Some('p') => 1e-12,
            Some('f') => 1e-15,
            // Bare unit letters like "5v" or "2a".
            Some(_) => 1.0,
        }
    };
    // Literals like `1e999` overflow to infinity and would poison every
    // downstream solve; reject them here so the caller reports line+column.
    Some(base * mult).filter(|v| v.is_finite())
}

fn has_digit_after(s: &str, i: usize) -> bool {
    s[i + 1..]
        .chars()
        .next()
        .map(|c| c.is_ascii_digit() || c == '-' || c == '+')
        .unwrap_or(false)
}

/// A value position: a literal or a `{param}` reference.
fn parse_pvalue(tok: &Tok) -> Result<ParamValue> {
    let t = tok.text.trim();
    if let Some(inner) = t.strip_prefix('{') {
        let name = inner.strip_suffix('}').ok_or_else(|| {
            parse_err(
                tok.line,
                tok.col,
                &format!("unterminated parameter reference `{t}`"),
            )
        })?;
        if name.trim().is_empty() {
            return Err(parse_err(
                tok.line,
                tok.col,
                "empty parameter reference `{}`",
            ));
        }
        return Ok(ParamValue::Ref(name.trim().to_string()));
    }
    parse_value(t)
        .map(ParamValue::Lit)
        .ok_or_else(|| bad_value(tok))
}

fn parse_err(line: usize, column: usize, message: &str) -> CircuitError {
    CircuitError::Parse {
        line,
        column,
        message: message.to_string(),
    }
}

fn bad_value(tok: &Tok) -> CircuitError {
    parse_err(tok.line, tok.col, &format!("bad value `{}`", tok.text))
}

/// A value position where a literal zero is physically invalid (R, C, L):
/// it would stamp a singular or infinite conductance. `{param}` references
/// are checked later, at elaboration, when their value is known.
fn parse_nonzero_pvalue(tok: &Tok, what: &str) -> Result<ParamValue> {
    let pv = parse_pvalue(tok)?;
    if matches!(pv, ParamValue::Lit(v) if v == 0.0) {
        return Err(parse_err(
            tok.line,
            tok.col,
            &format!("{what} must be nonzero (got `{}`)", tok.text),
        ));
    }
    Ok(pv)
}

/// One parsed element line, borrowing its name and node tokens from the
/// deck. A top-level line interns its node tokens and goes straight to the
/// element emitter (instances to flattening), never copied into an owned
/// [`BodyElement`]; a subcircuit body line is copied into one, which
/// flattening later hands to the same emitter.
struct ElementLine<'t, 'a> {
    name: &'a str,
    nodes: &'t [Tok<'a>],
    kind: BodyKind,
}

/// Parses one element line (top level or subcircuit body).
fn parse_element<'t, 'a>(
    toks: &'t [Tok<'a>],
    models: &HashMap<String, ModelCard>,
) -> Result<ElementLine<'t, 'a>> {
    let head = &toks[0];
    let name = head.text;
    let kind_char = head.letter().expect("nonempty token");
    let need = |n: usize| -> Result<()> {
        if toks.len() < n {
            Err(parse_err(
                head.line,
                head.col,
                &format!("element {name} needs at least {} fields", n - 1),
            ))
        } else {
            Ok(())
        }
    };
    let (n_nodes, kind) = match kind_char {
        'R' => {
            need(4)?;
            (
                2,
                BodyKind::Resistor {
                    ohms: parse_nonzero_pvalue(&toks[3], "resistance")?,
                },
            )
        }
        'C' => {
            need(4)?;
            let mut ic = None;
            if toks.len() >= 6 && toks[4].text.eq_ignore_ascii_case("ic") {
                ic = Some(parse_pvalue(&toks[5])?);
            }
            (
                2,
                BodyKind::Capacitor {
                    farads: parse_nonzero_pvalue(&toks[3], "capacitance")?,
                    ic,
                },
            )
        }
        'L' => {
            need(4)?;
            (
                2,
                BodyKind::Inductor {
                    henries: parse_nonzero_pvalue(&toks[3], "inductance")?,
                },
            )
        }
        'V' | 'I' => {
            need(4)?;
            let wf = parse_source(&toks[3..], head)?;
            let kind = if kind_char == 'V' {
                BodyKind::VoltageSource { waveform: wf }
            } else {
                BodyKind::CurrentSource { waveform: wf }
            };
            (2, kind)
        }
        'E' => {
            need(6)?;
            (
                4,
                BodyKind::Vcvs {
                    gain: parse_pvalue(&toks[5])?,
                },
            )
        }
        'G' => {
            need(6)?;
            (
                4,
                BodyKind::Vccs {
                    gm: parse_pvalue(&toks[5])?,
                },
            )
        }
        'F' => {
            need(5)?;
            (
                2,
                BodyKind::Cccs {
                    gain: parse_pvalue(&toks[4])?,
                    control: toks[3].text.to_string(),
                },
            )
        }
        'H' => {
            need(5)?;
            (
                2,
                BodyKind::Ccvs {
                    r: parse_pvalue(&toks[4])?,
                    control: toks[3].text.to_string(),
                },
            )
        }
        'D' => {
            need(3)?;
            let diode = match toks.get(3) {
                Some(m) => diode_from_model(lookup(models, m)?, m.line)?,
                None => Diode::silicon(),
            };
            (
                2,
                BodyKind::Nonlinear {
                    device: Arc::new(diode),
                },
            )
        }
        'M' => {
            need(5)?;
            let model = lookup(models, &toks[4])?;
            let fet = mosfet_from_model(model, toks[4].line)?;
            (3, BodyKind::Mosfet { model: fet })
        }
        'Y' => {
            // YRTD / YNW / YCNT / YRTT prefix selects the device family.
            need(3)?;
            let model = match toks.get(3) {
                Some(m) => Some(lookup(models, m)?),
                None => None,
            };
            let device: crate::element::SharedDevice = if head.starts_with("YRTD") {
                match model {
                    Some(card) => Arc::new(rtd_from_model(card, head.line)?),
                    None => Arc::new(Rtd::date2005()),
                }
            } else if head.starts_with("YNW") || head.starts_with("YCNT") {
                match model {
                    Some(card) => Arc::new(nanowire_from_model(card, head.line)?),
                    None => Arc::new(Nanowire::metallic_cnt()),
                }
            } else if head.starts_with("YRTT") {
                let mut rtt = Rtt::three_peak();
                if let Some(card) = model {
                    if let Some(&vbe) = card.params.get("vbe") {
                        rtt.set_vbe(vbe);
                    }
                }
                Arc::new(rtt)
            } else {
                return Err(parse_err(
                    head.line,
                    head.col,
                    &format!("unknown nano-device `{name}` (expected YRTD/YNW/YRTT prefix)"),
                ));
            };
            (2, BodyKind::Nonlinear { device })
        }
        'X' => {
            need(3)?;
            // Connections run until the subckt name; the first `p=v` pair
            // (if any) marks where the overrides start.
            let first_eq = toks.iter().position(|t| t.eq).unwrap_or(toks.len());
            if first_eq < 3 {
                return Err(parse_err(
                    toks[first_eq].line,
                    toks[first_eq].col,
                    &format!("instance {name} needs nodes and a subckt name before overrides"),
                ));
            }
            let subckt = toks[first_eq - 1].text.to_string();
            let n_nodes = first_eq - 2;
            if n_nodes == 0 {
                return Err(parse_err(
                    head.line,
                    head.col,
                    &format!("instance {name} connects no nodes"),
                ));
            }
            let rest = &toks[first_eq..];
            if rest.len() % 2 != 0 {
                return Err(parse_err(
                    head.line,
                    head.col,
                    &format!("instance {name} overrides must be name=value pairs"),
                ));
            }
            let mut overrides = Vec::with_capacity(rest.len() / 2);
            for pair in rest.chunks(2) {
                if !pair[0].eq {
                    return Err(parse_err(
                        pair[0].line,
                        pair[0].col,
                        "instance overrides must be name=value pairs",
                    ));
                }
                overrides.push((pair[0].text.to_string(), parse_pvalue(&pair[1])?));
            }
            (n_nodes, BodyKind::Instance { subckt, overrides })
        }
        other => {
            return Err(parse_err(
                head.line,
                head.col,
                &format!("unknown element type `{other}` in `{name}`"),
            ));
        }
    };
    Ok(ElementLine {
        name,
        nodes: &toks[1..=n_nodes],
        kind,
    })
}

/// Adds a parsed top-level template to the builder: elements through the
/// one element emitter (with `{param}` references resolved against
/// `.param` globals), instances via flattening. Records the source
/// position of every element the line produced (an `X` line owns all of
/// its flattened elements) and upgrades duplicate-name errors with that
/// position.
fn emit_top_level(
    builder: &mut CircuitBuilder,
    el: ElementLine,
    head: &Tok,
    spans: &mut SourceMap,
) -> Result<()> {
    let n_before = builder.circuit().elements().len();
    let ElementLine { name, nodes, kind } = el;
    let emitted = if let BodyKind::Instance { subckt, overrides } = &kind {
        let ov: Vec<(&str, ParamValue)> = overrides
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        let ports: Vec<NodeId> = nodes.iter().map(|tok| builder.node(tok.text)).collect();
        builder
            .instantiate(name, subckt, &ports, &ov)
            .map(|_| ())
            .map_err(|e| match e {
                // Attach the instance line to pure lookup failures.
                CircuitError::UnknownSubckt { name, instance } => parse_err(
                    head.line,
                    head.col,
                    &format!("instance {instance} references unknown subcircuit {name}"),
                ),
                other => other,
            })
    } else {
        // Plain elements have at most four terminals, interned in token
        // order.
        let mut terminals = [NodeId::GROUND; 4];
        for (slot, tok) in terminals.iter_mut().zip(nodes) {
            *slot = builder.node(tok.text);
        }
        builder.add_element(name, terminals, &kind)
    };
    emitted.map_err(|e| match e {
        CircuitError::DuplicateElement { name } => CircuitError::DuplicateElementAt {
            name,
            line: head.line,
            column: head.col,
        },
        other => other,
    })?;
    let span = Span::new(head.line, head.col);
    for e in &builder.circuit().elements()[n_before..] {
        spans.insert(e.name(), span);
    }
    Ok(())
}

fn lookup<'m>(models: &'m HashMap<String, ModelCard>, tok: &Tok) -> Result<&'m ModelCard> {
    models
        .get(&tok.text.to_ascii_lowercase())
        .ok_or_else(|| parse_err(tok.line, tok.col, &format!("unknown model `{}`", tok.text)))
}

/// Parses a source spec into a [`WaveformTemplate`]: `DC`, `PULSE` and
/// `SIN` value positions accept `{param}` references (resolved at
/// instantiation / top-level emission); `PWL` and `NOISE` stay literal.
/// All-literal templates collapse to a validated [`SourceWaveform`]
/// immediately, so malformed literal waveforms still fail at parse time
/// with line/column information.
fn parse_source(toks: &[Tok], head: &Tok) -> Result<WaveformTemplate> {
    if toks.is_empty() {
        return Err(parse_err(
            head.line,
            head.col,
            "source needs a value or a waveform",
        ));
    }
    // Waveform keywords in their canonical uppercase spelling; anything
    // else is a bare value.
    let spec = ["DC", "PULSE", "SIN", "PWL", "NOISE"]
        .into_iter()
        .find(|kw| toks[0].is(kw))
        .unwrap_or("");
    let pvalues = |from: usize, n: usize| -> Result<Vec<ParamValue>> {
        if toks.len() < from + n {
            return Err(parse_err(
                toks[0].line,
                toks[0].col,
                &format!("waveform {spec} needs {n} parameters"),
            ));
        }
        toks[from..from + n].iter().map(parse_pvalue).collect()
    };
    let all_literal = |vs: &[ParamValue]| vs.iter().all(|v| matches!(v, ParamValue::Lit(_)));
    let lit = |v: &ParamValue| match v {
        ParamValue::Lit(x) => *x,
        ParamValue::Ref(_) => unreachable!("checked all_literal"),
    };
    let wf = match spec {
        "DC" => {
            let v = pvalues(1, 1)?.remove(0);
            match v {
                ParamValue::Lit(x) => WaveformTemplate::Literal(SourceWaveform::dc(x)),
                r => WaveformTemplate::Dc { value: r },
            }
        }
        "PULSE" => {
            let v = pvalues(1, 7)?;
            if all_literal(&v) {
                WaveformTemplate::Literal(SourceWaveform::pulse(PulseParams {
                    v1: lit(&v[0]),
                    v2: lit(&v[1]),
                    delay: lit(&v[2]),
                    rise: lit(&v[3]),
                    fall: lit(&v[4]),
                    width: lit(&v[5]),
                    period: lit(&v[6]),
                })?)
            } else {
                let mut it = v.into_iter();
                let mut next = || it.next().expect("seven parsed");
                WaveformTemplate::Pulse {
                    v1: next(),
                    v2: next(),
                    delay: next(),
                    rise: next(),
                    fall: next(),
                    width: next(),
                    period: next(),
                }
            }
        }
        "SIN" => {
            let n = (toks.len() - 1).min(5);
            if n < 3 {
                return Err(parse_err(
                    toks[0].line,
                    toks[0].col,
                    "SIN needs at least vo, va, freq",
                ));
            }
            let mut v = pvalues(1, n)?;
            while v.len() < 5 {
                v.push(ParamValue::Lit(0.0));
            }
            if all_literal(&v) {
                WaveformTemplate::Literal(SourceWaveform::sin(SinParams {
                    offset: lit(&v[0]),
                    amplitude: lit(&v[1]),
                    frequency: lit(&v[2]),
                    delay: lit(&v[3]),
                    theta: lit(&v[4]),
                })?)
            } else {
                let mut it = v.into_iter();
                let mut next = || it.next().expect("five parsed");
                WaveformTemplate::Sin {
                    offset: next(),
                    amplitude: next(),
                    frequency: next(),
                    delay: next(),
                    theta: next(),
                }
            }
        }
        "PWL" => {
            let rest = &toks[1..];
            if rest.len() < 4 || rest.len() % 2 != 0 {
                return Err(parse_err(
                    toks[0].line,
                    toks[0].col,
                    "PWL needs pairs: t1 v1 t2 v2 ...",
                ));
            }
            let mut pts = Vec::with_capacity(rest.len() / 2);
            for pair in rest.chunks(2) {
                let t = parse_value(pair[0].text).ok_or_else(|| bad_value(&pair[0]))?;
                let v = parse_value(pair[1].text).ok_or_else(|| bad_value(&pair[1]))?;
                pts.push((t, v));
            }
            WaveformTemplate::Literal(SourceWaveform::pwl(pts)?)
        }
        "NOISE" => {
            if toks.len() < 3 {
                return Err(parse_err(
                    toks[0].line,
                    toks[0].col,
                    "waveform NOISE needs 2 parameters",
                ));
            }
            let mean = parse_value(toks[1].text).ok_or_else(|| bad_value(&toks[1]))?;
            let sigma = parse_value(toks[2].text).ok_or_else(|| bad_value(&toks[2]))?;
            WaveformTemplate::Literal(SourceWaveform::white_noise(mean, sigma)?)
        }
        _ => {
            // Bare value = DC; a bare `{param}` reference works too.
            match parse_pvalue(&toks[0]) {
                Ok(ParamValue::Lit(v)) => WaveformTemplate::Literal(SourceWaveform::dc(v)),
                Ok(r @ ParamValue::Ref(_)) => WaveformTemplate::Dc { value: r },
                Err(_) => {
                    return Err(parse_err(
                        toks[0].line,
                        toks[0].col,
                        &format!("bad source spec `{}`", toks[0].text),
                    ))
                }
            }
        }
    };
    Ok(wf)
}

fn rtd_from_model(card: &ModelCard, line_no: usize) -> Result<Rtd> {
    if card.type_name != "rtd" {
        return Err(parse_err(
            line_no,
            0,
            &format!("model is `{}`, expected `rtd`", card.type_name),
        ));
    }
    let d = RtdParams::date2005();
    let p = &card.params;
    let params = RtdParams {
        a: *p.get("a").unwrap_or(&d.a),
        b: *p.get("b").unwrap_or(&d.b),
        c: *p.get("c").unwrap_or(&d.c),
        d: *p.get("d").unwrap_or(&d.d),
        h: *p.get("h").unwrap_or(&d.h),
        n1: *p.get("n1").unwrap_or(&d.n1),
        n2: *p.get("n2").unwrap_or(&d.n2),
        temperature: *p.get("temp").unwrap_or(&d.temperature),
    };
    Ok(Rtd::new(params)?)
}

fn nanowire_from_model(card: &ModelCard, line_no: usize) -> Result<Nanowire> {
    if card.type_name != "nw" && card.type_name != "cnt" {
        return Err(parse_err(
            line_no,
            0,
            &format!("model is `{}`, expected `nw`", card.type_name),
        ));
    }
    let d = NanowireParams::metallic_cnt();
    let p = &card.params;
    let params = NanowireParams {
        g_quantum: *p.get("g0").unwrap_or(&d.g_quantum),
        base_channels: p.get("base").map(|&v| v as u32).unwrap_or(d.base_channels),
        step_voltage: *p.get("step").unwrap_or(&d.step_voltage),
        num_steps: p.get("steps").map(|&v| v as u32).unwrap_or(d.num_steps),
        smearing: *p.get("smear").unwrap_or(&d.smearing),
    };
    Ok(Nanowire::new(params)?)
}

fn diode_from_model(card: &ModelCard, line_no: usize) -> Result<Diode> {
    if card.type_name != "d" {
        return Err(parse_err(
            line_no,
            0,
            &format!("model is `{}`, expected `d`", card.type_name),
        ));
    }
    let dflt = DiodeParams::silicon();
    let p = &card.params;
    let params = DiodeParams {
        saturation_current: *p.get("is").unwrap_or(&dflt.saturation_current),
        ideality: *p.get("n").unwrap_or(&dflt.ideality),
        temperature: *p.get("temp").unwrap_or(&dflt.temperature),
    };
    Ok(Diode::new(params)?)
}

fn mosfet_from_model(card: &ModelCard, line_no: usize) -> Result<Mosfet> {
    let mos_type = match card.type_name.as_str() {
        "nmos" => MosType::Nmos,
        "pmos" => MosType::Pmos,
        other => {
            return Err(parse_err(
                line_no,
                0,
                &format!("model is `{other}`, expected `nmos` or `pmos`"),
            ));
        }
    };
    let d = match mos_type {
        MosType::Nmos => MosfetParams::nmos_default(),
        MosType::Pmos => MosfetParams::pmos_default(),
    };
    let p = &card.params;
    let params = MosfetParams {
        mos_type,
        k: *p.get("kp").or(p.get("k")).unwrap_or(&d.k),
        w: *p.get("w").unwrap_or(&d.w),
        l: *p.get("l").unwrap_or(&d.l),
        vth: *p.get("vto").or(p.get("vth")).unwrap_or(&d.vth),
        lambda: *p.get("lambda").unwrap_or(&d.lambda),
    };
    Ok(Mosfet::new(params)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::ElementKind;

    #[test]
    fn value_suffixes() {
        assert_eq!(parse_value("1k"), Some(1e3));
        assert_eq!(parse_value("1K"), Some(1e3));
        assert_eq!(parse_value("2.5meg"), Some(2.5e6));
        assert_eq!(parse_value("10p"), Some(10.0 * 1e-12));
        assert_eq!(parse_value("10pF"), Some(10.0 * 1e-12));
        assert_eq!(parse_value("100n"), Some(100.0 * 1e-9));
        assert_eq!(parse_value("3m"), Some(3.0 * 1e-3));
        assert_eq!(parse_value("5u"), Some(5.0 * 1e-6));
        assert_eq!(parse_value("2f"), Some(2.0 * 1e-15));
        assert_eq!(parse_value("1t"), Some(1e12));
        assert_eq!(parse_value("4g"), Some(4e9));
        assert_eq!(parse_value("5"), Some(5.0));
        assert_eq!(parse_value("5V"), Some(5.0));
        assert_eq!(parse_value("-1.5e-3"), Some(-1.5e-3));
        assert_eq!(parse_value("1e3k"), Some(1e6));
        assert_eq!(parse_value("abc"), None);
        assert_eq!(parse_value(""), None);
        // Non-finite literals are rejected, not propagated into stamps.
        assert_eq!(parse_value("1e999"), None);
        assert_eq!(parse_value("-1e999"), None);
        assert_eq!(parse_value("1e999k"), None);
    }

    #[test]
    fn nonfinite_literal_rejected_with_position() {
        let err = parse_netlist(
            "overflow deck\n\
             V1 in 0 DC 5\n\
             R1 in 0 1e999\n\
             .op\n\
             .end\n",
        )
        .unwrap_err();
        match err {
            CircuitError::Parse { line, column, .. } => {
                assert_eq!(line, 3);
                assert!(column > 0, "column should point at the value");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn zero_rcl_rejected_at_parse_time() {
        for (deck, what) in [
            ("t\nR1 a 0 0\n.op\n.end\n", "resistance"),
            ("t\nC1 a 0 0\n.op\n.end\n", "capacitance"),
            ("t\nL1 a 0 0.0\n.op\n.end\n", "inductance"),
        ] {
            let err = parse_netlist(deck).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(what), "{what}: {msg}");
            assert!(msg.contains("line 2"), "{msg}");
        }
        // A `{param}` reference in the same slot still parses; its value is
        // validated later at elaboration.
        assert!(parse_netlist("t\n.param rr=1k\nR1 a 0 {rr}\n.op\n.end\n").is_ok());
    }

    #[test]
    fn minimal_divider_parses() {
        let deck = parse_netlist(
            "test divider\n\
             V1 in 0 DC 5\n\
             R1 in out 1k\n\
             R2 out 0 1k\n\
             .op\n\
             .end\n",
        )
        .unwrap();
        assert_eq!(deck.circuit.title(), Some("test divider"));
        assert_eq!(deck.circuit.elements().len(), 3);
        assert_eq!(deck.analyses, vec![AnalysisDirective::Op]);
        assert!(deck.circuit.validate().is_ok());
        assert!(deck.subckts.is_empty());
        assert!(deck.params.is_empty());
    }

    #[test]
    fn comments_and_continuations() {
        let deck = parse_netlist(
            "* full-line comment\n\
             V1 a 0 PULSE(0 5 0\n\
             + 1n 1n 99n\n\
             + 200n) ; inline comment\n\
             R1 a 0 50 $ another comment\n",
        )
        .unwrap();
        assert_eq!(deck.circuit.elements().len(), 2);
        match deck.circuit.element("V1").unwrap().kind() {
            ElementKind::VoltageSource { waveform } => {
                assert_eq!(waveform.value(50e-9), 5.0);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn all_source_kinds() {
        let deck = parse_netlist(
            "V1 a 0 3.3\n\
             V2 b 0 DC 1\n\
             V3 c 0 SIN(0 1 1meg)\n\
             V4 d 0 PWL(0 0 1n 5 2n 5)\n\
             I1 e 0 NOISE(0 1m)\n\
             R1 a b 1\nR2 b c 1\nR3 c d 1\nR4 d e 1\nR5 e 0 1\n",
        )
        .unwrap();
        assert_eq!(deck.circuit.elements().len(), 10);
        match deck.circuit.element("I1").unwrap().kind() {
            ElementKind::CurrentSource { waveform } => {
                assert!(waveform.is_stochastic());
                assert_eq!(waveform.noise_intensity(), 1e-3);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn rtd_with_model_card() {
        let deck = parse_netlist(
            "* paper parameters\n\
             .model mrtd RTD (a=1e-4 b=2 c=1.5 d=0.3 n1=0.35 n2=0.0172 h=1.43e-8)\n\
             V1 in 0 DC 1\n\
             R1 in x 50\n\
             YRTD1 x 0 mrtd\n",
        )
        .unwrap();
        let e = deck.circuit.element("YRTD1").unwrap();
        match e.kind() {
            ElementKind::Nonlinear { device } => assert_eq!(device.device_kind(), "rtd"),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn model_referenced_before_definition() {
        let deck = parse_netlist(
            "YRTD1 x 0 late\n\
             R1 x 0 50\n\
             .model late RTD (a=2e-4)\n",
        )
        .unwrap();
        assert_eq!(deck.circuit.elements().len(), 2);
    }

    #[test]
    fn nanowire_and_rtt_and_diode() {
        let deck = parse_netlist(
            ".model wire NW (steps=3 step=0.4 smear=0.02)\n\
             .model dd D (is=1e-12 n=1.5)\n\
             YNW1 a 0 wire\n\
             YCNT2 a 0\n\
             YRTT1 b 0\n\
             D1 c 0 dd\n\
             D2 c 0\n\
             R1 a b 1\nR2 b c 1\n",
        )
        .unwrap();
        assert_eq!(deck.circuit.elements().len(), 7);
    }

    #[test]
    fn mosfet_with_model() {
        let deck = parse_netlist(
            ".model mn NMOS (kp=2e-4 w=20 l=2 vto=0.7)\n\
             M1 d g 0 mn\n\
             V1 d 0 5\nV2 g 0 5\n",
        )
        .unwrap();
        match deck.circuit.element("M1").unwrap().kind() {
            ElementKind::Mosfet { model } => {
                assert_eq!(model.params().vth, 0.7);
                assert_eq!(model.params().w, 20.0);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn tran_and_dc_directives() {
        let deck = parse_netlist(
            "V1 a 0 1\nR1 a 0 1\n\
             .tran 1n 500n\n\
             .dc V1 0 2.5 0.01\n",
        )
        .unwrap();
        assert_eq!(
            deck.analyses,
            vec![
                AnalysisDirective::Tran {
                    tstep: 1e-9,
                    tstop: 500.0 * 1e-9
                },
                AnalysisDirective::Dc {
                    source: "V1".into(),
                    start: 0.0,
                    stop: 2.5,
                    step: 0.01
                },
            ]
        );
    }

    #[test]
    fn end_stops_parsing() {
        let deck = parse_netlist("V1 a 0 1\nR1 a 0 1\n.end\nR2 a 0 broken").unwrap();
        assert_eq!(deck.circuit.elements().len(), 2);
    }

    #[test]
    fn capacitor_initial_condition() {
        let deck = parse_netlist("C1 a 0 10p IC=2.5\nR1 a 0 1k\n").unwrap();
        match deck.circuit.element("C1").unwrap().kind() {
            ElementKind::Capacitor {
                capacitance,
                initial_voltage,
            } => {
                assert_eq!(*capacitance, 1e-11);
                assert_eq!(*initial_voltage, Some(2.5));
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn error_line_and_column() {
        let err = parse_netlist("V1 a 0 1\nR1 a 0 bogus\n").unwrap_err();
        match err {
            CircuitError::Parse { line, column, .. } => {
                assert_eq!(line, 2);
                // `bogus` starts at column 8 of `R1 a 0 bogus`.
                assert_eq!(column, 8);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_column_on_continuation_line() {
        // The bad token lives on the physical `+` line; the error must
        // point there, not at the logical line start.
        let err = parse_netlist("V1 a 0 PULSE(0 5 0 1n 1n\n+ 99n bogus)\nR1 a 0 1\n").unwrap_err();
        match err {
            CircuitError::Parse { line, column, .. } => {
                assert_eq!(line, 2);
                assert_eq!(column, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_model_is_error() {
        let err = parse_netlist("YRTD1 a 0 nosuch\nR1 a 0 1\n").unwrap_err();
        assert!(matches!(err, CircuitError::Parse { .. }));
        assert!(err.to_string().contains("nosuch"));
    }

    #[test]
    fn wrong_model_type_is_error() {
        let err = parse_netlist(
            ".model mn NMOS (kp=1e-4)\n\
             YRTD1 a 0 mn\nR1 a 0 1\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("expected `rtd`"));
    }

    #[test]
    fn bad_directives_are_errors() {
        assert!(parse_netlist("V1 a 0 1\n.tran 1n\n").is_err());
        assert!(parse_netlist("V1 a 0 1\n.tran 2n 1n\n").is_err());
        assert!(parse_netlist("V1 a 0 1\n.dc V1 0 1 0\n").is_err());
        assert!(parse_netlist("V1 a 0 1\n.bogus\n").is_err());
        // An unknown element letter after the first content line is an
        // error (the first line would have been taken as the title).
        assert!(parse_netlist("V1 a 0 1\nQ1 a 0 1\n").is_err());
    }

    #[test]
    fn model_with_odd_params_is_error() {
        assert!(parse_netlist(".model m RTD (a)\n").is_err());
        assert!(parse_netlist(".model m\n").is_err());
    }

    #[test]
    fn pulse_needs_seven_params() {
        assert!(parse_netlist("V1 a 0 PULSE(0 5 0 1n 1n 99n)\nR1 a 0 1\n").is_err());
    }

    #[test]
    fn pwl_needs_pairs() {
        assert!(parse_netlist("V1 a 0 PWL(0 0 1n)\nR1 a 0 1\n").is_err());
    }

    #[test]
    fn pulse_params_resolve_per_instance() {
        // One clock-driver subckt serves two timing corners: {per} and
        // {vhi} inside PULSE(..) resolve against each instance's scope.
        let deck = "\
            .subckt clkdrv out per=100n vhi=5\n\
            Vck out 0 PULSE(0 {vhi} 0 1n 1n 4n {per})\n\
            .ends\n\
            X1 a clkdrv\n\
            X2 b clkdrv per=10n vhi=2\n\
            R1 a 0 1k\n\
            R2 b 0 1k\n\
            .end\n";
        let parsed = parse_netlist(deck).unwrap();
        let wf = |name: &str| match parsed.circuit.element(name).unwrap().kind() {
            ElementKind::VoltageSource { waveform } => waveform.clone(),
            other => panic!("wrong kind {other:?}"),
        };
        let w1 = wf("Vck.X1");
        let w2 = wf("Vck.X2");
        // Default corner: 5 V plateau inside the first 100 ns period.
        assert_eq!(w1.value(3e-9), 5.0);
        assert_eq!(w1.value(50e-9), 0.0);
        // Overridden corner: 2 V plateau, 10 ns period (high again at 13 ns).
        assert_eq!(w2.value(3e-9), 2.0);
        assert_eq!(w2.value(13e-9), 2.0);
    }

    #[test]
    fn sin_params_resolve_against_globals() {
        // {f} in a SIN position of a *top-level* source resolves against
        // `.param` globals.
        let deck = "\
            .param f=1meg amp=2\n\
            V1 a 0 SIN(0 {amp} {f})\n\
            R1 a 0 1k\n\
            .end\n";
        let parsed = parse_netlist(deck).unwrap();
        match parsed.circuit.element("V1").unwrap().kind() {
            ElementKind::VoltageSource { waveform } => {
                // Quarter period of 1 MHz = 250 ns: sin peaks at `amp`.
                assert!((waveform.value(250e-9) - 2.0).abs() < 1e-9);
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn unknown_waveform_param_rejected() {
        let deck = "\
            .subckt d out\n\
            Vck out 0 PULSE(0 {ghost} 0 1n 1n 4n 10n)\n\
            .ends\n\
            X1 a d\n\
            R1 a 0 1k\n\
            .end\n";
        assert!(matches!(
            parse_netlist(deck),
            Err(CircuitError::UnknownParam { .. })
        ));
    }

    #[test]
    fn resolved_waveform_still_validated() {
        // Parameterized PULSE whose resolved values are inconsistent
        // (period shorter than rise+width+fall) fails at instantiation.
        let deck = "\
            .subckt d out per=100n\n\
            Vck out 0 PULSE(0 5 0 1n 1n 40n {per})\n\
            .ends\n\
            X1 a d per=10n\n\
            R1 a 0 1k\n\
            .end\n";
        assert!(matches!(parse_netlist(deck), Err(CircuitError::Device(_))));
    }

    #[test]
    fn literal_waveforms_still_fail_at_parse_time() {
        // All-literal PULSE specs collapse (and validate) during parsing.
        let err = parse_netlist("V1 a 0 PULSE(0 5 0 1n 1n 40n 10n)\nR1 a 0 1\n").unwrap_err();
        assert!(matches!(err, CircuitError::Device(_)), "{err}");
    }

    #[test]
    fn sin_defaults_optional_params() {
        let deck = parse_netlist("V1 a 0 SIN(1 2 1meg)\nR1 a 0 1\n").unwrap();
        match deck.circuit.element("V1").unwrap().kind() {
            ElementKind::VoltageSource { waveform } => {
                assert!((waveform.value(0.0) - 1.0).abs() < 1e-12);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn case_insensitive_elements_and_nodes() {
        let deck = parse_netlist("v1 VDD 0 5\nr1 vdd 0 1K\n").unwrap();
        assert_eq!(deck.circuit.elements().len(), 2);
        assert_eq!(deck.circuit.node_count(), 2); // VDD == vdd
    }

    #[test]
    fn controlled_sources_parse() {
        let deck = parse_netlist(
            "V1 in 0 DC 1\n\
             R1 in 0 1k\n\
             E1 e 0 in 0 2.0\n\
             RE e 0 1k\n\
             G1 g 0 in 0 1m\n\
             RG g 0 1k\n\
             F1 f 0 V1 2\n\
             RF f 0 1k\n\
             H1 h 0 V1 500\n\
             RH h 0 1k\n",
        )
        .unwrap();
        assert_eq!(deck.circuit.elements().len(), 10);
        match deck.circuit.element("E1").unwrap().kind() {
            ElementKind::Vcvs { gain } => assert_eq!(*gain, 2.0),
            _ => panic!("wrong kind"),
        }
        match deck.circuit.element("G1").unwrap().kind() {
            ElementKind::Vccs { gm } => assert_eq!(*gm, 1e-3),
            _ => panic!("wrong kind"),
        }
        match deck.circuit.element("F1").unwrap().kind() {
            ElementKind::Cccs { gain, control } => {
                assert_eq!(*gain, 2.0);
                assert_eq!(control, "V1");
            }
            _ => panic!("wrong kind"),
        }
        match deck.circuit.element("H1").unwrap().kind() {
            ElementKind::Ccvs { r, control } => {
                assert_eq!(*r, 500.0);
                assert_eq!(control, "V1");
            }
            _ => panic!("wrong kind"),
        }
        assert!(deck.circuit.validate().is_ok());
        assert!(crate::mna::MnaSystem::new(&deck.circuit).is_ok());
    }

    #[test]
    fn subckt_instance_flattens() {
        let deck = parse_netlist(
            ".subckt div top out r1=1k r2=1k\n\
             Ra top out {r1}\n\
             Rb out 0 {r2}\n\
             .ends div\n\
             V1 a 0 DC 5\n\
             X1 a mid div\n\
             X2 mid end div r2=2k\n",
        )
        .unwrap();
        assert_eq!(deck.subckts.len(), 1);
        assert_eq!(deck.circuit.elements().len(), 5);
        assert!(deck.circuit.element("Ra.X1").is_some());
        match deck.circuit.element("Rb.X2").unwrap().kind() {
            ElementKind::Resistor { resistance } => assert_eq!(*resistance, 2e3),
            _ => panic!("wrong kind"),
        }
        assert!(deck.circuit.validate().is_ok());
    }

    #[test]
    fn instance_may_precede_definition() {
        let deck = parse_netlist(
            "V1 a 0 DC 1\n\
             X1 a cell\n\
             .subckt cell p\n\
             R1 p 0 50\n\
             .ends\n",
        )
        .unwrap();
        assert!(deck.circuit.element("R1.X1").is_some());
    }

    #[test]
    fn global_params_substitute_anywhere() {
        let deck = parse_netlist(
            ".param rload=2k cpar=10p\n\
             V1 a 0 DC 1\n\
             R1 a out {rload}\n\
             C1 out 0 {cpar}\n",
        )
        .unwrap();
        assert_eq!(deck.params.get("rload"), Some(&2e3));
        match deck.circuit.element("R1").unwrap().kind() {
            ElementKind::Resistor { resistance } => assert_eq!(*resistance, 2e3),
            _ => panic!("wrong kind"),
        }
        match deck.circuit.element("C1").unwrap().kind() {
            ElementKind::Capacitor { capacitance, .. } => assert_eq!(*capacitance, 1e-11),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn param_can_reference_earlier_param() {
        let deck = parse_netlist(
            ".param base=1k\n\
             .param rload={base}\n\
             V1 a 0 1\nR1 a 0 {rload}\n",
        )
        .unwrap();
        assert_eq!(deck.params.get("rload"), Some(&1e3));
    }

    #[test]
    fn nested_subckt_instances() {
        let deck = parse_netlist(
            ".subckt leaf p r=1k\n\
             R1 p 0 {r}\n\
             .ends\n\
             .subckt branch p r=3k\n\
             X1 p leaf r={r}\n\
             X2 p leaf\n\
             .ends\n\
             V1 a 0 1\n\
             Xb a branch r=7k\n",
        )
        .unwrap();
        match deck.circuit.element("R1.Xb.X1").unwrap().kind() {
            ElementKind::Resistor { resistance } => assert_eq!(*resistance, 7e3),
            _ => panic!("wrong kind"),
        }
        match deck.circuit.element("R1.Xb.X2").unwrap().kind() {
            ElementKind::Resistor { resistance } => assert_eq!(*resistance, 1e3),
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn subckt_with_devices_and_controlled_sources() {
        let deck = parse_netlist(
            ".model mn NMOS (kp=2e-4 w=20 l=2 vto=0.7)\n\
             .subckt stage in out\n\
             YRTD1 out 0\n\
             M1 out in 0 mn\n\
             Vsense in mid DC 0\n\
             Rm mid 0 1k\n\
             F1 out 0 Vsense 0.5\n\
             .ends\n\
             V1 a 0 DC 2\n\
             X1 a b stage\n\
             RL b 0 1k\n",
        )
        .unwrap();
        assert!(deck.circuit.element("YRTD1.X1").is_some());
        assert!(deck.circuit.element("M1.X1").is_some());
        match deck.circuit.element("F1.X1").unwrap().kind() {
            ElementKind::Cccs { control, .. } => assert_eq!(control, "Vsense.X1"),
            _ => panic!("wrong kind"),
        }
        assert!(crate::mna::MnaSystem::new(&deck.circuit).is_ok());
    }

    #[test]
    fn hierarchy_errors() {
        // Unknown subckt.
        let err = parse_netlist("V1 a 0 1\nX1 a ghost\n").unwrap_err();
        assert!(err.to_string().contains("ghost"));
        // Unclosed subckt.
        let err = parse_netlist(".subckt cell p\nR1 p 0 1\n").unwrap_err();
        assert!(err.to_string().contains("never closed"));
        // Mismatched .ends name.
        let err = parse_netlist(".subckt cell p\nR1 p 0 1\n.ends other\n").unwrap_err();
        assert!(err.to_string().contains("does not close"));
        // .ends without .subckt.
        assert!(parse_netlist("V1 a 0 1\n.ends\n").is_err());
        // Directives inside a subckt body.
        let err = parse_netlist(".subckt c p\n.tran 1n 2n\n.ends\nV1 a 0 1\n").unwrap_err();
        assert!(err.to_string().contains("not allowed inside"));
        // Port-count mismatch.
        let err = parse_netlist(".subckt c p q\nR1 p q 1\n.ends\nV1 a 0 1\nX1 a c\n").unwrap_err();
        assert!(matches!(err, CircuitError::PortMismatch { .. }));
        // Unknown override.
        let err =
            parse_netlist(".subckt c p\nR1 p 0 1\n.ends\nV1 a 0 1\nX1 a c zz=4\n").unwrap_err();
        assert!(matches!(err, CircuitError::UnknownParam { .. }));
        // Unknown {param} reference.
        let err = parse_netlist("V1 a 0 1\nR1 a 0 {nope}\n").unwrap_err();
        assert!(matches!(err, CircuitError::UnknownParam { .. }));
        // Unterminated reference.
        let err = parse_netlist("V1 a 0 1\nR1 a 0 {nope\n").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn title_lines_starting_with_new_element_letters_still_parse() {
        // E/G/F/H/X joined the element alphabet; decks titled with those
        // letters must keep parsing as they did before this release.
        for title in [
            "Example rtd deck",
            "Gain stage test",
            "Full mesh workload",
            "High speed latch",
            "Xor gate array",
        ] {
            let deck = parse_netlist(&format!("{title}\nV1 a 0 1\nR1 a 0 1k\n.op\n"))
                .unwrap_or_else(|e| panic!("title `{title}` broke parsing: {e}"));
            assert_eq!(deck.circuit.title(), Some(title));
            assert_eq!(deck.circuit.elements().len(), 2);
        }
        // A *valid* controlled-source line first is an element, not a title.
        let deck = parse_netlist("E1 e 0 a 0 2\nV1 a 0 1\nR1 a 0 1k\nRE e 0 1k\n").unwrap();
        assert_eq!(deck.circuit.title(), None);
        assert_eq!(deck.circuit.elements().len(), 4);
        // Old element letters keep their strict first-line behavior.
        assert!(parse_netlist("R1 a 0 bogus\nV1 a 0 1\n").is_err());
    }

    #[test]
    fn malformed_first_line_instance_of_defined_subckt_is_an_error() {
        // `cell` IS defined, so a first-line X with a bad override must
        // report the bad token, not vanish into the title.
        let err = parse_netlist(
            "X1 a cell r=bogus\n\
             .subckt cell p r=1k\nR1 p 0 {r}\n.ends\n\
             V1 a 0 1\n",
        )
        .unwrap_err();
        assert!(err.to_string().contains("bogus"), "{err}");
    }

    #[test]
    fn duplicate_instance_names_rejected_in_decks() {
        let err = parse_netlist(
            ".subckt cell p\nR1 p mid 50\nC1 mid 0 1p\n.ends\n\
             V1 a 0 1\nV2 b 0 1\n\
             X1 a cell\nX1 b cell\n",
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                CircuitError::DuplicateElementAt {
                    line: 8,
                    column: 1,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn duplicate_top_level_elements_locate_the_second_line() {
        let err = parse_netlist("V1 a 0 DC 1\nR1 a 0 1k\n  R1 a 0 2k\n.op\n").unwrap_err();
        match err {
            CircuitError::DuplicateElementAt { name, line, column } => {
                assert_eq!(name, "R1");
                assert_eq!((line, column), (3, 3));
            }
            other => panic!("expected DuplicateElementAt, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_names_inside_a_subckt_body_are_located() {
        let err = parse_netlist(
            ".subckt cell p\nR1 p mid 50\nR1 mid 0 50\n.ends\nV1 a 0 1\nX1 a cell\n.op\n",
        )
        .unwrap_err();
        match err {
            CircuitError::DuplicateElementAt { name, line, column } => {
                assert_eq!(name, "R1");
                assert_eq!((line, column), (3, 1));
            }
            other => panic!("expected DuplicateElementAt, got {other:?}"),
        }
    }

    #[test]
    fn parsed_deck_records_element_spans() {
        let deck = parse_netlist(
            ".subckt cell p\nR1 p mid 50\nC1 mid 0 1p\n.ends\n\
             V1 a 0 1\nR2 a 0 1k\nX1 a cell\n.op\n",
        )
        .unwrap();
        assert_eq!(deck.spans.get("V1"), Some(crate::lint::Span::new(5, 1)));
        assert_eq!(deck.spans.get("R2"), Some(crate::lint::Span::new(6, 1)));
        // Flattened instance elements map to the X line.
        assert_eq!(deck.spans.get("R1.X1"), Some(crate::lint::Span::new(7, 1)));
        assert_eq!(deck.spans.get("C1.X1"), Some(crate::lint::Span::new(7, 1)));
    }

    #[test]
    fn malformed_subckt_header_is_an_error_not_a_panic() {
        let err = parse_netlist(".subckt cell=1\nR1 a 0 1\n.ends\n").unwrap_err();
        assert!(err.to_string().contains("needs a name"), "{err}");
        let err = parse_netlist(".subckt= cell p\nR1 p 0 1\n.ends\n").unwrap_err();
        assert!(err.to_string().contains("needs a name"), "{err}");
    }

    #[test]
    fn unclosed_subckt_error_names_its_line() {
        let err = parse_netlist("V1 a 0 1\n.subckt cell p\nR1 p 0 1\n").unwrap_err();
        match err {
            CircuitError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn recursive_subckt_rejected() {
        let err = parse_netlist(
            ".subckt a p\nX1 p b\n.ends\n\
             .subckt b p\nX1 p a\n.ends\n\
             V1 n 0 1\nXt n a\n",
        )
        .unwrap_err();
        assert!(matches!(err, CircuitError::RecursiveSubckt { .. }));
    }
}
