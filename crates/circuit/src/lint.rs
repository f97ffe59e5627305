//! Pass-based static analysis of circuits and decks — the preflight layer.
//!
//! Every check here is *structural*: union-find connectivity, cycle/cut
//! detection over the branch graph, and a maximum transversal of the MNA
//! sparsity pattern. No matrix is ever factored and no value is ever
//! solved for, and every pass is near-linear in the circuit's size, so a
//! report costs on the order of one MNA build.
//!
//! The passes, in order:
//!
//! 1. **Connectivity** — ground-unreachable islands and floating nodes via
//!    union-find over conducting terminals (`floating-node`, `no-ground`,
//!    `empty-circuit`).
//! 2. **Voltage-source loops** — any cycle of branch-current-carrying
//!    voltage-defined elements (V / E / H / L). The branch-current columns
//!    around such a cycle telescope to zero, so the MNA matrix is singular
//!    *regardless of values* (`vsource-loop`).
//! 3. **Current-source cutsets** — a node group whose every connection to
//!    the rest of the circuit is current-defined (I / F / G) or
//!    capacitive. If nothing outside senses the group's voltage, the
//!    all-ones vector over its voltage columns is a null vector — a
//!    guaranteed-singular operating point (`isource-cutset`,
//!    `no-dc-path`).
//! 4. **Structural rank** — maximum transversal (Duff's MC21) of the
//!    operating-point system pattern, the one
//!    [`MnaSystem::system_pattern`] builds for the assembly workspace too,
//!    with Dulmage–Mendelsohn coarse blocks naming the unmatched equations
//!    and variables (`structural-singular`, `unknown-control`).
//! 5. **Hygiene** — duplicate element names, dangling subckt ports,
//!    unused/shadowed `.param`s, suspicious value ranges.
//!
//! Deck-level comments suppress diagnostics per deck:
//!
//! ```text
//! * nanosim-lint: allow(no-dc-path, suspicious-value)
//! ```
//!
//! Entry points: [`lint_deck`] for netlist text (spans, suppression,
//! hygiene), [`lint_circuit`] for an already-built [`Circuit`], and
//! [`lint_system`] for a circuit whose [`MnaSystem`] the caller has already
//! built — the form the simulation session's preflight uses, so the
//! session builds one MNA system for both the analyzer and assembly.

use crate::element::ElementKind;
use crate::error::CircuitError;
use crate::mna::MnaSystem;
use crate::netlist::Circuit;
use crate::parser::{parse_netlist, ParsedDeck};
use crate::Result;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

/// Diagnostic severity, ordered so that [`Severity::Error`] is greatest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Stylistic or informational; never affects simulation.
    Info,
    /// Suspicious but simulable; surfaced in run statistics.
    Warning,
    /// The circuit cannot be meaningfully simulated (guaranteed-singular
    /// MNA, unresolvable reference, ...). Preflight refuses these.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Machine-stable lint codes. The kebab-case string form ([`LintCode::as_str`])
/// is what `* nanosim-lint: allow(code)` comments and `@expect-lint`
/// annotations use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintCode {
    /// The circuit contains no elements at all.
    EmptyCircuit,
    /// No element connects to ground (node `0`).
    NoGround,
    /// Nodes with no conductive path to ground.
    FloatingNode,
    /// A cycle of voltage-defined branches (V / E / H / L): guaranteed
    /// singular, the branch-current columns are linearly dependent.
    VsourceLoop,
    /// A node group connected to the rest of the circuit only through
    /// current-defined branches (I / F / G): every cut is a current-source
    /// cutset.
    IsourceCutset,
    /// A node group whose only connections to ground are capacitive: fine
    /// in transient, structurally singular at the operating point every
    /// analysis starts from.
    NoDcPath,
    /// The assembled MNA pattern is structurally rank-deficient (maximum
    /// bipartite matching smaller than the dimension).
    StructuralSingular,
    /// Two elements share a name.
    DuplicateElement,
    /// An F/H element references a control that does not exist or carries
    /// no branch current.
    UnknownControl,
    /// The deck failed to parse (the parse error is carried as the
    /// message).
    SyntaxError,
    /// A `.subckt` port no body element connects to.
    DanglingPort,
    /// A global `.param` nothing references.
    UnusedParam,
    /// A subckt parameter that shadows a global `.param` of the same name.
    ShadowedParam,
    /// An element value far outside its plausible physical range.
    SuspiciousValue,
    /// A `nanosim-lint: allow(...)` comment naming an unknown code.
    BadAllow,
}

impl LintCode {
    /// Every code, in documentation order.
    pub const ALL: [LintCode; 15] = [
        LintCode::EmptyCircuit,
        LintCode::NoGround,
        LintCode::FloatingNode,
        LintCode::VsourceLoop,
        LintCode::IsourceCutset,
        LintCode::NoDcPath,
        LintCode::StructuralSingular,
        LintCode::DuplicateElement,
        LintCode::UnknownControl,
        LintCode::SyntaxError,
        LintCode::DanglingPort,
        LintCode::UnusedParam,
        LintCode::ShadowedParam,
        LintCode::SuspiciousValue,
        LintCode::BadAllow,
    ];

    /// The stable kebab-case name used in reports, annotations and
    /// suppression comments.
    pub fn as_str(&self) -> &'static str {
        match self {
            LintCode::EmptyCircuit => "empty-circuit",
            LintCode::NoGround => "no-ground",
            LintCode::FloatingNode => "floating-node",
            LintCode::VsourceLoop => "vsource-loop",
            LintCode::IsourceCutset => "isource-cutset",
            LintCode::NoDcPath => "no-dc-path",
            LintCode::StructuralSingular => "structural-singular",
            LintCode::DuplicateElement => "duplicate-element",
            LintCode::UnknownControl => "unknown-control",
            LintCode::SyntaxError => "syntax-error",
            LintCode::DanglingPort => "dangling-port",
            LintCode::UnusedParam => "unused-param",
            LintCode::ShadowedParam => "shadowed-param",
            LintCode::SuspiciousValue => "suspicious-value",
            LintCode::BadAllow => "bad-allow",
        }
    }

    /// Parses the kebab-case name back into a code.
    pub fn parse(s: &str) -> Option<LintCode> {
        LintCode::ALL.iter().copied().find(|c| c.as_str() == s)
    }

    /// The severity diagnostics of this code default to. Individual
    /// diagnostics may downgrade (e.g. a sensed current-source island is a
    /// Warning because a dependent source elsewhere may fix its rank).
    pub fn default_severity(&self) -> Severity {
        match self {
            LintCode::EmptyCircuit
            | LintCode::NoGround
            | LintCode::FloatingNode
            | LintCode::VsourceLoop
            | LintCode::IsourceCutset
            | LintCode::NoDcPath
            | LintCode::StructuralSingular
            | LintCode::DuplicateElement
            | LintCode::UnknownControl
            | LintCode::SyntaxError => Severity::Error,
            LintCode::DanglingPort | LintCode::UnusedParam | LintCode::SuspiciousValue => {
                Severity::Warning
            }
            LintCode::ShadowedParam | LintCode::BadAllow => Severity::Info,
        }
    }

    /// One-line description for documentation and `nanosim-lint --codes`.
    pub fn description(&self) -> &'static str {
        match self {
            LintCode::EmptyCircuit => "circuit contains no elements",
            LintCode::NoGround => "no element connects to ground",
            LintCode::FloatingNode => "nodes with no conductive path to ground",
            LintCode::VsourceLoop => "loop of voltage-defined branches (V/E/H/L)",
            LintCode::IsourceCutset => "node group fed only by current-defined branches",
            LintCode::NoDcPath => "node group with only capacitive paths to ground",
            LintCode::StructuralSingular => "MNA pattern is structurally rank-deficient",
            LintCode::DuplicateElement => "two elements share a name",
            LintCode::UnknownControl => "F/H control missing or carries no branch current",
            LintCode::SyntaxError => "deck failed to parse",
            LintCode::DanglingPort => "subckt port no body element connects to",
            LintCode::UnusedParam => "global .param nothing references",
            LintCode::ShadowedParam => "subckt parameter shadows a global .param",
            LintCode::SuspiciousValue => "element value outside its plausible range",
            LintCode::BadAllow => "allow(...) comment names an unknown code",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A 1-based source position (line and column of a token's first
/// character), as produced by the located-token parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Span {
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number.
    pub column: usize,
}

impl Span {
    /// Creates a span.
    pub fn new(line: usize, column: usize) -> Span {
        Span { line, column }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.column)
    }
}

/// Maps flattened element names to the deck position they came from.
/// Elements produced by instance flattening map to their `X` line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SourceMap {
    spans: HashMap<String, Span>,
}

impl SourceMap {
    /// An empty map.
    pub fn new() -> SourceMap {
        SourceMap::default()
    }

    /// Records the source position of an element.
    pub fn insert(&mut self, name: impl Into<String>, span: Span) {
        self.spans.insert(name.into(), span);
    }

    /// The recorded position of an element, if any.
    pub fn get(&self, name: &str) -> Option<Span> {
        self.spans.get(name).copied()
    }

    /// Number of recorded positions.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// One finding: a code, a severity, a human message, and — when the source
/// is known — the position and element names involved.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The machine-stable code.
    pub code: LintCode,
    /// Severity (usually [`LintCode::default_severity`], occasionally
    /// downgraded by a pass that cannot prove the problem).
    pub severity: Severity,
    /// Human-readable description of this specific instance.
    pub message: String,
    /// Source position, when the deck text is available.
    pub span: Option<Span>,
    /// Names of the offending elements, in deterministic order.
    pub elements: Vec<String>,
}

impl Diagnostic {
    /// Creates a diagnostic at the code's default severity.
    pub fn new(code: LintCode, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            span: None,
            elements: Vec::new(),
        }
    }

    fn severity(mut self, severity: Severity) -> Diagnostic {
        self.severity = severity;
        self
    }

    fn span(mut self, span: Option<Span>) -> Diagnostic {
        self.span = span;
        self
    }

    fn elements(mut self, elements: Vec<String>) -> Diagnostic {
        self.elements = elements;
        self
    }

    /// Machine-readable JSON rendering (one object, no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\"",
            self.code,
            self.severity,
            json_escape(&self.message)
        );
        if let Some(span) = self.span {
            s.push_str(&format!(
                ",\"line\":{},\"column\":{}",
                span.line, span.column
            ));
        }
        if !self.elements.is_empty() {
            s.push_str(",\"elements\":[");
            for (i, e) in self.elements.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push('"');
                s.push_str(&json_escape(e));
                s.push('"');
            }
            s.push(']');
        }
        s.push('}');
        s
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(span) = self.span {
            write!(f, " (at {span})")?;
        }
        Ok(())
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The result of a lint run: diagnostics sorted errors-first (stable within
/// a severity), plus the count of diagnostics suppressed by
/// `* nanosim-lint: allow(code)` comments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
    suppressed: usize,
}

impl LintReport {
    /// All diagnostics, errors first.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Warning-severity diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.warnings().count()
    }

    /// Number of diagnostics dropped by `allow(...)` suppressions.
    pub fn suppressed_count(&self) -> usize {
        self.suppressed
    }

    /// Whether any error-severity diagnostic survived.
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Whether the report is completely clean (no diagnostics of any
    /// severity; suppressed ones don't count against cleanliness).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The distinct codes present, in report order.
    pub fn codes(&self) -> Vec<LintCode> {
        let mut seen = Vec::new();
        for d in &self.diagnostics {
            if !seen.contains(&d.code) {
                seen.push(d.code);
            }
        }
        seen
    }

    /// One-line summary, e.g. `2 errors, 1 warning (1 suppressed)`.
    pub fn summary(&self) -> String {
        let e = self.error_count();
        let w = self.warning_count();
        let i = self.diagnostics.len() - e - w;
        let mut s = format!(
            "{e} error{}, {w} warning{}",
            if e == 1 { "" } else { "s" },
            if w == 1 { "" } else { "s" }
        );
        if i > 0 {
            s.push_str(&format!(", {i} info{}", if i == 1 { "" } else { "s" }));
        }
        if self.suppressed > 0 {
            s.push_str(&format!(" ({} suppressed)", self.suppressed));
        }
        s
    }

    /// Machine-readable JSON rendering of the whole report.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"errors\":{},\"warnings\":{},\"suppressed\":{},\"diagnostics\":[",
            self.error_count(),
            self.warning_count(),
            self.suppressed
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&d.to_json());
        }
        s.push_str("]}");
        s
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            write!(f, "clean")?;
            if self.suppressed > 0 {
                write!(f, " ({} suppressed)", self.suppressed)?;
            }
            return Ok(());
        }
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// Lints an already-flattened circuit: the structural passes only (no
/// source spans, no deck hygiene, no suppression). Builds the circuit's
/// MNA system for the structural-rank pass; a caller that already holds
/// one passes it to [`lint_system`] instead.
pub fn lint_circuit(circuit: &Circuit) -> LintReport {
    lint_system(circuit, &MnaSystem::new(circuit))
}

/// Lints a flattened circuit against its already-built MNA system, or the
/// error building it failed with (reported as a diagnostic when no earlier
/// pass found an error). This is what the simulation session's preflight
/// runs, so one [`MnaSystem`] serves both the analyzer and assembly.
pub fn lint_system(circuit: &Circuit, mna: &Result<MnaSystem>) -> LintReport {
    finish(lint_circuit_raw(circuit, &SourceMap::default(), mna), &[])
}

/// Lints netlist text: parses it, runs every structural pass over the
/// flattened circuit with full source positions, adds the deck-level
/// hygiene passes, and honors `* nanosim-lint: allow(code)` suppression
/// comments. Never fails — an unparseable deck becomes a `syntax-error`
/// (or `duplicate-element`) diagnostic.
pub fn lint_deck(text: &str) -> LintReport {
    let (allow, mut diags) = collect_allows(text);
    match parse_netlist(text) {
        Err(e) => diags.push(diagnostic_from_error(&e)),
        Ok(deck) => {
            let mna = MnaSystem::new(&deck.circuit);
            diags.extend(lint_circuit_raw(&deck.circuit, &deck.spans, &mna));
            deck_hygiene(text, &deck, &mut diags);
        }
    }
    finish(diags, &allow)
}

/// Converts a parse/build error into the equivalent diagnostic (used for
/// decks that fail before any pass can run).
fn diagnostic_from_error(e: &CircuitError) -> Diagnostic {
    match e {
        CircuitError::DuplicateElementAt { name, line, column } => {
            Diagnostic::new(LintCode::DuplicateElement, e.to_string())
                .span(Some(Span::new(*line, *column)))
                .elements(vec![name.clone()])
        }
        CircuitError::DuplicateElement { name } => {
            Diagnostic::new(LintCode::DuplicateElement, e.to_string()).elements(vec![name.clone()])
        }
        CircuitError::Parse { line, column, .. } => {
            Diagnostic::new(LintCode::SyntaxError, e.to_string())
                .span(Some(Span::new(*line, *column)))
        }
        CircuitError::FloatingNode { .. } => Diagnostic::new(LintCode::FloatingNode, e.to_string()),
        CircuitError::NoGroundReference => Diagnostic::new(LintCode::NoGround, e.to_string()),
        CircuitError::EmptyCircuit => Diagnostic::new(LintCode::EmptyCircuit, e.to_string()),
        CircuitError::UnknownControl { .. } => {
            Diagnostic::new(LintCode::UnknownControl, e.to_string())
        }
        other => Diagnostic::new(LintCode::SyntaxError, other.to_string()),
    }
}

fn finish(mut diags: Vec<Diagnostic>, allow: &[LintCode]) -> LintReport {
    let before = diags.len();
    diags.retain(|d| !allow.contains(&d.code));
    let suppressed = before - diags.len();
    // Errors first, stable within a severity so pass order is preserved.
    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
    LintReport {
        diagnostics: diags,
        suppressed,
    }
}

/// Parses `* nanosim-lint: allow(code, code)` comment lines. Unknown codes
/// become `bad-allow` info diagnostics instead of silently vanishing.
fn collect_allows(text: &str) -> (Vec<LintCode>, Vec<Diagnostic>) {
    let mut allow = Vec::new();
    let mut diags = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let t = line.trim();
        if !(t.starts_with('*') || t.starts_with(';')) {
            continue;
        }
        let Some(pos) = t.find("nanosim-lint:") else {
            continue;
        };
        let rest = t[pos + "nanosim-lint:".len()..].trim();
        let Some(inner) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.strip_suffix(')'))
        else {
            diags.push(
                Diagnostic::new(
                    LintCode::BadAllow,
                    format!("malformed nanosim-lint comment: `{t}` (expected `allow(code, ...)`)"),
                )
                .span(Some(Span::new(lineno + 1, 1))),
            );
            continue;
        };
        for code in inner.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match LintCode::parse(code) {
                Some(c) => allow.push(c),
                None => diags.push(
                    Diagnostic::new(
                        LintCode::BadAllow,
                        format!("unknown lint code `{code}` in allow(...)"),
                    )
                    .span(Some(Span::new(lineno + 1, 1))),
                ),
            }
        }
    }
    (allow, diags)
}

// ---------------------------------------------------------------------------
// Structural passes
// ---------------------------------------------------------------------------

/// Union-find with path halving.
struct Uf {
    parent: Vec<usize>,
}

impl Uf {
    fn new(n: usize) -> Uf {
        Uf {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra.max(rb)] = ra.min(rb);
        true
    }
}

/// Earliest source span among a set of element names.
fn min_span(sources: &SourceMap, names: &[String]) -> Option<Span> {
    names.iter().filter_map(|n| sources.get(n)).min()
}

/// Node display names indexed by `NodeId::index()`.
fn node_names(circuit: &Circuit) -> Vec<String> {
    circuit.nodes().iter().map(|(_, n)| n.to_string()).collect()
}

fn node_list(names: &[String]) -> String {
    const CAP: usize = 8;
    if names.len() <= CAP {
        names.join(", ")
    } else {
        format!("{}, ... ({} total)", names[..CAP].join(", "), names.len())
    }
}

fn lint_circuit_raw(
    circuit: &Circuit,
    sources: &SourceMap,
    mna: &Result<MnaSystem>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    if circuit.elements().is_empty() {
        diags.push(Diagnostic::new(
            LintCode::EmptyCircuit,
            "circuit contains no elements",
        ));
        return diags;
    }
    let full_uf = pass_connectivity(circuit, sources, &mut diags);
    pass_vsource_loops(circuit, sources, &mut diags);
    if let Some(full_uf) = full_uf {
        pass_current_cutsets(circuit, sources, full_uf, &mut diags);
    }
    pass_controls(circuit, sources, &mut diags);
    pass_suspicious_values(circuit, sources, &mut diags);
    if !diags.iter().any(|d| d.severity == Severity::Error) {
        match mna {
            Ok(mna) => pass_structural_rank(mna, &mut diags),
            Err(e) => diags.push(diagnostic_from_error(e)),
        }
    }
    diags
}

/// Pass 1: union-find over conducting terminals. Returns the full
/// conductivity union-find (for reuse by the cutset pass) unless the
/// circuit has no ground reference at all.
fn pass_connectivity(
    circuit: &Circuit,
    sources: &SourceMap,
    diags: &mut Vec<Diagnostic>,
) -> Option<Uf> {
    let n = circuit.node_count();
    let mut uf = Uf::new(n);
    let mut touches_ground = false;
    for e in circuit.elements() {
        let terms = &e.nodes()[..e.kind().conducting_terminal_count()];
        for t in terms {
            touches_ground |= t.is_ground();
        }
        for w in terms.windows(2) {
            uf.union(w[0].index(), w[1].index());
        }
    }
    if !touches_ground {
        diags.push(Diagnostic::new(
            LintCode::NoGround,
            "no element connects to ground (node 0); every node potential is undefined",
        ));
        return None;
    }
    let g = uf.find(0);
    let mut islands: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for idx in 1..n {
        let r = uf.find(idx);
        if r != g {
            islands.entry(r).or_default().push(idx);
        }
    }
    let names = node_names(circuit);
    for nodes in islands.values() {
        let in_island: HashSet<usize> = nodes.iter().copied().collect();
        let island_names: Vec<String> = nodes.iter().map(|&i| names[i].clone()).collect();
        let elems: Vec<String> = circuit
            .elements()
            .iter()
            .filter(|e| {
                e.nodes()[..e.kind().conducting_terminal_count()]
                    .iter()
                    .any(|t| in_island.contains(&t.index()))
            })
            .map(|e| e.name().to_string())
            .collect();
        let span = min_span(sources, &elems);
        let msg = if elems.is_empty() {
            format!(
                "node{} {} declared but connected to nothing",
                if nodes.len() == 1 { "" } else { "s" },
                node_list(&island_names)
            )
        } else {
            format!(
                "node{} {} ha{} no conductive path to ground (island of {} element{}: {})",
                if nodes.len() == 1 { "" } else { "s" },
                node_list(&island_names),
                if nodes.len() == 1 { "s" } else { "ve" },
                elems.len(),
                if elems.len() == 1 { "" } else { "s" },
                node_list(&elems)
            )
        };
        diags.push(
            Diagnostic::new(LintCode::FloatingNode, msg)
                .span(span)
                .elements(elems),
        );
    }
    Some(uf)
}

/// Pass 2: cycles over voltage-defined branches. Every element that adds a
/// branch current (V, E, H, L) contributes a `±1` column at its two
/// terminal KCL rows; around a cycle those columns telescope to zero, so
/// any such loop is singular no matter the values.
fn pass_vsource_loops(circuit: &Circuit, sources: &SourceMap, diags: &mut Vec<Diagnostic>) {
    let n = circuit.node_count();
    let mut uf = Uf::new(n);
    // Forest of accepted edges: node -> (neighbor, element index).
    let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (i, e) in circuit.elements().iter().enumerate() {
        if !e.kind().needs_branch_current() {
            continue;
        }
        let a = e.nodes()[0].index();
        let b = e.nodes()[1].index();
        if uf.union(a, b) {
            adj[a].push((b, i));
            adj[b].push((a, i));
            continue;
        }
        // Closing edge: reconstruct the loop through the forest.
        let mut loop_elems = forest_path(&adj, a, b)
            .into_iter()
            .map(|idx| circuit.elements()[idx].name().to_string())
            .collect::<Vec<_>>();
        loop_elems.push(e.name().to_string());
        let span = sources
            .get(e.name())
            .or_else(|| min_span(sources, &loop_elems));
        diags.push(
            Diagnostic::new(
                LintCode::VsourceLoop,
                format!(
                    "voltage-defined branches form a loop: {} \
                     (their branch-current columns are linearly dependent; \
                     the MNA matrix is singular for any values)",
                    loop_elems.join(" -> ")
                ),
            )
            .span(span)
            .elements(loop_elems),
        );
    }
}

/// BFS path `a -> b` through the voltage-edge forest; returns the element
/// indices along the path.
fn forest_path(adj: &[Vec<(usize, usize)>], a: usize, b: usize) -> Vec<usize> {
    if a == b {
        return Vec::new();
    }
    let mut prev: Vec<Option<(usize, usize)>> = vec![None; adj.len()];
    let mut queue = std::collections::VecDeque::from([a]);
    prev[a] = Some((a, usize::MAX));
    while let Some(u) = queue.pop_front() {
        if u == b {
            break;
        }
        for &(v, ei) in &adj[u] {
            if prev[v].is_none() {
                prev[v] = Some((u, ei));
                queue.push_back(v);
            }
        }
    }
    let mut path = Vec::new();
    let mut cur = b;
    while cur != a {
        let Some((p, ei)) = prev[cur] else {
            return path; // disconnected: shouldn't happen, fail soft
        };
        path.push(ei);
        cur = p;
    }
    path.reverse();
    path
}

/// Pass 3: node groups cut off from ground once current-defined branches
/// (I, F, G) and capacitors are removed. If nothing outside the group
/// senses its voltage, the group's potential is undetermined — the
/// constant vector over its voltage columns is a structural null vector.
/// A sensed group is only *suspicious* (a dependent source may pin it), so
/// it is reported as a Warning and left to the structural-rank pass.
fn pass_current_cutsets(
    circuit: &Circuit,
    sources: &SourceMap,
    mut full_uf: Uf,
    diags: &mut Vec<Diagnostic>,
) {
    let n = circuit.node_count();
    let mut uf = Uf::new(n);
    let mut sensed: HashSet<usize> = HashSet::new();
    for e in circuit.elements() {
        let nodes = e.nodes();
        match e.kind() {
            ElementKind::Resistor { .. }
            | ElementKind::Inductor { .. }
            | ElementKind::VoltageSource { .. }
            | ElementKind::Vcvs { .. }
            | ElementKind::Ccvs { .. }
            | ElementKind::Nonlinear { .. } => {
                uf.union(nodes[0].index(), nodes[1].index());
            }
            ElementKind::Mosfet { .. } => {
                // Drain-source channel conducts; the gate only senses.
                uf.union(nodes[0].index(), nodes[2].index());
                sensed.insert(nodes[1].index());
            }
            ElementKind::Capacitor { .. }
            | ElementKind::CurrentSource { .. }
            | ElementKind::Cccs { .. }
            | ElementKind::Vccs { .. } => {}
        }
        if let ElementKind::Vcvs { .. } | ElementKind::Vccs { .. } = e.kind() {
            sensed.insert(nodes[2].index());
            sensed.insert(nodes[3].index());
        }
    }
    let dc_ground = uf.find(0);
    let full_ground = full_uf.find(0);
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for idx in 1..n {
        // Skip nodes already reported floating by pass 1.
        if full_uf.find(idx) != full_ground {
            continue;
        }
        let r = uf.find(idx);
        if r != dc_ground {
            groups.entry(r).or_default().push(idx);
        }
    }
    let names = node_names(circuit);
    let root_of: Vec<usize> = (0..n).map(|i| uf.find(i)).collect();
    for (&root, nodes) in &groups {
        let in_group = |id: usize| root_of[id] == root;
        let group_names: Vec<String> = nodes.iter().map(|&i| names[i].clone()).collect();
        let mut crossing: Vec<String> = Vec::new();
        let mut has_cap = false;
        for e in circuit.elements() {
            let pair = match e.kind() {
                ElementKind::Mosfet { .. } => (e.nodes()[0], e.nodes()[2]),
                _ => (e.nodes()[0], e.nodes()[1]),
            };
            if in_group(pair.0.index()) != in_group(pair.1.index()) {
                has_cap |= matches!(e.kind(), ElementKind::Capacitor { .. });
                crossing.push(e.name().to_string());
            }
        }
        let is_sensed = nodes.iter().any(|&i| sensed.contains(&i));
        let severity = if is_sensed {
            Severity::Warning
        } else {
            Severity::Error
        };
        let code = if has_cap {
            LintCode::NoDcPath
        } else {
            LintCode::IsourceCutset
        };
        let span = min_span(sources, &crossing);
        let what = if crossing.is_empty() {
            "non-conducting terminals (e.g. a MOSFET gate)".to_string()
        } else {
            format!(
                "{} ({})",
                if has_cap {
                    "capacitors/current-defined branches"
                } else {
                    "current-defined branches"
                },
                node_list(&crossing)
            )
        };
        let tail = if is_sensed {
            "; a controlled source senses this group, so its rank is decided \
             by the structural-rank pass"
        } else if has_cap {
            "; the operating-point (DC) matrix every analysis starts from is \
             structurally singular"
        } else {
            "; the group's potential is undetermined and the MNA matrix is \
             singular for any values"
        };
        diags.push(
            Diagnostic::new(
                code,
                format!(
                    "node{} {} connect{} to the rest of the circuit only through {}{}",
                    if nodes.len() == 1 { "" } else { "s" },
                    node_list(&group_names),
                    if nodes.len() == 1 { "s" } else { "" },
                    what,
                    tail
                ),
            )
            .severity(severity)
            .span(span)
            .elements(crossing),
        );
    }
}

/// Pass: F/H controls must name an existing element that carries a branch
/// current (mirrors MNA construction, but with spans and without aborting
/// at the first failure).
fn pass_controls(circuit: &Circuit, sources: &SourceMap, diags: &mut Vec<Diagnostic>) {
    for e in circuit.elements() {
        let Some(control) = e.kind().control_name() else {
            continue;
        };
        let problem = match circuit.element_ci(control) {
            None => format!(
                "element {} references unknown control `{control}`",
                e.name()
            ),
            Some(c) if !c.kind().needs_branch_current() => format!(
                "element {} control `{control}` ({}) carries no branch current \
                 (only V, E, H and L elements do)",
                e.name(),
                c.kind().type_tag()
            ),
            Some(_) => continue,
        };
        diags.push(
            Diagnostic::new(LintCode::UnknownControl, problem)
                .span(sources.get(e.name()))
                .elements(vec![e.name().to_string()]),
        );
    }
}

/// Pass: element values far outside plausible physical ranges. The bounds
/// are deliberately generous — they flag unit slips (`1m` vs `1meg`), not
/// stylistic choices.
fn pass_suspicious_values(circuit: &Circuit, sources: &SourceMap, diags: &mut Vec<Diagnostic>) {
    for e in circuit.elements() {
        let (value, unit, lo, hi) = match e.kind() {
            ElementKind::Resistor { resistance } => (*resistance, "ohm", 1e-3, 1e12),
            ElementKind::Capacitor { capacitance, .. } => (*capacitance, "F", 1e-21, 1e-2),
            ElementKind::Inductor { inductance } => (*inductance, "H", 1e-15, 1e3),
            _ => continue,
        };
        if value >= lo && value <= hi {
            continue;
        }
        let reason = if value < 0.0 {
            "negative"
        } else if value < lo {
            "implausibly small"
        } else {
            "implausibly large"
        };
        diags.push(
            Diagnostic::new(
                LintCode::SuspiciousValue,
                format!(
                    "{} = {value:.3e} {unit} is {reason} (expected {lo:.0e}..{hi:.0e}); \
                     check the unit suffix",
                    e.name()
                ),
            )
            .span(sources.get(e.name()))
            .elements(vec![e.name().to_string()]),
        );
    }
}

/// Pass 4: maximum transversal ([`max_transversal`]) of the
/// operating-point system pattern ([`MnaSystem::system_pattern`] without
/// MOSFET transconductance or C sites — exactly the pattern the
/// operating-point workspace factors). A maximum matching smaller than the
/// dimension proves LU will hit a zero pivot no matter the values; the
/// Dulmage–Mendelsohn coarse decomposition names the unmatched equations
/// and variables.
///
/// Only runs when the earlier passes found no errors (MNA construction
/// requires a validating circuit).
fn pass_structural_rank(mna: &MnaSystem, diags: &mut Vec<Diagnostic>) {
    let circuit = mna.circuit();
    let dim = mna.dim();
    let pattern = mna.system_pattern(false, false);
    let (row_ptr, col_idx) = pattern.structure();

    let (matched, match_of_row, match_of_col) = max_transversal(dim, row_ptr, col_idx);
    if matched == dim {
        return;
    }

    // Variable / equation names in MNA order.
    let names = node_names(circuit);
    let nn = mna.num_nodes();
    let mut branch_names: Vec<String> = vec![String::new(); dim.saturating_sub(nn)];
    for (i, e) in circuit.elements().iter().enumerate() {
        if let Some(bv) = mna.branch_var(i) {
            branch_names[bv - nn] = e.name().to_string();
        }
    }
    let row_name = |r: usize| {
        if r < nn {
            format!("KCL({})", names[r + 1])
        } else {
            format!("branch({})", branch_names[r - nn])
        }
    };
    let col_name = |c: usize| {
        if c < nn {
            format!("V({})", names[c + 1])
        } else {
            format!("I({})", branch_names[c - nn])
        }
    };

    // Dulmage-Mendelsohn coarse blocks via alternating reachability: the
    // over-determined block from the unmatched rows, the under-determined
    // block from the unmatched columns over the transposed pattern.
    let unmatched_rows: Vec<usize> = (0..dim).filter(|&r| match_of_row[r].is_none()).collect();
    let unmatched_cols: Vec<usize> = (0..dim).filter(|&c| match_of_col[c].is_none()).collect();
    let (over_rows, over_cols) =
        alternating_reach(row_ptr, col_idx, &match_of_col, &unmatched_rows);
    let transposed = pattern.transpose();
    let (col_ptr, row_idx) = transposed.structure();
    let (under_cols, under_rows) =
        alternating_reach(col_ptr, row_idx, &match_of_row, &unmatched_cols);

    let eq_names: Vec<String> = unmatched_rows.iter().map(|&r| row_name(r)).collect();
    let var_names: Vec<String> = unmatched_cols.iter().map(|&c| col_name(c)).collect();
    let count = |reached: &[bool]| reached.iter().filter(|&&x| x).count();
    let mut elements: Vec<String> = branch_names
        .iter()
        .enumerate()
        .filter(|&(i, _)| {
            under_cols[i + nn] || over_rows[i + nn] || over_cols[i + nn] || under_rows[i + nn]
        })
        .map(|(_, n)| n.clone())
        .collect();
    elements.dedup();
    diags.push(
        Diagnostic::new(
            LintCode::StructuralSingular,
            format!(
                "MNA pattern is structurally singular: maximum matching {matched} of {dim}; \
                 unmatched equation{} {}; unmatched variable{} {}; \
                 over-determined block {} eq x {} var, under-determined block {} eq x {} var",
                if eq_names.len() == 1 { "" } else { "s" },
                node_list(&eq_names),
                if var_names.len() == 1 { "" } else { "s" },
                node_list(&var_names),
                count(&over_rows),
                count(&over_cols),
                count(&under_rows),
                count(&under_cols)
            ),
        )
        .elements(elements),
    );
}

/// Alternating reachability over a bipartite pattern given in CSR form
/// from the `starts` side (`ptr`/`idx`): from each start vertex, follow a
/// pattern entry to the other side and the matching (`back`) home again.
/// Returns the reached vertices of the start side, then of the other side.
fn alternating_reach(
    ptr: &[usize],
    idx: &[usize],
    back: &[Option<usize>],
    starts: &[usize],
) -> (Vec<bool>, Vec<bool>) {
    let mut home = vec![false; back.len()];
    let mut away = vec![false; back.len()];
    for &v in starts {
        home[v] = true;
    }
    let mut queue = starts.to_vec();
    while let Some(v) = queue.pop() {
        for &w in &idx[ptr[v]..ptr[v + 1]] {
            if !away[w] {
                away[w] = true;
                if let Some(v2) = back[w].filter(|&v2| !home[v2]) {
                    home[v2] = true;
                    queue.push(v2);
                }
            }
        }
    }
    (home, away)
}

#[cfg(test)]
thread_local! {
    /// Pattern entries [`max_transversal`] has examined on this thread;
    /// lets tests bound the matching's work by the pattern's size.
    static MATCH_VISITS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Maximum transversal of a square CSR pattern by Duff's MC21 (ACM TOMS
/// 7(3), 1981). Rows are matched in order. A row first takes a free column
/// of its own (the cheap assignment: a per-row pointer that only moves
/// forward, since a matched column never becomes free again); otherwise it
/// searches depth first for an augmenting path, with the same one-step
/// lookahead at every row it reaches. The search runs on an explicit
/// stack, so a path as long as the matrix costs no call depth. Returns the
/// matching size and both match maps.
fn max_transversal(
    n: usize,
    row_ptr: &[usize],
    col_idx: &[usize],
) -> (usize, Vec<Option<usize>>, Vec<Option<usize>>) {
    let mut match_of_row: Vec<Option<usize>> = vec![None; n];
    let mut match_of_col: Vec<Option<usize>> = vec![None; n];
    // Next entry of each row the lookahead tries.
    let mut cheap = row_ptr[..n].to_vec();
    // Next entry of each row on the search stack the search tries.
    let mut next = vec![0usize; n];
    // The root whose search last reached each row.
    let mut seen = vec![usize::MAX; n];
    // The rows of the current path, root first.
    let mut path: Vec<usize> = Vec::new();
    let mut matched = 0;
    for root in 0..n {
        path.clear();
        path.push(root);
        let mut free = None;
        while let Some(&r) = path.last() {
            let end = row_ptr[r + 1];
            if seen[r] != root {
                seen[r] = root;
                let start = cheap[r];
                let p = (start..end).find(|&p| match_of_col[col_idx[p]].is_none());
                cheap[r] = p.map_or(end, |p| p + 1);
                #[cfg(test)]
                MATCH_VISITS.with(|v| v.set(v.get() + cheap[r] - start));
                if let Some(p) = p {
                    free = Some(col_idx[p]);
                    break;
                }
                next[r] = row_ptr[r];
            }
            // Every column of `r` is matched: descend into the first row
            // matched to one of them that this search has not reached.
            let mut deeper = None;
            while next[r] < end && deeper.is_none() {
                #[cfg(test)]
                MATCH_VISITS.with(|v| v.set(v.get() + 1));
                let r2 = match_of_col[col_idx[next[r]]].expect("lookahead found no free column");
                next[r] += 1;
                if seen[r2] != root {
                    deeper = Some(r2);
                }
            }
            match deeper {
                Some(r2) => path.push(r2),
                None => {
                    path.pop();
                }
            }
        }
        // Augment: each row on the path takes the column its successor
        // held, and the last row takes the free column.
        if let Some(mut c) = free {
            for &r in path.iter().rev() {
                match_of_col[c] = Some(r);
                if let Some(held) = match_of_row[r].replace(c) {
                    c = held;
                }
            }
            matched += 1;
        }
    }
    (matched, match_of_row, match_of_col)
}

// ---------------------------------------------------------------------------
// Deck-level hygiene
// ---------------------------------------------------------------------------

/// Hygiene passes that need the deck (not just the flattened circuit):
/// dangling subckt ports, unused global `.param`s, shadowed parameters.
fn deck_hygiene(text: &str, deck: &ParsedDeck, diags: &mut Vec<Diagnostic>) {
    for def in deck.subckts.defs() {
        for port in def.ports() {
            let used = def.body_nodes().any(|n| n.eq_ignore_ascii_case(port));
            if !used {
                diags.push(Diagnostic::new(
                    LintCode::DanglingPort,
                    format!(
                        "port `{port}` of .subckt {} is not connected to any body element",
                        def.name()
                    ),
                ));
            }
        }
        for (pname, _) in def.params() {
            if deck.params.contains_key(&pname.to_ascii_lowercase()) {
                diags.push(Diagnostic::new(
                    LintCode::ShadowedParam,
                    format!(
                        ".subckt {} parameter `{pname}` shadows the global .param of \
                         the same name (instances resolve the local one)",
                        def.name()
                    ),
                ));
            }
        }
    }
    // Unused globals: scan `{name}` references outside comments, resolving
    // subckt-local parameters against their definition so a body's `{r}`
    // does not mark a global `r` used when the subckt declares its own.
    let mut used: HashSet<String> = HashSet::new();
    let mut current_locals: Option<HashSet<String>> = None;
    for line in text.lines() {
        let t = line.trim();
        if t.starts_with('*') {
            continue;
        }
        let code = t.split(';').next().unwrap_or("");
        let mut toks = code.split_whitespace();
        match toks.next().map(str::to_ascii_lowercase).as_deref() {
            Some(".subckt") => {
                let locals = toks
                    .next()
                    .and_then(|name| deck.subckts.get(name))
                    .map(|def| {
                        def.params()
                            .iter()
                            .map(|(p, _)| p.to_ascii_lowercase())
                            .collect()
                    })
                    .unwrap_or_default();
                current_locals = Some(locals);
                continue;
            }
            Some(".ends") => {
                current_locals = None;
                continue;
            }
            _ => {}
        }
        let mut rest = code;
        while let Some(open) = rest.find('{') {
            let Some(close) = rest[open..].find('}') else {
                break;
            };
            let name = rest[open + 1..open + close].trim().to_ascii_lowercase();
            let is_local = current_locals
                .as_ref()
                .is_some_and(|locals| locals.contains(&name));
            if !is_local {
                used.insert(name);
            }
            rest = &rest[open + close + 1..];
        }
    }
    let mut unused: Vec<&String> = deck.params.keys().filter(|k| !used.contains(*k)).collect();
    unused.sort();
    for name in unused {
        diags.push(Diagnostic::new(
            LintCode::UnusedParam,
            format!(".param `{name}` is never referenced"),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanosim_devices::sources::SourceWaveform;

    fn has(report: &LintReport, code: LintCode) -> bool {
        report.diagnostics().iter().any(|d| d.code == code)
    }

    fn divider() -> Circuit {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        ckt.add_resistor("R2", b, Circuit::GROUND, 1e3).unwrap();
        ckt
    }

    #[test]
    fn clean_divider_is_clean() {
        let r = lint_circuit(&divider());
        assert!(r.is_clean(), "{r}");
        assert!(!r.has_errors());
        assert_eq!(r.summary(), "0 errors, 0 warnings");
    }

    #[test]
    fn codes_roundtrip_and_have_descriptions() {
        for c in LintCode::ALL {
            assert_eq!(LintCode::parse(c.as_str()), Some(c));
            assert!(!c.description().is_empty());
        }
        assert_eq!(LintCode::parse("no-such-code"), None);
    }

    #[test]
    fn floating_island_detected_with_members() {
        let mut ckt = divider();
        let x = ckt.node("x");
        let y = ckt.node("y");
        ckt.add_resistor("R3", x, y, 1e3).unwrap();
        let r = lint_circuit(&ckt);
        assert!(r.has_errors());
        let d = r.errors().next().unwrap();
        assert_eq!(d.code, LintCode::FloatingNode);
        assert_eq!(d.elements, vec!["R3"]);
        assert!(d.message.contains('x') && d.message.contains('y'), "{d}");
    }

    #[test]
    fn no_ground_detected() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_voltage_source("V1", a, b, SourceWaveform::dc(1.0))
            .unwrap();
        ckt.add_resistor("R1", a, b, 1e3).unwrap();
        let r = lint_circuit(&ckt);
        assert!(has(&r, LintCode::NoGround), "{r}");
        // The no-ground diagnostic replaces a flood of floating-node ones.
        assert!(!has(&r, LintCode::FloatingNode));
    }

    #[test]
    fn parallel_voltage_sources_are_a_loop() {
        let mut ckt = divider();
        let a = ckt.find_node("a").unwrap();
        ckt.add_voltage_source("V2", a, Circuit::GROUND, SourceWaveform::dc(2.0))
            .unwrap();
        let r = lint_circuit(&ckt);
        assert!(has(&r, LintCode::VsourceLoop), "{r}");
        let d = r.errors().next().unwrap();
        assert_eq!(d.elements, vec!["V1", "V2"]);
    }

    #[test]
    fn three_source_loop_names_all_members() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_voltage_source("V1", a, Circuit::GROUND, SourceWaveform::dc(1.0))
            .unwrap();
        ckt.add_voltage_source("V2", a, b, SourceWaveform::dc(0.5))
            .unwrap();
        ckt.add_inductor("L1", b, Circuit::GROUND, 1e-9).unwrap();
        ckt.add_resistor("R1", a, Circuit::GROUND, 1e3).unwrap();
        let r = lint_circuit(&ckt);
        assert!(has(&r, LintCode::VsourceLoop), "{r}");
        let d = r.errors().next().unwrap();
        assert_eq!(d.elements.len(), 3, "{d}");
        assert!(d.elements.contains(&"L1".to_string()), "{d}");
    }

    #[test]
    fn isource_cutset_detected() {
        let mut ckt = divider();
        let b = ckt.find_node("b").unwrap();
        let mid = ckt.node("mid");
        ckt.add_current_source("I1", b, mid, SourceWaveform::dc(1e-3))
            .unwrap();
        ckt.add_current_source("I2", mid, Circuit::GROUND, SourceWaveform::dc(1e-3))
            .unwrap();
        let r = lint_circuit(&ckt);
        assert!(has(&r, LintCode::IsourceCutset), "{r}");
        let d = r.errors().next().unwrap();
        assert_eq!(d.severity, Severity::Error);
        assert_eq!(d.elements, vec!["I1", "I2"]);
    }

    #[test]
    fn capacitor_only_path_is_no_dc_path() {
        let mut ckt = divider();
        let b = ckt.find_node("b").unwrap();
        let mid = ckt.node("mid");
        ckt.add_capacitor("C1", b, mid, 1e-12).unwrap();
        ckt.add_capacitor("C2", mid, Circuit::GROUND, 1e-12)
            .unwrap();
        let r = lint_circuit(&ckt);
        assert!(has(&r, LintCode::NoDcPath), "{r}");
        assert!(!has(&r, LintCode::IsourceCutset));
    }

    #[test]
    fn vccs_fed_unsensed_node_is_cutset_error() {
        let mut ckt = divider();
        let a = ckt.find_node("a").unwrap();
        let out = ckt.node("out");
        ckt.add_vccs("G1", out, Circuit::GROUND, a, Circuit::GROUND, 1e-3)
            .unwrap();
        let r = lint_circuit(&ckt);
        assert!(has(&r, LintCode::IsourceCutset), "{r}");
        assert_eq!(r.errors().next().unwrap().severity, Severity::Error);
    }

    #[test]
    fn sensed_cutset_downgrades_to_warning_and_rank_pass_decides() {
        // A gyrator: each node is fed only by a VCCS output but sensed by
        // the other VCCS, and the pattern is perfectly matchable (row a
        // pairs with column b and vice versa). The cutset pass cannot
        // prove singularity, so it warns and defers to the matching pass,
        // which stays silent.
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add_current_source("I1", Circuit::GROUND, a, SourceWaveform::dc(1e-3))
            .unwrap();
        ckt.add_vccs("G1", a, Circuit::GROUND, b, Circuit::GROUND, 1e-3)
            .unwrap();
        ckt.add_vccs("G2", b, Circuit::GROUND, a, Circuit::GROUND, -1e-3)
            .unwrap();
        let r = lint_circuit(&ckt);
        assert!(!r.has_errors(), "{r}");
        let cutsets: Vec<_> = r
            .diagnostics()
            .iter()
            .filter(|d| d.code == LintCode::IsourceCutset)
            .collect();
        assert!(!cutsets.is_empty(), "{r}");
        assert!(cutsets.iter().all(|d| d.severity == Severity::Warning));
        assert!(!has(&r, LintCode::StructuralSingular), "{r}");
    }

    #[test]
    fn mosfet_gate_island_is_structurally_singular() {
        use nanosim_devices::mosfet::Mosfet;
        let mut ckt = divider();
        let a = ckt.find_node("a").unwrap();
        let gate = ckt.node("g");
        ckt.add_mosfet("M1", a, gate, Circuit::GROUND, Mosfet::nmos())
            .unwrap();
        let r = lint_circuit(&ckt);
        // The gate is sensed (warning from the cutset pass), and the
        // matching pass proves the singularity: V(g) has no row.
        assert!(has(&r, LintCode::StructuralSingular), "{r}");
        let d = r.errors().next().unwrap();
        assert!(d.message.contains("V(g)"), "{d}");
    }

    #[test]
    fn unknown_control_flagged_without_panicking_rank_pass() {
        let mut ckt = divider();
        let a = ckt.find_node("a").unwrap();
        let f = ckt.node("f");
        ckt.add_cccs("F1", f, Circuit::GROUND, "Vmissing", 2.0)
            .unwrap();
        ckt.add_resistor("RF", f, a, 1e3).unwrap();
        let r = lint_circuit(&ckt);
        assert!(has(&r, LintCode::UnknownControl), "{r}");
    }

    #[test]
    fn control_without_branch_current_flagged() {
        let mut ckt = divider();
        let a = ckt.find_node("a").unwrap();
        let f = ckt.node("f");
        ckt.add_cccs("F1", f, Circuit::GROUND, "R1", 2.0).unwrap();
        ckt.add_resistor("RF", f, a, 1e3).unwrap();
        let r = lint_circuit(&ckt);
        assert!(has(&r, LintCode::UnknownControl), "{r}");
        assert!(r
            .errors()
            .next()
            .unwrap()
            .message
            .contains("branch current"));
    }

    #[test]
    fn suspicious_values_warn_but_do_not_error() {
        let mut ckt = divider();
        let b = ckt.find_node("b").unwrap();
        ckt.add_capacitor("Cbig", b, Circuit::GROUND, 1.0).unwrap();
        let r = lint_circuit(&ckt);
        assert!(!r.has_errors(), "{r}");
        assert_eq!(r.warning_count(), 1);
        assert!(has(&r, LintCode::SuspiciousValue));
    }

    #[test]
    fn lint_deck_reports_spans_from_the_parser() {
        let deck = "* test deck\n\
                    V1 a 0 DC 1\n\
                    R1 a b 1k\n\
                    R2 b 0 1k\n\
                    R3 x y 1k\n\
                    .op\n.end\n";
        let r = lint_deck(deck);
        assert!(r.has_errors());
        let d = r.errors().next().unwrap();
        assert_eq!(d.code, LintCode::FloatingNode);
        assert_eq!(d.span, Some(Span::new(5, 1)), "{d}");
    }

    #[test]
    fn lint_deck_suppression_and_summary() {
        let deck = "* nanosim-lint: allow(floating-node)\n\
                    V1 a 0 DC 1\n\
                    R1 a 0 1k\n\
                    R3 x y 1k\n\
                    .op\n.end\n";
        let r = lint_deck(deck);
        assert!(!r.has_errors(), "{r}");
        assert_eq!(r.suppressed_count(), 1);
        assert!(r.is_clean());
        assert!(r.to_string().contains("suppressed"));
    }

    #[test]
    fn bad_allow_code_reported_as_info() {
        let deck = "* nanosim-lint: allow(not-a-code)\n\
                    V1 a 0 DC 1\nR1 a 0 1k\n.op\n.end\n";
        let r = lint_deck(deck);
        assert!(has(&r, LintCode::BadAllow), "{r}");
        assert!(!r.has_errors());
    }

    #[test]
    fn syntax_error_becomes_diagnostic_with_span() {
        let r = lint_deck("V1 a 0 DC 1\nR1 a 0 frog\n.op\n");
        assert!(r.has_errors());
        let d = r.errors().next().unwrap();
        assert_eq!(d.code, LintCode::SyntaxError);
        assert_eq!(d.span.map(|s| s.line), Some(2));
    }

    #[test]
    fn duplicate_element_carries_line_and_column() {
        let r = lint_deck("V1 a 0 DC 1\nR1 a 0 1k\nR1 a 0 2k\n.op\n");
        assert!(r.has_errors());
        let d = r.errors().next().unwrap();
        assert_eq!(d.code, LintCode::DuplicateElement);
        assert_eq!(d.span, Some(Span::new(3, 1)), "{d}");
        assert_eq!(d.elements, vec!["R1"]);
    }

    #[test]
    fn hygiene_dangling_port_unused_and_shadowed_params() {
        let deck = "* hygiene deck\n\
                    .param rload=1k unused=5\n\
                    .subckt cell in out rload=2k\n\
                    R1 in 0 {rload}\n\
                    .ends\n\
                    V1 a 0 DC 1\n\
                    X1 a b cell\n\
                    R2 b 0 1k\n\
                    Rtop a 0 {rload}\n\
                    .op\n.end\n";
        let r = lint_deck(deck);
        assert!(!r.has_errors(), "{r}");
        assert!(has(&r, LintCode::DanglingPort), "{r}"); // `out` unused
        assert!(has(&r, LintCode::ShadowedParam), "{r}"); // rload shadowed
        assert!(has(&r, LintCode::UnusedParam), "{r}"); // `unused` unused
        let unused: Vec<_> = r
            .diagnostics()
            .iter()
            .filter(|d| d.code == LintCode::UnusedParam)
            .collect();
        assert_eq!(unused.len(), 1, "{r}"); // rload used at top level
        assert!(unused[0].message.contains("unused"));
    }

    #[test]
    fn json_rendering_is_wellformed_enough() {
        let r = lint_deck("V1 a 0 DC 1\nR1 a b 1k\nR2 b 0 1k\nR3 x y 1k\n.op\n");
        let js = r.to_json();
        assert!(js.starts_with('{') && js.ends_with('}'), "{js}");
        assert!(js.contains("\"code\":\"floating-node\""), "{js}");
        assert!(js.contains("\"line\":4"), "{js}");
        // Escaping: a message with a quote must not break the JSON.
        let d = Diagnostic::new(LintCode::SyntaxError, "a \"quoted\" thing\n");
        assert!(d.to_json().contains("a \\\"quoted\\\" thing\\n"));
    }

    #[test]
    fn report_sorts_errors_first() {
        let deck = "* deck with both\n\
                    V1 a 0 DC 1\n\
                    R1 a 0 1k\n\
                    Cbig a 0 1\n\
                    R3 x y 1k\n\
                    .op\n";
        let r = lint_deck(deck);
        assert!(r.diagnostics().len() >= 2);
        assert_eq!(r.diagnostics()[0].severity, Severity::Error);
        assert_eq!(r.diagnostics()[0].code, LintCode::FloatingNode);
    }

    #[test]
    fn empty_circuit_reported() {
        let r = lint_circuit(&Circuit::new());
        assert!(has(&r, LintCode::EmptyCircuit));
    }

    #[test]
    fn matching_pass_confirms_healthy_controlled_source_mesh() {
        // All four controlled-source kinds in one clean circuit: the
        // structural-rank pass must stay silent.
        let deck = "* all four linear controlled sources\n\
                    V1 in 0 DC 1\nR1 in 0 1k\n\
                    E1 e 0 in 0 2.0\nRE e 0 1k\n\
                    G1 g 0 in 0 1m\nRG g 0 2k\n\
                    F1 f 0 V1 2\nRF f 0 1k\n\
                    H1 h 0 V1 500\nRH h 0 1k\n\
                    .op\n.end\n";
        let r = lint_deck(deck);
        assert!(r.is_clean(), "{r}");
    }

    /// The Table I mesh at `n × n` as flat deck text: a resistor grid with
    /// an RTD to ground at every node and the source at the corner.
    fn rtd_grid_deck(n: usize) -> String {
        let mut deck = String::from("* rtd grid\nV1 in 0 DC 0\nRin in g0_0 50\n");
        for r in 0..n {
            for c in 0..n {
                deck += &format!("YRTD{r}_{c} g{r}_{c} 0\n");
                if c + 1 < n {
                    deck += &format!("Rh{r}_{c} g{r}_{c} g{r}_{} 100\n", c + 1);
                }
                if r + 1 < n {
                    deck += &format!("Rv{r}_{c} g{r}_{c} g{}_{c} 100\n", r + 1);
                }
            }
        }
        deck + ".end\n"
    }

    /// A resistor ladder of `n` series/shunt sections behind one source.
    fn ladder_deck(n: usize) -> String {
        let mut deck = String::from("* ladder\nV1 n0 0 DC 1\n");
        for k in 0..n {
            deck += &format!("Rs{k} n{k} n{} 10\nRp{k} n{} 0 1k\n", k + 1, k + 1);
        }
        deck + ".end\n"
    }

    /// `n` voltage sources in series, loaded by one resistor: no node row
    /// or branch row of the pattern carries a diagonal entry but the last.
    fn vchain_deck(n: usize) -> String {
        let mut deck = String::from("* series sources\nV0 n0 0 DC 1\n");
        for k in 1..n {
            deck += &format!("V{k} n{k} n{} DC 1\n", k - 1);
        }
        deck + &format!("R1 n{} 0 1k\n.end\n", n - 1)
    }

    #[test]
    fn matching_work_is_linear_in_the_pattern() {
        for deck in [rtd_grid_deck(120), ladder_deck(40_000), vchain_deck(40_000)] {
            let circuit = parse_netlist(&deck).unwrap().circuit;
            let mna = MnaSystem::new(&circuit).unwrap();
            let pattern = mna.system_pattern(false, false);
            let (row_ptr, col_idx) = pattern.structure();
            let before = MATCH_VISITS.with(std::cell::Cell::get);
            let (matched, ..) = max_transversal(mna.dim(), row_ptr, col_idx);
            let visits = MATCH_VISITS.with(std::cell::Cell::get) - before;
            assert_eq!(matched, mna.dim());
            assert!(
                visits <= 2 * pattern.nnz(),
                "{visits} visits for {} entries",
                pattern.nnz()
            );
        }
    }

    #[test]
    fn long_paths_lint_on_a_small_stack() {
        // 2 MiB is the stack of `par_map` workers and test threads.
        for deck in [ladder_deck(40_000), vchain_deck(40_000)] {
            let circuit = parse_netlist(&deck).unwrap().circuit;
            let report = std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || lint_circuit(&circuit))
                .unwrap()
                .join()
                .unwrap();
            assert!(report.is_clean(), "{report}");
        }
    }
}
