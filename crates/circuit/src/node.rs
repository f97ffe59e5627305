//! Node identifiers and the node-name map.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

/// `name` with ASCII letters lowercased — the case-insensitive lookup key
/// of nodes and parameters. Borrowed (no allocation) when `name` has no
/// uppercase ASCII letter.
pub(crate) fn lowercase_key(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// Identifier of a circuit node. Node `0` is ground.
///
/// # Example
/// ```
/// use nanosim_circuit::node::NodeId;
/// assert!(NodeId::GROUND.is_ground());
/// assert_eq!(NodeId::GROUND.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// The ground (reference) node.
    pub const GROUND: NodeId = NodeId(0);

    /// Raw index (0 = ground).
    pub fn index(self) -> usize {
        self.0
    }

    /// Whether this is the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }

    #[cfg(test)]
    pub(crate) fn from_index(i: usize) -> Self {
        NodeId(i)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Bidirectional map between node names and [`NodeId`]s.
///
/// Ground is created eagerly and answers to `"0"`, `"gnd"` and `"GND"`.
#[derive(Debug, Clone)]
pub struct NodeMap {
    names: Vec<String>,
    by_name: HashMap<String, NodeId>,
}

impl NodeMap {
    /// Creates a map containing only ground.
    pub fn new() -> Self {
        let mut m = NodeMap {
            names: vec!["0".to_string()],
            by_name: HashMap::new(),
        };
        m.by_name.insert("0".into(), NodeId::GROUND);
        m.by_name.insert("gnd".into(), NodeId::GROUND);
        m
    }

    /// Returns the id for `name`, creating a fresh node when unseen.
    /// Lookup is case-insensitive ("VDD" and "vdd" are the same node).
    pub fn intern(&mut self, name: &str) -> NodeId {
        let key = lowercase_key(name);
        if let Some(&id) = self.by_name.get(key.as_ref()) {
            return id;
        }
        let id = NodeId(self.names.len());
        self.names.push(name.to_string());
        self.by_name.insert(key.into_owned(), id);
        id
    }

    /// Looks up an existing node by name without creating it.
    pub fn get(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(lowercase_key(name).as_ref()).copied()
    }

    /// The display name of a node.
    ///
    /// # Panics
    /// Panics if the id was not produced by this map.
    pub fn name(&self, id: NodeId) -> &str {
        &self.names[id.0]
    }

    /// Total number of nodes including ground.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether only ground exists.
    pub fn is_empty(&self) -> bool {
        self.names.len() <= 1
    }

    /// Iterates over `(id, name)` pairs, ground first.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i), n.as_str()))
    }
}

impl Default for NodeMap {
    fn default() -> Self {
        NodeMap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_is_predefined() {
        let m = NodeMap::new();
        assert_eq!(m.get("0"), Some(NodeId::GROUND));
        assert_eq!(m.get("gnd"), Some(NodeId::GROUND));
        assert_eq!(m.get("GND"), Some(NodeId::GROUND));
        assert_eq!(m.len(), 1);
        assert!(m.is_empty());
    }

    #[test]
    fn intern_is_idempotent() {
        let mut m = NodeMap::new();
        let a = m.intern("out");
        let b = m.intern("out");
        assert_eq!(a, b);
        assert_eq!(m.len(), 2);
        assert!(!m.is_empty());
    }

    #[test]
    fn intern_case_insensitive_preserves_first_spelling() {
        let mut m = NodeMap::new();
        let a = m.intern("Vdd");
        let b = m.intern("VDD");
        assert_eq!(a, b);
        assert_eq!(m.name(a), "Vdd");
    }

    #[test]
    fn distinct_names_distinct_ids() {
        let mut m = NodeMap::new();
        let a = m.intern("a");
        let b = m.intern("b");
        assert_ne!(a, b);
        assert!(!a.is_ground());
    }

    #[test]
    fn iter_yields_ground_first() {
        let mut m = NodeMap::new();
        m.intern("x");
        let all: Vec<_> = m.iter().collect();
        assert_eq!(all[0], (NodeId::GROUND, "0"));
        assert_eq!(all[1].1, "x");
    }

    #[test]
    fn display_format() {
        assert_eq!(NodeId::GROUND.to_string(), "n0");
    }

    #[test]
    fn get_unknown_is_none() {
        let m = NodeMap::new();
        assert_eq!(m.get("missing"), None);
    }
}
