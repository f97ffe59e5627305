//! Cache keys: value-sensitive deck keys, pattern-only topology keys, and
//! canonical analysis keys.
//!
//! The service maintains two cache levels with different invalidation
//! granularity, so the keys are deliberately different hashes of the same
//! parsed deck:
//!
//! * [`DeckKey`] (from [`nanosim_circuit::deck_fingerprint`]) changes when
//!   *any* value changes — it guards the full result cache, where a hit
//!   must be bit-identical to a cold run.
//! * [`TopologyKey`] (from [`nanosim_circuit::topology_fingerprint`])
//!   ignores values — it guards the session pool, where circuits that
//!   share an MNA sparsity pattern share symbolic LU analyses and
//!   pivot orders via [`nanosim_core::Simulator::rebind`].
//! * [`AnalysisKey`] canonically encodes an [`AnalysisDirective`]. The
//!   execution plan is deliberately *not* part of the key: results are
//!   bit-identical across worker counts, so a sweep sharded 4 ways may
//!   answer a serial request from cache. Neither is the sweep's chunk
//!   layout: every `.dc` directive lowers to the same one-chunk layout.
//! * [`RequestKey`] hashes a submit request as sent — deck text and
//!   `.param` overrides — before any parse. It keys the service's memo of
//!   parsed-deck facts, so an exact resubmit whose results are cached is
//!   answered without parsing its deck again.

use nanosim_circuit::{deck_fingerprint, fnv1a, fnv1a_extend, topology_fingerprint};
use nanosim_circuit::{AnalysisDirective, Circuit};

/// Value-sensitive fingerprint of a flattened circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeckKey(pub u64);

/// Sparsity-pattern-only fingerprint of a flattened circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TopologyKey(pub u64);

/// Canonical fingerprint of one analysis directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AnalysisKey(pub u64);

/// Fingerprint of a submit request's deck text and `.param` overrides, in
/// request order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestKey(pub u64);

impl DeckKey {
    /// Fingerprints a flattened circuit (value-sensitive).
    #[must_use]
    pub fn of(circuit: &Circuit) -> DeckKey {
        DeckKey(deck_fingerprint(circuit))
    }
}

impl TopologyKey {
    /// Fingerprints a flattened circuit's sparsity pattern.
    #[must_use]
    pub fn of(circuit: &Circuit) -> TopologyKey {
        TopologyKey(topology_fingerprint(circuit))
    }
}

impl AnalysisKey {
    /// Fingerprints an analysis directive (kind + numeric parameters +
    /// swept source name; no execution plan).
    #[must_use]
    pub fn of(directive: &AnalysisDirective) -> AnalysisKey {
        let mut h = fnv1a(b"nanosim-analysis-v1");
        match directive {
            AnalysisDirective::Op => {
                h = fnv1a_extend(h, b"op");
            }
            AnalysisDirective::Tran { tstep, tstop } => {
                h = fnv1a_extend(h, b"tran");
                h = fnv1a_extend(h, &tstep.to_bits().to_le_bytes());
                h = fnv1a_extend(h, &tstop.to_bits().to_le_bytes());
            }
            AnalysisDirective::Dc {
                source,
                start,
                stop,
                step,
            } => {
                h = fnv1a_extend(h, b"dc");
                h = fnv1a_extend(h, source.to_ascii_lowercase().as_bytes());
                h = fnv1a_extend(h, &start.to_bits().to_le_bytes());
                h = fnv1a_extend(h, &stop.to_bits().to_le_bytes());
                h = fnv1a_extend(h, &step.to_bits().to_le_bytes());
            }
        }
        AnalysisKey(h)
    }
}

impl RequestKey {
    /// Fingerprints the request text: the deck, then each override's name
    /// and exact `f64` bits. Lengths are hashed ahead of the deck and of
    /// every name, so no deck text can pass for a shorter deck plus
    /// overrides.
    #[must_use]
    pub fn of(deck: &str, overrides: &[(String, f64)]) -> RequestKey {
        let mut h = fnv1a(&(deck.len() as u64).to_le_bytes());
        h = fnv1a_extend(h, deck.as_bytes());
        for (name, value) in overrides {
            h = fnv1a_extend(h, &(name.len() as u64).to_le_bytes());
            h = fnv1a_extend(h, name.as_bytes());
            h = fnv1a_extend(h, &value.to_bits().to_le_bytes());
        }
        RequestKey(h)
    }
}

impl std::fmt::Display for DeckKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl std::fmt::Display for TopologyKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl std::fmt::Display for AnalysisKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_keys_separate_kinds_and_params() {
        let op = AnalysisKey::of(&AnalysisDirective::Op);
        let dc = AnalysisKey::of(&AnalysisDirective::Dc {
            source: "V1".into(),
            start: 0.0,
            stop: 1.0,
            step: 0.1,
        });
        let dc2 = AnalysisKey::of(&AnalysisDirective::Dc {
            source: "V1".into(),
            start: 0.0,
            stop: 1.0,
            step: 0.05,
        });
        let tran = AnalysisKey::of(&AnalysisDirective::Tran {
            tstep: 1e-12,
            tstop: 1e-9,
        });
        assert_ne!(op, dc);
        assert_ne!(dc, dc2);
        assert_ne!(dc, tran);
    }

    #[test]
    fn request_keys_see_every_byte_and_bit_of_the_request() {
        let deck = "V1 in 0 DC 1\nR1 in 0 {r}\n.op\n.end\n";
        let r = |v: f64| vec![("r".to_string(), v)];
        let base = RequestKey::of(deck, &r(100.0));
        assert_eq!(base, RequestKey::of(deck, &r(100.0)));
        assert_ne!(
            base,
            RequestKey::of(&deck.replace("DC 1", "DC 2"), &r(100.0))
        );
        assert_ne!(
            base,
            RequestKey::of(deck, &r(f64::from_bits(100f64.to_bits() + 1)))
        );
        assert_ne!(base, RequestKey::of(deck, &[]));
        // Override order is part of the request.
        let ab = [("a".to_string(), 1.0), ("b".to_string(), 2.0)];
        let ba = [("b".to_string(), 2.0), ("a".to_string(), 1.0)];
        assert_ne!(RequestKey::of(deck, &ab), RequestKey::of(deck, &ba));
    }

    #[test]
    fn analysis_key_is_case_insensitive_on_source() {
        let a = AnalysisKey::of(&AnalysisDirective::Dc {
            source: "V1".into(),
            start: 0.0,
            stop: 1.0,
            step: 0.1,
        });
        let b = AnalysisKey::of(&AnalysisDirective::Dc {
            source: "v1".into(),
            start: 0.0,
            stop: 1.0,
            step: 0.1,
        });
        assert_eq!(a, b);
    }
}
