//! Pooled `Simulator` sessions keyed by circuit topology.
//!
//! A session's expensive state — the sparse-LU symbolic analysis, fill
//! ordering and factor structure inside its assembly workspaces — depends
//! only on the MNA sparsity pattern, never on component values. The pool
//! therefore keys sessions by [`TopologyKey`] and serves a same-topology
//! request by [`nanosim_core::Simulator::rebind`]ing the pooled session to
//! the new circuit: the symbolic work is paid once per topology and
//! *refactored* forever after. Capacity is a session count with LRU
//! eviction (sessions are few and heavy; counting them is the honest
//! unit).

use crate::key::{DeckKey, TopologyKey};
use crate::store::CacheDisposition;
use nanosim_circuit::Circuit;
use nanosim_core::{SimError, SimOptions, Simulator};

/// One pooled session and the deck it is currently bound to.
#[derive(Debug)]
struct PooledSession {
    topology: TopologyKey,
    deck: DeckKey,
    sim: Simulator,
}

/// LRU pool of [`Simulator`] sessions keyed by topology.
#[derive(Debug)]
pub struct SessionPool {
    /// Most-recently-used last.
    sessions: Vec<PooledSession>,
    capacity: usize,
}

impl SessionPool {
    /// Creates a pool holding at most `capacity` sessions (minimum 1).
    pub fn new(capacity: usize) -> SessionPool {
        SessionPool {
            sessions: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Checks out the session for `topology`, creating or rebinding as
    /// needed, and reports how much cached state the request reuses:
    ///
    /// * [`CacheDisposition::SameDeck`] — pooled session already bound to
    ///   this exact deck; nothing rebuilt.
    /// * [`CacheDisposition::WarmSession`] — pooled session rebound to a
    ///   same-pattern circuit; symbolic analyses survive.
    /// * [`CacheDisposition::Cold`] — new session (or a rebind that found
    ///   no warm workspace to preserve).
    ///
    /// # Errors
    /// Propagates preflight/validation failures from session construction
    /// or rebind; on a rebind failure the pooled session keeps its
    /// previous binding and stays usable.
    pub fn checkout(
        &mut self,
        topology: TopologyKey,
        deck: DeckKey,
        circuit: &Circuit,
        opts: &SimOptions,
    ) -> Result<(&mut Simulator, CacheDisposition), SimError> {
        let disposition = match self.sessions.iter().position(|s| s.topology == topology) {
            Some(pos) => {
                let mut entry = self.sessions.remove(pos);
                if entry.deck == deck {
                    self.sessions.push(entry);
                    CacheDisposition::SameDeck
                } else {
                    match entry.sim.rebind(circuit.clone()) {
                        Ok(warm) => {
                            entry.deck = deck;
                            self.sessions.push(entry);
                            if warm {
                                CacheDisposition::WarmSession
                            } else {
                                CacheDisposition::Cold
                            }
                        }
                        Err(e) => {
                            // Keep the session usable under its old deck.
                            self.sessions.push(entry);
                            return Err(e);
                        }
                    }
                }
            }
            None => {
                let sim = Simulator::with_options(circuit.clone(), *opts)?;
                self.sessions.push(PooledSession {
                    topology,
                    deck,
                    sim,
                });
                if self.sessions.len() > self.capacity {
                    // Least-recently-used session is at the front.
                    self.sessions.remove(0);
                }
                CacheDisposition::Cold
            }
        };
        let sim = &mut self.sessions.last_mut().expect("just pushed").sim;
        Ok((sim, disposition))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanosim_circuit::parse_netlist;

    fn keys(deck: &str) -> (TopologyKey, DeckKey, Circuit) {
        let parsed = parse_netlist(deck).unwrap();
        (
            TopologyKey::of(&parsed.circuit),
            DeckKey::of(&parsed.circuit),
            parsed.circuit,
        )
    }

    #[test]
    fn same_topology_reuses_one_session() {
        let (t1, d1, c1) = keys("V1 in 0 DC 1\nR1 in out 100\nR2 out 0 100\n.end\n");
        let (t2, d2, c2) = keys("V1 in 0 DC 1\nR1 in out 220\nR2 out 0 100\n.end\n");
        assert_eq!(t1, t2);
        assert_ne!(d1, d2);
        let opts = SimOptions::default();
        let mut pool = SessionPool::new(4);
        let (sim, disp) = pool.checkout(t1, d1, &c1, &opts).unwrap();
        assert_eq!(disp, CacheDisposition::Cold);
        sim.run(nanosim_core::Analysis::op()).unwrap();
        // Identical deck: no rebind.
        let (_, disp) = pool.checkout(t1, d1, &c1, &opts).unwrap();
        assert_eq!(disp, CacheDisposition::SameDeck);
        // Same topology, new values: warm rebind.
        let (sim, disp) = pool.checkout(t2, d2, &c2, &opts).unwrap();
        assert_eq!(disp, CacheDisposition::WarmSession);
        let ds = sim.run(nanosim_core::Analysis::op()).unwrap();
        assert_eq!(ds.stats.full_factors, 0, "warm session must only refactor");
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn capacity_evicts_least_recently_used_session() {
        let decks = [
            "V1 a 0 DC 1\nR1 a 0 10\n.end\n",
            "V1 a 0 DC 1\nR1 a b 10\nR2 b 0 10\n.end\n",
            "V1 a 0 DC 1\nR1 a b 10\nR2 b c 10\nR3 c 0 10\n.end\n",
        ];
        let opts = SimOptions::default();
        let mut pool = SessionPool::new(2);
        for deck in decks {
            let (t, d, c) = keys(deck);
            pool.checkout(t, d, &c, &opts).unwrap();
        }
        assert_eq!(pool.len(), 2);
        // The first topology was evicted: checking it out again is cold.
        let (t, d, c) = keys(decks[0]);
        let (_, disp) = pool.checkout(t, d, &c, &opts).unwrap();
        assert_eq!(disp, CacheDisposition::Cold);
    }
}
