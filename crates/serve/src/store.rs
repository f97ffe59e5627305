//! Run registry: monotonically assigned [`RunId`]s, per-run lifecycle
//! status, and an LRU-by-bytes result store.
//!
//! Records are never forgotten — `status r` keeps answering for as long as
//! the service lives — but finished result *payloads* (the [`Dataset`],
//! which dominates memory) are evicted least-recently-used when the store
//! exceeds its byte capacity. An evicted run keeps its metadata and
//! reports a structured `evicted` error on `result` queries.

use crate::key::{AnalysisKey, DeckKey};
use nanosim_core::{Dataset, SimError};

/// Monotonically assigned run identifier (first run is `1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunId(pub u64);

impl std::fmt::Display for RunId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Lifecycle state of one run.
#[derive(Debug, Clone)]
pub enum RunStatus {
    /// Accepted, not yet started (batch points and held submits wait here).
    Queued,
    /// Currently executing.
    Running,
    /// Finished successfully; the result may still be in the store.
    Done,
    /// Failed; carries the full [`SimError`] including forensics.
    Failed {
        /// The engine/preflight error that ended the run.
        error: Box<SimError>,
    },
    /// Cancelled before completion (explicit `cancel` or a tripped
    /// [`nanosim_core::CancelToken`]); produced no payload.
    Cancelled,
}

impl RunStatus {
    /// Protocol tag: `queued` / `running` / `done` / `failed` /
    /// `cancelled`.
    pub fn tag(&self) -> &'static str {
        match self {
            RunStatus::Queued => "queued",
            RunStatus::Running => "running",
            RunStatus::Done => "done",
            RunStatus::Failed { .. } => "failed",
            RunStatus::Cancelled => "cancelled",
        }
    }

    /// Whether the run is still pending (queued or running) — the states a
    /// cancel can take effect in and the ones admission control counts.
    pub fn is_pending(&self) -> bool {
        matches!(self, RunStatus::Queued | RunStatus::Running)
    }
}

/// How a finished run's answer was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Fresh session: the symbolic analysis was paid here.
    Cold,
    /// Pooled session reused via rebind: values-only refactor.
    WarmSession,
    /// Pooled session reused for the *identical* deck (no rebind needed).
    SameDeck,
    /// Answered from the result cache without touching an engine.
    ResultHit,
}

impl CacheDisposition {
    /// Protocol tag: `cold` / `warm` / `same-deck` / `result-hit`.
    pub fn tag(self) -> &'static str {
        match self {
            CacheDisposition::Cold => "cold",
            CacheDisposition::WarmSession => "warm",
            CacheDisposition::SameDeck => "same-deck",
            CacheDisposition::ResultHit => "result-hit",
        }
    }
}

/// A successful run's payload: the dataset (which carries its
/// [`nanosim_core::EngineStats`] in `dataset.stats`).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The analysis result.
    pub dataset: Dataset,
}

impl RunResult {
    /// Approximate heap footprint, used for LRU-by-bytes accounting:
    /// axis + all columns at 8 bytes per point, plus fixed overhead.
    pub fn approx_bytes(&self) -> usize {
        let points = self.dataset.points();
        let cols = self.dataset.names().len() + 1;
        points * cols * std::mem::size_of::<f64>() + 512
    }
}

/// One run's registry entry.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The run's id.
    pub id: RunId,
    /// Value-sensitive key of the deck the run executed.
    pub deck_key: DeckKey,
    /// Canonical key of the analysis.
    pub analysis_key: AnalysisKey,
    /// Analysis tag (`op` / `dc` / `tran` / ...).
    pub analysis: &'static str,
    /// Lifecycle state.
    pub status: RunStatus,
    /// How the answer was produced (meaningful once `Done`).
    pub cache: CacheDisposition,
    /// Symbolic analyses (full factorizations) this run paid. Zero on
    /// warm-session and result-hit paths — the acceptance telemetry.
    pub full_factors: u64,
    /// Values-only refactorizations this run performed.
    pub refactors: u64,
    /// The result payload; `None` while pending/failed or after eviction.
    pub result: Option<RunResult>,
    /// Whether a once-present payload was evicted.
    pub evicted: bool,
    /// Projected payload bytes reserved against the store capacity while
    /// the run executes. Always settled back to zero on every terminal
    /// transition (finish / fail / cancel), so a run that dies `Running`
    /// can never strand reservation in the eviction budget.
    pub reserved: usize,
}

/// The run registry with LRU-by-bytes payload eviction.
#[derive(Debug)]
pub struct ResultStore {
    next: u64,
    records: Vec<RunRecord>,
    /// Run ids with live payloads, least-recently-used first.
    lru: Vec<RunId>,
    capacity_bytes: usize,
    bytes: usize,
    /// Sum of in-flight reservations (see [`RunRecord::reserved`]).
    reserved: usize,
    /// Records whose status is pending (queued or running), kept by
    /// [`ResultStore::set_status`] so admission control need not scan.
    pending: usize,
    evictions: u64,
}

impl ResultStore {
    /// Creates a store that evicts result payloads LRU once their summed
    /// approximate size exceeds `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> ResultStore {
        ResultStore {
            next: 1,
            records: Vec::new(),
            lru: Vec::new(),
            capacity_bytes,
            bytes: 0,
            reserved: 0,
            pending: 0,
            evictions: 0,
        }
    }

    /// Registers a new run in [`RunStatus::Queued`] state and returns its id.
    pub fn create(
        &mut self,
        deck_key: DeckKey,
        analysis_key: AnalysisKey,
        analysis: &'static str,
    ) -> RunId {
        let id = RunId(self.next);
        self.next += 1;
        self.records.push(RunRecord {
            id,
            deck_key,
            analysis_key,
            analysis,
            status: RunStatus::Queued,
            cache: CacheDisposition::Cold,
            full_factors: 0,
            refactors: 0,
            result: None,
            evicted: false,
            reserved: 0,
        });
        self.pending += 1;
        id
    }

    /// The one place a record's status changes, keeping the pending count
    /// in step with the transition.
    fn set_status(&mut self, i: usize, status: RunStatus) {
        let was = self.records[i].status.is_pending();
        let now = status.is_pending();
        self.records[i].status = status;
        match (was, now) {
            (false, true) => self.pending += 1,
            (true, false) => self.pending -= 1,
            _ => {}
        }
    }

    fn index(&self, id: RunId) -> Option<usize> {
        // Ids are dense and monotonic from 1; direct index with a guard.
        let i = (id.0 as usize).checked_sub(1)?;
        (i < self.records.len()).then_some(i)
    }

    /// Immutable record lookup.
    pub fn get(&self, id: RunId) -> Option<&RunRecord> {
        self.index(id).map(|i| &self.records[i])
    }

    /// Marks a run as running, reserving `reserve_bytes` of projected
    /// payload against the store capacity until the run settles. The
    /// reservation participates in the LRU budget (old payloads are
    /// evicted to make room for in-flight work) and is released on every
    /// terminal transition.
    pub fn start(&mut self, id: RunId, reserve_bytes: usize) {
        if let Some(i) = self.index(id) {
            self.set_status(i, RunStatus::Running);
            self.records[i].reserved = reserve_bytes;
            self.reserved += reserve_bytes;
            self.enforce_capacity();
        }
    }

    /// Releases a run's in-flight reservation (idempotent).
    fn release_reservation(&mut self, i: usize) {
        self.reserved -= self.records[i].reserved;
        self.records[i].reserved = 0;
    }

    /// Completes a run with its payload and cache provenance, then evicts
    /// LRU payloads until the store fits its capacity again. The run's
    /// reservation is settled against the actual payload size.
    pub fn finish(
        &mut self,
        id: RunId,
        result: RunResult,
        cache: CacheDisposition,
        full_factors: u64,
        refactors: u64,
    ) {
        let Some(i) = self.index(id) else { return };
        self.release_reservation(i);
        self.bytes += result.approx_bytes();
        self.set_status(i, RunStatus::Done);
        let rec = &mut self.records[i];
        rec.cache = cache;
        rec.full_factors = full_factors;
        rec.refactors = refactors;
        rec.result = Some(result);
        self.lru.push(id);
        self.enforce_capacity();
    }

    /// Fails a run with the structured engine error, releasing its
    /// reservation.
    pub fn fail(&mut self, id: RunId, error: SimError) {
        if let Some(i) = self.index(id) {
            self.release_reservation(i);
            self.set_status(
                i,
                RunStatus::Failed {
                    error: Box::new(error),
                },
            );
        }
    }

    /// Cancels a pending (queued or running) run, releasing its
    /// reservation. Returns whether the run transitioned; terminal runs
    /// (done / failed / already cancelled) and unknown ids return `false`.
    pub fn cancel(&mut self, id: RunId) -> bool {
        let Some(i) = self.index(id) else {
            return false;
        };
        if !self.records[i].status.is_pending() {
            return false;
        }
        self.release_reservation(i);
        self.set_status(i, RunStatus::Cancelled);
        true
    }

    /// Pending (queued or running) runs — the admission-control gauge.
    /// O(1): the count is kept on every status transition.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Fetches a finished run's record, refreshing its LRU position.
    pub fn touch(&mut self, id: RunId) -> Option<&RunRecord> {
        let i = self.index(id)?;
        if self.records[i].result.is_some() {
            if let Some(pos) = self.lru.iter().position(|&r| r == id) {
                let id = self.lru.remove(pos);
                self.lru.push(id);
            }
        }
        Some(&self.records[i])
    }

    /// Explicitly drops a run's result payload. Returns whether a payload
    /// was present. Explicit eviction does not count toward the LRU
    /// eviction telemetry.
    pub fn evict(&mut self, id: RunId) -> bool {
        let Some(i) = self.index(id) else {
            return false;
        };
        match self.records[i].result.take() {
            Some(payload) => {
                self.bytes -= payload.approx_bytes();
                self.records[i].evicted = true;
                self.lru.retain(|&r| r != id);
                true
            }
            None => false,
        }
    }

    fn enforce_capacity(&mut self) {
        while self.bytes + self.reserved > self.capacity_bytes && self.lru.len() > 1 {
            let victim = self.lru.remove(0);
            if let Some(i) = self.index(victim) {
                if let Some(payload) = self.records[i].result.take() {
                    self.bytes -= payload.approx_bytes();
                    self.records[i].evicted = true;
                    self.evictions += 1;
                }
            }
        }
    }

    /// Number of runs ever registered.
    pub fn runs(&self) -> usize {
        self.records.len()
    }

    /// Approximate bytes of live result payloads.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Bytes reserved by in-flight (running) runs.
    pub fn reserved(&self) -> usize {
        self.reserved
    }

    /// Store payload capacity in approximate bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Payloads evicted by the capacity policy (not explicit `evict`s).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Iterates all records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &RunRecord> {
        self.records.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> (DeckKey, AnalysisKey) {
        (DeckKey(1), AnalysisKey(2))
    }

    fn dataset() -> Dataset {
        // A small synthetic op-point dataset.
        Dataset::from_op(
            "test",
            vec!["a".into(), "b".into()],
            vec![1.0, 2.0],
            nanosim_core::EngineStats::default(),
        )
    }

    #[test]
    fn ids_are_monotonic_from_one() {
        let (dk, ak) = key();
        let mut store = ResultStore::new(usize::MAX);
        assert_eq!(store.create(dk, ak, "op"), RunId(1));
        assert_eq!(store.create(dk, ak, "op"), RunId(2));
        assert!(matches!(
            store.get(RunId(1)).unwrap().status,
            RunStatus::Queued
        ));
        assert!(store.get(RunId(3)).is_none());
    }

    #[test]
    fn lifecycle_and_explicit_evict() {
        let (dk, ak) = key();
        let mut store = ResultStore::new(usize::MAX);
        let id = store.create(dk, ak, "op");
        store.start(id, 0);
        assert_eq!(store.get(id).unwrap().status.tag(), "running");
        store.finish(
            id,
            RunResult { dataset: dataset() },
            CacheDisposition::Cold,
            1,
            0,
        );
        assert_eq!(store.get(id).unwrap().status.tag(), "done");
        assert!(store.get(id).unwrap().result.is_some());
        assert!(store.evict(id));
        assert!(!store.evict(id));
        let rec = store.get(id).unwrap();
        assert!(rec.evicted && rec.result.is_none());
        assert_eq!(rec.status.tag(), "done");
        assert_eq!(
            store.evictions(),
            0,
            "explicit evicts are not LRU telemetry"
        );
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let (dk, ak) = key();
        // Each op payload is ~512 + 3*8 bytes; capacity fits about two.
        let mut store = ResultStore::new(1200);
        let a = store.create(dk, ak, "op");
        let b = store.create(dk, ak, "op");
        let c = store.create(dk, ak, "op");
        for id in [a, b, c] {
            store.finish(
                id,
                RunResult { dataset: dataset() },
                CacheDisposition::Cold,
                1,
                0,
            );
        }
        assert_eq!(store.evictions(), 1);
        assert!(
            store.get(a).unwrap().evicted,
            "oldest payload evicted first"
        );
        assert!(store.get(c).unwrap().result.is_some());
        // Touching b makes the *next* eviction pick c.
        store.touch(b);
        let d = store.create(dk, ak, "op");
        store.finish(
            d,
            RunResult { dataset: dataset() },
            CacheDisposition::Cold,
            1,
            0,
        );
        assert!(store.get(c).unwrap().evicted);
        assert!(store.get(b).unwrap().result.is_some());
    }

    #[test]
    fn failed_and_cancelled_runs_release_their_reservation() {
        let (dk, ak) = key();
        let mut store = ResultStore::new(usize::MAX);
        let a = store.create(dk, ak, "op");
        let b = store.create(dk, ak, "op");
        let c = store.create(dk, ak, "op");
        store.start(a, 1000);
        store.start(b, 2000);
        store.start(c, 4000);
        assert_eq!(store.reserved(), 7000);
        store.fail(
            a,
            nanosim_core::SimError::InvalidConfig {
                context: "x".into(),
            },
        );
        assert_eq!(store.reserved(), 6000, "fail releases the reservation");
        assert!(store.cancel(b));
        assert_eq!(store.reserved(), 4000, "cancel releases the reservation");
        assert_eq!(store.get(b).unwrap().status.tag(), "cancelled");
        assert!(!store.cancel(b), "cancel is terminal");
        store.finish(
            c,
            RunResult { dataset: dataset() },
            CacheDisposition::Cold,
            1,
            0,
        );
        assert_eq!(store.reserved(), 0, "finish settles the reservation");
        assert!(store.bytes() > 0);
        assert!(!store.cancel(c), "done runs cannot be cancelled");
    }

    #[test]
    fn reservations_pressure_the_lru_budget() {
        let (dk, ak) = key();
        // Capacity fits about two finished op payloads (~536 bytes each).
        let mut store = ResultStore::new(1200);
        let a = store.create(dk, ak, "op");
        let b = store.create(dk, ak, "op");
        for id in [a, b] {
            store.start(id, 0);
            store.finish(
                id,
                RunResult { dataset: dataset() },
                CacheDisposition::Cold,
                1,
                0,
            );
        }
        assert_eq!(store.evictions(), 0);
        // A large in-flight reservation evicts the oldest payload to make
        // room for the run in progress.
        let c = store.create(dk, ak, "op");
        store.start(c, 600);
        assert!(store.get(a).unwrap().evicted, "reservation evicts LRU");
        assert_eq!(store.pending(), 1);
    }

    #[test]
    fn pending_counter_matches_a_full_scan() {
        let (dk, ak) = key();
        let scan = |s: &ResultStore| s.iter().filter(|r| r.status.is_pending()).count();
        // Small capacity, so finishing runs also evicts payloads.
        let mut store = ResultStore::new(1200);
        let mut ids = Vec::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for step in 0..400 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let pick = |n: usize| (state >> 8) as usize % n.max(1);
            match state % 8 {
                // hold: registered, left queued
                0 | 1 => ids.push(store.create(dk, ak, "op")),
                2 if !ids.is_empty() => store.start(ids[pick(ids.len())], 64),
                3 if !ids.is_empty() => store.finish(
                    ids[pick(ids.len())],
                    RunResult { dataset: dataset() },
                    CacheDisposition::Cold,
                    1,
                    0,
                ),
                4 if !ids.is_empty() => store.fail(
                    ids[pick(ids.len())],
                    nanosim_core::SimError::InvalidConfig {
                        context: "x".into(),
                    },
                ),
                5 if !ids.is_empty() => {
                    store.cancel(ids[pick(ids.len())]);
                }
                6 if !ids.is_empty() => {
                    store.evict(ids[pick(ids.len())]);
                }
                _ => {
                    store.touch(RunId(pick(ids.len() + 2) as u64));
                }
            }
            assert_eq!(store.pending(), scan(&store), "step {step}");
        }
        assert!(store.evictions() > 0, "the sequence must exercise eviction");
        assert!(ids
            .iter()
            .any(|&id| store.get(id).unwrap().status.tag() == "cancelled"));
        assert!(ids
            .iter()
            .any(|&id| store.get(id).unwrap().status.tag() == "failed"));
    }
}
