//! The in-process simulation service: accepts deck text, runs analyses
//! through pooled sessions, answers repeats from the result cache, and
//! registers every run in the [`ResultStore`].

use crate::error::ServeError;
use crate::key::{AnalysisKey, DeckKey, RequestKey, TopologyKey};
use crate::pool::SessionPool;
use crate::stats::ServeStats;
use crate::store::{CacheDisposition, ResultStore, RunId, RunRecord, RunResult, RunStatus};
use nanosim_circuit::{parse_netlist_with_params, AnalysisDirective, ParsedDeck};
use nanosim_core::swec::SwecOptions;
use nanosim_core::{Analysis, Budget, BudgetStop, CancelToken, Dataset, SimOptions};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Options for every pooled [`nanosim_core::Simulator`] session.
    pub sim: SimOptions,
    /// Maximum pooled sessions (LRU-evicted beyond this).
    pub session_capacity: usize,
    /// Result-store payload capacity in approximate bytes.
    pub store_capacity_bytes: usize,
    /// Maximum entries in the full-result cache, and in the memo of
    /// parsed requests that lets a cached resubmit skip its parse.
    pub result_cache_capacity: usize,
    /// Default run budget applied to every engine run; unlimited unless
    /// configured. Per-request `timeout_ms` / `budget` members tighten it.
    pub budget: Budget,
    /// Admission control: maximum pending (queued + running) runs,
    /// counting the runs the incoming request would register. Requests
    /// past the limit are shed with an `overloaded` response.
    pub max_pending_runs: usize,
    /// Admission control: maximum deck text size in bytes.
    pub max_deck_bytes: usize,
    /// Admission control: maximum circuit elements per deck.
    pub max_deck_elements: usize,
    /// Chaos-testing seed: when set, every engine run is armed with a
    /// seeded [`nanosim_core::FaultPlan`] (stalls on even run ids, pivot/
    /// matrix faults on odd ones) derived from this seed and the run id.
    /// Results are never cached under chaos. CI uses this to prove the
    /// service degrades structurally — never panics — under fault storms
    /// combined with tight budgets.
    pub chaos_seed: Option<u64>,
}

impl Default for ServiceOptions {
    fn default() -> ServiceOptions {
        ServiceOptions {
            sim: SimOptions::default(),
            session_capacity: 8,
            store_capacity_bytes: 64 << 20,
            result_cache_capacity: 256,
            budget: Budget::unlimited(),
            max_pending_runs: 256,
            max_deck_bytes: 1 << 20,
            max_deck_elements: 100_000,
            chaos_seed: None,
        }
    }
}

/// Per-request submit options: `.param` overrides, run budgets, and
/// queue-only registration.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// `.param` overrides applied during parsing.
    pub overrides: Vec<(String, f64)>,
    /// Per-request deadline, intersected with the service budget's.
    pub timeout: Option<Duration>,
    /// Per-request budget (replaces the service default; `timeout` still
    /// applies on top).
    pub budget: Option<Budget>,
    /// Opt into partial results: a budget-killed run salvages its accepted
    /// prefix as a truncated dataset instead of failing.
    pub allow_partial: bool,
    /// Register the runs [`crate::store::RunStatus::Queued`] without
    /// executing them; start each later with [`SimService::run_queued`]
    /// (or drop it with [`SimService::cancel`]).
    pub hold: bool,
}

/// A held (queued, not yet executed) run: its directive in the submit's
/// parsed deck, which every held run of that submit shares, and what
/// starting it needs.
#[derive(Debug, Clone)]
struct HeldRun {
    parsed: Arc<ParsedDeck>,
    directive: usize,
    run: DirectiveFacts,
    deck_key: DeckKey,
    topology: TopologyKey,
    budget: Budget,
    allow_partial: bool,
}

/// What starting one directive's run needs besides the engine: its cache
/// key, its analysis tag and the payload bytes reserved while it runs.
#[derive(Debug, Clone, Copy)]
struct DirectiveFacts {
    key: AnalysisKey,
    tag: &'static str,
    reserve: usize,
}

/// The facts of a parsed deck that admission, registration and a
/// result-cache hit need — everything but the circuit itself, so a memo
/// entry stays a few dozen bytes however large the deck.
#[derive(Debug, Clone)]
struct DeckFacts {
    deck_key: DeckKey,
    elements: usize,
    directives: Vec<DirectiveFacts>,
}

impl DirectiveFacts {
    fn of(directive: &AnalysisDirective, elements: usize) -> DirectiveFacts {
        DirectiveFacts {
            key: AnalysisKey::of(directive),
            tag: directive_tag(directive),
            reserve: projected_bytes(directive, elements),
        }
    }
}

impl DeckFacts {
    fn of(parsed: &ParsedDeck) -> DeckFacts {
        let elements = parsed.circuit.elements().len();
        DeckFacts {
            deck_key: DeckKey::of(&parsed.circuit),
            elements,
            directives: parsed
                .analyses
                .iter()
                .map(|d| DirectiveFacts::of(d, elements))
                .collect(),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Decks the service has parsed on this thread; lets tests tell the
    /// memo path from the parse path.
    static DECK_PARSES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// [`parse_netlist_with_params`], counted under test.
fn parse_deck(
    deck: &str,
    overrides: &[(String, f64)],
) -> Result<ParsedDeck, nanosim_circuit::CircuitError> {
    #[cfg(test)]
    DECK_PARSES.with(|n| n.set(n.get() + 1));
    parse_netlist_with_params(deck, overrides)
}

/// A batch request: one deck fanned out over a parameter grid. Every grid
/// point is parsed with its `.param` overrides and produces one run per
/// analysis directive in the deck, all sharing pooled sessions (the first
/// point pays the symbolic analysis; the rest rebind warm).
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// Deck text (with `.param` globals referenced via `{name}`).
    pub deck: String,
    /// Override sets, one per grid point. An empty grid means a single
    /// point with no overrides.
    pub grid: Vec<Vec<(String, f64)>>,
}

/// Expands named parameter axes into their cartesian product, first axis
/// slowest. `[("r", [1,2]), ("c", [5,6])]` yields `r=1,c=5`, `r=1,c=6`,
/// `r=2,c=5`, `r=2,c=6`.
pub fn expand_axes(axes: &[(String, Vec<f64>)]) -> Vec<Vec<(String, f64)>> {
    let mut grid: Vec<Vec<(String, f64)>> = vec![Vec::new()];
    for (name, values) in axes {
        let mut next = Vec::with_capacity(grid.len() * values.len().max(1));
        for point in &grid {
            for &v in values {
                let mut p = point.clone();
                p.push((name.clone(), v));
                next.push(p);
            }
        }
        grid = next;
    }
    grid
}

/// The in-process simulation service. See the crate docs for the
/// subsystem layout; [`crate::proto`] exposes it as a JSON-lines protocol.
#[derive(Debug)]
pub struct SimService {
    opts: ServiceOptions,
    pool: SessionPool,
    store: ResultStore,
    result_cache: HashMap<(DeckKey, AnalysisKey), Dataset>,
    /// Result-cache keys, least-recently-used first.
    cache_lru: Vec<(DeckKey, AnalysisKey)>,
    /// Facts of parsed requests, so an exact resubmit whose results are
    /// all cached is answered without a parse. At most
    /// `result_cache_capacity` entries.
    memo: HashMap<RequestKey, DeckFacts>,
    /// Memo keys, oldest first: the first to go when the memo is full.
    memo_order: VecDeque<RequestKey>,
    /// Replay context of held (queued-only) runs.
    held: HashMap<RunId, HeldRun>,
    stats: ServeStats,
}

impl Default for SimService {
    fn default() -> SimService {
        SimService::new(ServiceOptions::default())
    }
}

impl SimService {
    /// Creates a service with the given configuration.
    pub fn new(opts: ServiceOptions) -> SimService {
        SimService {
            pool: SessionPool::new(opts.session_capacity),
            store: ResultStore::new(opts.store_capacity_bytes),
            result_cache: HashMap::new(),
            cache_lru: Vec::new(),
            memo: HashMap::new(),
            memo_order: VecDeque::new(),
            held: HashMap::new(),
            stats: ServeStats::default(),
            opts,
        }
    }

    /// Submits a deck: parses it and runs every analysis directive it
    /// declares, returning one [`RunId`] per directive (engine failures
    /// are recorded per run, not returned here).
    ///
    /// # Errors
    /// Returns a structured [`ServeError`] when the deck fails to parse or
    /// declares no analyses — no runs are registered in that case.
    pub fn submit(&mut self, deck: &str) -> Result<Vec<RunId>, ServeError> {
        self.submit_opts(deck, &[])
    }

    /// [`SimService::submit`] with `.param` overrides.
    ///
    /// # Errors
    /// Same contract as [`SimService::submit`].
    pub fn submit_opts(
        &mut self,
        deck: &str,
        overrides: &[(String, f64)],
    ) -> Result<Vec<RunId>, ServeError> {
        self.submit_with(
            deck,
            &SubmitOptions {
                overrides: overrides.to_vec(),
                ..SubmitOptions::default()
            },
        )
    }

    /// Sheds the request and counts it in the telemetry.
    fn shed(&mut self, message: String) -> ServeError {
        self.stats.shed += 1;
        ServeError::overloaded(message)
    }

    /// The effective budget of one request: the per-request budget (or the
    /// service default) intersected with the per-request deadline.
    fn effective_budget(&self, opts: &SubmitOptions) -> Budget {
        let mut b = opts.budget.unwrap_or(self.opts.budget);
        if let Some(t) = opts.timeout {
            b.deadline = Some(b.deadline.map_or(t, |d| d.min(t)));
        }
        b
    }

    /// Full submit entry point: admission control, registration, and —
    /// unless `opts.hold` is set — execution of every directive.
    ///
    /// # Errors
    /// [`ServeError::Overloaded`] when an admission limit trips (nothing
    /// is registered), plus the [`SimService::submit`] contract.
    pub fn submit_with(
        &mut self,
        deck: &str,
        opts: &SubmitOptions,
    ) -> Result<Vec<RunId>, ServeError> {
        // Admission control, cheapest gate first: everything is checked
        // before any run is registered, so a shed request leaves no trace
        // beyond the counter.
        if deck.len() > self.opts.max_deck_bytes {
            let (got, max) = (deck.len(), self.opts.max_deck_bytes);
            return Err(self.shed(format!("deck is {got} bytes (limit {max})")));
        }
        // Level 0: the memo of parsed requests. Held runs keep their parse
        // until they start, and chaos services never cache results, so
        // neither looks.
        let request = (!opts.hold && self.opts.chaos_seed.is_none())
            .then(|| RequestKey::of(deck, &opts.overrides));
        if let Some(facts) = request.and_then(|k| self.memo.get(&k)) {
            let deck_key = facts.deck_key;
            let cached = |d: &DirectiveFacts| self.result_cache.contains_key(&(deck_key, d.key));
            if facts.directives.iter().all(cached) {
                let facts = facts.clone();
                return self.answer_from_cache(&facts);
            }
        }

        let parsed = parse_deck(deck, &opts.overrides)?;
        if parsed.analyses.is_empty() {
            return Err(ServeError::protocol(
                "deck declares no analyses (.op/.dc/.tran)",
            ));
        }
        let facts = DeckFacts::of(&parsed);
        self.admit(&facts)?;
        if let Some(key) = request {
            self.remember(key, &facts);
        }

        let budget = self.effective_budget(opts);
        let topology = TopologyKey::of(&parsed.circuit);
        // Register every directive before running, so a multi-analysis
        // deck's later runs are observable as queued while earlier ones
        // execute.
        let ids = self.register(&facts);
        if opts.hold {
            let parsed = Arc::new(parsed);
            for ((directive, id), run) in ids.iter().enumerate().zip(&facts.directives) {
                self.held.insert(
                    *id,
                    HeldRun {
                        parsed: Arc::clone(&parsed),
                        directive,
                        run: *run,
                        deck_key: facts.deck_key,
                        topology,
                        budget,
                        allow_partial: opts.allow_partial,
                    },
                );
            }
            return Ok(ids);
        }
        for ((id, directive), run) in ids
            .iter()
            .zip(parsed.analyses.iter())
            .zip(facts.directives.iter())
        {
            self.run_one(
                *id,
                &parsed,
                directive,
                run,
                facts.deck_key,
                topology,
                budget,
                opts.allow_partial,
            );
        }
        Ok(ids)
    }

    /// The element and pending-run gates of admission control, shared by
    /// the parse and memo paths so both shed alike.
    fn admit(&mut self, facts: &DeckFacts) -> Result<(), ServeError> {
        if facts.elements > self.opts.max_deck_elements {
            let (got, max) = (facts.elements, self.opts.max_deck_elements);
            return Err(self.shed(format!("deck has {got} elements (limit {max})")));
        }
        let pending = self.store.pending() + facts.directives.len();
        if pending > self.opts.max_pending_runs {
            let max = self.opts.max_pending_runs;
            return Err(self.shed(format!("{pending} runs pending (limit {max})")));
        }
        Ok(())
    }

    /// Registers one queued run per directive.
    fn register(&mut self, facts: &DeckFacts) -> Vec<RunId> {
        facts
            .directives
            .iter()
            .map(|d| {
                self.stats.runs += 1;
                self.store.create(facts.deck_key, d.key, d.tag)
            })
            .collect()
    }

    /// Remembers a parsed request's facts, dropping the oldest entry past
    /// `result_cache_capacity`.
    fn remember(&mut self, key: RequestKey, facts: &DeckFacts) {
        if self.memo.insert(key, facts.clone()).is_none() {
            self.memo_order.push_back(key);
        }
        while self.memo_order.len() > self.opts.result_cache_capacity.max(1) {
            if let Some(old) = self.memo_order.pop_front() {
                self.memo.remove(&old);
            }
        }
    }

    /// Admits, registers and finishes a remembered request whose every
    /// directive is in the result cache, without parsing its deck.
    fn answer_from_cache(&mut self, facts: &DeckFacts) -> Result<Vec<RunId>, ServeError> {
        self.admit(facts)?;
        let ids = self.register(facts);
        for (id, run) in ids.iter().zip(&facts.directives) {
            self.store.start(*id, run.reserve);
            let answered =
                self.finish_from_cache(*id, (facts.deck_key, run.key), run.tag, Instant::now());
            debug_assert!(answered, "memo path checked every directive is cached");
        }
        Ok(ids)
    }

    /// Starts a held (queued) run registered via [`SubmitOptions::hold`].
    ///
    /// # Errors
    /// [`ServeError::UnknownRun`] for never-assigned ids; a protocol error
    /// when the run is not a held queued run (already started, finished,
    /// or cancelled).
    pub fn run_queued(&mut self, id: RunId) -> Result<(), ServeError> {
        let rec = self
            .store
            .get(id)
            .ok_or(ServeError::UnknownRun { run: id.0 })?;
        if !matches!(rec.status, RunStatus::Queued) {
            return Err(ServeError::protocol(format!(
                "run {id} is not queued (status: {})",
                rec.status.tag()
            )));
        }
        let held = self
            .held
            .remove(&id)
            .ok_or_else(|| ServeError::protocol(format!("run {id} was not submitted with hold")))?;
        self.run_one(
            id,
            &held.parsed,
            &held.parsed.analyses[held.directive],
            &held.run,
            held.deck_key,
            held.topology,
            held.budget,
            held.allow_partial,
        );
        Ok(())
    }

    /// Cancels a pending (queued or running) run: held runs are dropped
    /// from the queue and marked [`RunStatus::Cancelled`]. Returns whether
    /// the run transitioned (terminal runs return `false`).
    ///
    /// # Errors
    /// [`ServeError::UnknownRun`] when the id was never assigned.
    pub fn cancel(&mut self, id: RunId) -> Result<bool, ServeError> {
        self.store
            .get(id)
            .ok_or(ServeError::UnknownRun { run: id.0 })?;
        let cancelled = self.store.cancel(id);
        if cancelled {
            self.held.remove(&id);
            self.stats.cancelled += 1;
        }
        Ok(cancelled)
    }

    /// Fans a batch request's parameter grid into individual runs: one
    /// submit per grid point, all sharing pooled sessions.
    ///
    /// # Errors
    /// Returns a structured [`ServeError`] when the deck fails to parse
    /// (uniform across grid points, so the whole batch is rejected).
    pub fn batch(&mut self, req: &BatchRequest) -> Result<Vec<RunId>, ServeError> {
        self.stats.batches += 1;
        let empty = vec![Vec::new()];
        let grid: &[Vec<(String, f64)>] = if req.grid.is_empty() {
            &empty
        } else {
            &req.grid
        };
        let mut ids = Vec::new();
        for point in grid {
            ids.extend(self.submit_opts(&req.deck, point)?);
        }
        Ok(ids)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_one(
        &mut self,
        id: RunId,
        parsed: &ParsedDeck,
        directive: &AnalysisDirective,
        run: &DirectiveFacts,
        deck_key: DeckKey,
        topology: TopologyKey,
        budget: Budget,
        allow_partial: bool,
    ) {
        let (analysis_key, tag) = (run.key, run.tag);
        self.store.start(id, run.reserve);
        let t0 = Instant::now();

        // Level 1: the full-result cache.
        if self.finish_from_cache(id, (deck_key, analysis_key), tag, t0) {
            return;
        }
        self.stats.result_misses += 1;

        // Level 2: the session pool (symbolic/topology cache).
        let checkout = self
            .pool
            .checkout(topology, deck_key, &parsed.circuit, &self.opts.sim);
        let (sim, disposition) = match checkout {
            Ok(pair) => pair,
            Err(e) => {
                self.store.fail(id, e);
                return;
            }
        };
        match disposition {
            CacheDisposition::Cold => self.stats.session_cold += 1,
            CacheDisposition::WarmSession => self.stats.session_warm += 1,
            CacheDisposition::SameDeck => self.stats.session_same_deck += 1,
            CacheDisposition::ResultHit => unreachable!("pool never reports result hits"),
        }

        let swec = SwecOptions {
            allow_partial,
            ..SwecOptions::default()
        };
        let analysis = Analysis::from_directive(directive, &swec);
        if let Some(seed) = self.opts.chaos_seed {
            let n = parsed.circuit.elements().len().max(1);
            let plan = if id.0 % 2 == 0 {
                nanosim_core::FaultPlan::seeded_stalls(seed ^ id.0, 8, 2, 200_000)
            } else {
                nanosim_core::FaultPlan::seeded(seed ^ id.0, n, 8, 2)
            };
            sim.arm_faults(plan);
        }
        sim.set_budget(budget);
        sim.set_cancel_token(CancelToken::new());
        let outcome = sim.run(analysis);
        // Pooled sessions outlive the request; never let one run's budget
        // leak into the next checkout.
        sim.set_budget(Budget::unlimited());
        match outcome {
            Ok(dataset) => {
                let elapsed = t0.elapsed();
                self.stats.full_factors += dataset.stats.full_factors;
                self.stats.refactors += dataset.stats.refactors;
                self.stats.batched_factors += dataset.stats.batched_factors;
                self.stats.record_run(tag, elapsed);
                let (ff, rf) = (dataset.stats.full_factors, dataset.stats.refactors);
                // Only complete, unbudgeted runs may seed the result cache:
                // a truncated prefix or a budget-limited dataset answering a
                // later unlimited submit would poison bit-identity.
                if budget.is_unlimited()
                    && !dataset.is_truncated()
                    && self.opts.chaos_seed.is_none()
                {
                    self.insert_cached((deck_key, analysis_key), dataset.clone());
                }
                self.store
                    .finish(id, RunResult { dataset }, disposition, ff, rf);
                self.stats.store_evictions = self.store.evictions();
            }
            Err(e) => {
                match e.budget_stop() {
                    Some(BudgetStop::Cancelled) => {
                        self.stats.cancelled += 1;
                        self.store.cancel(id);
                        return;
                    }
                    Some(stop) => {
                        self.stats.budget_exceeded += 1;
                        if matches!(stop, BudgetStop::DeadlineExceeded) {
                            self.stats.deadline_timeouts += 1;
                        }
                    }
                    None => {}
                }
                self.store.fail(id, e);
            }
        }
    }

    /// Finishes a started run from the result cache when `key` is cached,
    /// returning whether it did. Hits are bit-identical to cold runs
    /// because every engine is deterministic for a given deck.
    fn finish_from_cache(
        &mut self,
        id: RunId,
        key: (DeckKey, AnalysisKey),
        tag: &'static str,
        t0: Instant,
    ) -> bool {
        let Some(ds) = self.result_cache.get(&key) else {
            return false;
        };
        let dataset = ds.clone();
        self.touch_cache_key(key);
        self.stats.result_hits += 1;
        self.stats.record_run(tag, t0.elapsed());
        self.store
            .finish(id, RunResult { dataset }, CacheDisposition::ResultHit, 0, 0);
        self.stats.store_evictions = self.store.evictions();
        true
    }

    fn touch_cache_key(&mut self, key: (DeckKey, AnalysisKey)) {
        if let Some(pos) = self.cache_lru.iter().position(|&k| k == key) {
            let key = self.cache_lru.remove(pos);
            self.cache_lru.push(key);
        }
    }

    fn insert_cached(&mut self, key: (DeckKey, AnalysisKey), dataset: Dataset) {
        if self.result_cache.insert(key, dataset).is_none() {
            self.cache_lru.push(key);
        } else {
            self.touch_cache_key(key);
        }
        while self.cache_lru.len() > self.opts.result_cache_capacity.max(1) {
            let victim = self.cache_lru.remove(0);
            self.result_cache.remove(&victim);
        }
    }

    /// Looks up a run's registry record (any lifecycle state).
    ///
    /// # Errors
    /// [`ServeError::UnknownRun`] when the id was never assigned.
    pub fn status(&self, id: RunId) -> Result<&RunRecord, ServeError> {
        self.store
            .get(id)
            .ok_or(ServeError::UnknownRun { run: id.0 })
    }

    /// Fetches a run's record for result delivery, refreshing its LRU
    /// position. Pending and failed runs return their record (the caller
    /// renders status/error); a finished run whose payload was evicted is
    /// a structured error.
    ///
    /// # Errors
    /// [`ServeError::UnknownRun`] / [`ServeError::Evicted`].
    pub fn result(&mut self, id: RunId) -> Result<&RunRecord, ServeError> {
        let rec = self
            .store
            .touch(id)
            .ok_or(ServeError::UnknownRun { run: id.0 })?;
        if rec.evicted && rec.result.is_none() {
            return Err(ServeError::Evicted { run: id.0 });
        }
        Ok(rec)
    }

    /// Drops a run's result payload (also removing it from the result
    /// cache, so a later identical submit re-runs the engine). Returns
    /// whether a payload was present.
    ///
    /// # Errors
    /// [`ServeError::UnknownRun`] when the id was never assigned.
    pub fn evict(&mut self, id: RunId) -> Result<bool, ServeError> {
        let rec = self
            .store
            .get(id)
            .ok_or(ServeError::UnknownRun { run: id.0 })?;
        let key = (rec.deck_key, rec.analysis_key);
        if self.result_cache.remove(&key).is_some() {
            self.cache_lru.retain(|&k| k != key);
        }
        Ok(self.store.evict(id))
    }

    /// Cumulative service telemetry.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Mutable telemetry access for the protocol layer (request/error
    /// counting lives there).
    pub fn stats_mut(&mut self) -> &mut ServeStats {
        &mut self.stats
    }

    /// Live pooled sessions.
    pub fn sessions(&self) -> usize {
        self.pool.len()
    }

    /// Approximate bytes of stored result payloads.
    pub fn store_bytes(&self) -> usize {
        self.store.bytes()
    }

    /// Runs ever registered.
    pub fn runs(&self) -> usize {
        self.store.runs()
    }

    /// Entries currently in the full-result cache.
    pub fn cached_results(&self) -> usize {
        self.result_cache.len()
    }
}

/// Projected result-payload size of a directive, reserved in the store
/// while the run executes so concurrent submissions see the pressure. An
/// estimate (the adaptive transient controller picks its own step count),
/// so it only has to be the right order of magnitude: points × columns ×
/// 8 bytes, plus a fixed overhead for names and stats.
fn projected_bytes(d: &AnalysisDirective, elements: usize) -> usize {
    let points = match d {
        AnalysisDirective::Op => 1.0,
        AnalysisDirective::Tran { tstep, tstop } => {
            if *tstep > 0.0 {
                (tstop / tstep).round().max(1.0)
            } else {
                1.0
            }
        }
        AnalysisDirective::Dc {
            start, stop, step, ..
        } => {
            if *step != 0.0 {
                ((stop - start) / step).abs().round() + 1.0
            } else {
                1.0
            }
        }
    };
    let cols = elements + 2;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let points = points.min(1e9) as usize;
    points.saturating_mul(cols).saturating_mul(8) + 512
}

/// Analysis tag of a parsed directive, aligned with
/// [`nanosim_core::Analysis::tag`].
fn directive_tag(d: &AnalysisDirective) -> &'static str {
    match d {
        AnalysisDirective::Op => "op",
        AnalysisDirective::Tran { .. } => "tran",
        AnalysisDirective::Dc { .. } => "dc",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIVIDER: &str = "V1 in 0 DC 1\nR1 in out 100\nR2 out 0 100\n.op\n.end\n";

    #[test]
    fn submit_runs_and_caches() {
        let mut svc = SimService::default();
        let ids = svc.submit(DIVIDER).unwrap();
        assert_eq!(ids, vec![RunId(1)]);
        let rec = svc.result(RunId(1)).unwrap();
        assert_eq!(rec.status.tag(), "done");
        assert_eq!(rec.cache, CacheDisposition::Cold);
        let v = rec.result.as_ref().unwrap().dataset.value("out").unwrap();
        assert!((v - 0.5).abs() < 1e-12);

        // Second submit: result-cache hit, bit-identical.
        let ids2 = svc.submit(DIVIDER).unwrap();
        assert_eq!(ids2, vec![RunId(2)]);
        let rec2 = svc.result(RunId(2)).unwrap();
        assert_eq!(rec2.cache, CacheDisposition::ResultHit);
        assert_eq!(svc.stats().result_hits, 1);
        assert_eq!(svc.stats().result_misses, 1);
    }

    #[test]
    fn expand_axes_is_cartesian_first_axis_slowest() {
        let grid = expand_axes(&[
            ("r".to_string(), vec![1.0, 2.0]),
            ("c".to_string(), vec![5.0]),
        ]);
        assert_eq!(grid.len(), 2);
        assert_eq!(
            grid[0],
            vec![("r".to_string(), 1.0), ("c".to_string(), 5.0)]
        );
        assert_eq!(
            grid[1],
            vec![("r".to_string(), 2.0), ("c".to_string(), 5.0)]
        );
        assert_eq!(expand_axes(&[]), vec![Vec::new()]);
    }

    /// Two directives over one `.param`, so a hit must cover both.
    const PARAM_DECK: &str =
        ".param r=100\nV1 in 0 DC 1\nR1 in out {r}\nR2 out 0 100\n.op\n.dc V1 0 1 0.5\n.end\n";

    fn r(v: f64) -> Vec<(String, f64)> {
        vec![("r".to_string(), v)]
    }

    fn parses() -> usize {
        DECK_PARSES.with(std::cell::Cell::get)
    }

    /// Each run's cache disposition and the bits of every dataset column.
    fn answers(svc: &mut SimService, ids: &[RunId]) -> Vec<(CacheDisposition, Vec<Vec<u64>>)> {
        ids.iter()
            .map(|&id| {
                let rec = svc.result(id).unwrap();
                let ds = &rec.result.as_ref().expect("run finished").dataset;
                let bits = ds
                    .names()
                    .iter()
                    .map(|n| ds.column(n).unwrap().iter().map(|v| v.to_bits()).collect())
                    .collect();
                (rec.cache, bits)
            })
            .collect()
    }

    /// Asserts `ids` answered with the given dispositions and the dataset
    /// bits a fresh service computes for the same request.
    fn assert_answers(
        svc: &mut SimService,
        ids: &[RunId],
        want: &[CacheDisposition],
        deck: &str,
        overrides: &[(String, f64)],
    ) {
        let got = answers(svc, ids);
        let mut fresh = SimService::default();
        let fresh_ids = fresh.submit_opts(deck, overrides).unwrap();
        let cold = answers(&mut fresh, &fresh_ids);
        let dispositions: Vec<_> = got.iter().map(|a| a.0).collect();
        assert_eq!(dispositions, want);
        for (g, c) in got.iter().zip(&cold) {
            assert_eq!(g.1, c.1, "dataset bits differ from a fresh service");
        }
    }

    #[test]
    fn identical_resubmit_of_a_cached_deck_parses_once() {
        let mut svc = SimService::default();
        let before = parses();
        let first = svc.submit_opts(PARAM_DECK, &r(120.0)).unwrap();
        let second = svc.submit_opts(PARAM_DECK, &r(120.0)).unwrap();
        assert_eq!(parses() - before, 1, "the resubmit must not parse");
        assert_eq!(second, vec![RunId(3), RunId(4)]);
        let want = [CacheDisposition::ResultHit; 2];
        assert_answers(&mut svc, &second, &want, PARAM_DECK, &r(120.0));
        let (a, b) = (answers(&mut svc, &first), answers(&mut svc, &second));
        assert_eq!(
            a.iter().map(|x| &x.1).collect::<Vec<_>>(),
            b.iter().map(|x| &x.1).collect::<Vec<_>>()
        );
        let st = svc.stats();
        assert_eq!((st.runs, st.result_hits, st.result_misses), (4, 2, 2));
        assert_eq!(svc.store.reserved(), 0, "hits release their reservations");
    }

    #[test]
    fn changed_deck_text_takes_the_parse_path() {
        let mut svc = SimService::default();
        svc.submit_opts(PARAM_DECK, &r(120.0)).unwrap();

        // One byte that changes a value: a new deck key, a warm session.
        let changed = PARAM_DECK.replace("R2 out 0 100", "R2 out 0 101");
        let before = parses();
        let ids = svc.submit_opts(&changed, &r(120.0)).unwrap();
        assert_eq!(parses() - before, 1);
        // The `.dc` follows the `.op` on the session it just rebound.
        let want = [CacheDisposition::WarmSession, CacheDisposition::SameDeck];
        assert_answers(&mut svc, &ids, &want, &changed, &r(120.0));

        // One byte that changes no value: the parse finds the same deck key
        // and answers from the result cache.
        let spaced = PARAM_DECK.replace("R2 out 0 100", "R2 out 0  100");
        let before = parses();
        let ids = svc.submit_opts(&spaced, &r(120.0)).unwrap();
        assert_eq!(parses() - before, 1);
        let want = [CacheDisposition::ResultHit; 2];
        assert_answers(&mut svc, &ids, &want, &spaced, &r(120.0));
    }

    #[test]
    fn override_one_ulp_apart_takes_the_parse_path() {
        let mut svc = SimService::default();
        svc.submit_opts(PARAM_DECK, &r(120.0)).unwrap();
        let nudged = r(f64::from_bits(120f64.to_bits() + 1));
        let before = parses();
        let ids = svc.submit_opts(PARAM_DECK, &nudged).unwrap();
        assert_eq!(parses() - before, 1);
        // The `.dc` follows the `.op` on the session it just rebound.
        let want = [CacheDisposition::WarmSession, CacheDisposition::SameDeck];
        assert_answers(&mut svc, &ids, &want, PARAM_DECK, &nudged);
    }

    #[test]
    fn held_resubmit_takes_the_parse_path() {
        let mut svc = SimService::default();
        svc.submit_opts(PARAM_DECK, &r(120.0)).unwrap();
        let hold = SubmitOptions {
            overrides: r(120.0),
            hold: true,
            ..SubmitOptions::default()
        };
        let before = parses();
        let ids = svc.submit_with(PARAM_DECK, &hold).unwrap();
        assert_eq!(parses() - before, 1);
        for &id in &ids {
            assert_eq!(svc.status(id).unwrap().status.tag(), "queued");
            svc.run_queued(id).unwrap();
        }
        assert_eq!(parses() - before, 1, "held runs share the submit's parse");
        let want = [CacheDisposition::ResultHit; 2];
        assert_answers(&mut svc, &ids, &want, PARAM_DECK, &r(120.0));
    }

    #[test]
    fn evicted_result_takes_the_parse_path() {
        let mut svc = SimService::default();
        let first = svc.submit_opts(PARAM_DECK, &r(120.0)).unwrap();
        assert!(svc.evict(first[0]).unwrap());
        let before = parses();
        let ids = svc.submit_opts(PARAM_DECK, &r(120.0)).unwrap();
        assert_eq!(parses() - before, 1);
        // The evicted `.op` re-runs on its pooled session; the `.dc` still
        // hits.
        let want = [CacheDisposition::SameDeck, CacheDisposition::ResultHit];
        assert_answers(&mut svc, &ids, &want, PARAM_DECK, &r(120.0));
    }

    #[test]
    fn result_pushed_out_of_the_cache_takes_the_parse_path() {
        let mut svc = SimService::new(ServiceOptions {
            result_cache_capacity: 1,
            ..ServiceOptions::default()
        });
        // The `.dc` result pushes the `.op` result out of a one-entry cache.
        svc.submit_opts(PARAM_DECK, &r(120.0)).unwrap();
        let before = parses();
        let ids = svc.submit_opts(PARAM_DECK, &r(120.0)).unwrap();
        assert_eq!(parses() - before, 1);
        let want = [CacheDisposition::SameDeck; 2];
        assert_answers(&mut svc, &ids, &want, PARAM_DECK, &r(120.0));

        // The memo is bounded by the same capacity.
        svc.submit_opts(PARAM_DECK, &r(130.0)).unwrap();
        assert_eq!((svc.memo.len(), svc.memo_order.len()), (1, 1));
    }

    #[test]
    fn memo_path_sheds_like_the_parse_path() {
        let mut svc = SimService::new(ServiceOptions {
            max_pending_runs: 2,
            ..ServiceOptions::default()
        });
        svc.submit_opts(PARAM_DECK, &r(120.0)).unwrap();
        let hold = SubmitOptions {
            hold: true,
            ..SubmitOptions::default()
        };
        svc.submit_with(DIVIDER, &hold).unwrap();
        let runs = svc.runs();
        let before = parses();
        let err = svc.submit_opts(PARAM_DECK, &r(120.0)).unwrap_err();
        assert_eq!(parses(), before, "shed from the memo path");
        assert_eq!(err.kind(), "overloaded");
        assert!(
            err.to_string().contains("3 runs pending (limit 2)"),
            "{err}"
        );
        assert_eq!((svc.runs(), svc.stats().shed), (runs, 1));
    }

    #[test]
    fn deck_without_analyses_is_rejected() {
        let mut svc = SimService::default();
        let err = svc.submit("V1 in 0 DC 1\nR1 in 0 100\n.end\n").unwrap_err();
        assert_eq!(err.kind(), "protocol");
        assert_eq!(svc.runs(), 0);
    }
}
