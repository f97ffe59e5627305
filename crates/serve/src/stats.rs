//! Service-level telemetry: request counters, cache hit/miss accounting at
//! both cache levels (symbolic/session and full-result), eviction counts,
//! and per-analysis wall-clock histograms.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Duration;

/// Log-scale wall-clock histogram: bucket `i` counts runs with latency
/// below `10^i × 100 µs` (last bucket is open-ended).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; Histogram::BUCKETS],
}

impl Histogram {
    /// Number of buckets.
    pub const BUCKETS: usize = 6;

    /// Upper bounds (exclusive) in microseconds; the last bucket catches
    /// everything slower.
    pub const BOUNDS_US: [u64; Histogram::BUCKETS - 1] = [100, 1_000, 10_000, 100_000, 1_000_000];

    /// Human-readable bucket labels, aligned with the JSON rendering.
    pub const LABELS: [&'static str; Histogram::BUCKETS] =
        ["<100us", "<1ms", "<10ms", "<100ms", "<1s", ">=1s"];

    /// Records one observation.
    pub fn record(&mut self, elapsed: Duration) {
        let us = elapsed.as_micros();
        let bucket = Histogram::BOUNDS_US
            .iter()
            .position(|&bound| us < u128::from(bound))
            .unwrap_or(Histogram::BUCKETS - 1);
        self.counts[bucket] += 1;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Per-bucket counts, fastest bucket first.
    pub fn counts(&self) -> &[u64; Histogram::BUCKETS] {
        &self.counts
    }

    /// Renders as `{"<100us":n, ..., ">=1s":n}` (insertion-ordered).
    pub fn to_json(&self) -> Json {
        Json::Obj(
            Histogram::LABELS
                .iter()
                .zip(self.counts.iter())
                .map(|(label, &n)| ((*label).to_string(), Json::from(n)))
                .collect(),
        )
    }
}

/// Cumulative service telemetry.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Protocol requests handled (every JSON line, including invalid ones).
    pub requests: u64,
    /// Runs registered (submits and batch grid points, including failures).
    pub runs: u64,
    /// Batch requests accepted.
    pub batches: u64,
    /// Structured error responses produced.
    pub errors: u64,
    /// Result-cache hits: answered bit-identically with no engine run.
    pub result_hits: u64,
    /// Result-cache misses: an engine actually ran.
    pub result_misses: u64,
    /// Session-pool hits on the identical deck (no rebind needed).
    pub session_same_deck: u64,
    /// Session-pool warm rebinds: symbolic analysis reused across decks.
    pub session_warm: u64,
    /// Sessions built cold (symbolic analysis paid).
    pub session_cold: u64,
    /// Result payloads evicted by the store's LRU capacity policy.
    pub store_evictions: u64,
    /// Full (symbolic + numeric) factorizations paid by engine runs.
    pub full_factors: u64,
    /// Values-only refactorizations performed by engine runs.
    pub refactors: u64,
    /// Ensemble chunks whose per-path capacitance matrices were factored
    /// against one shared template (EM runs with parameter spread).
    pub batched_factors: u64,
    /// Requests shed by admission control (`overloaded` responses).
    pub shed: u64,
    /// Runs that failed with [`nanosim_core::SimError::BudgetExceeded`].
    pub budget_exceeded: u64,
    /// Budget-exceeded runs whose stop was specifically the wall-clock
    /// deadline (a subset of `budget_exceeded`).
    pub deadline_timeouts: u64,
    /// Runs cancelled before completion (explicit `cancel` command or a
    /// tripped cancel token).
    pub cancelled: u64,
    /// Per-analysis wall-clock histograms (key: analysis tag).
    pub wall_clock: BTreeMap<&'static str, Histogram>,
}

impl ServeStats {
    /// Records one finished engine run.
    pub fn record_run(&mut self, analysis: &'static str, elapsed: Duration) {
        self.wall_clock.entry(analysis).or_default().record(elapsed);
    }

    /// Renders the full telemetry object (stable field order).
    pub fn to_json(&self) -> Json {
        let histograms = Json::Obj(
            self.wall_clock
                .iter()
                .map(|(tag, h)| ((*tag).to_string(), h.to_json()))
                .collect(),
        );
        Json::Obj(vec![
            ("requests".to_string(), Json::from(self.requests)),
            ("runs".to_string(), Json::from(self.runs)),
            ("batches".to_string(), Json::from(self.batches)),
            ("errors".to_string(), Json::from(self.errors)),
            ("result_hits".to_string(), Json::from(self.result_hits)),
            ("result_misses".to_string(), Json::from(self.result_misses)),
            (
                "session_same_deck".to_string(),
                Json::from(self.session_same_deck),
            ),
            ("session_warm".to_string(), Json::from(self.session_warm)),
            ("session_cold".to_string(), Json::from(self.session_cold)),
            (
                "store_evictions".to_string(),
                Json::from(self.store_evictions),
            ),
            ("full_factors".to_string(), Json::from(self.full_factors)),
            ("refactors".to_string(), Json::from(self.refactors)),
            (
                "batched_factors".to_string(),
                Json::from(self.batched_factors),
            ),
            ("shed".to_string(), Json::from(self.shed)),
            (
                "budget_exceeded".to_string(),
                Json::from(self.budget_exceeded),
            ),
            (
                "deadline_timeouts".to_string(),
                Json::from(self.deadline_timeouts),
            ),
            ("cancelled".to_string(), Json::from(self.cancelled)),
            ("wall_clock".to_string(), histograms),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_latency() {
        let mut h = Histogram::default();
        h.record(Duration::from_micros(5)); // <100us
        h.record(Duration::from_micros(99)); // <100us
        h.record(Duration::from_micros(100)); // <1ms (bound is exclusive)
        h.record(Duration::from_millis(5)); // <10ms
        h.record(Duration::from_secs(2)); // >=1s
        assert_eq!(h.counts(), &[2, 1, 1, 0, 0, 1]);
        assert_eq!(h.total(), 5);
    }

    #[test]
    fn stats_render_all_counters_and_histograms() {
        let mut s = ServeStats {
            requests: 3,
            result_hits: 1,
            ..ServeStats::default()
        };
        s.record_run("dc", Duration::from_millis(2));
        s.record_run("dc", Duration::from_micros(50));
        s.record_run("op", Duration::from_micros(50));
        let j = s.to_json().render();
        assert!(j.contains("\"requests\":3"), "{j}");
        assert!(j.contains("\"result_hits\":1"), "{j}");
        assert!(
            j.contains("\"dc\":{\"<100us\":1,\"<1ms\":0,\"<10ms\":1"),
            "{j}"
        );
        assert!(j.contains("\"op\":"), "{j}");
    }
}
