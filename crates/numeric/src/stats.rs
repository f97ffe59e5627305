//! Streaming statistics for Monte-Carlo ensembles.
//!
//! The Euler–Maruyama experiments run hundreds of stochastic paths; these
//! helpers accumulate moments without storing every sample (Welford's
//! algorithm) and estimate percentiles/histograms when samples are kept.

use std::fmt;

/// Streaming mean/variance/min/max accumulator (Welford).
///
/// # Example
/// ```
/// use nanosim_numeric::stats::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.variance(), 1.0); // sample variance
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        welford_push(self.n, &mut self.mean, &mut self.m2, x);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of samples pushed.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than two samples).
    pub fn variance(&self) -> f64 {
        sample_variance(self.n, self.m2)
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    pub fn std_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Smallest sample seen (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample seen (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        (self.mean, self.m2) = welford_merge(
            (self.n, self.mean, self.m2),
            (other.n, other.mean, other.m2),
        );
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Welford update of one accumulator by its `n`-th sample (1-based).
#[inline]
fn welford_push(n: u64, mean: &mut f64, m2: &mut f64, x: f64) {
    let delta = x - *mean;
    *mean += delta / n as f64;
    let delta2 = x - *mean;
    *m2 += delta * delta2;
}

/// Chan's pairwise combination of two non-empty `(n, mean, m2)`
/// accumulators; returns the merged `(mean, m2)`.
#[inline]
fn welford_merge(a: (u64, f64, f64), b: (u64, f64, f64)) -> (f64, f64) {
    let ((na, mean_a, m2_a), (nb, mean_b, m2_b)) = (a, b);
    let total = na + nb;
    let delta = mean_b - mean_a;
    let mean = mean_a + delta * nb as f64 / total as f64;
    let m2 = m2_a + m2_b + delta * delta * na as f64 * nb as f64 / total as f64;
    (mean, m2)
}

/// Unbiased variance from a Welford `m2` over `n` samples (0 below two).
#[inline]
fn sample_variance(n: u64, m2: f64) -> f64 {
    if n < 2 {
        0.0
    } else {
        m2 / (n - 1) as f64
    }
}

/// A block of Welford mean/variance accumulators that all see the same
/// number of samples, stored as two flat arrays (`mean`, `m2`) with one
/// shared count — 16 bytes per accumulator against a [`RunningStats`]'s 40,
/// and no min/max.
///
/// Every accumulator is updated with exactly the arithmetic of
/// [`RunningStats::push`] and [`RunningStats::merge`], so a block fed the
/// same samples in the same order holds the same bits as a vector of
/// [`RunningStats`].
///
/// # Example
/// ```
/// use nanosim_numeric::stats::{MomentBlock, RunningStats};
/// // Two accumulators, three samples each.
/// let samples = [[1.0, 4.0], [2.0, 6.0], [3.0, 11.0]];
/// let mut block = MomentBlock::new(2);
/// for (j, row) in samples.iter().enumerate() {
///     block.push(j as u64 + 1, 0, row);
/// }
/// let second: RunningStats = samples.iter().map(|r| r[1]).collect();
/// assert_eq!(block.mean(1), second.mean());
/// assert_eq!(block.std_dev(1), second.std_dev());
/// ```
#[derive(Debug, Clone)]
pub struct MomentBlock {
    n: u64,
    mean: Vec<f64>,
    m2: Vec<f64>,
}

impl MomentBlock {
    /// `len` empty accumulators.
    pub fn new(len: usize) -> Self {
        MomentBlock {
            n: 0,
            mean: vec![0.0; len],
            m2: vec![0.0; len],
        }
    }

    /// Pushes `xs[i]` as the `j`-th sample (1-based) of accumulator
    /// `start + i`. The caller numbers the samples, so accumulators may be
    /// filled in any interleaving; every accumulator must end with the same
    /// `j` samples, since the block keeps one count (the largest `j`).
    ///
    /// # Panics
    /// Panics if `j == 0` or the range runs past the block.
    pub fn push(&mut self, j: u64, start: usize, xs: &[f64]) {
        assert!(j > 0, "sample numbers are 1-based");
        let end = start + xs.len();
        let (means, m2s) = (&mut self.mean[start..end], &mut self.m2[start..end]);
        for ((mean, m2), &x) in means.iter_mut().zip(m2s.iter_mut()).zip(xs) {
            welford_push(j, mean, m2, x);
        }
        self.n = self.n.max(j);
    }

    /// Merges another block of the same length into this one, element by
    /// element with [`RunningStats::merge`]'s arithmetic.
    ///
    /// # Panics
    /// Panics on a length mismatch.
    pub fn merge(&mut self, other: &MomentBlock) {
        assert_eq!(
            self.mean.len(),
            other.mean.len(),
            "moment blocks differ in length"
        );
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            self.clone_from(other);
            return;
        }
        let (na, nb) = (self.n, other.n);
        let merged = self.mean.iter_mut().zip(self.m2.iter_mut());
        for ((mean, m2), (&mean_b, &m2_b)) in merged.zip(other.mean.iter().zip(&other.m2)) {
            (*mean, *m2) = welford_merge((na, *mean, *m2), (nb, mean_b, m2_b));
        }
        self.n += nb;
    }

    /// Sample mean of accumulator `i` (0 when empty).
    pub fn mean(&self, i: usize) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean[i]
        }
    }

    /// Sample standard deviation of accumulator `i` (0 below two samples).
    pub fn std_dev(&self, i: usize) -> f64 {
        sample_variance(self.n, self.m2[i]).sqrt()
    }
}

impl fmt::Display for RunningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.6e} std={:.6e} min={:.6e} max={:.6e}",
            self.n,
            self.mean(),
            self.std_dev(),
            self.min,
            self.max
        )
    }
}

impl Extend<f64> for RunningStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = RunningStats::new();
        s.extend(iter);
        s
    }
}

/// Percentile of a sample set by linear interpolation between order
/// statistics (the "linear" / type-7 estimator).
///
/// `q` is in `[0, 1]`. Returns `None` for an empty slice.
///
/// # Example
/// ```
/// use nanosim_numeric::stats::percentile;
/// let data = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&data, 0.5), Some(2.5));
/// ```
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let w = pos - lo as f64;
        Some(sorted[lo] * (1.0 - w) + sorted[hi] * w)
    }
}

/// A fixed-bin histogram over `[lo, hi)` with out-of-range counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "invalid histogram range [{lo}, {hi})");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Records a sample.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / (self.hi - self.lo) * self.bins.len() as f64) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Counts per bin.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples recorded, including out-of-range ones.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn empty_stats_are_neutral() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn known_small_sample() {
        let s: RunningStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!(approx_eq(s.mean(), 5.0, 1e-12));
        // population variance 4.0 -> sample variance 32/7
        assert!(approx_eq(s.variance(), 32.0 / 7.0, 1e-12));
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 3.0 + 1.0).collect();
        let all: RunningStats = data.iter().copied().collect();
        let first: RunningStats = data[..37].iter().copied().collect();
        let mut merged = first;
        let second: RunningStats = data[37..].iter().copied().collect();
        merged.merge(&second);
        assert_eq!(merged.count(), all.count());
        assert!(approx_eq(merged.mean(), all.mean(), 1e-12));
        assert!(approx_eq(merged.variance(), all.variance(), 1e-12));
        assert_eq!(merged.min(), all.min());
    }

    #[test]
    fn moment_block_matches_running_stats_bit_for_bit() {
        // Three accumulators fed interleaved, merged in two uneven parts:
        // each must equal a RunningStats fed the same samples.
        let sample = |j: usize, i: usize| ((j * 7 + i * 3) as f64 * 0.37).sin() * 1e-3 + 0.5;
        let (parts, len) = ([5usize, 3], 3);
        let mut total = MomentBlock::new(len);
        let mut reference = vec![RunningStats::new(); len];
        let mut offset = 0;
        for &n in &parts {
            let mut block = MomentBlock::new(len);
            let mut part = vec![RunningStats::new(); len];
            for j in 0..n {
                let row: Vec<f64> = (0..len).map(|i| sample(offset + j, i)).collect();
                // Accumulator 0 alone, then the other two.
                block.push(j as u64 + 1, 0, &row[..1]);
                block.push(j as u64 + 1, 1, &row[1..]);
                for (s, &x) in part.iter_mut().zip(&row) {
                    s.push(x);
                }
            }
            total.merge(&block);
            for (r, p) in reference.iter_mut().zip(&part) {
                r.merge(p);
            }
            offset += n;
        }
        for (i, r) in reference.iter().enumerate() {
            assert_eq!(total.mean(i).to_bits(), r.mean().to_bits());
            assert_eq!(total.std_dev(i).to_bits(), r.std_dev().to_bits());
        }
        let empty = MomentBlock::new(2);
        assert_eq!((empty.mean(0), empty.std_dev(1)), (0.0, 0.0));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: RunningStats = [1.0, 2.0].into_iter().collect();
        let before = s;
        s.merge(&RunningStats::new());
        assert_eq!(s, before);
        let mut e = RunningStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn percentile_edges() {
        let data = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&data, 0.0), Some(1.0));
        assert_eq!(percentile(&data, 1.0), Some(3.0));
        assert_eq!(percentile(&data, 0.5), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&data, 1.5), None);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [0.0, 10.0];
        assert!(approx_eq(percentile(&data, 0.25).unwrap(), 2.5, 1e-12));
    }

    #[test]
    fn histogram_bins_and_ranges() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.5, 2.5, 9.9, -1.0, 10.0, 11.0] {
            h.push(x);
        }
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 7);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        Histogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn display_shows_summary() {
        let s: RunningStats = [1.0].into_iter().collect();
        assert!(s.to_string().contains("n=1"));
    }
}
