//! Deterministic pseudo-random number generation.
//!
//! The stochastic (Euler–Maruyama) experiments must be reproducible, so the
//! workspace carries its own small PRNG instead of an external dependency:
//! a PCG64-family generator (128-bit LCG state with XSL-RR output) and
//! Gaussian variates from the ziggurat of Marsaglia & Tsang ("The Ziggurat
//! Method for Generating Random Variables", J. Stat. Softw. 5(8), 2000) in
//! Doornik's ZIGNOR form (2005): one 64-bit draw and a table lookup for
//! about 97 % of the samples.

use std::fmt;
use std::sync::OnceLock;

/// A PCG-XSL-RR 128/64 pseudo random number generator.
///
/// Deterministic, seedable, fast, and of far higher quality than the linear
/// congruential generators historically embedded in circuit simulators.
///
/// # Example
/// ```
/// use nanosim_numeric::rng::Pcg64;
/// let mut a = Pcg64::seed_from_u64(42);
/// let mut b = Pcg64::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // reproducible
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Pcg64 {
    state: u128,
    inc: u128,
}

impl fmt::Debug for Pcg64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Hide the raw state: it is an implementation detail and 128-bit
        // integers render poorly, but never produce an empty Debug.
        f.debug_struct("Pcg64")
            .field("stream", &(self.inc >> 1))
            .finish()
    }
}

const PCG_MULTIPLIER: u128 = 0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645;

impl Pcg64 {
    /// Creates a generator from a full 128-bit state and stream selector.
    pub fn new(state: u128, stream: u128) -> Self {
        let inc = (stream << 1) | 1;
        let mut rng = Pcg64 { state: 0, inc };
        rng.state = rng.state.wrapping_add(state);
        rng.step();
        rng
    }

    /// Creates a generator from a 64-bit seed (SplitMix64-expanded).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let hi = sm.next() as u128;
        let lo = sm.next() as u128;
        let s1 = sm.next() as u128;
        let s2 = sm.next() as u128;
        Pcg64::new((hi << 64) | lo, (s1 << 64) | s2)
    }

    #[inline]
    fn step(&mut self) {
        self.state = self
            .state
            .wrapping_mul(PCG_MULTIPLIER)
            .wrapping_add(self.inc);
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.step();
        // XSL-RR output function.
        let rot = (self.state >> 122) as u32;
        let xored = ((self.state >> 64) as u64) ^ (self.state as u64);
        xored.rotate_right(rot)
    }

    /// Uniform sample in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or either bound is not finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "invalid uniform range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)` via Lemire's rejection method.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn next_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_range(0) is meaningless");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n || lo >= (u64::MAX - n + 1) % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Standard normal sample (mean 0, variance 1) by the ziggurat.
    ///
    /// One `next_u64` gives both the layer, from its low 7 bits, and a
    /// uniform, from its top 53 bits, so the two are independent. A sample
    /// inside its layer's rectangle returns at once; otherwise the wedge
    /// test or, in the base layer, the tail sampler decides, drawing
    /// further uniforms.
    pub fn next_gaussian(&mut self) -> f64 {
        let zig = Ziggurat::tables();
        loop {
            let bits = self.next_u64();
            let i = (bits & 0x7f) as usize;
            let u = 2.0 * unit_f64(bits) - 1.0;
            if u.abs() < zig.r[i] {
                return u * zig.x[i];
            }
            if i == 0 {
                return self.normal_tail(u < 0.0);
            }
            // The wedge between layer i's rectangle and the density: accept
            // when a uniform height between f(x[i]) and f(x[i+1]) lies
            // below f(x), all scaled by 1 / f(x).
            let x = u * zig.x[i];
            let f0 = (-0.5 * (zig.x[i] * zig.x[i] - x * x)).exp();
            let f1 = (-0.5 * (zig.x[i + 1] * zig.x[i + 1] - x * x)).exp();
            if f1 + self.next_f64() * (f0 - f1) < 1.0 {
                return x;
            }
        }
    }

    /// A normal sample beyond `±ZIG_R` (negative if `negative`), by
    /// Marsaglia's exponential rejection.
    fn normal_tail(&mut self, negative: bool) -> f64 {
        loop {
            // Uniforms in (0, 1], so neither logarithm is infinite.
            let x = (1.0 - self.next_f64()).ln() / ZIG_R;
            let y = (1.0 - self.next_f64()).ln();
            if -2.0 * y >= x * x {
                return if negative { x - ZIG_R } else { ZIG_R - x };
            }
        }
    }

    /// Splits off an independent generator for a parallel stream (new stream
    /// id derived from the parent's output).
    pub fn split(&mut self) -> Pcg64 {
        let s1 = self.next_u64() as u128;
        let s2 = self.next_u64() as u128;
        let s3 = self.next_u64() as u128;
        let s4 = self.next_u64() as u128;
        Pcg64::new((s1 << 64) | s2, (s3 << 64) | s4)
    }
}

/// The top 53 bits of `bits` as a uniform sample in `[0, 1)`.
#[inline]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Layers of the ziggurat.
const ZIG_LAYERS: usize = 128;
/// Where the base layer's tail begins.
const ZIG_R: f64 = 3.442_619_855_899;
/// The area of every layer under `f(x) = e^{-x²/2}`.
const ZIG_V: f64 = 9.912_563_035_262_17e-3;

/// The ziggurat's layers over `f(x) = e^{-x²/2}`: layer `i` spans
/// `[0, x[i])` between the heights `f(x[i])` and `f(x[i+1])`. `x[0]` is
/// `V / f(R)`, the width of a rectangle with the base layer's area, tail
/// included; `x[1] = R` and `x[128] = 0`. `r[i] = x[i+1] / x[i]` is the
/// share of layer `i` that lies wholly under the density.
struct Ziggurat {
    x: [f64; ZIG_LAYERS + 1],
    r: [f64; ZIG_LAYERS],
}

impl Ziggurat {
    /// The tables, built on first use.
    fn tables() -> &'static Ziggurat {
        static TABLES: OnceLock<Ziggurat> = OnceLock::new();
        TABLES.get_or_init(|| {
            let mut x = [0.0; ZIG_LAYERS + 1];
            let mut f = (-0.5 * ZIG_R * ZIG_R).exp();
            x[0] = ZIG_V / f;
            x[1] = ZIG_R;
            for i in 2..ZIG_LAYERS {
                x[i] = (-2.0 * (ZIG_V / x[i - 1] + f).ln()).sqrt();
                f = (-0.5 * x[i] * x[i]).exp();
            }
            let r = std::array::from_fn(|i| x[i + 1] / x[i]);
            Ziggurat { x, r }
        })
    }
}

/// SplitMix64 generator, used to expand small seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a new generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output.
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Pcg64::seed_from_u64(7);
        let mut b = Pcg64::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Pcg64::seed_from_u64(1);
        let mut b = Pcg64::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Pcg64::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = Pcg64::seed_from_u64(4);
        for _ in 0..1000 {
            let x = rng.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    #[should_panic(expected = "invalid uniform range")]
    fn uniform_rejects_inverted_range() {
        Pcg64::seed_from_u64(0).uniform(1.0, 0.0);
    }

    #[test]
    fn uniform_mean_is_plausible() {
        let mut rng = Pcg64::seed_from_u64(5);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn next_range_uniformity() {
        let mut rng = Pcg64::seed_from_u64(9);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            counts[rng.next_range(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "count {c}");
        }
    }

    #[test]
    fn split_streams_are_independent() {
        let mut parent = Pcg64::seed_from_u64(10);
        let mut child = parent.split();
        let same = (0..32)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert!(same < 2);
    }

    #[test]
    fn splitmix_known_sequence_is_stable() {
        let mut sm = SplitMix64::new(1234567);
        let a = sm.next();
        let b = sm.next();
        assert_ne!(a, b);
        let mut sm2 = SplitMix64::new(1234567);
        assert_eq!(sm2.next(), a);
    }

    #[test]
    fn debug_is_nonempty() {
        let rng = Pcg64::seed_from_u64(1);
        assert!(!format!("{rng:?}").is_empty());
    }
}
