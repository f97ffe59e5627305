//! Floating-point operation accounting.
//!
//! The Nano-Sim paper's Table I compares simulators by the *number of
//! floating point operations* needed for a DC analysis, not by wall-clock
//! time (which depends on the host). Every solver and device-model routine in
//! this workspace threads a [`FlopCounter`] so both the SWEC engine and the
//! baseline engines are measured with identical accounting rules:
//!
//! * `add` — additions and subtractions,
//! * `mul` — multiplications,
//! * `div` — divisions and reciprocals,
//! * `func` — transcendental evaluations (`exp`, `ln`, `atan`, `sqrt`, ...),
//!   each counted as one operation (the conventional FLOP-counting rule for
//!   simulator comparisons).

use std::fmt;
use std::ops::AddAssign;

/// Tallies of floating point operations by category.
///
/// # Example
/// ```
/// use nanosim_numeric::flops::FlopCounter;
/// let mut c = FlopCounter::new();
/// c.add(2);
/// c.mul(3);
/// c.div(1);
/// c.func(1);
/// assert_eq!(c.total(), 7);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct FlopCounter {
    adds: u64,
    muls: u64,
    divs: u64,
    funcs: u64,
}

impl FlopCounter {
    /// Creates a counter with all tallies at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` additions/subtractions.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.adds += n;
    }

    /// Records `n` multiplications.
    #[inline]
    pub fn mul(&mut self, n: u64) {
        self.muls += n;
    }

    /// Records `n` divisions.
    #[inline]
    pub fn div(&mut self, n: u64) {
        self.divs += n;
    }

    /// Records `n` transcendental function evaluations.
    #[inline]
    pub fn func(&mut self, n: u64) {
        self.funcs += n;
    }

    /// Records one fused multiply-accumulate (one `mul` plus one `add`),
    /// the inner-loop operation of LU elimination and mat-vec products.
    #[inline]
    pub fn fma(&mut self, n: u64) {
        self.muls += n;
        self.adds += n;
    }

    /// Number of additions/subtractions recorded so far.
    pub fn adds(&self) -> u64 {
        self.adds
    }

    /// Number of multiplications recorded so far.
    pub fn muls(&self) -> u64 {
        self.muls
    }

    /// Number of divisions recorded so far.
    pub fn divs(&self) -> u64 {
        self.divs
    }

    /// Number of transcendental evaluations recorded so far.
    pub fn funcs(&self) -> u64 {
        self.funcs
    }

    /// Total floating point operations across all categories.
    pub fn total(&self) -> u64 {
        self.adds + self.muls + self.divs + self.funcs
    }

    /// Difference `self - earlier`, useful to attribute operations to a
    /// phase of a larger computation.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` has larger tallies than `self`.
    pub fn since(&self, earlier: &FlopCounter) -> FlopCounter {
        debug_assert!(self.adds >= earlier.adds);
        debug_assert!(self.muls >= earlier.muls);
        debug_assert!(self.divs >= earlier.divs);
        debug_assert!(self.funcs >= earlier.funcs);
        FlopCounter {
            adds: self.adds - earlier.adds,
            muls: self.muls - earlier.muls,
            divs: self.divs - earlier.divs,
            funcs: self.funcs - earlier.funcs,
        }
    }
}

impl AddAssign for FlopCounter {
    fn add_assign(&mut self, rhs: FlopCounter) {
        self.adds += rhs.adds;
        self.muls += rhs.muls;
        self.divs += rhs.divs;
        self.funcs += rhs.funcs;
    }
}

impl fmt::Display for FlopCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} flops ({} add, {} mul, {} div, {} func)",
            self.total(),
            self.adds,
            self.muls,
            self.divs,
            self.funcs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_counter_is_zero() {
        let c = FlopCounter::new();
        assert_eq!(c.total(), 0);
        assert_eq!(c, FlopCounter::default());
    }

    #[test]
    fn categories_accumulate_independently() {
        let mut c = FlopCounter::new();
        c.add(1);
        c.mul(2);
        c.div(3);
        c.func(4);
        assert_eq!(c.adds(), 1);
        assert_eq!(c.muls(), 2);
        assert_eq!(c.divs(), 3);
        assert_eq!(c.funcs(), 4);
        assert_eq!(c.total(), 10);
    }

    #[test]
    fn fma_counts_one_mul_and_one_add() {
        let mut c = FlopCounter::new();
        c.fma(5);
        assert_eq!(c.adds(), 5);
        assert_eq!(c.muls(), 5);
        assert_eq!(c.total(), 10);
    }

    #[test]
    fn since_subtracts_componentwise() {
        let mut c = FlopCounter::new();
        c.add(10);
        let snapshot = c;
        c.add(5);
        c.mul(2);
        let delta = c.since(&snapshot);
        assert_eq!(delta.adds(), 5);
        assert_eq!(delta.muls(), 2);
    }

    #[test]
    fn add_assign_merges_counters() {
        let mut a = FlopCounter::new();
        a.add(1);
        a.func(2);
        let mut b = FlopCounter::new();
        b.mul(3);
        let mut c = a;
        c += b;
        assert_eq!(c.adds(), 1);
        assert_eq!(c.muls(), 3);
        assert_eq!(c.funcs(), 2);
        assert_eq!(c.total(), 6);
    }

    #[test]
    fn display_mentions_every_category() {
        let mut c = FlopCounter::new();
        c.add(1);
        c.mul(2);
        c.div(3);
        c.func(4);
        let s = c.to_string();
        assert!(s.contains("10 flops"));
        assert!(s.contains("1 add"));
        assert!(s.contains("4 func"));
    }
}
