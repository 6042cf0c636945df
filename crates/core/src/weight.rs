//! Fixed-point element weights.
//!
//! The paper assumes every universe element carries a fixed positive weight
//! (§2) and predicates compare *sums* of weights against thresholds. Summing
//! IEEE doubles is order-dependent, which would make the three executors
//! disagree on boundary pairs; weights are therefore `u64` fixed-point
//! values with 2²⁰ fractional resolution, making summation exact and
//! comparisons deterministic.
//!
//! Threshold values computed in `f64` (e.g. `0.8 · norm`) are converted with
//! [`Weight::from_f64_threshold`], which subtracts a small epsilon before
//! rounding up — so a pair whose overlap exactly equals the threshold is
//! never rejected by floating-point noise.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A non-negative fixed-point weight with 2²⁰ fractional bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Weight(u64);

impl Weight {
    /// Fixed-point scale (value of 1.0).
    pub const SCALE: u64 = 1 << 20;
    /// Zero weight.
    pub const ZERO: Weight = Weight(0);
    /// Unit weight (1.0).
    pub const ONE: Weight = Weight(Self::SCALE);
    /// Smallest positive weight.
    pub const EPSILON: Weight = Weight(1);
    /// Tolerance subtracted from float-derived thresholds.
    const THRESHOLD_EPS: f64 = 1e-9;

    /// Convert a non-negative float weight, rounding to nearest.
    ///
    /// # Panics
    /// Panics on negative, NaN, or overflowing input — element weights are
    /// positive by the paper's model, so these are construction bugs.
    pub fn from_f64(w: f64) -> Self {
        assert!(
            w.is_finite() && w >= 0.0,
            "weights must be non-negative and finite, got {w}"
        );
        let scaled = (w * Self::SCALE as f64).round();
        assert!(
            scaled <= u64::MAX as f64,
            "weight {w} overflows fixed-point range"
        );
        Weight(scaled as u64)
    }

    /// Convert a float *threshold* (a required-overlap value) conservatively:
    /// values ≤ 0 and NaN become zero; positive values round up after an
    /// epsilon haircut, so `overlap ≥ threshold` comparisons tolerate float
    /// error in the threshold computation without admitting genuinely
    /// smaller overlaps. Thresholds past the fixed-point range, `+∞`
    /// included, saturate at the largest weight, so no overlap reaches them.
    ///
    /// Monotone non-decreasing over `[−∞, +∞]`, so it commutes with `max`:
    /// `from_f64_threshold(a.max(b)) == from_f64_threshold(a).max(from_f64_threshold(b))`
    /// — the identity the per-set split of a predicate's required overlap
    /// relies on.
    pub fn from_f64_threshold(t: f64) -> Self {
        if t.is_nan() || t <= 0.0 {
            return Weight::ZERO;
        }
        let adjusted = (t - Self::THRESHOLD_EPS).max(0.0);
        // `as` saturates: anything at or past 2⁶⁴ becomes `u64::MAX`.
        Weight((adjusted * Self::SCALE as f64).ceil() as u64)
    }

    /// Back to floating point.
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / Self::SCALE as f64
    }

    /// Raw fixed-point value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Construct from a raw fixed-point value.
    pub fn from_raw(raw: u64) -> Self {
        Weight(raw)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Weight) -> Weight {
        Weight(self.0.saturating_sub(rhs.0))
    }

    /// True iff the weight is zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two weights.
    pub fn max(self, rhs: Weight) -> Weight {
        Weight(self.0.max(rhs.0))
    }

    /// The smaller of two weights.
    pub fn min(self, rhs: Weight) -> Weight {
        Weight(self.0.min(rhs.0))
    }
}

impl Add for Weight {
    type Output = Weight;
    fn add(self, rhs: Weight) -> Weight {
        Weight(self.0.checked_add(rhs.0).expect("weight sum overflow"))
    }
}

impl AddAssign for Weight {
    fn add_assign(&mut self, rhs: Weight) {
        *self = *self + rhs;
    }
}

impl Sub for Weight {
    type Output = Weight;
    fn sub(self, rhs: Weight) -> Weight {
        Weight(
            self.0
                .checked_sub(rhs.0)
                .expect("weight subtraction underflow"),
        )
    }
}

impl Sum for Weight {
    fn sum<I: Iterator<Item = Weight>>(iter: I) -> Weight {
        iter.fold(Weight::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for w in [0.0, 1.0, 0.5, 2.75, 123.456] {
            let fx = Weight::from_f64(w);
            assert!((fx.to_f64() - w).abs() < 2.0 / Weight::SCALE as f64, "{w}");
        }
    }

    #[test]
    fn exact_summation() {
        // 0.1 is inexact in binary; fixed point makes repeated sums stable.
        let w = Weight::from_f64(0.1);
        let sum: Weight = (0..10).map(|_| w).sum();
        assert_eq!(sum.raw(), w.raw() * 10);
    }

    #[test]
    fn threshold_conversion_conservative() {
        // An overlap exactly at the threshold must pass.
        let overlap: Weight = (0..8).map(|_| Weight::from_f64(0.1)).sum();
        let threshold = Weight::from_f64_threshold(0.8);
        assert!(overlap >= threshold, "{} < {}", overlap, threshold);
    }

    #[test]
    fn threshold_nonpositive_is_zero() {
        assert_eq!(Weight::from_f64_threshold(0.0), Weight::ZERO);
        assert_eq!(Weight::from_f64_threshold(-3.0), Weight::ZERO);
        assert_eq!(Weight::from_f64_threshold(f64::NEG_INFINITY), Weight::ZERO);
    }

    #[test]
    fn threshold_past_the_range_saturates() {
        let max = Weight::from_raw(u64::MAX);
        assert_eq!(Weight::from_f64_threshold(1e14), max);
        assert_eq!(Weight::from_f64_threshold(f64::MAX), max);
        assert_eq!(Weight::from_f64_threshold(f64::INFINITY), max);
        assert_eq!(Weight::from_f64_threshold(f64::NAN), Weight::ZERO);
        // A threshold inside the range does not saturate.
        let top = (u64::MAX >> 21) as f64;
        assert!(Weight::from_f64_threshold(top) < max);
    }

    #[test]
    fn threshold_still_rejects_clearly_smaller() {
        let overlap = Weight::from_f64(0.7);
        let threshold = Weight::from_f64_threshold(0.8);
        assert!(overlap < threshold);
    }

    #[test]
    fn ordering_and_arith() {
        let a = Weight::from_f64(1.5);
        let b = Weight::from_f64(0.5);
        assert!(a > b);
        assert_eq!((a - b).to_f64(), 1.0);
        assert_eq!(a.saturating_sub(a + a), Weight::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        Weight::from_f64(-1.0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = Weight::from_f64(1.0) - Weight::from_f64(2.0);
    }

    #[test]
    fn display() {
        assert_eq!(Weight::ONE.to_string(), "1.000000");
    }
}
