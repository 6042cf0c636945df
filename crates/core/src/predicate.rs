//! Overlap predicates.
//!
//! Definition 1 of the paper: the SSJoin predicate is a conjunction
//! `⋀ᵢ Overlap_B(a_r, a_s) ≥ eᵢ`, where each `eᵢ` is an expression over
//! constants and the norms of the `R.A` and `S.A` groups. [`NormExpr`] is
//! that expression language (`const`, `R.norm`, `S.norm`, `+ − × min max` —
//! enough for every instantiation in §3, including the edit-join bound of
//! Property 4, which needs `max(R.norm, S.norm)`).
//!
//! Prefix extraction needs, for a set `r` whose partner is unknown, a safe
//! *lower bound* on the required overlap over all possible partners. That is
//! obtained by evaluating the expression with the partner norm as an
//! interval (the other collection's observed norm range) using interval
//! arithmetic, and taking the lower end — uniformly correct for every
//! predicate shape, monotone or not.
//!
//! The operator follows the paper's §4.1 assumption that thresholds are
//! positive: a required overlap that evaluates to ≤ 0 is clamped to the
//! smallest positive weight, i.e. joined groups must share at least one
//! element.
//!
//! Besides its overlap conjuncts, a predicate may declare one norm-ratio
//! conjunct, `min(R.norm, S.norm) ≥ ρ·max(R.norm, S.norm)` — Gravano et
//! al.'s length filter, which the edit join declares from its threshold.
//! For a norm `n ≥ 0` its compatible partner norms form one interval around
//! `n`, about `[ρ·n, n/ρ]` ([`OverlapPredicate::partner_window`]), so over
//! norm-sorted sets the executors cut every posting list to one id range.

use crate::weight::Weight;

/// A closed interval of floats (used for partner-norm ranges).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower end.
    pub lo: f64,
    /// Upper end.
    pub hi: f64,
}

impl Interval {
    /// Construct; `lo` must not exceed `hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "interval [{lo}, {hi}] is inverted");
        Self { lo, hi }
    }

    /// A single point.
    pub fn point(x: f64) -> Self {
        Self { lo: x, hi: x }
    }

    fn add(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo + o.lo,
            hi: self.hi + o.hi,
        }
    }

    fn sub(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo - o.hi,
            hi: self.hi - o.lo,
        }
    }

    fn mul(self, o: Interval) -> Interval {
        let c = [
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        ];
        Interval {
            lo: c.iter().copied().fold(f64::INFINITY, f64::min),
            hi: c.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    fn min(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.min(o.hi),
        }
    }

    fn max(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.max(o.lo),
            hi: self.hi.max(o.hi),
        }
    }
}

/// Expression over constants and the two group norms.
#[derive(Debug, Clone, PartialEq)]
pub enum NormExpr {
    /// Constant.
    Const(f64),
    /// The norm of the `R`-side group.
    RNorm,
    /// The norm of the `S`-side group.
    SNorm,
    /// Sum.
    Add(Box<NormExpr>, Box<NormExpr>),
    /// Difference.
    Sub(Box<NormExpr>, Box<NormExpr>),
    /// Product.
    Mul(Box<NormExpr>, Box<NormExpr>),
    /// Binary minimum.
    Min(Box<NormExpr>, Box<NormExpr>),
    /// Binary maximum.
    Max(Box<NormExpr>, Box<NormExpr>),
}

impl NormExpr {
    /// `c`
    pub fn constant(c: f64) -> Self {
        NormExpr::Const(c)
    }
    /// `c · R.norm`
    pub fn r_scaled(c: f64) -> Self {
        NormExpr::Mul(Box::new(NormExpr::Const(c)), Box::new(NormExpr::RNorm))
    }
    /// `c · S.norm`
    pub fn s_scaled(c: f64) -> Self {
        NormExpr::Mul(Box::new(NormExpr::Const(c)), Box::new(NormExpr::SNorm))
    }

    /// Evaluate at concrete norms.
    pub fn eval(&self, r_norm: f64, s_norm: f64) -> f64 {
        match self {
            NormExpr::Const(c) => *c,
            NormExpr::RNorm => r_norm,
            NormExpr::SNorm => s_norm,
            NormExpr::Add(a, b) => a.eval(r_norm, s_norm) + b.eval(r_norm, s_norm),
            NormExpr::Sub(a, b) => a.eval(r_norm, s_norm) - b.eval(r_norm, s_norm),
            NormExpr::Mul(a, b) => a.eval(r_norm, s_norm) * b.eval(r_norm, s_norm),
            NormExpr::Min(a, b) => a.eval(r_norm, s_norm).min(b.eval(r_norm, s_norm)),
            NormExpr::Max(a, b) => a.eval(r_norm, s_norm).max(b.eval(r_norm, s_norm)),
        }
    }

    /// Evaluate with interval-valued norms.
    pub fn eval_interval(&self, r: Interval, s: Interval) -> Interval {
        match self {
            NormExpr::Const(c) => Interval::point(*c),
            NormExpr::RNorm => r,
            NormExpr::SNorm => s,
            NormExpr::Add(a, b) => a.eval_interval(r, s).add(b.eval_interval(r, s)),
            NormExpr::Sub(a, b) => a.eval_interval(r, s).sub(b.eval_interval(r, s)),
            NormExpr::Mul(a, b) => a.eval_interval(r, s).mul(b.eval_interval(r, s)),
            NormExpr::Min(a, b) => a.eval_interval(r, s).min(b.eval_interval(r, s)),
            NormExpr::Max(a, b) => a.eval_interval(r, s).max(b.eval_interval(r, s)),
        }
    }

    /// True if the expression mentions `S.norm` (used to decide whether a
    /// one-sided prefix optimization applies).
    pub fn uses_s_norm(&self) -> bool {
        match self {
            NormExpr::Const(_) | NormExpr::RNorm => false,
            NormExpr::SNorm => true,
            NormExpr::Add(a, b)
            | NormExpr::Sub(a, b)
            | NormExpr::Mul(a, b)
            | NormExpr::Min(a, b)
            | NormExpr::Max(a, b) => a.uses_s_norm() || b.uses_s_norm(),
        }
    }

    /// True if the expression mentions `R.norm`.
    fn uses_r_norm(&self) -> bool {
        match self {
            NormExpr::Const(_) | NormExpr::SNorm => false,
            NormExpr::RNorm => true,
            NormExpr::Add(a, b)
            | NormExpr::Sub(a, b)
            | NormExpr::Mul(a, b)
            | NormExpr::Min(a, b)
            | NormExpr::Max(a, b) => a.uses_r_norm() || b.uses_r_norm(),
        }
    }

    /// True if `e(r, s) = max(e_R(r), e_S(s))` for the one-sided parts that
    /// [`Self::side_part`] evaluates. An expression over at most one norm
    /// splits as it is. Otherwise the shape must be a `Max` of splitting
    /// operands, or a splitting operand shifted by a finite constant
    /// (`+ k`, `− k`) or scaled by a finite `c > 0`: each of those maps is
    /// monotone non-decreasing under round-to-nearest, so it commutes with
    /// `max` bit for bit. A product of the two norms, `min`, `k − x` and
    /// `c ≤ 0` do not split. Structural and allocation-free.
    fn splits(&self) -> bool {
        use NormExpr::*;
        let finite = |e: &NormExpr| matches!(e, Const(k) if k.is_finite());
        let positive = |e: &NormExpr| matches!(e, Const(c) if c.is_finite() && *c > 0.0);
        if !self.uses_r_norm() || !self.uses_s_norm() {
            return true;
        }
        match self {
            Max(a, b) => a.splits() && b.splits(),
            Add(a, b) => (finite(b) && a.splits()) || (finite(a) && b.splits()),
            Sub(a, b) => finite(b) && a.splits(),
            Mul(a, b) => (positive(b) && a.splits()) || (positive(a) && b.splits()),
            _ => false,
        }
    }

    /// The one-sided part of a splitting expression (see [`Self::splits`])
    /// at norm `x` for `side`: the expression itself when it reads no other
    /// norm, `−∞` (the identity of `max`) when it reads only the other
    /// norm, and otherwise the same operator applied to its operands' parts.
    fn side_part(&self, side: NormSide, x: f64) -> f64 {
        let (mine, other) = match side {
            NormSide::R => (self.uses_r_norm(), self.uses_s_norm()),
            NormSide::S => (self.uses_s_norm(), self.uses_r_norm()),
        };
        if !other {
            return self.eval(x, x);
        }
        if !mine {
            return f64::NEG_INFINITY;
        }
        match self {
            NormExpr::Add(a, b) => a.side_part(side, x) + b.side_part(side, x),
            NormExpr::Sub(a, b) => a.side_part(side, x) - b.side_part(side, x),
            NormExpr::Mul(a, b) => a.side_part(side, x) * b.side_part(side, x),
            NormExpr::Max(a, b) => a.side_part(side, x).max(b.side_part(side, x)),
            // Unreachable for a splitting expression; NaN is ignored by the
            // conjunct fold.
            _ => f64::NAN,
        }
    }

    /// True if `other` is `self` with `R.norm` and `S.norm` swapped, up to
    /// the commutativity of `+ × min max` — a structural check, so it never
    /// allocates and may answer `false` for algebraically equal forms.
    fn mirrors(&self, other: &NormExpr) -> bool {
        use NormExpr::*;
        match (self, other) {
            (Const(x), Const(y)) => x.to_bits() == y.to_bits(),
            (RNorm, SNorm) | (SNorm, RNorm) => true,
            (Sub(a1, a2), Sub(b1, b2)) => a1.mirrors(b1) && a2.mirrors(b2),
            (Add(a1, a2), Add(b1, b2))
            | (Mul(a1, a2), Mul(b1, b2))
            | (Min(a1, a2), Min(b1, b2))
            | (Max(a1, a2), Max(b1, b2)) => {
                (a1.mirrors(b1) && a2.mirrors(b2)) || (a1.mirrors(b2) && a2.mirrors(b1))
            }
            _ => false,
        }
    }
}

impl std::fmt::Display for NormExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NormExpr::Const(c) => write!(f, "{c}"),
            NormExpr::RNorm => f.write_str("R.norm"),
            NormExpr::SNorm => f.write_str("S.norm"),
            NormExpr::Add(a, b) => write!(f, "({a} + {b})"),
            NormExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            NormExpr::Mul(a, b) => write!(f, "({a} * {b})"),
            NormExpr::Min(a, b) => write!(f, "min({a}, {b})"),
            NormExpr::Max(a, b) => write!(f, "max({a}, {b})"),
        }
    }
}

/// An SSJoin predicate: `⋀ᵢ Overlap ≥ eᵢ`, i.e. `Overlap ≥ maxᵢ eᵢ`, and
/// optionally the norm-ratio conjunct `min(R.norm, S.norm) ≥
/// ρ·max(R.norm, S.norm)` ([`Self::with_norm_ratio`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapPredicate {
    conjuncts: Vec<NormExpr>,
    /// The declared norm ratio ρ ∈ (0, 1], if any.
    norm_ratio: Option<f64>,
}

impl std::fmt::Display for OverlapPredicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, e) in self.conjuncts.iter().enumerate() {
            if i > 0 {
                f.write_str(" AND ")?;
            }
            write!(f, "Overlap >= {e}")?;
        }
        if let Some(rho) = self.norm_ratio {
            write!(f, " AND min(R.norm, S.norm) >= {rho} * max(R.norm, S.norm)")?;
        }
        Ok(())
    }
}

impl OverlapPredicate {
    /// Predicate from explicit conjunct expressions.
    ///
    /// # Panics
    /// Panics on an empty conjunct list.
    pub fn new(conjuncts: Vec<NormExpr>) -> Self {
        assert!(
            !conjuncts.is_empty(),
            "predicate needs at least one conjunct"
        );
        Self {
            conjuncts,
            norm_ratio: None,
        }
    }

    /// Add the norm-ratio conjunct `min(R.norm, S.norm) ≥ rho·max(R.norm,
    /// S.norm)`. Norms are taken to be non-negative. A join declares it only
    /// where its answer implies it — the edit join, from the threshold, since
    /// `ED(r, s) ≥ ||r| − |s||` — because the operator then drops every pair
    /// outside it, whatever its overlap.
    ///
    /// # Panics
    /// Panics unless `0 < rho ≤ 1`.
    pub fn with_norm_ratio(mut self, rho: f64) -> Self {
        assert!(
            rho > 0.0 && rho <= 1.0,
            "norm ratio must be in (0, 1], got {rho}"
        );
        self.norm_ratio = Some(rho);
        self
    }

    /// The declared norm ratio ρ, if any.
    pub fn norm_ratio(&self) -> Option<f64> {
        self.norm_ratio
    }

    /// True when norms `a` and `b` satisfy the norm-ratio conjunct:
    /// `min(a, b) ≥ ρ·max(a, b)`, always true without one. Symmetric in its
    /// arguments bit for bit.
    #[inline]
    pub fn norms_compatible(&self, a: f64, b: f64) -> bool {
        self.norm_ratio.is_none_or(|rho| a.min(b) >= rho * a.max(b))
    }

    /// The ids of `sorted_norms` (non-decreasing, non-negative) whose norms
    /// are compatible partners of norm `n` ([`Self::norms_compatible`]): one
    /// contiguous range, about `[ρ·n, n/ρ]` in norm, found by two binary
    /// searches that apply the conjunct itself, so the range holds exactly
    /// the compatible ids. The whole slice without a declared ratio.
    pub fn partner_window(&self, n: f64, sorted_norms: &[f64]) -> std::ops::Range<usize> {
        let Some(rho) = self.norm_ratio else {
            return 0..sorted_norms.len();
        };
        // Below n a partner m needs m ≥ ρ·n; above n it needs n ≥ ρ·m,
        // which fails for a suffix of the larger norms.
        let lo = sorted_norms.partition_point(|&m| m < n && m < rho * n);
        let hi = sorted_norms.partition_point(|&m| m <= n || n >= rho * m);
        lo..hi
    }

    /// Absolute overlap: `Overlap ≥ alpha` (Example 2, first form).
    pub fn absolute(alpha: f64) -> Self {
        Self::new(vec![NormExpr::Const(alpha)])
    }

    /// 1-sided normalized overlap: `Overlap ≥ frac · R.norm` (Example 2,
    /// second form; the Jaccard-containment shape of Figure 4).
    pub fn r_normalized(frac: f64) -> Self {
        Self::new(vec![NormExpr::r_scaled(frac)])
    }

    /// 1-sided normalized on the S side: `Overlap ≥ frac · S.norm`.
    pub fn s_normalized(frac: f64) -> Self {
        Self::new(vec![NormExpr::s_scaled(frac)])
    }

    /// 2-sided normalized overlap:
    /// `Overlap ≥ frac·R.norm ∧ Overlap ≥ frac·S.norm` (Example 2, third
    /// form; the Jaccard-resemblance shape of Figure 4).
    pub fn two_sided(frac: f64) -> Self {
        Self::new(vec![NormExpr::r_scaled(frac), NormExpr::s_scaled(frac)])
    }

    /// The conjunct expressions.
    pub fn conjuncts(&self) -> &[NormExpr] {
        &self.conjuncts
    }

    /// Required overlap for a concrete pair of norms:
    /// `maxᵢ eᵢ(r_norm, s_norm)`, clamped to the smallest positive weight
    /// (§4.1 assumes thresholds are positive).
    pub fn required_overlap(&self, r_norm: f64, s_norm: f64) -> Weight {
        let t = self
            .conjuncts
            .iter()
            .map(|e| e.eval(r_norm, s_norm))
            .fold(f64::NEG_INFINITY, f64::max);
        Weight::from_f64_threshold(t).max(Weight::EPSILON)
    }

    /// Check the predicate for a pair: its overlap conjuncts and its norm
    /// ratio.
    pub fn check(&self, overlap: Weight, r_norm: f64, s_norm: f64) -> bool {
        self.norms_compatible(r_norm, s_norm) && overlap >= self.required_overlap(r_norm, s_norm)
    }

    /// Safe lower bound of the required overlap for an `R`-side set with
    /// norm `r_norm`, over partners whose norms lie in `s_norms`.
    ///
    /// For every conjunct, `lowerᵢ ≤ eᵢ(r, s)` for all `s` in range, hence
    /// `maxᵢ lowerᵢ ≤ maxᵢ eᵢ(r, s) = required(r, s)` — so a prefix computed
    /// from this bound never loses a qualifying pair.
    pub fn required_lower_bound_r(&self, r_norm: f64, s_norms: Interval) -> Weight {
        let t = self
            .conjuncts
            .iter()
            .map(|e| e.eval_interval(Interval::point(r_norm), s_norms).lo)
            .fold(f64::NEG_INFINITY, f64::max);
        Weight::from_f64_threshold(t).max(Weight::EPSILON)
    }

    /// Mirror of [`Self::required_lower_bound_r`] for an `S`-side set.
    pub fn required_lower_bound_s(&self, s_norm: f64, r_norms: Interval) -> Weight {
        let t = self
            .conjuncts
            .iter()
            .map(|e| e.eval_interval(r_norms, Interval::point(s_norm)).lo)
            .fold(f64::NEG_INFINITY, f64::max);
        Weight::from_f64_threshold(t).max(Weight::EPSILON)
    }

    /// Split the predicate into an R-side and an S-side requirement, when
    /// the split is exact: for every pair of norms,
    /// `required_overlap(r, s) == required_r(r).max(required_s(s))`, bit for
    /// bit. Then an executor evaluates the predicate once per set per run
    /// instead of once per candidate pair.
    ///
    /// A conjunct over at most one norm splits as it is, and so do `max`,
    /// `+ k`, `− k` and `· c` with finite `k` and `c > 0` (Property 4's
    /// `max(R.norm, S.norm)·c − k` at `c > 0`, hamming's
    /// `max(R.norm, S.norm) − k`). The conjunct fold, the threshold
    /// conversion ([`Weight::from_f64_threshold`]) and the `EPSILON` clamp
    /// are monotone, so they commute with the outer `max`. Returns `None`
    /// for any other shape — cosine's `c · R.norm · S.norm`, Property 4 at
    /// `c ≤ 0` — which keeps per-pair evaluation.
    pub(crate) fn split(&self) -> Option<SplitPredicate<'_>> {
        self.conjuncts
            .iter()
            .all(NormExpr::splits)
            .then_some(SplitPredicate { pred: self })
    }

    /// True if any conjunct references `S.norm`.
    pub fn uses_s_norm(&self) -> bool {
        self.conjuncts.iter().any(NormExpr::uses_s_norm)
    }

    /// True if swapping `R.norm` and `S.norm` leaves the predicate
    /// unchanged: every conjunct's mirror image is itself a conjunct, up to
    /// conjunct order and the commutativity of `+ × min max`. Then
    /// `required_overlap(a, b) == required_overlap(b, a)`, and since overlap
    /// is symmetric too, a self-join's pair `(i, j)` qualifies exactly when
    /// `(j, i)` does. Holds for [`Self::absolute`], [`Self::two_sided`],
    /// Property 4's `max(R.norm, S.norm)` form and cosine's
    /// `c · R.norm · S.norm`; fails for [`Self::r_normalized`] and
    /// [`Self::s_normalized`]. A norm ratio is symmetric by construction.
    /// Structural and allocation-free.
    pub fn is_symmetric(&self) -> bool {
        self.conjuncts
            .iter()
            .all(|e| self.conjuncts.iter().any(|m| e.mirrors(m)))
    }
}

/// The side of a pair a norm belongs to.
#[derive(Debug, Clone, Copy)]
enum NormSide {
    R,
    S,
}

/// An [`OverlapPredicate`] whose required overlap splits exactly into one
/// requirement per set ([`OverlapPredicate::split`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SplitPredicate<'p> {
    pred: &'p OverlapPredicate,
}

impl SplitPredicate<'_> {
    /// The requirement an `R`-side set with norm `r_norm` places on every
    /// partner.
    pub(crate) fn required_r(self, r_norm: f64) -> Weight {
        self.required_side(NormSide::R, r_norm)
    }

    /// The requirement an `S`-side set with norm `s_norm` places on every
    /// partner.
    pub(crate) fn required_s(self, s_norm: f64) -> Weight {
        self.required_side(NormSide::S, s_norm)
    }

    fn required_side(self, side: NormSide, norm: f64) -> Weight {
        let t = self
            .pred
            .conjuncts
            .iter()
            .map(|e| e.side_part(side, norm))
            .fold(f64::NEG_INFINITY, f64::max);
        Weight::from_f64_threshold(t).max(Weight::EPSILON)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: f64) -> Weight {
        Weight::from_f64(x)
    }

    #[test]
    fn absolute_predicate() {
        let p = OverlapPredicate::absolute(10.0);
        assert!(p.check(w(10.0), 12.0, 11.0));
        assert!(!p.check(w(9.0), 12.0, 11.0));
    }

    #[test]
    fn paper_example_2_one_sided() {
        // Overlap 10 vs 0.8·R.norm with R.norm = 12 → 10 ≥ 9.6 passes.
        let p = OverlapPredicate::r_normalized(0.8);
        assert!(p.check(w(10.0), 12.0, 11.0));
        // With R.norm = 13: 10 < 10.4 fails.
        assert!(!p.check(w(10.0), 13.0, 11.0));
    }

    #[test]
    fn paper_example_2_two_sided() {
        // Overlap 10 ≥ 0.8·12 and ≥ 0.8·11 (Example 2, third form).
        let p = OverlapPredicate::two_sided(0.8);
        assert!(p.check(w(10.0), 12.0, 11.0));
        // Fails the larger side.
        assert!(!p.check(w(10.0), 14.0, 11.0));
    }

    #[test]
    fn required_overlap_is_max_of_conjuncts() {
        let p = OverlapPredicate::two_sided(0.5);
        let req = p.required_overlap(10.0, 20.0);
        // max(5, 10) = 10, with the threshold epsilon haircut.
        assert!(w(10.0) >= req);
        assert!(w(9.99) < req);
    }

    #[test]
    fn nonpositive_threshold_clamps_to_epsilon() {
        let p = OverlapPredicate::absolute(-5.0);
        assert_eq!(p.required_overlap(1.0, 1.0), Weight::EPSILON);
        // Zero overlap never qualifies.
        assert!(!p.check(Weight::ZERO, 1.0, 1.0));
        assert!(p.check(Weight::EPSILON, 1.0, 1.0));
    }

    #[test]
    fn lower_bound_is_sound_over_range() {
        // Edit-join shape: max(R, S)·c − q + 1 with S ranging.
        let c = 0.7;
        let expr = NormExpr::Sub(
            Box::new(NormExpr::Mul(
                Box::new(NormExpr::Max(
                    Box::new(NormExpr::RNorm),
                    Box::new(NormExpr::SNorm),
                )),
                Box::new(NormExpr::Const(c)),
            )),
            Box::new(NormExpr::Const(2.0)),
        );
        let p = OverlapPredicate::new(vec![expr]);
        let range = Interval::new(5.0, 40.0);
        let r_norm = 12.0;
        let lb = p.required_lower_bound_r(r_norm, range);
        // The bound must not exceed the requirement at any partner norm.
        for s_norm in [5.0, 12.0, 26.5, 40.0] {
            assert!(
                lb <= p.required_overlap(r_norm, s_norm),
                "lb {lb} > required at s_norm={s_norm}"
            );
        }
        // And it should be attained at the minimum partner norm here.
        assert_eq!(lb, p.required_overlap(r_norm, 5.0));
    }

    #[test]
    fn lower_bound_handles_negative_coefficients() {
        // Overlap ≥ 10 − S.norm: requirement *decreases* in S.norm, so the
        // lower bound must use the interval's upper end.
        let expr = NormExpr::Sub(Box::new(NormExpr::Const(10.0)), Box::new(NormExpr::SNorm));
        let p = OverlapPredicate::new(vec![expr]);
        let lb = p.required_lower_bound_r(0.0, Interval::new(2.0, 6.0));
        assert_eq!(lb, p.required_overlap(0.0, 6.0));
        for s in [2.0, 4.0, 6.0] {
            assert!(lb <= p.required_overlap(0.0, s));
        }
    }

    #[test]
    fn interval_multiplication_signs() {
        let a = Interval::new(-2.0, 3.0);
        let b = Interval::new(-5.0, 4.0);
        let m = a.mul(b);
        assert_eq!(m.lo, -15.0); // 3 · −5
        assert_eq!(m.hi, 12.0); // 3 · 4
    }

    #[test]
    fn uses_s_norm_detection() {
        assert!(!OverlapPredicate::absolute(5.0).uses_s_norm());
        assert!(!OverlapPredicate::r_normalized(0.8).uses_s_norm());
        assert!(OverlapPredicate::two_sided(0.8).uses_s_norm());
        assert!(OverlapPredicate::s_normalized(0.8).uses_s_norm());
    }

    fn boxed(e: NormExpr) -> Box<NormExpr> {
        Box::new(e)
    }

    #[test]
    fn symmetric_predicates_detected() {
        use NormExpr::*;
        // Property 4: max(R.norm, S.norm)·c − (q − 1), either operand order.
        let property4 = |r_first: bool| {
            let (a, b) = if r_first {
                (RNorm, SNorm)
            } else {
                (SNorm, RNorm)
            };
            OverlapPredicate::new(vec![Sub(
                boxed(Mul(boxed(Max(boxed(a), boxed(b))), boxed(Const(0.55)))),
                boxed(Const(2.0)),
            )])
        };
        // Cosine: c · R.norm · S.norm.
        let cosine = OverlapPredicate::new(vec![Mul(
            boxed(Const(0.8)),
            boxed(Mul(boxed(RNorm), boxed(SNorm))),
        )]);
        // Two-sided with its conjuncts listed S first.
        let reordered =
            OverlapPredicate::new(vec![NormExpr::s_scaled(0.7), NormExpr::r_scaled(0.7)]);
        for p in [
            OverlapPredicate::two_sided(0.8),
            OverlapPredicate::absolute(3.0),
            property4(true),
            property4(false),
            cosine,
            reordered,
        ] {
            assert!(p.is_symmetric(), "{p}");
            for (a, b) in [(3.0, 11.0), (7.5, 2.25), (4.0, 4.0)] {
                assert_eq!(p.required_overlap(a, b), p.required_overlap(b, a), "{p}");
            }
        }
        for p in [
            OverlapPredicate::r_normalized(0.8),
            OverlapPredicate::s_normalized(0.8),
            // Sub does not commute, and unequal constants do not mirror.
            OverlapPredicate::new(vec![Sub(boxed(RNorm), boxed(SNorm))]),
            OverlapPredicate::new(vec![NormExpr::r_scaled(0.7), NormExpr::s_scaled(0.8)]),
        ] {
            assert!(!p.is_symmetric(), "{p}");
        }
    }

    /// Property 4 at threshold `theta` over q-grams: `max(R, S)·c − (q − 1)`
    /// with `c = 1 − (1 − θ)·q`, as the edit join builds it.
    fn property4(theta: f64, q: usize) -> OverlapPredicate {
        use NormExpr::*;
        let c = 1.0 - (1.0 - theta) * q as f64;
        OverlapPredicate::new(vec![Sub(
            boxed(Mul(boxed(Max(boxed(RNorm), boxed(SNorm))), boxed(Const(c)))),
            boxed(Const(q as f64 - 1.0)),
        )])
    }

    /// Seeded norms of every kind the requirement meets: integers,
    /// fractions, zero, multiples of the fixed-point resolution, and values
    /// near the top of the fixed-point range.
    fn random_norms(seed: u64, n: usize) -> Vec<f64> {
        use ssjoin_prng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let resolution = 1.0 / Weight::SCALE as f64;
        let top = (u64::MAX / Weight::SCALE) as f64;
        let mut norms = vec![0.0, 1.0, resolution, top, top * 2.0];
        norms.extend((0..n).map(|_| match rng.gen_range(0u32..5) {
            0 => f64::from(rng.gen_range(0u32..200)),
            1 => f64::from(rng.next_u32()) / f64::from(u32::MAX) * 40.0,
            2 => f64::from(rng.gen_range(0u32..4096)) * resolution,
            3 => top - f64::from(rng.gen_range(0u32..1 << 20)) * 1024.0,
            _ => 0.0,
        }));
        norms
    }

    #[test]
    fn split_is_exact_for_every_packaged_predicate() {
        let hamming = |k: f64| {
            OverlapPredicate::new(vec![NormExpr::Sub(
                boxed(NormExpr::Max(
                    boxed(NormExpr::RNorm),
                    boxed(NormExpr::SNorm),
                )),
                boxed(NormExpr::Const(k)),
            )])
        };
        let preds = [
            OverlapPredicate::absolute(3.0),
            OverlapPredicate::absolute(0.4),
            OverlapPredicate::absolute(1e14),
            OverlapPredicate::r_normalized(0.8),
            OverlapPredicate::s_normalized(0.85),
            OverlapPredicate::two_sided(0.9),
            property4(0.85, 3),
            property4(0.95, 3),
            hamming(2.0),
        ];
        let norms = random_norms(23, 300);
        for pred in &preds {
            let split = pred.split().unwrap_or_else(|| panic!("{pred} must split"));
            // A symmetric self-join keeps one column for both roles, which
            // needs the two sides' requirements equal at every norm.
            if pred.is_symmetric() {
                for &x in &norms {
                    assert_eq!(split.required_r(x), split.required_s(x), "{pred} at {x}");
                }
            }
            for (i, &r) in norms.iter().enumerate() {
                // Every R norm against a stride of S norms, both orders.
                for &s in norms.iter().skip(i % 7).step_by(7) {
                    for (a, b) in [(r, s), (s, r)] {
                        let want = pred.required_overlap(a, b);
                        let got = split.required_r(a).max(split.required_s(b));
                        assert_eq!(got.raw(), want.raw(), "{pred} at r={a} s={b}");
                    }
                }
            }
        }
    }

    #[test]
    fn split_is_refused_where_it_would_not_be_exact() {
        use NormExpr::*;
        let cosine = OverlapPredicate::new(vec![Mul(
            boxed(Const(0.8)),
            boxed(Mul(boxed(RNorm), boxed(SNorm))),
        )]);
        // Property 4 at θ = 0.6, q = 3: c = 1 − 0.4·3 < 0.
        let negative = property4(0.6, 3);
        let zero = OverlapPredicate::new(vec![Mul(
            boxed(Max(boxed(RNorm), boxed(SNorm))),
            boxed(Const(0.0)),
        )]);
        let min = OverlapPredicate::new(vec![Min(boxed(RNorm), boxed(SNorm))]);
        let minus_max = OverlapPredicate::new(vec![Sub(
            boxed(Const(10.0)),
            boxed(Max(boxed(RNorm), boxed(SNorm))),
        )]);
        for pred in [cosine, negative, zero, min, minus_max] {
            assert!(pred.split().is_none(), "{pred} must not split");
        }
    }

    #[test]
    fn s_side_lower_bound_mirror() {
        let p = OverlapPredicate::two_sided(0.8);
        let lb = p.required_lower_bound_s(10.0, Interval::new(4.0, 20.0));
        // Conjuncts: 0.8·R (lower 3.2) and 0.8·S = 8 → max = 8.
        assert_eq!(
            lb,
            p.required_overlap(4.0, 10.0)
                .max(Weight::from_f64_threshold(8.0))
        );
        assert!(lb <= p.required_overlap(12.0, 10.0));
    }

    #[test]
    fn display_rendering() {
        let p = OverlapPredicate::two_sided(0.8);
        assert_eq!(
            p.to_string(),
            "Overlap >= (0.8 * R.norm) AND Overlap >= (0.8 * S.norm)"
        );
        let e = NormExpr::Sub(
            Box::new(NormExpr::Max(
                Box::new(NormExpr::RNorm),
                Box::new(NormExpr::SNorm),
            )),
            Box::new(NormExpr::Const(2.0)),
        );
        assert_eq!(e.to_string(), "(max(R.norm, S.norm) - 2)");
    }

    #[test]
    fn norm_ratio_conjunct() {
        let p = OverlapPredicate::absolute(1.0).with_norm_ratio(0.8);
        assert_eq!(p.norm_ratio(), Some(0.8));
        assert_eq!(
            p.to_string(),
            "Overlap >= 1 AND min(R.norm, S.norm) >= 0.8 * max(R.norm, S.norm)"
        );
        assert!(p.is_symmetric());
        assert!(!OverlapPredicate::r_normalized(0.5)
            .with_norm_ratio(0.8)
            .is_symmetric());
        // The ratio is part of the check, whatever the overlap.
        assert!(p.check(w(5.0), 10.0, 8.0));
        assert!(!p.check(w(5.0), 10.0, 7.9));
        assert!(!p.check(w(5.0), 7.9, 10.0));
        assert!(OverlapPredicate::absolute(1.0).check(w(5.0), 10.0, 1.0));
    }

    #[test]
    fn partner_window_holds_exactly_the_compatible_norms() {
        let norms: Vec<f64> = random_norms(5, 200)
            .into_iter()
            .filter(|n| *n < 1e9)
            .chain((0..60).map(f64::from))
            .collect();
        let mut sorted = norms.clone();
        sorted.sort_by(f64::total_cmp);
        for rho in [0.1, 0.5, 0.8, 0.85 - 1e-12, 0.9, 0.999_999, 1.0] {
            let p = OverlapPredicate::absolute(1.0).with_norm_ratio(rho);
            for &n in &norms {
                let window = p.partner_window(n, &sorted);
                for (i, &m) in sorted.iter().enumerate() {
                    assert_eq!(
                        window.contains(&i),
                        p.norms_compatible(n, m),
                        "rho {rho} n {n} m {m}"
                    );
                    assert_eq!(p.norms_compatible(n, m), p.norms_compatible(m, n));
                }
            }
        }
        // Without a ratio the window is everything.
        assert_eq!(
            OverlapPredicate::absolute(1.0).partner_window(3.0, &sorted),
            0..sorted.len()
        );
    }

    #[test]
    #[should_panic(expected = "norm ratio must be in (0, 1]")]
    fn norm_ratio_out_of_range_panics() {
        let _ = OverlapPredicate::absolute(1.0).with_norm_ratio(1.5);
    }

    #[test]
    #[should_panic(expected = "at least one conjunct")]
    fn empty_predicate_panics() {
        OverlapPredicate::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_interval_panics() {
        Interval::new(2.0, 1.0);
    }
}
