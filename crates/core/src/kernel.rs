//! Threshold-aware overlap kernels.
//!
//! Candidate verification — computing `wt(r ∩ s)` and comparing it against
//! the predicate's required overlap — dominates SSJoin runtime once the
//! prefix filter has pruned the candidate space. These kernels fuse the
//! HAVING comparison into the merge itself: they return `Some(overlap)`
//! exactly when `overlap >= required`, and may return `None` *early*, as
//! soon as the accumulated weight plus the smallest remaining suffix weight
//! provably cannot reach `required`.
//!
//! The early-exit bound: at merge state `(i, j)` over sets `a` and `b`, any
//! element still matchable lies in `a[i..] ∩ b[j..]`, whose weight is at
//! most `min(suffix_a[i], suffix_b[j])`, each set's suffix weight. No
//! suffix column is stored ([`crate::SetCollection`]): a kernel tracks each
//! suffix as the set's total minus the weight its cursor has passed —
//! `(len − i)·ONE` for unit weights, where nothing is read. If
//! `acc + min(suffix_a[i], suffix_b[j]) < required`, no continuation of the
//! merge reaches the threshold, so the pair is rejected without touching the
//! remaining elements. The exit fires only on rejection; an accepted pair is
//! merged to completion so the reported overlap is exact.
//!
//! Both sets of a pair share one universe and so one weight table
//! (`None` for unit weights): an unweighted overlap is its match count
//! times [`Weight::ONE`], and a weighted merge reads `table[rank]` for the
//! elements it passes.
//!
//! [`verify_overlap`] is the one production kernel: the early-exit merge,
//! switching to a galloping probe of the longer side when the length ratio
//! reaches [`GALLOP_CROSSOVER`] — the skewed candidate pairs the
//! frequency-ascending order `O` produces. Its two paths are public as
//! [`overlap_at_least`] and [`overlap_gallop`], and the full linear merge
//! behind [`crate::SetRef::overlap`] is the correctness oracle the property
//! tests pit them against. All agree bit-for-bit on acceptance and on the
//! returned overlap; the counters `merge_steps`, `early_exits`, and
//! `gallop_probes` in [`crate::SsJoinStats`] show how much work rejection
//! cost.

use crate::set::{unit_total, weight_at, SetRef};
use crate::stats::SsJoinStats;
use crate::weight::Weight;

/// Length ratio (longer / shorter) at which [`verify_overlap`] switches
/// from stepwise merging to galloping the longer side.
pub const GALLOP_CROSSOVER: usize = 8;

/// Verify one candidate pair: returns `Some(wt(a ∩ b))` iff the overlap
/// reaches `required`, updating the kernel counters in `stats`. Gallops the
/// longer side when the length ratio reaches [`GALLOP_CROSSOVER`]; merges
/// with the suffix-weight early exit otherwise.
#[inline]
pub fn verify_overlap(
    a: SetRef<'_>,
    b: SetRef<'_>,
    required: Weight,
    stats: &mut SsJoinStats,
) -> Option<Weight> {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if !short.is_empty() && long.len() / short.len() >= GALLOP_CROSSOVER {
        overlap_gallop(short, long, required, stats)
    } else {
        overlap_at_least(a, b, required, stats)
    }
}

/// The total weight of `ranks` under a universe's table: `len · ONE`, read
/// from nothing, for unit weights.
#[inline]
fn total_of(table: Option<&[Weight]>, ranks: &[u32]) -> Weight {
    match table {
        None => unit_total(ranks.len()),
        Some(t) => ranks.iter().map(|&rank| t[rank as usize]).sum(),
    }
}

/// Full two-pointer merge of two rank-sorted sets, counting each advance in
/// `steps`. Backing for [`SetRef::overlap`], the kernels' oracle.
///
/// Split into two branch-light passes over the CSR pools:
///
/// 1. a **counting pass** over the rank slices alone — flag-arithmetic
///    advances (`i += (x <= y)`, `j += (y <= x)`) with no weight loads, so
///    the loop body is three compares and three adds the compiler keeps in
///    registers with no unpredictable branch;
/// 2. for a weighted pair, a **weight-accumulation pass** that re-walks the
///    ranks summing `table[rank]` over the shared elements, entered only
///    when the counting pass found any matches and stopping as soon as all
///    of them are consumed. An unweighted pair's overlap is `matches · ONE`.
///
/// The counting pass advances the cursors exactly as the classic three-way
/// merge does (less → left, greater → right, equal → both) and ticks
/// `steps` once per iteration, so the reported `merge_steps` are identical
/// to the pre-split kernel's.
pub(crate) fn merge_full(a: SetRef<'_>, b: SetRef<'_>, steps: &mut u64) -> Weight {
    let ar = a.ranks();
    let br = b.ranks();
    let (mut i, mut j) = (0usize, 0usize);
    let mut matches = 0usize;
    while i < ar.len() && j < br.len() {
        *steps += 1;
        let (x, y) = (ar[i], br[j]);
        matches += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    match a.table() {
        _ if matches == 0 => Weight::ZERO,
        None => unit_total(matches),
        Some(table) => accumulate_matches(ar, br, table, matches),
    }
}

/// Weight-accumulation pass of [`merge_full`]: sum `table[rank]` over the
/// `matches` ranks shared by `ar` and `br`, stopping the moment the last
/// match is consumed, so disjoint tails are never touched.
fn accumulate_matches(ar: &[u32], br: &[u32], table: &[Weight], matches: usize) -> Weight {
    let (mut i, mut j) = (0usize, 0usize);
    let mut acc = Weight::ZERO;
    let mut left = matches;
    while left > 0 {
        let (x, y) = (ar[i], br[j]);
        if x == y {
            acc += table[x as usize];
            left -= 1;
        }
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    acc
}

/// Threshold-aware merge: returns `Some(wt(a ∩ b))` iff it reaches
/// `required`, abandoning the merge (and returning `None`) as soon as
/// `acc + min(suffix_a[i], suffix_b[j]) < required`. Exposed for the
/// property tests that pit it against the linear oracle.
pub fn overlap_at_least(
    a: SetRef<'_>,
    b: SetRef<'_>,
    required: Weight,
    stats: &mut SsJoinStats,
) -> Option<Weight> {
    let (ar, br, table) = (a.ranks(), b.ranks(), a.table());
    let (mut i, mut j) = (0usize, 0usize);
    let mut acc = Weight::ZERO;
    // suffix_a[i] and suffix_b[j]: each total minus the weight passed.
    let (mut rest_a, mut rest_b) = (a.total_weight(), b.total_weight());
    while i < ar.len() && j < br.len() {
        if acc + rest_a.min(rest_b) < required {
            stats.early_exits += 1;
            return None;
        }
        stats.merge_steps += 1;
        // Flag-arithmetic advance: same cursor moves (and thus the same
        // step and early-exit points) as a three-way compare, with one
        // equality branch instead of an unpredictable three-way jump.
        let (x, y) = (ar[i], br[j]);
        if x == y {
            acc += weight_at(table, x);
        }
        if x <= y {
            rest_a = rest_a.saturating_sub(weight_at(table, x));
        }
        if y <= x {
            rest_b = rest_b.saturating_sub(weight_at(table, y));
        }
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    (acc >= required).then_some(acc)
}

/// Galloping variant for skewed-length pairs: walks the `short` set and
/// locates each rank in `long` by exponential probe plus binary search,
/// applying the same suffix-weight early-exit bound per short element.
/// Exposed for the property tests that pit it against the linear oracle.
pub fn overlap_gallop(
    short: SetRef<'_>,
    long: SetRef<'_>,
    required: Weight,
    stats: &mut SsJoinStats,
) -> Option<Weight> {
    let (lr, table) = (long.ranks(), short.table());
    let mut j = 0usize;
    let mut acc = Weight::ZERO;
    let mut rest_short = short.total_weight();
    // The long side's suffix weight at `passed`, brought up to `j` only
    // when the short side's suffix alone does not decide the exit.
    let (mut rest_long, mut passed) = (long.total_weight(), 0usize);
    for &rank in short.ranks() {
        if j >= lr.len() {
            break;
        }
        // acc + min(rest_short, rest_long) < required, as two tests.
        let exits = acc + rest_short < required || {
            rest_long = rest_long.saturating_sub(total_of(table, &lr[passed..j]));
            passed = j;
            acc + rest_long < required
        };
        if exits {
            stats.early_exits += 1;
            return None;
        }
        let pos = gallop_seek(lr, j, rank, &mut stats.gallop_probes);
        j = pos;
        let w = weight_at(table, rank);
        if pos < lr.len() && lr[pos] == rank {
            acc += w;
            j += 1;
        }
        rest_short = rest_short.saturating_sub(w);
    }
    (acc >= required).then_some(acc)
}

/// First index in `ranks[from..]` holding a value `>= target` (exponential
/// probe from `from`, then binary search over the bracketed window). Every
/// rank comparison increments `probes`.
fn gallop_seek(ranks: &[u32], from: usize, target: u32, probes: &mut u64) -> usize {
    let len = ranks.len();
    let mut lo = from;
    let mut hi = len;
    let mut bound = 1usize;
    loop {
        let idx = from + bound;
        if idx >= len {
            break;
        }
        *probes += 1;
        if ranks[idx] < target {
            lo = idx + 1;
            bound <<= 1;
        } else {
            hi = idx + 1;
            break;
        }
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        *probes += 1;
        if ranks[mid] < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::SetCollection;
    use std::sync::Arc;

    fn w(x: f64) -> Weight {
        Weight::from_f64(x)
    }

    /// Two sets over a 2^16-rank universe whose table holds the listed
    /// weights (a rank listed on both sides must weigh the same on both).
    fn pair(a: &[(u32, f64)], b: &[(u32, f64)]) -> SetCollection {
        let mut table = vec![Weight::ONE; 1 << 16];
        for &(r, x) in a.iter().chain(b) {
            table[r as usize] = w(x);
        }
        assert!(a.iter().chain(b).all(|&(r, x)| table[r as usize] == w(x)));
        let ranks = |s: &[(u32, f64)]| s.iter().map(|&(r, _)| r).collect::<Vec<_>>();
        let sets = vec![(ranks(a), 0.0), (ranks(b), 0.0)];
        SetCollection::from_sets(sets, 1 << 16, 0, Some(Arc::new(table))).unwrap()
    }

    /// The same two sets with unit weights: no table.
    fn unit_pair(a: &[(u32, f64)], b: &[(u32, f64)]) -> SetCollection {
        let ranks = |s: &[(u32, f64)]| s.iter().map(|&(r, _)| r).collect::<Vec<_>>();
        let sets = vec![(ranks(a), 0.0), (ranks(b), 0.0)];
        SetCollection::from_sets(sets, 1 << 16, 0, None).unwrap()
    }

    /// The kernel and both of its paths must agree with the linear oracle
    /// on acceptance and overlap value, in either argument order.
    fn check_all(c: &SetCollection, required: Weight) {
        let (a, b) = (c.set(0), c.set(1));
        let exact = a.overlap(b);
        let oracle = (exact >= required).then_some(exact);
        let mut st = SsJoinStats::default();
        let lin = merge_full(a, b, &mut st.merge_steps);
        assert_eq!((lin >= required).then_some(lin), oracle);
        for (x, y) in [(a, b), (b, a)] {
            let mut st = SsJoinStats::default();
            assert_eq!(
                verify_overlap(x, y, required, &mut st),
                oracle,
                "verify_overlap disagrees with oracle at required={required}"
            );
            assert_eq!(overlap_at_least(x, y, required, &mut st), oracle);
            assert_eq!(overlap_gallop(x, y, required, &mut st), oracle);
        }
    }

    #[test]
    fn kernels_agree_basic() {
        let c = pair(
            &[(1, 1.0), (2, 2.0), (5, 0.5), (9, 1.0)],
            &[(2, 2.0), (3, 9.0), (5, 0.5)],
        );
        let unit = unit_pair(
            &[(1, 1.0), (2, 2.0), (5, 0.5), (9, 1.0)],
            &[(2, 2.0), (3, 9.0), (5, 0.5)],
        );
        for req in [0.0, 1.0, 2.0, 2.5, 2.6, 3.0, 100.0] {
            check_all(&c, Weight::from_f64_threshold(req));
            check_all(&unit, Weight::from_f64_threshold(req));
        }
    }

    #[test]
    fn kernels_agree_edge_shapes() {
        type Shape = [(u32, f64)];
        let shapes: &[(&Shape, &Shape)] = &[
            (&[], &[]),
            (&[], &[(1, 1.0)]),
            (&[(3, 2.0)], &[(3, 2.0)]),
            (&[(3, 2.0)], &[(4, 2.0)]),
            (&[(0, 1.0), (2, 1.0)], &[(1, 5.0), (3, 5.0)]),
        ];
        for &(a, b) in shapes {
            let (c, unit) = (pair(a, b), unit_pair(a, b));
            for req in [0.0, 0.5, 1.0, 2.0, 3.0] {
                check_all(&c, Weight::from_f64_threshold(req));
                check_all(&unit, Weight::from_f64_threshold(req));
            }
        }
    }

    #[test]
    fn early_exit_fires_on_hopeless_pair() {
        // Long disjoint tails: requiring more than the (empty) overlap must
        // abandon the merge before walking both lists.
        let a: Vec<(u32, f64)> = (0..64).map(|i| (i * 2, 1.0)).collect();
        let b: Vec<(u32, f64)> = (0..64).map(|i| (i * 2 + 1, 1.0)).collect();
        let c = pair(&a, &b);
        let mut st = SsJoinStats::default();
        let out = verify_overlap(c.set(0), c.set(1), w(10.0), &mut st);
        assert_eq!(out, None);
        assert_eq!(st.early_exits, 1);
        let mut linear_steps = 0u64;
        let _ = merge_full(c.set(0), c.set(1), &mut linear_steps);
        assert!(
            st.merge_steps < linear_steps,
            "early exit did not save merge steps ({} vs {linear_steps})",
            st.merge_steps,
        );
    }

    #[test]
    fn accepted_pairs_report_exact_overlap() {
        // Acceptance must merge to the end: the returned overlap is exact
        // even when the threshold was already met mid-merge.
        let c = pair(
            &[(0, 5.0), (1, 5.0), (2, 1.0)],
            &[(0, 5.0), (1, 5.0), (2, 1.0)],
        );
        let mut st = SsJoinStats::default();
        let out = verify_overlap(c.set(0), c.set(1), w(6.0), &mut st);
        assert_eq!(out, Some(w(11.0)));
    }

    #[test]
    fn gallops_on_skew() {
        let short: Vec<(u32, f64)> = vec![(100, 1.0), (500, 1.0)];
        let long: Vec<(u32, f64)> = (0..1000).map(|i| (i, 1.0)).collect();
        let c = pair(&short, &long);
        let mut st = SsJoinStats::default();
        let out = verify_overlap(c.set(0), c.set(1), Weight::ZERO, &mut st);
        assert_eq!(out, Some(w(2.0)));
        assert!(st.gallop_probes > 0, "skewed pair did not gallop");
        assert!(
            st.gallop_probes < 1000,
            "galloping should probe far fewer than a linear walk"
        );
        assert_eq!(st.merge_steps, 0, "a galloped pair takes no merge steps");
    }

    #[test]
    fn gallop_seek_positions() {
        let ranks = [2u32, 4, 4, 7, 9, 12];
        let mut probes = 0u64;
        assert_eq!(gallop_seek(&ranks, 0, 0, &mut probes), 0);
        assert_eq!(gallop_seek(&ranks, 0, 2, &mut probes), 0);
        assert_eq!(gallop_seek(&ranks, 0, 5, &mut probes), 3);
        assert_eq!(gallop_seek(&ranks, 0, 12, &mut probes), 5);
        assert_eq!(gallop_seek(&ranks, 0, 13, &mut probes), 6);
        assert_eq!(gallop_seek(&ranks, 3, 9, &mut probes), 4);
        assert_eq!(gallop_seek(&ranks, 6, 1, &mut probes), 6);
        assert!(probes > 0);
    }

    #[test]
    fn required_zero_always_accepts() {
        let c = pair(&[(1, 1.0)], &[(2, 1.0)]);
        let mut st = SsJoinStats::default();
        assert_eq!(
            verify_overlap(c.set(0), c.set(1), Weight::ZERO, &mut st),
            Some(Weight::ZERO)
        );
    }
}
