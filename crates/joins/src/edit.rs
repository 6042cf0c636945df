//! Edit-similarity join via SSJoin on q-gram sets (Figure 3 of the paper).
//!
//! Property 4 (from Gravano et al.): strings within edit distance ε share at
//! least `max(|σ1|, |σ2|) − q + 1 − ε·q` q-grams. For an edit-*similarity*
//! threshold α, qualifying pairs satisfy `ED ≤ (1 − α)·max`, so their q-gram
//! overlap is at least
//!
//! ```text
//! max(|σ1|, |σ2|)·(1 − (1 − α)·q) − q + 1
//! ```
//!
//! which is exactly a [`NormExpr`] over the two string-length norms. The
//! SSJoin result is a superset of the answer; each candidate is then
//! verified with the bit-parallel edit-distance UDF, on `exec.threads`
//! workers; a self-join of one relation verifies each unordered pair once.
//!
//! **Location prefix.** Each set's prefix is also capped where its q-grams
//! sit (Ed-Join's location-based prefix, Xiao, Wang and Lin, VLDB 2008):
//! at the shortest prefix whose q-grams `τ` edits cannot all destroy, `τ`
//! being the distance budget of the longest partner the set can meet
//! (`location_caps`, DESIGN §6). The caps drop only candidates that
//! cannot qualify, so the output is unchanged.
//!
//! **Short strings.** When both strings are shorter than `q / (1 − (1−α)q)`
//! the bound above is below 1 and the q-gram filter can miss qualifying
//! pairs (they may share no q-gram at all). The paper's evaluation (long
//! address strings, α ≥ 0.8) never hits this; this implementation handles
//! it *exactly* by routing the short strings of both sides through a
//! brute-force check, so the join is correct for every input.

use crate::common::{
    check_threshold, run_join, sides, verify_uncovered, JoinSpec, Relation, SimilarityJoinOutput,
};
use ssjoin_core::{
    Algorithm, CapRule, ElementOrder, ExecContext, JoinPair, NormExpr, NormKind, OverlapPredicate,
    SetCollection, SsJoinConfig, SsJoinError, SsJoinResult, TokenGroups, WeightScheme,
};
use ssjoin_sim::{edit_distance_budget, edit_similarity_within};
use ssjoin_text::{AsRows, QGramTokenizer, RowsRef};
use std::cell::RefCell;

/// Configuration for [`edit_similarity_join`].
#[derive(Debug, Clone)]
pub struct EditJoinConfig {
    /// q-gram length: chosen from the threshold by [`Self::new`] unless
    /// overridden with [`Self::with_q`].
    pub q: usize,
    /// Edit-similarity threshold α in (0, 1].
    pub threshold: f64,
    /// SSJoin physical algorithm.
    pub algorithm: Algorithm,
    /// Execution context for the SSJoin (threads, bitmap
    /// filter, budget). The edit-distance UDF runs in the same workers.
    pub exec: ExecContext,
}

impl EditJoinConfig {
    /// Defaults: the inline algorithm, and q from the threshold — the
    /// paper's 3 from 0.8 up, 1 below, so the Property-4 bound stays usable
    /// at low thresholds. The threshold is checked when the join runs.
    pub fn new(threshold: f64) -> Self {
        Self {
            q: qgram_length(threshold),
            threshold,
            algorithm: Algorithm::Inline,
            exec: ExecContext::new(),
        }
    }

    /// Override the SSJoin algorithm.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Override the execution context (threads, bitmap
    /// filter, budget).
    pub fn with_exec(mut self, exec: ExecContext) -> Self {
        self.exec = exec;
        self
    }

    /// Override q (checked when the join runs): the paper's panels pin
    /// q = 3 at every threshold.
    pub fn with_q(mut self, q: usize) -> Self {
        self.q = q;
        self
    }
}

/// The q-gram length for threshold `alpha`: the paper's 3 from α = 0.8 up,
/// and 1 below it. Below 0.8 a 3-gram bound weakens towards brute force (at
/// α = 0.6 its coefficient `1 − (1 − α)·3` is negative) while the
/// single-character bound stays strong. The cut compares α itself, never
/// the float coefficient. ROADMAP item 2 holds the timings behind it.
pub(crate) fn qgram_length(alpha: f64) -> usize {
    if alpha >= 0.8 {
        3
    } else {
        1
    }
}

/// Coefficient `1 − (1 − α)·q` of the Property-4 overlap bound.
fn coefficient(alpha: f64, q: usize) -> f64 {
    1.0 - (1.0 - alpha) * q as f64
}

/// Strings strictly shorter than this cannot rely on the q-gram bound (the
/// bound is < 1 when both partners are shorter). `usize::MAX` when the
/// coefficient is non-positive: then *no* length is safe and matching
/// degenerates to brute force.
pub(crate) fn short_cutoff(alpha: f64, q: usize) -> usize {
    let c = coefficient(alpha, q);
    if c <= 0.0 {
        usize::MAX
    } else {
        // Smallest L with L·c − q + 1 ≥ 1.
        (q as f64 / c).ceil() as usize
    }
}

/// The Property-4 predicate at threshold `alpha` over string-length norms:
/// `Overlap ≥ max(R.norm, S.norm)·(1 − (1−α)q) − (q − 1)`, with the length
/// filter `min(R.norm, S.norm) ≥ ρ·max(R.norm, S.norm)` as its norm ratio
/// ([`length_ratio`]).
pub(crate) fn property4_predicate(alpha: f64, q: usize) -> OverlapPredicate {
    OverlapPredicate::new(vec![NormExpr::Sub(
        Box::new(NormExpr::Mul(
            Box::new(NormExpr::Max(
                Box::new(NormExpr::RNorm),
                Box::new(NormExpr::SNorm),
            )),
            Box::new(NormExpr::Const(coefficient(alpha, q))),
        )),
        Box::new(NormExpr::Const(q as f64 - 1.0)),
    )])
    .with_norm_ratio(length_ratio(alpha))
}

/// The length ratio ρ of threshold `alpha` ∈ (0, 1] (Gravano et al.'s
/// length filter). `ES(r, s) ≥ α` needs `ED ≤ edit_distance_budget(max, α)`,
/// and `ED ≥ max − min`, so `min ≥ max − budget ≈ α·max`. The budget
/// absorbs float rounding in the similarity test, so ρ sits a relative
/// 1e-9 below α: every such pair then passes `min ≥ ρ·max` in f64 (checked
/// for every max length up to 1,024).
pub(crate) fn length_ratio(alpha: f64) -> f64 {
    alpha * (1.0 - 1e-9)
}

/// One side of an edit join in build order: each row's length in chars, and
/// the row indices sorted by (length, index). Built in that order, the
/// side's norms are sorted, so every probe's length window is one id range
/// of each posting list.
struct LengthOrder {
    /// Length of row `i`, in row order.
    lens: Vec<usize>,
    /// Set id `k` is row `order[k]`.
    order: Vec<u32>,
}

impl LengthOrder {
    fn of(rows: &(impl AsRows + ?Sized)) -> Self {
        let rows = rows.as_rows();
        let lens: Vec<usize> = rows.iter().map(|x| x.chars().count()).collect();
        let mut order: Vec<u32> = (0..rows.len()).map(|i| i as u32).collect();
        order.sort_by_key(|&i| lens[i as usize]);
        Self { lens, order }
    }

    /// The side's relation: the q-gram sets of `rows` in length order, with
    /// the lengths as norms, capped by `caps`.
    fn relation<'a>(
        &'a self,
        rows: &'a (dyn AsRows + Sync),
        tok: &'a QGramTokenizer,
        caps: CapRule<'a>,
    ) -> Relation<'a> {
        let norms = self.order.iter().map(|&i| self.lens[i as usize] as f64);
        (
            TokenGroups::Text {
                rows,
                tokenizer: tok,
                order: Some(&self.order),
            },
            NormKind::Custom(norms.collect()),
            Some(caps),
        )
    }

    /// Length of set `k` (row `order[k]`).
    fn len_of(&self, k: usize) -> usize {
        self.lens[self.order[k] as usize]
    }

    /// The longest length of this side that `pred`'s length window admits
    /// as a partner of a string of `len` chars, or `len` if that is longer;
    /// `None` when the window holds none of this side's rows.
    fn longest_partner(&self, len: usize, pred: &OverlapPredicate) -> Option<usize> {
        let n = len as f64;
        let compatible = |i: u32| pred.norms_compatible(n, self.lens[i as usize] as f64);
        let start = self
            .order
            .partition_point(|&i| self.lens[i as usize] < len && !compatible(i));
        let end = self
            .order
            .partition_point(|&i| self.lens[i as usize] <= len || compatible(i));
        (start < end).then(|| self.len_of(end - 1).max(len))
    }

    /// The rows shorter than `cutoff`, ascending.
    fn shorter_than(&self, cutoff: usize) -> Vec<u32> {
        (0..self.lens.len() as u32)
            .filter(|&i| self.lens[i as usize] < cutoff)
            .collect()
    }
}

/// Fewest points that stab every interval `[first_by_at[at], at + q − 1]`
/// over the token indices `at` set in the bitmask `ats` (64 per word), each
/// interval's first char no later than its `at`. This is the greedy stab,
/// which is optimal: it takes the intervals by right end (by `at`) and puts
/// a point at the end of each one that no earlier point lies in.
pub(crate) fn stab_count(ats: &[u64], first_by_at: &[u32], q: usize) -> usize {
    let mut count = 0;
    // Every point so far lies below `free`; an interval with `at < free`
    // contains the last point, as it starts no later than `at`.
    let mut free = 0usize;
    for (w, &word) in ats.iter().enumerate() {
        let base = w * 64;
        let below = |free: usize| match free.saturating_sub(base) {
            0 => 0,
            n if n >= 64 => u64::MAX,
            n => (1 << n) - 1,
        };
        let mut bits = word & !below(free);
        while bits != 0 {
            let at = base + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if first_by_at[at] as usize >= free {
                count += 1;
                free = at + q;
                bits &= !below(free);
            }
        }
    }
    count
}

thread_local! {
    /// [`location_caps`]' scratch on each build worker: the prefix's token
    /// indices as a bitmask, and each one's first-occurrence index.
    static CAP_SCRATCH: RefCell<(Vec<u64>, Vec<u32>)> = const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The location-based prefix caps of one q-gram set, for the distance
/// budgets `taus`: `caps[i]` is the length of the shortest prefix that
/// `taus[i]` edits cannot wholly destroy, or the set's size if none is.
///
/// `spans` holds the set's elements in rank order as the core's
/// [`CapRule`] passes them, `(first, at)` token indices — token index =
/// char position for unpadded q-grams. Element `(g, k)` spans the chars
/// from g's first window to the end of its k-th, `[first, at + q − 1]`: an
/// edit outside the span leaves g's first k occurrences intact, so they
/// survive into the partner and so does `(g, k)`. A prefix whose spans need
/// more than τ stabbing points ([`stab_count`]) therefore keeps an element
/// through any τ edits. `taus` must be ascending.
///
/// Only the first `scan` elements are examined: a cap that would fall past
/// them is reported as the whole set, which is sound (the core then keeps
/// its own prefix) and changes nothing when `scan` is at least that prefix.
pub(crate) fn location_caps(
    spans: &[(u32, u32)],
    q: usize,
    taus: [usize; 2],
    scan: usize,
) -> [u32; 2] {
    debug_assert!(taus[0] <= taus[1], "budgets {taus:?} must ascend");
    CAP_SCRATCH.with(|scratch| {
        let (ats, first_by_at) = &mut *scratch.borrow_mut();
        // One past the last token index (the set's size, from the build).
        let end = spans
            .iter()
            .map(|&(_, at)| at as usize + 1)
            .max()
            .unwrap_or(0);
        ats.clear();
        ats.resize(end.div_ceil(64), 0);
        if first_by_at.len() < end {
            first_by_at.resize(end, 0);
        }
        let mut caps = [spans.len() as u32; 2];
        // The cap being sought, and the prefix length at which its budget
        // can first be exceeded: each element adds at most one point.
        let (mut k, mut next) = (0, taus[0] + 1);
        for (i, &(first, at)) in spans.iter().take(scan).enumerate() {
            let at = at as usize;
            ats[at / 64] |= 1 << (at % 64);
            first_by_at[at] = first;
            if i + 1 < next {
                continue;
            }
            let stabs = stab_count(ats, first_by_at, q);
            while k < 2 && stabs > taus[k] {
                caps[k] = i as u32 + 1;
                k += 1;
            }
            if k == 2 {
                break;
            }
            next = i + 1 + (taus[k] + 1 - stabs);
        }
        caps
    })
}

/// The distance budgets a set's location caps must survive, as R and as S.
/// A set as S (the indexed side) may meet the longest partner its length
/// window admits on the other side, so it takes that partner's budget. As
/// R, a set of a one-relation self-join probes only partners no longer than
/// itself (the half path), so its own length's budget bounds every distance
/// it must survive; a two-relation probe may meet longer partners and takes
/// the S budget.
struct Budgets<'p> {
    predicate: &'p OverlapPredicate,
    alpha: f64,
    q: usize,
    one_relation: bool,
}

impl Budgets<'_> {
    /// `[R budget, S budget]` of `side`'s set `k` against `other`; `None`
    /// when no row of `other` lies in the set's length window.
    fn of(&self, side: &LengthOrder, other: &LengthOrder, k: usize) -> Option<[usize; 2]> {
        let budget = |len: usize| edit_distance_budget(len, self.alpha).unwrap_or(0);
        let len = side.len_of(k);
        let tau_s = budget(other.longest_partner(len, self.predicate)?);
        let tau_r = if self.one_relation {
            budget(len)
        } else {
            tau_s
        };
        Some([tau_r, tau_s])
    }

    /// The [`location_caps`] of `side`'s set `k`, whose elements the build
    /// hands over as `spans`, scanning no further than [`Self::lemma1_bound`].
    /// A set with no partner in its length window meets no pair: it keeps
    /// the whole set as its cap, and no span is counted.
    fn caps(
        &self,
        side: &LengthOrder,
        other: &LengthOrder,
        k: usize,
        spans: &[(u32, u32)],
    ) -> [u32; 2] {
        let Some(taus) = self.of(side, other, k) else {
            return [spans.len() as u32; 2];
        };
        let scan = self.lemma1_bound(side.len_of(k), spans.len());
        location_caps(spans, self.q, taus, scan)
    }

    /// An upper bound on the Lemma-1 prefix the core keeps of a string of
    /// `len` chars with `n` q-grams, whichever its partner: Property 4
    /// requires an overlap of at least `len·c − (q − 1)` (c the
    /// coefficient), and with unit weights the prefix holds `⌊n − that⌋ + 1`
    /// q-grams; one more absorbs the fixed-point rounding of the bound. The
    /// core keeps the shorter of its prefix and the cap, so no cap past
    /// this bound can shorten a prefix.
    fn lemma1_bound(&self, len: usize, n: usize) -> usize {
        let c = coefficient(self.alpha, self.q);
        if c <= 0.0 {
            return n;
        }
        let slack = n as f64 - len as f64 * c + (self.q - 1) as f64;
        ((slack.max(0.0).floor() as usize) + 2).min(n)
    }
}

/// Edit-similarity join: all pairs `(i, j)` with
/// `edit_similarity(r[i], s[j]) ≥ threshold`. Pass the same rows twice for
/// a self-join: it is tokenized and built once.
///
/// Each side is built over its rows in (length, index) order, so the
/// predicate's length filter cuts one id range from each posting list;
/// pairs are mapped back to row indices before they are returned.
///
/// # Errors
/// Returns [`SsJoinError::Config`] when the threshold is outside `(0, 1]`
/// or `q` is zero, and any error of the underlying SSJoin.
///
/// ```
/// use ssjoin_joins::{edit_similarity_join, EditJoinConfig};
///
/// let data: Vec<String> = vec!["Microsoft Corp".into(), "Mcrosoft Corp".into()];
/// let out = edit_similarity_join(&data, &data, &EditJoinConfig::new(0.9)).unwrap();
/// assert!(out.keys().contains(&(0, 1))); // one deletion over 14 chars ≈ 0.93
/// ```
pub fn edit_similarity_join<R: AsRows + ?Sized, S: AsRows + ?Sized>(
    r: &R,
    s: &S,
    config: &EditJoinConfig,
) -> SsJoinResult<SimilarityJoinOutput> {
    edit_join_rows(r.as_rows(), s.as_rows(), config)
}

fn edit_join_rows(
    r: RowsRef<'_>,
    s: RowsRef<'_>,
    config: &EditJoinConfig,
) -> SsJoinResult<SimilarityJoinOutput> {
    let (alpha, q) = (config.threshold, config.q);
    if q == 0 {
        return Err(SsJoinError::Config("q must be at least 1".into()));
    }
    // Checked before the predicate, whose length ratio is read from it.
    check_threshold("threshold", alpha)?;
    let predicate = property4_predicate(alpha, q);
    let (r_side, s_own) = sides(&r, &s, LengthOrder::of);
    let s_side = s_own.as_ref().unwrap_or(&r_side);
    let mirror = s_own.is_none();
    let budgets = Budgets {
        predicate: &predicate,
        alpha,
        q,
        one_relation: mirror,
    };
    let r_caps = |k: usize, spans: &[(u32, u32)]| budgets.caps(&r_side, s_side, k, spans);
    let s_caps = |k: usize, spans: &[(u32, u32)]| budgets.caps(s_side, &r_side, k, spans);
    let spec = JoinSpec {
        thresholds: &[("threshold", alpha)],
        weights: WeightScheme::Unweighted,
        order: ElementOrder::FrequencyAsc,
        predicate: predicate.clone(),
        config: SsJoinConfig::new(config.algorithm).with_exec(config.exec.clone()),
    };
    // Prep: q-gram sets in length order, with string-length norms.
    let tok = QGramTokenizer::new(q);
    let prep = || {
        let s_rel = s_own.as_ref().map(|side| side.relation(&s, &tok, &s_caps));
        Ok((r_side.relation(&r, &tok, &r_caps), s_rel))
    };
    // Filter: SSJoin's workers verify each candidate with the edit-distance
    // UDF on its rows. The passing pairs are mapped back to rows, then the
    // pairs outside the q-gram bound's reach — both strings shorter than the
    // cutoff — are verified. A one-relation self-join decides each
    // unordered pair once (`mirror`, SSJoin's half path): edit similarity
    // is symmetric and 1.0 on the diagonal.
    let udf = |i: u32, j: u32| edit_similarity_within(r.get(i as usize), s.get(j as usize), alpha);
    let (r_order, s_order) = (&r_side.order, &s_side.order);
    let filter = |p: &JoinPair, _: &SetCollection, _: &SetCollection| {
        udf(r_order[p.r as usize], s_order[p.s as usize])
    };
    let post = |out: &mut SimilarityJoinOutput, _: &SetCollection, _: &SetCollection| {
        for p in &mut out.pairs {
            (p.r, p.s) = (r_order[p.r as usize], s_order[p.s as usize]);
        }
        out.pairs.sort_unstable_by_key(|p| (p.r, p.s));
        let cutoff = short_cutoff(alpha, q);
        let short_s = s_side.shorter_than(cutoff);
        let uncovered = r_side
            .shorter_than(cutoff)
            .into_iter()
            .flat_map(|i| short_s.iter().map(move |&j| (i, j)));
        verify_uncovered(out, uncovered, mirror, udf);
    };
    run_join(spec, prep, filter, post)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssjoin_baselines_testutil::*;

    // Local brute force (the baselines crate is not a dependency here).
    mod ssjoin_baselines_testutil {
        use ssjoin_sim::edit_similarity;

        pub fn brute_force(r: &[String], s: &[String], alpha: f64) -> Vec<(u32, u32)> {
            let mut out = Vec::new();
            for (i, a) in r.iter().enumerate() {
                for (j, b) in s.iter().enumerate() {
                    if edit_similarity(a, b) >= alpha - 1e-12 {
                        out.push((i as u32, j as u32));
                    }
                }
            }
            out
        }
    }

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn sample() -> Vec<String> {
        strings(&[
            "microsoft corporation",
            "microsoft corp",
            "mcrosoft corp",
            "oracle incorporated",
            "oracle inc",
            "148th ave ne redmond wa",
            "147th ave ne redmond wa",
        ])
    }

    #[test]
    fn matches_brute_force_across_thresholds_and_algorithms() {
        let data = sample();
        for alpha in [0.75, 0.8, 0.85, 0.9, 0.95] {
            let expect = brute_force(&data, &data, alpha);
            for alg in [
                Algorithm::Basic,
                Algorithm::PrefixFiltered,
                Algorithm::Inline,
            ] {
                let cfg = EditJoinConfig::new(alpha).with_algorithm(alg);
                let out = edit_similarity_join(&data, &data, &cfg).unwrap();
                assert_eq!(out.keys(), expect, "alpha={alpha} alg={alg:?}");
            }
        }
    }

    #[test]
    fn q_rule_pins_each_threshold() {
        for (alpha, q) in [
            (0.3, 1),
            (0.6, 1),
            (0.65, 1),
            (0.7, 1),
            (0.75, 1),
            (0.8 - 1e-12, 1),
            (0.8, 3),
            (0.85, 3),
            (0.9, 3),
            (0.95, 3),
            (1.0, 3),
        ] {
            assert_eq!(qgram_length(alpha), q, "alpha {alpha}");
            assert_eq!(EditJoinConfig::new(alpha).q, q, "alpha {alpha}");
            // The chosen q keeps the Property-4 bound positive, so only
            // strings below a finite cutoff take the brute-force route.
            assert!(coefficient(alpha, q) > 0.0, "alpha {alpha}");
            assert!(short_cutoff(alpha, q) < usize::MAX, "alpha {alpha}");
        }
    }

    #[test]
    fn length_window_keeps_every_pair_within_the_edit_budget() {
        use ssjoin_sim::edit_distance_budget;
        // Norms 0..=1024, sorted: a probe's window is an id range of them.
        let norms: Vec<f64> = (0..=1024).map(f64::from).collect();
        let thetas = (50..=100)
            .map(|t| f64::from(t) / 100.0)
            .chain([0.85 - 1e-12, 0.85 + 1e-12]);
        for theta in thetas {
            let pred = property4_predicate(theta, qgram_length(theta));
            for max in 0..=1024usize {
                let budget = edit_distance_budget(max, theta).unwrap();
                let shortest = max - budget.min(max);
                // As probe: the window of `max` holds every length the
                // budget reaches, `max` itself included.
                let window = pred.partner_window(max as f64, &norms);
                assert!(
                    window.start <= shortest && window.end > max,
                    "theta {theta} max {max}: {window:?} misses {shortest}..={max}"
                );
                // As partner: each such length's window holds `max`.
                for len in shortest..=max {
                    let window = pred.partner_window(len as f64, &norms);
                    assert!(window.contains(&max), "theta {theta} len {len} max {max}");
                }
            }
        }
    }

    #[test]
    fn short_strings_handled_exactly() {
        // "ab" vs "ac": ES = 0.5; with α = 0.5 and q = 3 the q-gram bound is
        // vacuous for these lengths — they share no 3-gram — yet the pair
        // must be found.
        let data = strings(&["ab", "ac", "abcdefgh"]);
        let alpha = 0.5;
        let cfg = EditJoinConfig::new(alpha).with_q(3);
        let out = edit_similarity_join(&data, &data, &cfg).unwrap();
        let expect = brute_force(&data, &data, alpha);
        assert_eq!(out.keys(), expect);
        assert!(out.keys().contains(&(0, 1)));
    }

    #[test]
    fn short_zero_shared_qgram_pairs_found_every_algorithm() {
        // Strings below the Property-4 cutoff that share *zero* q-grams must
        // still be found by the brute-force route, regardless of the SSJoin
        // algorithm the candidate phase runs.
        let alpha = 0.5; // one substitution over length 2 → similarity 0.5
        let data = strings(&["ab", "ax", "xy", "xz", "abcdefghij"]);
        let expect = brute_force(&data, &data, alpha);
        assert!(expect.contains(&(0, 1)), "sanity: (ab, ax) qualifies");
        assert!(expect.contains(&(2, 3)), "sanity: (xy, xz) qualifies");
        for alg in [
            Algorithm::Basic,
            Algorithm::PrefixFiltered,
            Algorithm::Inline,
        ] {
            let cfg = EditJoinConfig::new(alpha).with_q(3).with_algorithm(alg);
            let out = edit_similarity_join(&data, &data, &cfg).unwrap();
            assert_eq!(out.keys(), expect, "alg {alg:?}");
        }
    }

    #[test]
    fn degenerate_coefficient_routes_everything_brute_force() {
        // α = 0.5, q = 3 → coefficient 1 − 0.5·3 = −0.5 ≤ 0: no length is
        // safe and the cutoff is usize::MAX, so the whole join must fall
        // back to the exact brute-force route and still be correct.
        let cfg = EditJoinConfig::new(0.5).with_q(3);
        assert_eq!(short_cutoff(0.5, 3), usize::MAX);
        let data = strings(&["hello world", "hello worlds", "abcd", "abce", "zzz"]);
        let expect = brute_force(&data, &data, 0.5);
        let out = edit_similarity_join(&data, &data, &cfg).unwrap();
        assert_eq!(out.keys(), expect);
        assert!(out.keys().contains(&(0, 1)));
        assert!(out.keys().contains(&(2, 3)));
    }

    #[test]
    fn asymmetric_short_sides_covered() {
        // Short strings only on one side: the brute-force route crosses the
        // short strings of *both* sides, so a short-R × short-S pair sharing
        // no q-gram is found even when the collections differ.
        let r = strings(&["ab", "longer string here"]);
        let s = strings(&["ax", "completely different text"]);
        let alpha = 0.5;
        let expect = brute_force(&r, &s, alpha);
        assert!(expect.contains(&(0, 0)));
        let out = edit_similarity_join(&r, &s, &EditJoinConfig::new(alpha).with_q(3)).unwrap();
        assert_eq!(out.keys(), expect);
    }

    #[test]
    fn empty_strings_in_input() {
        // Empty strings tokenize to the empty q-gram set (see ssjoin-text);
        // ES("", "") = 1 must still be emitted via the brute-force route and
        // ("", non-empty) must not qualify at high thresholds.
        let data = strings(&["", "", "abc"]);
        let alpha = 0.9;
        let expect = brute_force(&data, &data, alpha);
        assert!(expect.contains(&(0, 1)), "two empty strings are identical");
        let out = edit_similarity_join(&data, &data, &EditJoinConfig::new(alpha)).unwrap();
        assert_eq!(out.keys(), expect);
    }

    #[test]
    fn paper_example_found_at_high_threshold() {
        // "Microsoft Corp" vs "Mcrosoft Corp": ED 1 over max length 14 →
        // similarity ≈ 0.93.
        let data = strings(&["Microsoft Corp", "Mcrosoft Corp"]);
        let out = edit_similarity_join(&data, &data, &EditJoinConfig::new(0.9)).unwrap();
        assert!(out.keys().contains(&(0, 1)));
        let pair = out.pairs.iter().find(|p| p.r == 0 && p.s == 1).unwrap();
        assert!((pair.similarity - (1.0 - 1.0 / 14.0)).abs() < 1e-9);
    }

    #[test]
    fn qgram_filter_prunes_verification() {
        // Diverse strings: the q-gram predicate should prune most of the
        // cross product, and the prefix filter should inspect fewer join
        // tuples than the basic algorithm.
        let data: Vec<String> = (0..60)
            .map(|i| {
                format!(
                    "{}{} {} lane unit {}",
                    char::from(b'a' + (i % 26) as u8),
                    i * 137 % 1000,
                    ["maple", "oak", "birch", "cedar", "willow"][i % 5],
                    i % 7,
                )
            })
            .collect();
        let n = data.len() as u64;
        let inline = edit_similarity_join(&data, &data, &EditJoinConfig::new(0.9)).unwrap();
        assert!(
            inline.udf_verifications < n * n / 2,
            "verified {} vs cross product {}",
            inline.udf_verifications,
            n * n
        );
        let basic = edit_similarity_join(
            &data,
            &data,
            &EditJoinConfig::new(0.9).with_algorithm(Algorithm::Basic),
        )
        .unwrap();
        assert!(
            inline.stats.join_tuples < basic.stats.join_tuples,
            "prefix join tuples {} vs basic {}",
            inline.stats.join_tuples,
            basic.stats.join_tuples
        );
    }

    #[test]
    fn empty_inputs() {
        let none: Vec<String> = vec![];
        let out = edit_similarity_join(&none, &none, &EditJoinConfig::new(0.8)).unwrap();
        assert!(out.pairs.is_empty());
    }

    /// [`stab_count`] of the intervals `[lo, hi]`, whose right ends differ,
    /// as `q = 1` spans: `at = hi`, first index `lo`.
    fn stabs_of(intervals: &[(u32, u32)]) -> usize {
        let n = intervals
            .iter()
            .map(|&(_, hi)| hi as usize + 1)
            .max()
            .unwrap_or(0);
        let mut ats = vec![0u64; n.div_ceil(64)];
        let mut first_by_at = vec![0u32; n];
        for &(lo, hi) in intervals {
            ats[hi as usize / 64] |= 1 << (hi % 64);
            first_by_at[hi as usize] = lo;
        }
        stab_count(&ats, &first_by_at, 1)
    }

    #[test]
    fn greedy_stab_count_is_a_minimum_hitting_set() {
        // Every set of intervals over points 0..8 with distinct right ends
        // (as token indices are) — up to 8 intervals — against the
        // smallest point set that hits them all, found by brute force.
        let hits = |points: u32, (lo, hi): (u32, u32)| points & ((2 << hi) - (1 << lo)) != 0;
        let mut by_size: Vec<u32> = (0..1 << 8).collect();
        by_size.sort_by_key(|p| p.count_ones());
        // Right end `hi` takes no interval (choice 0) or the one from
        // `choice − 1`: a mixed-radix count over every combination.
        let mut choice = [0u32; 8];
        let mut checked = 0;
        loop {
            let set: Vec<(u32, u32)> = (0..8u32)
                .filter(|&hi| choice[hi as usize] > 0)
                .map(|hi| (choice[hi as usize] - 1, hi))
                .collect();
            let fewest = by_size
                .iter()
                .find(|&&points| set.iter().all(|&iv| hits(points, iv)))
                .map(|p| p.count_ones() as usize);
            assert_eq!(Some(stabs_of(&set)), fewest, "{set:?}");
            checked += 1;
            let Some(hi) = (0..8).find(|&hi| choice[hi] < hi as u32 + 1) else {
                break;
            };
            choice[hi] += 1;
            choice[..hi].fill(0);
        }
        assert_eq!(checked, 362_880);
    }

    #[test]
    fn location_caps_cut_where_the_budget_is_exceeded() {
        // "abcdefgh", q = 3: windows k..k+2. In rank order 0, 3, 1, 5 the
        // spans [0,2] and [3,5] need 2 points, [1,3] adds none, [5,7] none.
        let spans = [(0, 0), (3, 3), (1, 1), (5, 5)];
        assert_eq!(location_caps(&spans, 3, [0, 1], 4), [1, 2]);
        assert_eq!(location_caps(&spans, 3, [1, 1], 4), [2, 2]);
        // No prefix needs 3 points: the cap is the whole set.
        assert_eq!(location_caps(&spans, 3, [2, 2], 4), [4, 4]);
        // A cap past the scanned prefix reads as the whole set.
        assert_eq!(location_caps(&spans, 3, [0, 1], 1), [1, 4]);
        // A repeated gram's later occurrences span from its first window:
        // "aaaa…" holds (aaa, k) at index k−1, every span starting at 0, so
        // one edit at char 0 destroys any prefix.
        let repeated: Vec<(u32, u32)> = (0..100).map(|at| (0, at)).collect();
        assert_eq!(location_caps(&repeated, 3, [0, 1], 100), [1, 100]);
        // Past 64 token indices the bitmask takes a second word: windows
        // 0, 3, 6, … need a point each.
        let spread: Vec<(u32, u32)> = (0..40).map(|k| (3 * k, 3 * k)).collect();
        assert_eq!(location_caps(&spread, 3, [21, 30], 40), [22, 31]);
        assert_eq!(location_caps(&[], 3, [0, 0], 0), [0, 0]);
    }

    #[test]
    fn location_caps_outlast_every_partner_budget() {
        // Each cap against its definition, from spans found afresh in the
        // row text through the universe's `(q-gram, ordinal)` per rank: the
        // shortest prefix needing more stabbing points than the budget of
        // the longest partner the set can meet in its role, found by
        // scanning the other side's lengths (as R in one relation, the
        // set's own length).
        use ssjoin_core::SsJoinInputBuilder;
        let streets = [
            "main st main st",
            "oak avenue",
            "東京東京 ave",
            "abcabcab rd",
        ];
        let rows: Vec<String> = (0..64usize)
            .map(|i| match i % 4 {
                0 => format!("{} {} unit {}", 100 + i, streets[i / 4 % 4], i % 7)
                    .repeat(1 + i % 8 / 4),
                1 => "ab".repeat(1 + i / 2),
                2 => "a".repeat(i + i / 2),
                _ => format!("{}x{}", "東京".repeat(i / 8), "ab".repeat(i / 3)),
            })
            .collect();
        let half = rows.len() / 2;
        // Sets whose length window holds no row of the other side.
        let mut lonely = 0;
        for alpha in [0.8, 0.85, 0.9] {
            let q = qgram_length(alpha);
            let predicate = property4_predicate(alpha, q);
            let budget = |len: usize| edit_distance_budget(len, alpha).unwrap();
            let tok = QGramTokenizer::new(q);
            for (r, s) in [(&rows[..], &rows[..]), (&rows[..half], &rows[half - 4..])] {
                let (r_side, s_own) = sides(r, s, LengthOrder::of);
                let s_side = s_own.as_ref().unwrap_or(&r_side);
                let one = s_own.is_none();
                let budgets = Budgets {
                    predicate: &predicate,
                    alpha,
                    q,
                    one_relation: one,
                };
                let r_rule =
                    |k: usize, spans: &[(u32, u32)]| budgets.caps(&r_side, s_side, k, spans);
                let s_rule =
                    |k: usize, spans: &[(u32, u32)]| budgets.caps(s_side, &r_side, k, spans);
                let mut builder =
                    SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
                let (groups, norm, rule) = r_side.relation(&r, &tok, &r_rule);
                let rh = builder.add_groups_capped(groups, norm, rule.unwrap());
                let sh = s_own.as_ref().map(|side| {
                    let (groups, norm, rule) = side.relation(&s, &tok, &s_rule);
                    builder.add_groups_capped(groups, norm, rule.unwrap())
                });
                let built = builder.build().unwrap();
                let roles = [
                    (&r_side, s_side, r, rh),
                    (s_side, &r_side, s, sh.unwrap_or(rh)),
                ];
                for (side, other, rows, h) in roles {
                    let (r_caps, s_caps) = built.prefix_caps(h).unwrap();
                    let c = built.collection(h);
                    for k in 0..c.len() {
                        let row: Vec<char> = rows[side.order[k] as usize].chars().collect();
                        let windows: Vec<String> = if row.len() < q {
                            vec![row.iter().collect()]
                        } else {
                            row.windows(q).map(|w| w.iter().collect()).collect()
                        };
                        let spans: Vec<(u32, u32)> = c
                            .set(k as u32)
                            .ranks()
                            .iter()
                            .map(|&rank| {
                                let (gram, ord) = built.element(rank);
                                let at: Vec<usize> =
                                    (0..windows.len()).filter(|&p| windows[p] == gram).collect();
                                (at[0] as u32, (at[ord as usize - 1] + q - 1) as u32)
                            })
                            .collect();
                        // The textbook greedy: by right end, a point at
                        // the end of each interval no point lies in yet.
                        let stabs = |n: usize| {
                            let mut prefix = spans[..n].to_vec();
                            prefix.sort_by_key(|&(_, hi)| hi);
                            let mut last = None;
                            let mut points = 0;
                            for (lo, hi) in prefix {
                                if last.is_none_or(|p| p < lo) {
                                    points += 1;
                                    last = Some(hi);
                                }
                            }
                            points
                        };
                        let len = row.len();
                        let partners: Vec<usize> = (other.lens.iter().copied())
                            .filter(|&m| predicate.norms_compatible(len as f64, m as f64))
                            .collect();
                        if partners.is_empty() {
                            // No partner in the window: no cap is counted.
                            assert_eq!([r_caps[k], s_caps[k]], [spans.len() as u32; 2]);
                            lonely += 1;
                            continue;
                        }
                        let tau_s = budget(partners.into_iter().fold(len, usize::max));
                        let tau_r = if one { budget(len) } else { tau_s };
                        let scan = budgets.lemma1_bound(len, spans.len());
                        for (cap, tau) in [(r_caps[k], tau_r), (s_caps[k], tau_s)] {
                            let want = (1..=scan).find(|&n| stabs(n) > tau).unwrap_or(spans.len());
                            assert_eq!(
                                cap as usize, want,
                                "alpha {alpha} one {one} row {row:?} tau {tau}"
                            );
                        }
                    }
                }
            }
        }
        assert!(lonely > 0);
    }

    #[test]
    fn location_caps_engage() {
        // One one-relation build, joined by `ssjoin()` uncapped and by
        // `ssjoin_filtered` with caps that scan every element: the caps cut
        // prefixes and join tuples. The edit join, whose caps stop at the
        // Lemma-1 bound, reads the same counters, so the bound cut no
        // prefix; its output is the brute-force answer.
        use ssjoin_core::{ssjoin, ssjoin_filtered, SsJoinInputBuilder, SsJoinStats};
        let data: Vec<String> = (0..240)
            .map(|i| {
                let street = ["maple street", "oak avenue", "main st main st"][i % 3];
                format!("{} {street} unit {}", 100 + i % 37, i % 11).repeat(1 + i % 5 / 4)
            })
            .collect();
        let sims: Vec<(u32, u32, f64)> = (0..data.len())
            .flat_map(|i| (0..data.len()).map(move |j| (i, j)))
            .map(|(i, j)| {
                (
                    i as u32,
                    j as u32,
                    ssjoin_sim::edit_similarity(&data[i], &data[j]),
                )
            })
            .collect();
        for alpha in [0.8, 0.85, 0.9] {
            let q = qgram_length(alpha);
            let predicate = property4_predicate(alpha, q);
            let order = LengthOrder::of(&data);
            let budgets = Budgets {
                predicate: &predicate,
                alpha,
                q,
                one_relation: true,
            };
            let full_scan = |k: usize, spans: &[(u32, u32)]| {
                location_caps(
                    spans,
                    q,
                    budgets.of(&order, &order, k).unwrap(),
                    spans.len(),
                )
            };
            let tok = QGramTokenizer::new(q);
            let (groups, norm, rule) = order.relation(&data, &tok, &full_scan);
            let mut builder =
                SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
            let h = builder.add_groups_capped(groups, norm, rule.unwrap());
            let built = builder.build().unwrap();
            let (c, (r_caps, s_caps)) = (built.collection(h), built.prefix_caps(h).unwrap());
            let config = SsJoinConfig::default();
            let uncapped = ssjoin(c, c, &predicate, &config).unwrap().stats;
            let caps = Some((r_caps, s_caps));
            let keep_all = |p: &JoinPair| Some(p.overlap.to_f64());
            let capped = ssjoin_filtered(c, c, &predicate, &config, caps, &keep_all)
                .unwrap()
                .stats;
            let joined = edit_similarity_join(&data, &data, &EditJoinConfig::new(alpha)).unwrap();
            let counters =
                |st: &SsJoinStats| (st.prefix_tuples_r, st.prefix_tuples_s, st.join_tuples);
            assert!(capped.join_tuples < uncapped.join_tuples, "alpha {alpha}");
            assert!(
                capped.prefix_tuples_r < uncapped.prefix_tuples_r,
                "alpha {alpha}"
            );
            assert!(
                capped.prefix_tuples_s < uncapped.prefix_tuples_s,
                "alpha {alpha}"
            );
            // As probe a set keeps a prefix no longer than as indexed partner.
            assert!(
                capped.prefix_tuples_r <= capped.prefix_tuples_s,
                "alpha {alpha}"
            );
            assert_eq!(counters(&joined.stats), counters(&capped), "alpha {alpha}");
            let expect: Vec<(u32, u32)> = sims
                .iter()
                .filter(|&&(_, _, sim)| sim >= alpha)
                .map(|&(i, j, _)| (i, j))
                .collect();
            assert_eq!(joined.keys(), expect, "alpha {alpha}");
        }
    }

    #[test]
    fn r_s_asymmetric_inputs() {
        let r = strings(&["hello world"]);
        let s = strings(&["hello world!", "completely different"]);
        let out = edit_similarity_join(&r, &s, &EditJoinConfig::new(0.9)).unwrap();
        assert_eq!(out.keys(), vec![(0, 0)]);
    }

    #[test]
    fn verification_threads_do_not_change_output() {
        let data: Vec<String> = (0..80)
            .map(|i| format!("{} maple street apt {}", i % 9, i % 4))
            .chain(["ab".to_string(), "ax".to_string()])
            .collect();
        let run = |threads: usize| {
            let cfg = EditJoinConfig::new(0.8).with_exec(ExecContext::new().with_threads(threads));
            edit_similarity_join(&data, &data, &cfg).unwrap()
        };
        let one = run(1);
        assert!(one.pairs.len() > data.len(), "{}", one.pairs.len());
        for threads in [2, 4] {
            let out = run(threads);
            assert_eq!(out.pairs, one.pairs, "threads {threads}");
            assert_eq!(out.udf_verifications, one.udf_verifications);
        }
    }

    #[test]
    fn unicode_strings() {
        let data = strings(&["café münchen", "cafe münchen"]);
        let out = edit_similarity_join(&data, &data, &EditJoinConfig::new(0.9)).unwrap();
        assert!(out.keys().contains(&(0, 1)));
    }

    #[test]
    fn fused_join_holds_no_rejected_pair() {
        // Rows of four street tokens drawn from five share most of their
        // q-grams, so most pairs pass the Property-4 overlap bound at 0.8,
        // but few are within edit similarity 0.8. The UDF runs in SSJoin's
        // probe workers and only its passes are kept, so on every executor
        // the packaged join reserves strictly less than a plain `ssjoin()`
        // over the same build, which holds every overlap-qualifying pair,
        // and less than half of one copy of those pairs: a join that kept
        // the rejected pairs of the lower triangle would hold more. It calls
        // the UDF as often as a verify pass over the candidate list did.
        use ssjoin_core::{ssjoin, SsJoinInputBuilder};
        let tokens = ["main st", "oak ave", "main ave", "oak st", "elm rd"];
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            tokens[(seed % 5) as usize]
        };
        let data: Vec<String> = (0..400)
            .map(|_| [next(), next(), next(), next()].join(" "))
            .collect();
        let alpha = 0.8;
        let q = qgram_length(alpha);
        let predicate = property4_predicate(alpha, q);
        let order = LengthOrder::of(&data);
        let tok = QGramTokenizer::new(q);
        let whole = |_: usize, spans: &[(u32, u32)]| [spans.len() as u32; 2];
        let (groups, norm, _) = order.relation(&data, &tok, &whole);
        let mut builder =
            SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = builder.add_groups(groups, norm);
        let built = builder.build().unwrap();
        let c = built.collection(h);
        // UDF calls of the one-relation join before the UDF moved into the
        // workers, per executor (Basic has no prefix to cap).
        for (alg, calls) in [
            (Algorithm::Basic, 68_606),
            (Algorithm::PrefixFiltered, 68_582),
            (Algorithm::Inline, 68_582),
        ] {
            let plain = ssjoin(c, c, &predicate, &SsJoinConfig::new(alg)).unwrap();
            let cfg = EditJoinConfig::new(alpha).with_algorithm(alg);
            let joined = edit_similarity_join(&data, &data, &cfg).unwrap();
            assert!(plain.pairs.len() > 4 * joined.pairs.len(), "{alg:?}");
            let held = joined.stats.bytes_reserved;
            assert!(
                held < plain.stats.bytes_reserved,
                "{alg:?}: {held} bytes reserved, a plain join {}",
                plain.stats.bytes_reserved
            );
            let half_list = std::mem::size_of::<JoinPair>() * plain.pairs.len() / 2;
            assert!(held < half_list as u64, "{alg:?}: {held} bytes reserved");
            assert_eq!(joined.udf_verifications, calls, "{alg:?}");
        }
    }
}
