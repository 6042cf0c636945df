//! Shared output types for the similarity-join layer, and the one execution
//! path every packaged join runs through ([`run_join`]).

pub use ssjoin_core::MatchPair;
use ssjoin_core::{
    ssjoin_filtered, CapRule, ElementOrder, JoinPair, NormKind, OverlapPredicate, Phase,
    SetCollection, SsJoinConfig, SsJoinError, SsJoinInputBuilder, SsJoinResult, SsJoinStats,
    TokenGroups, WeightScheme,
};
use ssjoin_text::RowsRef;
use std::time::{Duration, Instant};

/// Output of a similarity join: verified pairs plus the SSJoin execution
/// statistics (with the verification time accumulated under
/// [`ssjoin_core::Phase::Filter`]: the UDF's share of the probe workers'
/// time, plus any verification the join runs after SSJoin).
#[derive(Debug, Clone)]
pub struct SimilarityJoinOutput {
    /// Verified pairs, sorted by `(r, s)`.
    pub pairs: Vec<MatchPair>,
    /// Phase timings and counters.
    pub stats: SsJoinStats,
    /// Similarity-function (UDF) invocations in the final filter — the
    /// quantity Table 1 of the paper counts. Distinct from
    /// `stats.verified_pairs`, which counts overlap recomputations inside
    /// the SSJoin executor. A one-file edit or Jaccard-resemblance self-join
    /// (the same rows as both sides) calls the UDF once per unordered
    /// off-diagonal pair and never on the diagonal, so it counts unordered
    /// pairs, as does the hamming join's; handed two relations, it counts
    /// each orientation and the diagonal. A containment, cosine or soft-FD
    /// join calls no UDF (its filter only scores), so it counts 0.
    pub udf_verifications: u64,
}

impl SimilarityJoinOutput {
    /// Pair keys `(r, s)` in output order.
    pub fn keys(&self) -> Vec<(u32, u32)> {
        self.pairs.iter().map(|p| (p.r, p.s)).collect()
    }
}

/// For a self-join, drop the diagonal and keep one orientation of each pair
/// (`r < s`). The experiment harness reports deduplicated pair counts.
pub fn dedupe_self_pairs(pairs: &[MatchPair]) -> Vec<MatchPair> {
    pairs.iter().filter(|p| p.r < p.s).copied().collect()
}

/// `Err(Config)` naming `name` unless `value` lies in `(0, 1]`, the range of
/// every similarity threshold in this crate (NaN included in the rejection).
pub(crate) fn check_threshold(name: &str, value: f64) -> SsJoinResult<()> {
    if value > 0.0 && value <= 1.0 {
        Ok(())
    } else {
        Err(SsJoinError::Config(format!(
            "{name} must be in (0, 1], got {value}"
        )))
    }
}

/// `f`'s result and its wall time — the one clock of the packaged joins.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// One relation handed to [`run_join`]: its token groups, the norm the
/// predicate reads, and optionally the rule that caps its prefixes.
pub(crate) type Relation<'a> = (TokenGroups<'a>, NormKind, Option<CapRule<'a>>);

/// A join input whose two sides can be the same table.
pub(crate) trait Table {
    /// True when `self` and `other` are the same table, not merely equal:
    /// the same slice, or the same rows ([`RowsRef::same`]).
    fn same(&self, other: &Self) -> bool;
}

impl<T> Table for [T] {
    fn same(&self, other: &Self) -> bool {
        std::ptr::eq(self, other)
    }
}

impl Table for RowsRef<'_> {
    fn same(&self, other: &Self) -> bool {
        RowsRef::same(*self, *other)
    }
}

/// `f` of the R side, and of the S side unless it is the same table as R
/// (`None`: a self-join, which [`run_join`] builds as one relation). The
/// identity test is the one `core::spill` and `core::approx` use: equal
/// rows held twice are two relations.
pub(crate) fn sides<'a, T: Table + ?Sized, U>(
    r: &'a T,
    s: &'a T,
    f: impl Fn(&'a T) -> U,
) -> (U, Option<U>) {
    (f(r), (!r.same(s)).then(|| f(s)))
}

/// Verify `pairs` the join's SSJoin did not cover — pairs a positive overlap
/// bound cannot see, such as strings too short to share a q-gram — with
/// `udf`, adding the passing ones to the `(r, s)`-sorted `out`, which stays
/// sorted. Pairs already in `out` are skipped. With `mirror` (a
/// one-relation self-join whose symmetric `udf` scores each row 1.0
/// against itself) only `s < r` reaches `udf` and a pass is kept in both
/// orientations, as on SSJoin's half path; the diagonal passes at 1.0 with
/// no call.
pub(crate) fn verify_uncovered(
    out: &mut SimilarityJoinOutput,
    pairs: impl Iterator<Item = (u32, u32)>,
    mirror: bool,
    udf: impl Fn(u32, u32) -> Option<f64>,
) {
    let covered = out.pairs.len();
    for (r, s) in pairs {
        let seen = out.pairs[..covered].binary_search_by_key(&(r, s), |p| (p.r, p.s));
        if seen.is_ok() || (mirror && s > r) {
            continue;
        }
        let diagonal = mirror && s == r;
        out.udf_verifications += u64::from(!diagonal);
        let Some(similarity) = (if diagonal { Some(1.0) } else { udf(r, s) }) else {
            continue;
        };
        let pair = MatchPair { r, s, similarity };
        out.pairs.push(pair);
        if mirror && !diagonal {
            out.pairs.push(MatchPair { r: s, s: r, ..pair });
        }
    }
    if out.pairs.len() > covered {
        out.pairs.sort_unstable_by_key(|p| (p.r, p.s));
    }
}

/// A join's post-SSJoin step that calls no UDF: its filter only scored the
/// pairs its predicate already decided.
pub(crate) fn calls_no_udf(out: &mut SimilarityJoinOutput, _: &SetCollection, _: &SetCollection) {
    out.udf_verifications = 0;
}

/// The SSJoin half of a packaged join.
pub(crate) struct JoinSpec<'a> {
    /// Named thresholds, each checked against `(0, 1]` before any work.
    pub thresholds: &'a [(&'a str, f64)],
    pub weights: WeightScheme,
    pub order: ElementOrder,
    /// Candidate predicate: a superset of the join's answer.
    pub predicate: OverlapPredicate,
    pub config: SsJoinConfig,
}

/// Figure 2 of the paper, shared by every packaged join: check the
/// thresholds, build the relations from `prep` (timed as [`Phase::Prep`]),
/// and run SSJoin with the join's `udf` as its filter
/// ([`ssjoin_filtered`]): each probe worker verifies a pair as soon as it
/// passes the overlap predicate, so the output arrives verified and
/// `(r, s)`-sorted, and `udf_verifications` counts the calls. `post` then
/// finishes the output (timed as [`Phase::Filter`]): it maps ids back to
/// rows, verifies pairs SSJoin cannot see, or zeroes the count of a join
/// whose filter only scores.
///
/// On a one-relation self-join under a symmetric predicate `udf` sees each
/// unordered pair once, as `(i, j)` with `j < i`, and the diagonal passes at
/// 1.0 without it, so `udf` must be symmetric, and a join whose rows do not
/// all score 1.0 against themselves rescores the diagonal in `post`
/// (soft-FD).
///
/// The build runs on the join's `exec.threads` workers; a [`TokenGroups::Text`]
/// relation is tokenized there too, so its tokenizing is on the
/// [`Phase::Prep`] clock. Ranks, weights and norms are the same at every
/// thread count.
///
/// `prep` returns the R relation and, unless the join is a self-join, the S
/// relation. A self-join (`None`) is built as one relation and joined with
/// itself — `ssjoin(c, c)` — so its rows are tokenized, interned and spilled
/// once. The output equals the two-relation build's bit for bit: doubling
/// every group count leaves `N / f` (hence IDF weights and norms) and the
/// frequency order unchanged.
///
/// When every relation carries a [`CapRule`], the build applies it and the
/// join runs with the R side's R caps and the S side's S caps; the join
/// must then need only the pairs those caps keep.
pub(crate) fn run_join<'a>(
    spec: JoinSpec<'_>,
    prep: impl FnOnce() -> SsJoinResult<(Relation<'a>, Option<Relation<'a>>)>,
    udf: impl Fn(&JoinPair, &SetCollection, &SetCollection) -> Option<f64> + Sync,
    post: impl FnOnce(&mut SimilarityJoinOutput, &SetCollection, &SetCollection),
) -> SsJoinResult<SimilarityJoinOutput> {
    for &(name, value) in spec.thresholds {
        check_threshold(name, value)?;
    }
    let (built, prep_time) = timed(|| {
        let (r, s) = prep()?;
        let mut builder = SsJoinInputBuilder::new(spec.weights, spec.order)
            .with_threads(spec.config.exec.threads);
        let mut add = |(groups, norm, rule): Relation<'a>| match rule {
            Some(rule) => builder.add_groups_capped(groups, norm, rule),
            None => builder.add_groups(groups, norm),
        };
        let rh = add(r);
        let sh = s.map(add);
        builder.build().map(|built| (built, rh, sh))
    });
    let (built, rh, sh) = built?;
    let r_col = built.collection(rh);
    let s_col = sh.map_or(r_col, |sh| built.collection(sh));
    let caps = built
        .prefix_caps(rh)
        .zip(built.prefix_caps(sh.unwrap_or(rh)))
        .map(|((r_caps, _), (_, s_caps))| (r_caps, s_caps));
    let filter = |p: &JoinPair| udf(p, r_col, s_col);
    let out = ssjoin_filtered(r_col, s_col, &spec.predicate, &spec.config, caps, &filter)?;
    let mut joined = SimilarityJoinOutput {
        pairs: out.pairs,
        udf_verifications: out.stats.filter_calls,
        stats: out.stats,
    };
    joined.stats.add_time(Phase::Prep, prep_time);
    let ((), post_time) = timed(|| post(&mut joined, r_col, s_col));
    joined.stats.add_time(Phase::Filter, post_time);
    joined.stats.output_pairs = joined.pairs.len() as u64;
    Ok(joined)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedupe_drops_diagonal_and_mirrors() {
        let pairs = vec![
            MatchPair {
                r: 0,
                s: 0,
                similarity: 1.0,
            },
            MatchPair {
                r: 0,
                s: 1,
                similarity: 0.9,
            },
            MatchPair {
                r: 1,
                s: 0,
                similarity: 0.9,
            },
            MatchPair {
                r: 2,
                s: 3,
                similarity: 0.8,
            },
        ];
        let deduped = dedupe_self_pairs(&pairs);
        assert_eq!(
            deduped.iter().map(|p| (p.r, p.s)).collect::<Vec<_>>(),
            vec![(0, 1), (2, 3)]
        );
    }
}
