//! Shared output types for the similarity-join layer, and the one execution
//! path every packaged join runs through ([`run_join`]).

use ssjoin_core::{
    ssjoin, ssjoin_capped, CapRule, ElementOrder, JoinPair, NormKind, OverlapPredicate, Phase,
    SetCollection, SsJoinConfig, SsJoinError, SsJoinInputBuilder, SsJoinResult, SsJoinStats,
    TokenGroups, WeightScheme,
};
use std::cmp::Ordering;
use std::time::{Duration, Instant};

/// One matching pair with its verified similarity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchPair {
    /// Index into the R-side input.
    pub r: u32,
    /// Index into the S-side input.
    pub s: u32,
    /// The similarity as computed by the join's own similarity function.
    pub similarity: f64,
}

/// Output of a similarity join: verified pairs plus the SSJoin execution
/// statistics (with the verification time accumulated under
/// [`ssjoin_core::Phase::Filter`]).
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
    /// (the same slice as both sides) calls the UDF once per unordered
    /// off-diagonal pair and never on the diagonal, so it counts unordered
    /// pairs; handed two relations, it counts each orientation and the
    /// diagonal. A containment join calls no UDF: its predicate is the
    /// SSJoin's own, so it counts 0.
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

/// `f` of the R side, and of the S side unless it is the same slice as R
/// (`None`: a self-join, which [`run_join`] builds as one relation). The
/// identity test is the one `core::spill` and `core::approx` use.
pub(crate) fn sides<'a, T, U>(r: &'a [T], s: &'a [T], f: impl Fn(&'a [T]) -> U) -> (U, Option<U>) {
    (f(r), (!std::ptr::eq(r, s)).then(|| f(s)))
}

/// The pairs a join's verification kept, and how many times it called its
/// similarity function (the output's `udf_verifications`).
pub(crate) type Verified = (Vec<MatchPair>, u64);

/// Verify `candidates` with `udf` on up to `threads` workers, each taking
/// one contiguous chunk. Chunk results are concatenated in order, so the
/// output is the same at any thread count.
///
/// `udf` sees the whole candidate, so it can read the overlap. Without
/// `mirror`, it runs once per candidate and the passing pairs come back in
/// candidate order. With `mirror` — the candidates of a one-relation
/// self-join under a symmetric predicate, verified by a symmetric `udf`
/// that gives every row similarity 1.0 with itself (edit similarity,
/// Definition 2; Jaccard resemblance) — each unordered pair is decided once
/// ([`decide`]) and the pairs come back unsorted.
pub(crate) fn verify_candidates(
    candidates: &[JoinPair],
    threads: usize,
    mirror: bool,
    udf: &(impl Fn(&JoinPair) -> Option<f64> + Sync),
) -> Verified {
    let verify = |chunk: &[JoinPair]| -> Vec<MatchPair> {
        let mut pairs = Vec::new();
        for p in chunk {
            decide(p.r, p.s, mirror, || udf(p), &mut pairs);
        }
        pairs
    };
    let udf_calls = if mirror {
        let below = candidates.iter().filter(|p| p.s < p.r).count();
        // Every candidate below the diagonal has its mirror above it.
        debug_assert_eq!(below, candidates.iter().filter(|p| p.s > p.r).count());
        below
    } else {
        candidates.len()
    } as u64;
    let threads = threads.clamp(1, candidates.len().max(1));
    if threads == 1 {
        return (verify(candidates), udf_calls);
    }
    let chunk_len = candidates.len().div_ceil(threads);
    let pairs = std::thread::scope(|scope| {
        let handles: Vec<_> = candidates
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || verify(chunk)))
            .collect();
        let mut pairs = Vec::new();
        for h in handles {
            match h.join() {
                Ok(chunk) => pairs.extend(chunk),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        pairs
    });
    (pairs, udf_calls)
}

/// Decide the pair `(r, s)` with `udf` (its similarity, if it passes),
/// appending it to `out` if it passes; true when `udf` ran. With `mirror`,
/// only `s < r` reaches `udf`, and a pass also appends its mirror `(s, r)`
/// with the same bits; the diagonal passes at 1.0 with no call, and `s > r`
/// is left to its mirror.
fn decide(
    r: u32,
    s: u32,
    mirror: bool,
    udf: impl FnOnce() -> Option<f64>,
    out: &mut Vec<MatchPair>,
) -> bool {
    let (similarity, called) = match (mirror, s.cmp(&r)) {
        (false, _) | (true, Ordering::Less) => (udf(), true),
        (true, Ordering::Equal) => (Some(1.0), false),
        (true, Ordering::Greater) => return false,
    };
    if let Some(similarity) = similarity {
        out.push(MatchPair { r, s, similarity });
        if mirror && s != r {
            out.push(MatchPair {
                r: s,
                s: r,
                similarity,
            });
        }
    }
    called
}

/// Verify `pairs` the candidates did not cover — pairs a positive overlap
/// bound cannot see, such as strings too short to share a q-gram — with
/// `udf`, appending the passing ones. Pairs already among the (sorted)
/// verified pairs are skipped. `mirror` is [`verify_candidates`]'s.
pub(crate) fn verify_uncovered(
    (verified, udf_calls): &mut Verified,
    pairs: impl Iterator<Item = (u32, u32)>,
    mirror: bool,
    udf: impl Fn(u32, u32) -> Option<f64>,
) {
    let covered = verified.len();
    for (r, s) in pairs {
        if verified[..covered]
            .binary_search_by_key(&(r, s), |p| (p.r, p.s))
            .is_err()
        {
            *udf_calls += u64::from(decide(r, s, mirror, || udf(r, s), verified));
        }
    }
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
/// run SSJoin, verify the candidates with the join's UDF (timed as
/// [`Phase::Filter`]), and assemble the `(r, s)`-sorted output.
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
/// join runs through [`ssjoin_capped`] with the R side's R caps and the S
/// side's S caps; the join's `verify` must then need only the pairs those
/// caps keep.
pub(crate) fn run_join<'a>(
    spec: JoinSpec<'_>,
    prep: impl FnOnce() -> SsJoinResult<(Relation<'a>, Option<Relation<'a>>)>,
    verify: impl FnOnce(&[JoinPair], &SetCollection, &SetCollection) -> Verified,
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
    let (pred, config) = (&spec.predicate, &spec.config);
    let caps = built
        .prefix_caps(rh)
        .zip(built.prefix_caps(sh.unwrap_or(rh)));
    let out = match caps {
        Some(((r_caps, _), (_, s_caps))) => {
            ssjoin_capped(r_col, s_col, pred, config, r_caps, s_caps)?
        }
        None => ssjoin(r_col, s_col, pred, config)?,
    };
    let mut stats = out.stats;
    stats.add_time(Phase::Prep, prep_time);
    let (verified, filter_time) = timed(|| verify(&out.pairs, r_col, s_col));
    stats.add_time(Phase::Filter, filter_time);
    Ok(finish(verified, stats))
}

/// Sort the verified pairs, stamp `output_pairs`, and assemble the output.
pub(crate) fn finish(
    (mut pairs, udf_verifications): Verified,
    mut stats: SsJoinStats,
) -> SimilarityJoinOutput {
    pairs.sort_unstable_by_key(|p| (p.r, p.s));
    stats.output_pairs = pairs.len() as u64;
    SimilarityJoinOutput {
        pairs,
        stats,
        udf_verifications,
    }
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
