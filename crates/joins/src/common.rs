//! Shared output types for the similarity-join layer, and the one execution
//! path every packaged join runs through ([`run_join`]).

use ssjoin_core::{
    ssjoin, Algorithm, ElementOrder, JoinPair, NormKind, OverlapPredicate, Phase, SetCollection,
    SsJoinConfig, SsJoinError, SsJoinInputBuilder, SsJoinResult, SsJoinStats, WeightScheme,
};
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
    /// The SSJoin algorithm that ran.
    pub algorithm_used: Algorithm,
    /// Similarity-function (UDF) invocations in the final filter — the
    /// quantity Table 1 of the paper counts. Distinct from
    /// `stats.verified_pairs`, which counts overlap recomputations inside
    /// the SSJoin executor.
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

/// One relation handed to [`run_join`]: a token group per row, and the norm
/// the predicate reads.
pub(crate) type Relation = (Vec<Vec<String>>, NormKind);

/// The pairs a join's verification kept, and how many times it called its
/// similarity function (the output's `udf_verifications`).
pub(crate) type Verified = (Vec<MatchPair>, u64);

/// Verify `candidates` with `udf`, one call each, on up to `threads`
/// workers, each taking one contiguous chunk. Chunk results are concatenated
/// in order, so the output is the same at any thread count.
pub(crate) fn verify_candidates(
    candidates: &[JoinPair],
    threads: usize,
    udf: &(impl Fn(u32, u32) -> Option<f64> + Sync),
) -> Verified {
    let verify = |chunk: &[JoinPair]| -> Vec<MatchPair> {
        chunk
            .iter()
            .filter_map(|p| {
                udf(p.r, p.s).map(|similarity| MatchPair {
                    r: p.r,
                    s: p.s,
                    similarity,
                })
            })
            .collect()
    };
    let udf_calls = candidates.len() as u64;
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

/// Verify `pairs` the candidates did not cover — pairs a positive overlap
/// bound cannot see, such as strings too short to share a q-gram — with
/// `udf`, appending the passing ones. Pairs already among the (sorted)
/// verified pairs are skipped.
pub(crate) fn verify_uncovered(
    (verified, udf_calls): &mut Verified,
    pairs: impl Iterator<Item = (u32, u32)>,
    udf: impl Fn(u32, u32) -> Option<f64>,
) {
    let covered = verified.len();
    for (r, s) in pairs {
        if verified[..covered]
            .binary_search_by_key(&(r, s), |p| (p.r, p.s))
            .is_err()
        {
            *udf_calls += 1;
            if let Some(similarity) = udf(r, s) {
                verified.push(MatchPair { r, s, similarity });
            }
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
/// thresholds, build both relations from `prep` (timed as
/// [`Phase::Prep`]), run SSJoin, verify the candidates with the join's UDF
/// (timed as [`Phase::Filter`]), and assemble the `(r, s)`-sorted output.
pub(crate) fn run_join(
    spec: JoinSpec<'_>,
    prep: impl FnOnce() -> SsJoinResult<[Relation; 2]>,
    verify: impl FnOnce(&[JoinPair], &SetCollection, &SetCollection) -> Verified,
) -> SsJoinResult<SimilarityJoinOutput> {
    for &(name, value) in spec.thresholds {
        check_threshold(name, value)?;
    }
    let (built, prep_time) = timed(|| {
        let [(r_groups, r_norm), (s_groups, s_norm)] = prep()?;
        let mut builder = SsJoinInputBuilder::new(spec.weights, spec.order);
        let rh = builder.add_relation_with_norm(r_groups, r_norm);
        let sh = builder.add_relation_with_norm(s_groups, s_norm);
        builder.build().map(|built| (built, rh, sh))
    });
    let (built, rh, sh) = built?;
    let (r_col, s_col) = (built.collection(rh), built.collection(sh));
    let out = ssjoin(r_col, s_col, &spec.predicate, &spec.config)?;
    let mut stats = out.stats;
    stats.add_time(Phase::Prep, prep_time);
    let (verified, filter_time) = timed(|| verify(&out.pairs, r_col, s_col));
    stats.add_time(Phase::Filter, filter_time);
    Ok(finish(verified, stats, out.algorithm_used))
}

/// Sort the verified pairs, stamp `output_pairs`, and assemble the output.
pub(crate) fn finish(
    (mut pairs, udf_verifications): Verified,
    mut stats: SsJoinStats,
    algorithm_used: Algorithm,
) -> SimilarityJoinOutput {
    pairs.sort_unstable_by_key(|p| (p.r, p.s));
    stats.output_pairs = pairs.len() as u64;
    SimilarityJoinOutput {
        pairs,
        stats,
        algorithm_used,
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
