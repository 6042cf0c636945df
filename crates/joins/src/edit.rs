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
//! verified with the banded edit-distance UDF, on `exec.threads` workers.
//!
//! **Short strings.** When both strings are shorter than `q / (1 − (1−α)q)`
//! the bound above is below 1 and the q-gram filter can miss qualifying
//! pairs (they may share no q-gram at all). The paper's evaluation (long
//! address strings, α ≥ 0.8) never hits this; this implementation handles
//! it *exactly* by routing the short strings of both sides through a
//! brute-force check, so the join is correct for every input.

use crate::common::{
    run_join, verify_candidates, verify_uncovered, JoinSpec, SimilarityJoinOutput,
};
use ssjoin_core::{
    Algorithm, ElementOrder, ExecContext, JoinPair, NormExpr, NormKind, OverlapPredicate,
    SetCollection, SsJoinConfig, SsJoinError, SsJoinResult, WeightScheme,
};
use ssjoin_sim::edit_similarity_within;
use ssjoin_text::{QGramTokenizer, Tokenizer};

/// Configuration for [`edit_similarity_join`].
#[derive(Debug, Clone)]
pub struct EditJoinConfig {
    /// q-gram length (the paper uses 3).
    pub q: usize,
    /// Edit-similarity threshold α in (0, 1].
    pub threshold: f64,
    /// SSJoin physical algorithm.
    pub algorithm: Algorithm,
    /// Execution context for the SSJoin (threads, bitmap
    /// filter, budget). Its thread count also sets the workers of the
    /// edit-distance verification loop.
    pub exec: ExecContext,
    /// Global element order (ablation hook; the default is the paper's).
    pub order: ElementOrder,
}

impl EditJoinConfig {
    /// Defaults: the paper's q = 3 and the inline algorithm. The threshold
    /// is checked when the join runs.
    pub fn new(threshold: f64) -> Self {
        Self {
            q: 3,
            threshold,
            algorithm: Algorithm::Inline,
            exec: ExecContext::new(),
            order: ElementOrder::FrequencyAsc,
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

    /// Override q (checked when the join runs).
    pub fn with_q(mut self, q: usize) -> Self {
        self.q = q;
        self
    }

    /// Override the element order.
    pub fn with_order(mut self, order: ElementOrder) -> Self {
        self.order = order;
        self
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
/// `Overlap ≥ max(R.norm, S.norm)·(1 − (1−α)q) − (q − 1)`.
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
}

/// Edit-similarity join: all pairs `(i, j)` with
/// `edit_similarity(r[i], s[j]) ≥ threshold`. Pass the same slice twice for
/// a self-join.
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
pub fn edit_similarity_join(
    r: &[String],
    s: &[String],
    config: &EditJoinConfig,
) -> SsJoinResult<SimilarityJoinOutput> {
    let (alpha, q) = (config.threshold, config.q);
    if q == 0 {
        return Err(SsJoinError::Config("q must be at least 1".into()));
    }
    let spec = JoinSpec {
        thresholds: &[("threshold", alpha)],
        weights: WeightScheme::Unweighted,
        order: config.order,
        predicate: property4_predicate(alpha, q),
        config: SsJoinConfig {
            algorithm: config.algorithm,
            exec: config.exec.clone(),
        },
    };
    // Prep: q-gram sets with string-length norms.
    let prep = || {
        let tok = QGramTokenizer::new(q);
        let side = |xs: &[String]| {
            let lens = xs.iter().map(|x| x.chars().count() as f64).collect();
            let groups = xs.iter().map(|x| tok.tokenize(x)).collect();
            (groups, NormKind::Custom(lens))
        };
        Ok([side(r), side(s)])
    };
    // Filter: verify candidates with the banded edit-distance UDF, then the
    // pairs outside the q-gram bound's reach — both strings shorter than
    // the cutoff (the norms are the lengths).
    let udf = |i: u32, j: u32| edit_similarity_within(&r[i as usize], &s[j as usize], alpha);
    let verify = |candidates: &[JoinPair], r_col: &SetCollection, s_col: &SetCollection| {
        let mut verified = verify_candidates(candidates, config.exec.threads, &udf);
        let cutoff = short_cutoff(alpha, q);
        let short = |col: &SetCollection| -> Vec<u32> {
            (0..col.len() as u32)
                .filter(|&i| (col.set(i).norm() as usize) < cutoff)
                .collect()
        };
        let short_s = short(s_col);
        let uncovered = short(r_col)
            .into_iter()
            .flat_map(|i| short_s.iter().map(move |&j| (i, j)));
        verify_uncovered(&mut verified, uncovered, udf);
        verified
    };
    run_join(spec, prep, verify)
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
    fn short_strings_handled_exactly() {
        // "ab" vs "ac": ES = 0.5; with α = 0.5 and q = 3 the q-gram bound is
        // vacuous for these lengths — they share no 3-gram — yet the pair
        // must be found.
        let data = strings(&["ab", "ac", "abcdefgh"]);
        let alpha = 0.5;
        let out = edit_similarity_join(&data, &data, &EditJoinConfig::new(alpha)).unwrap();
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
            Algorithm::PositionalInline,
            Algorithm::Auto,
        ] {
            let cfg = EditJoinConfig::new(alpha).with_algorithm(alg);
            let out = edit_similarity_join(&data, &data, &cfg).unwrap();
            assert_eq!(out.keys(), expect, "alg {alg:?}");
        }
    }

    #[test]
    fn degenerate_coefficient_routes_everything_brute_force() {
        // α = 0.5, q = 3 → coefficient 1 − 0.5·3 = −0.5 ≤ 0: no length is
        // safe and the cutoff is usize::MAX, so the whole join must fall
        // back to the exact brute-force route and still be correct.
        let cfg = EditJoinConfig::new(0.5);
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
        let out = edit_similarity_join(&r, &s, &EditJoinConfig::new(alpha)).unwrap();
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
}
