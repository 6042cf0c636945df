//! Cosine similarity join via SSJoin.
//!
//! §6 of the paper cites custom cosine-similarity joins (Gravano et al.,
//! WWW 2003; Cohen's WHIRL) as the kind of specialized machinery the SSJoin
//! primitive subsumes. For *sets* of tokens with IDF term weights, the
//! cosine of the two IDF vectors is
//!
//! ```text
//! cos(r, s) = Σ_{t ∈ r∩s} idf(t)² / (‖r‖·‖s‖),   ‖x‖ = √Σ idf(t)²
//! ```
//!
//! i.e. a weighted overlap with element weights `idf²`, thresholded by
//! `α·‖r‖·‖s‖` — directly an SSJoin predicate over the product of the two
//! norms (`NormExpr` supports products, and the interval lower-bounding
//! makes the prefix filter sound for it). Duplicate tokens are ordinalized
//! like everywhere else; the second occurrence of a token is a distinct
//! element, which matches treating repeated tokens as set members with
//! occurrence tags rather than term frequencies.

use crate::common::{run_join, JoinSpec, MatchPair, SimilarityJoinOutput};
use ssjoin_core::{
    Algorithm, ElementOrder, ExecContext, JoinPair, NormExpr, NormKind, OverlapPredicate,
    SetCollection, SsJoinConfig, SsJoinResult, WeightScheme,
};
use ssjoin_text::{Tokenizer, WordTokenizer};

/// Configuration for [`cosine_join`].
#[derive(Debug, Clone)]
pub struct CosineConfig {
    /// Cosine threshold α in (0, 1].
    pub threshold: f64,
    /// SSJoin physical algorithm.
    pub algorithm: Algorithm,
    /// Execution context (threads, bitmap filter, budget).
    pub exec: ExecContext,
}

impl CosineConfig {
    /// Cosine join at the given threshold (checked when the join runs).
    pub fn new(threshold: f64) -> Self {
        Self {
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

    /// Replace the whole execution context.
    pub fn with_exec(mut self, exec: ExecContext) -> Self {
        self.exec = exec;
        self
    }
}

/// Cosine join over pre-tokenized groups.
///
/// # Errors
/// Returns [`ssjoin_core::SsJoinError::Config`] when the threshold is
/// outside `(0, 1]`, and any error of the underlying SSJoin.
pub fn cosine_join_tokens(
    r_groups: Vec<Vec<String>>,
    s_groups: Vec<Vec<String>>,
    config: &CosineConfig,
) -> SsJoinResult<SimilarityJoinOutput> {
    let spec = JoinSpec {
        thresholds: &[("threshold", config.threshold)],
        weights: WeightScheme::IdfSquared,
        order: ElementOrder::FrequencyAsc,
        // Overlap ≥ α·‖r‖·‖s‖.
        predicate: OverlapPredicate::new(vec![NormExpr::Mul(
            Box::new(NormExpr::Const(config.threshold)),
            Box::new(NormExpr::Mul(
                Box::new(NormExpr::RNorm),
                Box::new(NormExpr::SNorm),
            )),
        )]),
        config: SsJoinConfig {
            algorithm: config.algorithm,
            exec: config.exec.clone(),
        },
    };
    let prep = || {
        Ok([
            (r_groups, NormKind::SqrtTotalWeight),
            (s_groups, NormKind::SqrtTotalWeight),
        ])
    };
    // The predicate is exact: every candidate qualifies, so scoring is all
    // the filter does (no UDF call).
    let verify = |candidates: &[JoinPair], r_col: &SetCollection, s_col: &SetCollection| {
        let pairs = candidates
            .iter()
            .map(|p| {
                let denom = r_col.set(p.r).norm() * s_col.set(p.s).norm();
                let similarity = if denom == 0.0 {
                    1.0
                } else {
                    p.overlap.to_f64() / denom
                };
                MatchPair {
                    r: p.r,
                    s: p.s,
                    similarity,
                }
            })
            .collect();
        (pairs, 0)
    };
    run_join(spec, prep, verify)
}

/// Cosine join over strings, tokenized into lowercased words.
///
/// ```
/// use ssjoin_joins::{cosine_join, CosineConfig};
///
/// let docs: Vec<String> = vec![
///     "similarity joins for data cleaning".into(),
///     "data cleaning with similarity joins".into(), // near-permutation
/// ];
/// let out = cosine_join(&docs, &docs, &CosineConfig::new(0.55)).unwrap();
/// assert!(out.keys().contains(&(0, 1)));
/// ```
pub fn cosine_join(
    r: &[String],
    s: &[String],
    config: &CosineConfig,
) -> SsJoinResult<SimilarityJoinOutput> {
    let tok = WordTokenizer::new().lowercased();
    let r_groups = r.iter().map(|x| tok.tokenize(x)).collect();
    let s_groups = s.iter().map(|x| tok.tokenize(x)).collect();
    cosine_join_tokens(r_groups, s_groups, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn sample() -> Vec<String> {
        strings(&[
            "data cleaning with similarity joins",
            "similarity joins for data cleaning",
            "approximate string matching survey",
            "approximate string matching",
            "unrelated quantum chromodynamics",
        ])
    }

    /// Brute-force reference with the same semantics (ordinalized tokens,
    /// IdfSquared weights).
    fn brute_force(data: &[String], alpha: f64) -> Vec<(u32, u32)> {
        let tok = WordTokenizer::new().lowercased();
        let groups: Vec<Vec<(String, u32)>> = data
            .iter()
            .map(|x| ssjoin_text::ordinalize(tok.tokenize(x)))
            .map(|v| v.into_iter().map(|t| (t.token, t.ordinal)).collect())
            .collect();
        let mut freq: HashMap<&str, usize> = HashMap::new();
        for g in &groups {
            let mut seen: Vec<&str> = Vec::new();
            for (t, _) in g {
                if !seen.contains(&t.as_str()) {
                    seen.push(t);
                    *freq.entry(t.as_str()).or_insert(0) += 1;
                }
            }
        }
        let n = groups.len() as f64;
        let w2 = |t: &str| -> f64 {
            let idf = (1.0 + n / freq[t] as f64).ln();
            idf * idf
        };
        let norm =
            |g: &[(String, u32)]| -> f64 { g.iter().map(|(t, _)| w2(t)).sum::<f64>().sqrt() };
        let mut out = Vec::new();
        for (i, a) in groups.iter().enumerate() {
            for (j, b) in groups.iter().enumerate() {
                let dot: f64 = a.iter().filter(|e| b.contains(e)).map(|(t, _)| w2(t)).sum();
                let denom = norm(a) * norm(b);
                let cos = if denom == 0.0 { 1.0 } else { dot / denom };
                if cos >= alpha - 1e-9 {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    #[test]
    fn matches_brute_force() {
        let data = sample();
        for alpha in [0.3, 0.5, 0.7, 0.9] {
            for alg in [
                Algorithm::Basic,
                Algorithm::Inline,
                Algorithm::PositionalInline,
            ] {
                let out = cosine_join(&data, &data, &CosineConfig::new(alpha).with_algorithm(alg))
                    .unwrap();
                assert_eq!(
                    out.keys(),
                    brute_force(&data, alpha),
                    "alpha={alpha} alg={alg:?}"
                );
            }
        }
    }

    #[test]
    fn identical_documents_score_one() {
        let data = sample();
        let out = cosine_join(&data, &data, &CosineConfig::new(0.99)).unwrap();
        for i in 0..data.len() as u32 {
            let p = out.pairs.iter().find(|p| p.r == i && p.s == i).unwrap();
            assert!((p.similarity - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn word_permutation_is_cosine_one() {
        // Cosine over bags ignores order: permuted documents score 1.
        let data = strings(&[
            "data cleaning with similarity joins",
            "similarity joins with data cleaning",
        ]);
        let out = cosine_join(&data, &data, &CosineConfig::new(0.95)).unwrap();
        assert!(out.keys().contains(&(0, 1)));
    }

    #[test]
    fn symmetric() {
        let data = sample();
        let out = cosine_join(&data, &data, &CosineConfig::new(0.4)).unwrap();
        let keys: std::collections::HashSet<_> = out.keys().into_iter().collect();
        for &(i, j) in &keys {
            assert!(keys.contains(&(j, i)));
        }
    }

    #[test]
    fn unrelated_documents_excluded() {
        let data = sample();
        let out = cosine_join(&data, &data, &CosineConfig::new(0.3)).unwrap();
        assert!(!out.keys().contains(&(0, 4)));
    }
}
