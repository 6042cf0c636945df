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

use crate::common::{MatchPair, SimilarityJoinOutput};
use ssjoin_core::{
    ssjoin, Algorithm, ElementOrder, ExecContext, NormExpr, NormKind, OverlapPredicate, Phase,
    SsJoinConfig, SsJoinInputBuilder, SsJoinResult, WeightScheme,
};
use ssjoin_text::{Tokenizer, WordTokenizer};
use std::time::Instant;

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
    /// Cosine join at the given threshold.
    pub fn new(threshold: f64) -> Self {
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "threshold must be in (0, 1], got {threshold}"
        );
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
pub fn cosine_join_tokens(
    r_groups: Vec<Vec<String>>,
    s_groups: Vec<Vec<String>>,
    config: &CosineConfig,
) -> SsJoinResult<SimilarityJoinOutput> {
    let prep_start = Instant::now();
    let mut builder = SsJoinInputBuilder::new(WeightScheme::IdfSquared, ElementOrder::FrequencyAsc);
    let rh = builder.add_relation_with_norm(r_groups, NormKind::SqrtTotalWeight);
    let sh = builder.add_relation_with_norm(s_groups, NormKind::SqrtTotalWeight);
    let built = builder.build()?;
    let prep = prep_start.elapsed();

    // Overlap ≥ α·‖r‖·‖s‖.
    let pred = OverlapPredicate::new(vec![NormExpr::Mul(
        Box::new(NormExpr::Const(config.threshold)),
        Box::new(NormExpr::Mul(
            Box::new(NormExpr::RNorm),
            Box::new(NormExpr::SNorm),
        )),
    )]);
    let ss_config = SsJoinConfig {
        algorithm: config.algorithm,
        exec: config.exec.clone(),
    };
    let r_col = built.collection(rh);
    let s_col = built.collection(sh);
    let out = ssjoin(r_col, s_col, &pred, &ss_config)?;
    let mut stats = out.stats;
    stats.add_time(Phase::Prep, prep);

    let filter_start = Instant::now();
    let pairs: Vec<MatchPair> = out
        .pairs
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
    stats.add_time(Phase::Filter, filter_start.elapsed());
    stats.output_pairs = pairs.len() as u64;
    Ok(SimilarityJoinOutput {
        pairs,
        stats,
        algorithm_used: out.algorithm_used,
        udf_verifications: 0,
    })
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
