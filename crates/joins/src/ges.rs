//! Generalized edit similarity join (§3.3 of the paper).
//!
//! GES (Definition 6) mixes token-level weights with intra-token edit
//! distance. The paper's reduction to SSJoin *expands* each token set with
//! dictionary tokens whose edit similarity to a member exceeds a secondary
//! threshold β: if `GES(σ1, σ2) ≥ α`, the overlap of the expanded sets is
//! high, so an SSJoin over expanded sets generates candidates and the exact
//! GES function verifies them.
//!
//! The token expansion itself is a *token-level edit-similarity self-join*
//! over the dictionary — implemented here by reusing
//! [`crate::edit::edit_similarity_join`], which is exactly the
//! compositionality §3 advertises.
//!
//! The paper notes the full derivation "is intricate" and omits it; this
//! implementation follows its sketch. Candidate generation uses the 1-sided
//! predicate `Overlap ≥ (α − (1 − β)) · wt(expanded R-set)` and every
//! candidate is verified with the exact GES UDF, so reported pairs are
//! always correct; an [`GesJoinConfig::exhaustive`] mode provides the
//! brute-force reference for recall evaluation.

use crate::common::{
    check_threshold, finish, run_join, timed, verify_candidates, JoinSpec, MatchPair,
    SimilarityJoinOutput,
};
use crate::edit::{edit_similarity_join, EditJoinConfig};
use ssjoin_core::{
    Algorithm, ElementOrder, ExecContext, NormKind, OverlapPredicate, Phase, SsJoinConfig,
    SsJoinResult, SsJoinStats, WeightScheme,
};
use ssjoin_sim::{ges, GesConfig};
use ssjoin_text::{Tokenizer, WordTokenizer};
use std::collections::HashMap;

/// Configuration for [`ges_join`].
#[derive(Debug, Clone)]
pub struct GesJoinConfig {
    /// GES threshold α in (0, 1].
    pub threshold: f64,
    /// Token-expansion edit-similarity threshold β in (0, 1]; must exceed
    /// α for the candidate bound `α − (1 − β)` to be useful.
    pub beta: f64,
    /// SSJoin physical algorithm for the candidate join.
    pub algorithm: Algorithm,
    /// Execution context for the candidate SSJoin (threads,
    /// bitmap filter, budget). Its thread count also sets the workers of
    /// the GES verification loop.
    pub exec: ExecContext,
    /// Brute-force mode: skip candidate generation and verify every pair
    /// (exact reference, used for recall measurement).
    pub exhaustive: bool,
}

impl GesJoinConfig {
    /// Defaults: β = 0.85 token expansion, inline SSJoin. The threshold is
    /// checked when the join runs.
    pub fn new(threshold: f64) -> Self {
        Self {
            threshold,
            beta: 0.85,
            algorithm: Algorithm::Inline,
            exec: ExecContext::new(),
            exhaustive: false,
        }
    }

    /// Override the expansion threshold β (checked when the join runs).
    pub fn with_beta(mut self, beta: f64) -> Self {
        self.beta = beta;
        self
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

    /// Exact brute-force mode.
    pub fn exhaustive(mut self) -> Self {
        self.exhaustive = true;
        self
    }
}

/// GES join: pairs with `GES(r[i] → s[j]) ≥ threshold` (note GES's
/// asymmetric normalization by the R side, per Definition 6).
///
/// # Errors
/// Returns [`ssjoin_core::SsJoinError::Config`] when the threshold or β is
/// outside `(0, 1]`, and any error of the underlying SSJoin.
pub fn ges_join(
    r: &[String],
    s: &[String],
    config: &GesJoinConfig,
) -> SsJoinResult<SimilarityJoinOutput> {
    let thresholds = [("threshold", config.threshold), ("beta", config.beta)];
    let tok = WordTokenizer::new().lowercased();
    let r_tokens: Vec<Vec<String>> = r.iter().map(|x| tok.tokenize(x)).collect();
    let s_tokens: Vec<Vec<String>> = s.iter().map(|x| tok.tokenize(x)).collect();

    // IDF token weights over the joint corpus (the GES weight model).
    let total = (r_tokens.len() + s_tokens.len()) as f64;
    let mut freq: HashMap<&str, usize> = HashMap::new();
    for group in r_tokens.iter().chain(&s_tokens) {
        let mut seen: Vec<&str> = Vec::new();
        for t in group {
            if !seen.contains(&t.as_str()) {
                seen.push(t);
                *freq.entry(t.as_str()).or_insert(0) += 1;
            }
        }
    }
    let weights: HashMap<String, f64> = freq
        .iter()
        .map(|(&t, &f)| (t.to_string(), (1.0 + total / f as f64).ln()))
        .collect();
    let weight_fn = |t: &str| -> f64 { weights.get(t).copied().unwrap_or(1.0) };

    // Verification with the exact GES UDF.
    let ges_cfg = GesConfig::default();
    let udf = |i: u32, j: u32| {
        let (a, b) = (&r_tokens[i as usize], &s_tokens[j as usize]);
        let g = ges(a, b, &weight_fn, ges_cfg);
        (g >= config.threshold - 1e-9).then_some(g)
    };

    if config.exhaustive {
        // No SSJoin: every pair is a candidate.
        for (name, value) in thresholds {
            check_threshold(name, value)?;
        }
        let (pairs, filter_time) = timed(|| {
            (0..r.len() as u32)
                .flat_map(|i| (0..s.len() as u32).map(move |j| (i, j)))
                .filter_map(|(i, j)| {
                    let similarity = udf(i, j)?;
                    Some(MatchPair {
                        r: i,
                        s: j,
                        similarity,
                    })
                })
                .collect()
        });
        let mut stats = SsJoinStats::default();
        stats.add_time(Phase::Filter, filter_time);
        let udf_calls = (r.len() * s.len()) as u64;
        return Ok(finish((pairs, udf_calls), stats, Algorithm::Basic));
    }

    let spec = JoinSpec {
        thresholds: &thresholds,
        weights: WeightScheme::Idf,
        order: ElementOrder::FrequencyAsc,
        predicate: OverlapPredicate::r_normalized(
            (config.threshold - (1.0 - config.beta)).max(0.05),
        ),
        config: SsJoinConfig {
            algorithm: config.algorithm,
            exec: config.exec.clone(),
        },
    };
    // Prefix-expansion: token dictionary self-join at threshold β.
    //
    // Only tokens containing an alphabetic character are expanded: numeric
    // tokens (street numbers, zip codes) are matched exactly. §1 of the
    // paper motivates exactly this — "even small differences in the street
    // numbers such as '148th Ave' and '147th Ave' are crucial" — and it
    // keeps the dictionary join from degenerating on dense numeric
    // vocabularies.
    let prep = || {
        let mut dict: Vec<String> = weights
            .keys()
            .filter(|t| t.chars().any(char::is_alphabetic))
            .cloned()
            .collect();
        dict.sort_unstable();
        let token_join =
            edit_similarity_join(&dict, &dict, &EditJoinConfig::new(config.beta).with_q(2))?;
        let mut similar: HashMap<&str, Vec<&str>> = HashMap::new();
        for p in &token_join.pairs {
            similar
                .entry(dict[p.r as usize].as_str())
                .or_default()
                .push(dict[p.s as usize].as_str());
        }
        let expand = |groups: &[Vec<String>]| -> (Vec<Vec<String>>, NormKind) {
            let expanded = groups
                .iter()
                .map(|g| {
                    let mut out: Vec<String> = Vec::with_capacity(g.len() * 2);
                    for t in g {
                        match similar.get(t.as_str()) {
                            Some(close) => {
                                out.extend(close.iter().map(|c| c.to_string()));
                            }
                            None => out.push(t.clone()),
                        }
                    }
                    out.sort_unstable();
                    out.dedup();
                    out
                })
                .collect();
            (expanded, NormKind::TotalWeight)
        };
        Ok([expand(&r_tokens), expand(&s_tokens)])
    };
    run_join(spec, prep, |candidates, _, _| {
        verify_candidates(candidates, config.exec.threads, &udf)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn sample() -> Vec<String> {
        strings(&[
            "microsoft corporation",
            "microsft corporation",
            "microsoft corp",
            "oracle incorporated",
            "orcale incorporated",
            "completely unrelated words",
        ])
    }

    #[test]
    fn identical_strings_score_one() {
        let data = sample();
        let out = ges_join(&data, &data, &GesJoinConfig::new(0.9)).unwrap();
        for i in 0..data.len() as u32 {
            let p = out.pairs.iter().find(|p| p.r == i && p.s == i).unwrap();
            assert!((p.similarity - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn typo_variants_found() {
        let data = sample();
        // Single-character deletion: GES ≈ 0.94.
        let out = ges_join(&data, &data, &GesJoinConfig::new(0.85)).unwrap();
        let keys = out.keys();
        assert!(keys.contains(&(0, 1)), "microsoft ~ microsft: {keys:?}");
        assert!(!keys.contains(&(0, 5)));
        // Transposition costs two edits (ed = 2/6), so oracle ~ orcale lands
        // near 0.81: below 0.85 even for the exact join.
        assert!(!out.keys().contains(&(3, 4)));
        let exact = ges_join(&data, &data, &GesJoinConfig::new(0.8).exhaustive()).unwrap();
        assert!(
            exact.keys().contains(&(3, 4)),
            "oracle ~ orcale: {:?}",
            exact.keys()
        );
    }

    /// The expansion-based candidate generation is a heuristic (the paper
    /// omits the full derivation): tokens farther than β in edit similarity
    /// are not expanded, so a pair whose GES clears α only through such a
    /// token can be missed. This test pins that documented behaviour.
    #[test]
    fn expansion_recall_limitation_documented() {
        let data = sample();
        let filtered = ges_join(&data, &data, &GesJoinConfig::new(0.8)).unwrap();
        let exact = ges_join(&data, &data, &GesJoinConfig::new(0.8).exhaustive()).unwrap();
        // Filtered output is a subset of the exact output…
        for key in filtered.keys() {
            assert!(exact.keys().contains(&key));
        }
        // …and with a lower β the transposed pair is recovered.
        let looser = ges_join(&data, &data, &GesJoinConfig::new(0.8).with_beta(0.6)).unwrap();
        assert!(looser.keys().contains(&(3, 4)), "{:?}", looser.keys());
    }

    #[test]
    fn verification_threads_do_not_change_output() {
        let data = sample();
        let run = |threads: usize| {
            let cfg = GesJoinConfig::new(0.8).with_exec(ExecContext::new().with_threads(threads));
            ges_join(&data, &data, &cfg).unwrap()
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
    fn filtered_matches_exhaustive_on_sample() {
        let data = sample();
        for alpha in [0.85, 0.9, 0.95] {
            let fast = ges_join(&data, &data, &GesJoinConfig::new(alpha)).unwrap();
            let exact = ges_join(&data, &data, &GesJoinConfig::new(alpha).exhaustive()).unwrap();
            assert_eq!(fast.keys(), exact.keys(), "alpha={alpha}");
            // Filtered mode must verify far fewer pairs on larger inputs;
            // here just check it never verifies more.
            assert!(fast.udf_verifications <= exact.udf_verifications);
        }
    }

    #[test]
    fn all_reported_pairs_meet_threshold() {
        let data = sample();
        let out = ges_join(&data, &data, &GesJoinConfig::new(0.8)).unwrap();
        for p in &out.pairs {
            assert!(p.similarity >= 0.8 - 1e-9);
        }
    }

    #[test]
    fn empty_input() {
        let none: Vec<String> = vec![];
        let out = ges_join(&none, &none, &GesJoinConfig::new(0.9)).unwrap();
        assert!(out.pairs.is_empty());
    }

    #[test]
    fn candidate_reduction_on_larger_corpus() {
        let data: Vec<String> = (0..40)
            .map(|i| format!("entity{} common suffix words", i))
            .collect();
        let out = ges_join(&data, &data, &GesJoinConfig::new(0.9)).unwrap();
        let n = data.len() as u64;
        assert!(
            out.udf_verifications < n * n,
            "expansion should prune at least some of the cross product"
        );
    }
}
