//! Jaccard containment and resemblance joins (Figure 4 of the paper).
//!
//! Containment `JC(r, s) = wt(r ∩ s) / wt(r) ≥ α` *is* the 1-sided
//! normalized SSJoin predicate — no post-processing is needed. Resemblance
//! uses the paper's rewrite: `JR ≥ α ⇒ JC(r,s) ≥ α ∧ JC(s,r) ≥ α`, i.e. the
//! 2-sided predicate generates candidates and an exact resemblance check
//! (computable from the overlap and the two set weights, no re-tokenization)
//! filters them, on `exec.threads` workers; a self-join of one relation
//! checks each unordered pair once.

use crate::common::{run_join, sides, JoinSpec, SimilarityJoinOutput};
use ssjoin_core::{
    Algorithm, ElementOrder, ExecContext, JoinPair, NormKind, OverlapPredicate, SetCollection,
    SsJoinConfig, SsJoinResult, TokenGroups, WeightScheme,
};
use ssjoin_text::{AsRows, WordTokenizer};

/// Which Jaccard variant to join on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JaccardKind {
    /// `wt(r ∩ s) / wt(r) ≥ α` (asymmetric).
    Containment,
    /// `wt(r ∩ s) / wt(r ∪ s) ≥ α` (symmetric).
    Resemblance,
}

/// Configuration for [`jaccard_join`].
#[derive(Debug, Clone)]
pub struct JaccardConfig {
    /// Similarity threshold α in (0, 1].
    pub threshold: f64,
    /// Containment or resemblance.
    pub kind: JaccardKind,
    /// Element weighting (the paper's experiments use IDF).
    pub weights: WeightScheme,
    /// SSJoin physical algorithm.
    pub algorithm: Algorithm,
    /// Execution context (threads, bitmap filter, budget, approximate mode).
    pub exec: ExecContext,
    /// Global element order.
    pub order: ElementOrder,
}

impl JaccardConfig {
    /// Resemblance join with IDF weights — the paper's §5 configuration.
    pub fn resemblance(threshold: f64) -> Self {
        Self::new(threshold, JaccardKind::Resemblance)
    }

    /// Containment join with IDF weights.
    pub fn containment(threshold: f64) -> Self {
        Self::new(threshold, JaccardKind::Containment)
    }

    fn new(threshold: f64, kind: JaccardKind) -> Self {
        Self {
            threshold,
            kind,
            weights: WeightScheme::Idf,
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

    /// Override the weighting scheme.
    pub fn with_weights(mut self, weights: WeightScheme) -> Self {
        self.weights = weights;
        self
    }

    /// Override the element order.
    pub fn with_order(mut self, order: ElementOrder) -> Self {
        self.order = order;
        self
    }

    /// Replace the whole execution context.
    pub fn with_exec(mut self, exec: ExecContext) -> Self {
        self.exec = exec;
        self
    }
}

/// Jaccard join over pre-tokenized groups. Norms are the sets' total
/// weights, as Definition 5 requires.
///
/// # Errors
/// Returns [`ssjoin_core::SsJoinError::Config`] when the threshold is
/// outside `(0, 1]`, and any error of the underlying SSJoin.
pub fn jaccard_join_tokens(
    r_groups: Vec<Vec<String>>,
    s_groups: Vec<Vec<String>>,
    config: &JaccardConfig,
) -> SsJoinResult<SimilarityJoinOutput> {
    jaccard_join_groups(
        TokenGroups::Tokenized(r_groups),
        Some(TokenGroups::Tokenized(s_groups)),
        config,
    )
}

/// [`jaccard_join_tokens`] with the S side optional: `None` self-joins the R
/// groups as one relation.
pub(crate) fn jaccard_join_groups(
    r_groups: TokenGroups<'_>,
    s_groups: Option<TokenGroups<'_>>,
    config: &JaccardConfig,
) -> SsJoinResult<SimilarityJoinOutput> {
    let (alpha, kind) = (config.threshold, config.kind);
    let spec = JoinSpec {
        thresholds: &[("threshold", alpha)],
        weights: config.weights,
        order: config.order,
        predicate: match kind {
            JaccardKind::Containment => OverlapPredicate::r_normalized(alpha),
            JaccardKind::Resemblance => OverlapPredicate::two_sided(alpha),
        },
        config: SsJoinConfig::new(config.algorithm).with_exec(config.exec.clone()),
    };
    let relation = |groups| (groups, NormKind::TotalWeight, None);
    let prep = || Ok((relation(r_groups), s_groups.map(relation)));
    // Containment is the predicate itself; resemblance is checked exactly
    // from the overlap and the two set weights (no re-tokenization). A
    // one-relation resemblance self-join decides each unordered pair once
    // (SSJoin's half path): `wr + ws − ov` is the same in either
    // orientation, and on the diagonal `ov == wr`, so the similarity is
    // exactly 1.0. Containment is asymmetric and keeps every orientation.
    let udf = |p: &JoinPair, r_col: &SetCollection, s_col: &SetCollection| {
        let wr = r_col.set(p.r).total_weight().to_f64();
        let ws = s_col.set(p.s).total_weight().to_f64();
        let ov = p.overlap.to_f64();
        let denom = match kind {
            JaccardKind::Containment => wr,
            JaccardKind::Resemblance => wr + ws - ov,
        };
        let similarity = if denom == 0.0 { 1.0 } else { ov / denom };
        (similarity >= alpha - 1e-9).then_some(similarity)
    };
    let post = |out: &mut SimilarityJoinOutput, _: &SetCollection, _: &SetCollection| {
        if kind == JaccardKind::Containment {
            out.udf_verifications = 0;
        }
    };
    run_join(spec, prep, udf, post)
}

/// Jaccard join over strings, tokenized into lowercased words (the standard
/// data-cleaning setup for addresses and names). Pass the same rows twice
/// for a self-join: it is tokenized and built once. Tokenizing runs inside
/// the build, on `config.exec.threads` workers and on the
/// [`ssjoin_core::Phase::Prep`] clock.
///
/// ```
/// use ssjoin_joins::{jaccard_join, JaccardConfig};
/// use ssjoin_core::WeightScheme;
///
/// let data: Vec<String> = vec![
///     "100 main st springfield".into(),
///     "100 main st springfield usa".into(),
/// ];
/// let cfg = JaccardConfig::resemblance(0.8).with_weights(WeightScheme::Unweighted);
/// let out = jaccard_join(&data, &data, &cfg).unwrap();
/// assert!(out.keys().contains(&(0, 1))); // 4 of 5 tokens shared
/// ```
pub fn jaccard_join<R: AsRows + ?Sized, S: AsRows + ?Sized>(
    r: &R,
    s: &S,
    config: &JaccardConfig,
) -> SsJoinResult<SimilarityJoinOutput> {
    let tok = WordTokenizer::new().lowercased();
    let (r, s) = (r.as_rows(), s.as_rows());
    let (r_rows, s_rows) = sides(&r, &s, |rows| TokenGroups::Text {
        rows,
        tokenizer: &tok,
        order: None,
    });
    jaccard_join_groups(r_rows, s_rows, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssjoin_sim::{weighted_jaccard_containment, weighted_jaccard_resemblance};
    use ssjoin_text::Tokenizer;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn sample() -> Vec<String> {
        strings(&[
            "100 main st seattle wa",
            "100 main street seattle wa",
            "100 main st",
            "742 evergreen terrace springfield",
            "742 evergreen ter springfield",
        ])
    }

    fn brute_force(data: &[String], alpha: f64, kind: JaccardKind) -> Vec<(u32, u32)> {
        let tok = WordTokenizer::new().lowercased();
        let groups: Vec<Vec<String>> = data.iter().map(|x| tok.tokenize(x)).collect();
        let unit = |_: &str| 1.0;
        let mut out = Vec::new();
        for (i, a) in groups.iter().enumerate() {
            for (j, b) in groups.iter().enumerate() {
                let sim = match kind {
                    JaccardKind::Containment => weighted_jaccard_containment(a, b, &unit),
                    JaccardKind::Resemblance => weighted_jaccard_resemblance(a, b, &unit),
                };
                if sim >= alpha - 1e-9 {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    #[test]
    fn unweighted_matches_brute_force() {
        let data = sample();
        for alpha in [0.5, 0.6, 0.8, 0.9] {
            for kind in [JaccardKind::Containment, JaccardKind::Resemblance] {
                let cfg = JaccardConfig {
                    threshold: alpha,
                    kind,
                    ..JaccardConfig::resemblance(alpha)
                }
                .with_weights(WeightScheme::Unweighted);
                for alg in [Algorithm::Basic, Algorithm::Inline] {
                    let out = jaccard_join(&data, &data, &cfg.clone().with_algorithm(alg)).unwrap();
                    assert_eq!(
                        out.keys(),
                        brute_force(&data, alpha, kind),
                        "alpha={alpha} kind={kind:?} alg={alg:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn containment_is_asymmetric() {
        // "100 main st" ⊂ "100 main st seattle wa" fully, not vice versa.
        let data = sample();
        let cfg = JaccardConfig::containment(0.99).with_weights(WeightScheme::Unweighted);
        let out = jaccard_join(&data, &data, &cfg).unwrap();
        let keys = out.keys();
        assert!(keys.contains(&(2, 0)));
        assert!(!keys.contains(&(0, 2)));
    }

    #[test]
    fn idf_weights_change_scores_but_results_verified() {
        let data = sample();
        let cfg = JaccardConfig::resemblance(0.6); // IDF default
        let out = jaccard_join(&data, &data, &cfg).unwrap();
        // Every reported similarity must be ≥ threshold and symmetric pairs
        // must agree.
        for p in &out.pairs {
            assert!(p.similarity >= 0.6 - 1e-9);
            let mirror = out
                .pairs
                .iter()
                .find(|m| m.r == p.s && m.s == p.r)
                .expect("resemblance is symmetric");
            assert!((mirror.similarity - p.similarity).abs() < 1e-9);
        }
    }

    #[test]
    fn resemblance_algorithms_agree() {
        let data: Vec<String> = (0..50)
            .map(|i| format!("token{} token{} shared common words", i % 10, (i * 3) % 17))
            .collect();
        let cfg = JaccardConfig::resemblance(0.7);
        let a = jaccard_join(&data, &data, &cfg.clone().with_algorithm(Algorithm::Basic)).unwrap();
        let b = jaccard_join(
            &data,
            &data,
            &cfg.clone().with_algorithm(Algorithm::PrefixFiltered),
        )
        .unwrap();
        let c = jaccard_join(&data, &data, &cfg.clone().with_algorithm(Algorithm::Inline)).unwrap();
        assert_eq!(a.keys(), b.keys());
        assert_eq!(a.keys(), c.keys());
    }

    #[test]
    fn diagonal_always_present_in_self_join() {
        let data = sample();
        let out = jaccard_join(&data, &data, &JaccardConfig::resemblance(0.95)).unwrap();
        for i in 0..data.len() as u32 {
            assert!(out.keys().contains(&(i, i)));
        }
    }

    #[test]
    fn empty_strings_ignored_gracefully() {
        let data = strings(&["", "a b", "a b"]);
        let out = jaccard_join(
            &data,
            &data,
            &JaccardConfig::resemblance(0.9).with_weights(WeightScheme::Unweighted),
        )
        .unwrap();
        // The empty string has an empty set: overlap 0 < ε, never joined —
        // including with itself (documented §4.1 positivity assumption).
        assert!(!out.keys().contains(&(0, 0)));
        assert!(out.keys().contains(&(1, 2)));
    }

    #[test]
    fn zero_threshold_rejected() {
        let data = sample();
        let out = jaccard_join(&data, &data, &JaccardConfig::resemblance(0.0));
        assert!(
            matches!(out, Err(ssjoin_core::SsJoinError::Config(ref m)) if m.contains("threshold")),
            "{out:?}"
        );
    }
}
