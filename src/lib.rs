//! # ssjoin — a primitive operator for similarity joins in data cleaning
//!
//! A Rust implementation of the **SSJoin** operator and the similarity-join
//! stack built on it, reproducing *Chaudhuri, Ganti, Kaushik: "A Primitive
//! Operator for Similarity Joins in Data Cleaning" (ICDE 2006)*.
//!
//! The facade re-exports the workspace crates:
//!
//! * [`core`] — the SSJoin operator: weighted sets, overlap predicates,
//!   prefix filter, and the basic / prefix-filtered / inline physical
//!   implementations (plus the relational-plan formulation);
//! * [`joins`] — similarity joins expressed through SSJoin: edit similarity,
//!   Jaccard containment/resemblance, generalized edit similarity,
//!   co-occurrence, soft functional dependencies, hamming, soundex, top-K;
//! * [`text`] — tokenizers (q-grams, words), normalization, soundex codes;
//! * [`sim`] — similarity functions used as verification UDFs;
//! * [`relational`] — the minimal relational engine the operator trees of
//!   the paper compose over;
//! * [`baselines`] — the customized edit join of Gravano et al. and the
//!   naive UDF cross product;
//! * [`datagen`] — synthetic corpora standing in for the paper's proprietary
//!   datasets.
//!
//! ## Quickstart
//!
//! [`ssjoin`] joins two collections of one builder run; pass one collection
//! twice for a self-join. Every execution setting (threads, the bitmap
//! signature filter, the resident-memory budget, approximate mode) lives on
//! one [`ExecContext`], handed over with [`SsJoinConfig::with_exec`]:
//!
//! ```
//! use ssjoin::{ssjoin, Algorithm, ExecContext, OverlapPredicate, SsJoinConfig};
//! use ssjoin::{ElementOrder, SsJoinInputBuilder, WeightScheme};
//!
//! let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
//! let h = b.add_relation(vec![
//!     vec!["100".into(), "main".into(), "st".into()],
//!     vec!["100".into(), "main".into(), "street".into()],
//! ]);
//! let input = b.build().unwrap();
//! let c = input.collection(h);
//! let config = SsJoinConfig::new(Algorithm::Inline).with_exec(ExecContext::new().with_threads(2));
//! let out = ssjoin(c, c, &OverlapPredicate::two_sided(0.5), &config).unwrap();
//! assert!(out.pairs.iter().any(|p| (p.r, p.s) == (0, 1)));
//! ```
//!
//! [`ssjoin_with`] runs into a caller-owned [`JoinWorkspace`], so repeated
//! joins reuse its buffers. A [`CorpusIndex`] builds the S side once, under
//! an [`ExecContext`] too, and answers many probe batches. [`core::plan`]
//! runs the same algorithms as the paper's relational operator trees
//! (Figures 7–9). Each of these re-exports carries its own example below.
//!
//! Packaged similarity joins sit one level up:
//!
//! ```
//! use ssjoin::joins::{jaccard_join, JaccardConfig};
//!
//! let addresses: Vec<String> = vec![
//!     "100 Main St Springfield WA".into(),
//!     "100 Main Street Springfield WA".into(),
//!     "742 Evergreen Terrace".into(),
//! ];
//! let out = jaccard_join(&addresses, &addresses, &JaccardConfig::resemblance(0.5)).unwrap();
//! assert!(out.keys().contains(&(0, 1)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ssjoin_baselines as baselines;
pub use ssjoin_core as core;
pub use ssjoin_datagen as datagen;
pub use ssjoin_joins as joins;
pub use ssjoin_relational as relational;
pub use ssjoin_sim as sim;
pub use ssjoin_text as text;

// Most-used items at the crate root for ergonomic imports.
pub use ssjoin_core::{
    Algorithm, ApproxSpec, ElementOrder, ExecBudget, ExecContext, JoinWorkspace, NormKind,
    OverlapPredicate, QueryEncoder, SsJoinConfig, SsJoinInputBuilder, SsJoinRun, WeightScheme,
};

/// The fast path and the relational operator trees of [`core::plan`]
/// return the same pairs:
///
/// ```
/// use ssjoin::core::plan::{inline_plan, run_plan};
/// use ssjoin::{ssjoin, Algorithm, ExecContext, OverlapPredicate, SsJoinConfig};
/// use ssjoin::{ElementOrder, SsJoinInputBuilder, WeightScheme};
///
/// let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
/// let h = b.add_relation(vec![
///     vec!["a".to_string(), "b".to_string(), "c".to_string()],
///     vec!["b".to_string(), "c".to_string(), "d".to_string()],
/// ]);
/// let input = b.build().unwrap();
/// let c = input.collection(h);
/// let pred = OverlapPredicate::absolute(2.0);
/// let config = SsJoinConfig::new(Algorithm::Inline).with_exec(ExecContext::new().with_threads(2));
/// let out = ssjoin(c, c, &pred, &config).unwrap();
/// assert!(out.pairs.iter().any(|p| (p.r, p.s) == (0, 1)));
///
/// let (plan_pairs, _) = run_plan(inline_plan(c, c, &pred).as_ref()).unwrap();
/// assert_eq!(plan_pairs.len(), out.pairs.len());
/// ```
pub use ssjoin_core::ssjoin;

/// One workspace serves repeated joins; the warm run reuses its buffers
/// and returns the same pairs:
///
/// ```
/// use ssjoin::{ssjoin_with, JoinWorkspace, OverlapPredicate, SsJoinConfig};
/// use ssjoin::{ElementOrder, SsJoinInputBuilder, WeightScheme};
///
/// let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
/// let h = b.add_relation(vec![
///     vec!["a".to_string(), "b".to_string(), "c".to_string()],
///     vec!["b".to_string(), "c".to_string(), "d".to_string()],
/// ]);
/// let input = b.build().unwrap();
/// let c = input.collection(h);
/// let (pred, config) = (OverlapPredicate::absolute(2.0), SsJoinConfig::default());
/// let mut ws = JoinWorkspace::new();
/// let cold = ssjoin_with(c, c, &pred, &config, &mut ws).unwrap().pairs.to_vec();
/// let warm = ssjoin_with(c, c, &pred, &config, &mut ws).unwrap();
/// assert_eq!((warm.pairs, warm.stats.workspace_reuses), (cold.as_slice(), 1));
/// ```
pub use ssjoin_core::ssjoin_with;

/// Build the S side once under an [`ExecContext`], then probe it with
/// as many batches as needed:
///
/// ```
/// use ssjoin::{CorpusIndex, JoinWorkspace, OverlapPredicate, SsJoinConfig};
/// use ssjoin::{ElementOrder, SsJoinInputBuilder, WeightScheme};
///
/// let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
/// let h = b.add_relation(vec![
///     vec!["a".to_string(), "b".to_string(), "c".to_string()],
///     vec!["b".to_string(), "c".to_string(), "d".to_string()],
/// ]);
/// let input = b.build().unwrap();
/// let c = input.collection(h);
/// let (pred, config) = (OverlapPredicate::absolute(2.0), SsJoinConfig::default());
/// let index = CorpusIndex::build(c.clone(), pred, &config.exec).unwrap();
/// let mut ws = JoinWorkspace::new();
/// let run = index.probe(c, &config, &mut ws).unwrap();
/// assert!(run.pairs.iter().any(|p| (p.r, p.s) == (0, 1)));
/// ```
pub use ssjoin_core::CorpusIndex;
pub use ssjoin_joins::{
    cluster_pairs, cooccurrence_join, cosine_join, edit_similarity_join, ges_join, jaccard_join,
    soft_fd_join, top_k_matches, CosineConfig, EditJoinConfig, GesJoinConfig, JaccardConfig,
    SoftFdConfig, TopKConfig, TopKIndex,
};

#[cfg(test)]
mod tests {
    //! The crate-root surface, end to end: every execution setting reaches
    //! `ssjoin`, `ssjoin_with` and `CorpusIndex` through one `ExecContext`.
    use super::*;
    use ssjoin_core::plan::{
        basic_plan, collection_to_relation, inline_plan, prefix_plan, run_plan,
    };
    use ssjoin_core::{BuiltInput, JoinPair, SetCollection, SsJoinOutput, SsJoinResult};
    use std::sync::Arc;

    fn addresses_input() -> BuiltInput {
        let groups: Vec<Vec<String>> = (0..24)
            .map(|i| {
                (0..(3 + i % 4))
                    .map(|j| format!("tok{}", (i * 5 + j * 7) % 19))
                    .collect()
            })
            .collect();
        let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
        b.add_relation(groups);
        b.build().unwrap()
    }

    /// The self-join of the input's one relation under `exec`.
    fn join(input: &BuiltInput, threshold: f64, exec: ExecContext) -> SsJoinResult<SsJoinOutput> {
        let c = collection(input);
        let config = SsJoinConfig::new(Algorithm::Inline).with_exec(exec);
        ssjoin(c, c, &OverlapPredicate::two_sided(threshold), &config)
    }

    fn keys(pairs: &[JoinPair]) -> Vec<(u32, u32)> {
        pairs.iter().map(|p| (p.r, p.s)).collect()
    }

    fn collection(input: &BuiltInput) -> &SetCollection {
        &input.collections()[0]
    }

    #[test]
    fn facade_fast_path_self_join() {
        let input = addresses_input();
        let out = join(&input, 0.6, ExecContext::new()).unwrap();
        assert!(out.pairs.len() >= collection(&input).len());
    }

    #[test]
    fn facade_engines_agree() {
        let input = addresses_input();
        let c = collection(&input);
        let pred = OverlapPredicate::two_sided(0.6);
        let relation = || Arc::new(collection_to_relation(c));
        let plans = [
            (Algorithm::Basic, basic_plan(relation(), relation(), &pred)),
            (
                Algorithm::PrefixFiltered,
                prefix_plan(
                    relation(),
                    relation(),
                    &pred,
                    c.norm_range(),
                    c.norm_range(),
                ),
            ),
            (Algorithm::Inline, inline_plan(c, c, &pred)),
        ];
        for (alg, plan) in plans {
            let fast = ssjoin(c, c, &pred, &SsJoinConfig::new(alg)).unwrap();
            let (plan_pairs, _) = run_plan(plan.as_ref()).unwrap();
            assert_eq!(keys(&fast.pairs), keys(&plan_pairs), "alg {alg:?}");
        }
    }

    #[test]
    fn facade_parallel_with_bitmap_matches_sequential() {
        let input = addresses_input();
        let seq = join(&input, 0.5, ExecContext::new()).unwrap();
        for threads in [2, 4] {
            let par = join(&input, 0.5, ExecContext::new().with_threads(threads)).unwrap();
            assert_eq!(seq.pairs, par.pairs, "threads {threads}");
            assert!(par.stats.bitmap_probes > 0, "threads {threads}");
        }
    }

    #[test]
    fn facade_run_with_reuses_workspace() {
        let input = addresses_input();
        let c = collection(&input);
        let pred = OverlapPredicate::two_sided(0.6);
        let config = SsJoinConfig::new(Algorithm::Inline);
        let mut ws = JoinWorkspace::new();
        let first = ssjoin_with(c, c, &pred, &config, &mut ws)
            .unwrap()
            .pairs
            .to_vec();
        let warm = ssjoin_with(c, c, &pred, &config, &mut ws).unwrap();
        assert_eq!(warm.pairs, first.as_slice());
        assert_eq!(warm.stats.workspace_reuses, 1);
        assert!(warm.stats.bytes_reserved > 0);
        assert!(warm.stats.effective_threads >= 1);
        // The reused-workspace output matches a fresh run exactly.
        assert_eq!(join(&input, 0.6, ExecContext::new()).unwrap().pairs, first);
    }

    #[test]
    fn facade_index_probe_matches_run() {
        let input = addresses_input();
        let c = collection(&input);
        let pred = OverlapPredicate::two_sided(0.6);
        let index = CorpusIndex::build(c.clone(), pred.clone(), &ExecContext::new()).unwrap();
        let mut ws = JoinWorkspace::new();
        for alg in [
            Algorithm::Basic,
            Algorithm::PrefixFiltered,
            Algorithm::Inline,
        ] {
            let config = SsJoinConfig::new(alg);
            let fresh = ssjoin(c, c, &pred, &config).unwrap();
            let probed = index.probe(c, &config, &mut ws).unwrap();
            assert_eq!(probed.pairs, fresh.pairs.as_slice(), "alg {alg:?}");
        }
    }

    #[test]
    fn facade_memory_budget_spills_with_identical_output() {
        let input = addresses_input();
        let c = collection(&input);
        let base = join(&input, 0.6, ExecContext::new()).unwrap();
        assert_eq!(base.stats.spill_partitions, 0);
        let est = ssjoin_core::estimate_memory_bytes(c, c);
        let budgeted =
            ExecContext::new().with_budget(ExecBudget::new().with_max_resident_bytes(est / 4));
        let spilled = join(&input, 0.6, budgeted.clone()).unwrap();
        assert_eq!(spilled.pairs, base.pairs);
        assert!(
            spilled.stats.spill_partitions >= 2,
            "budgeted run stayed resident"
        );
        assert!(spilled.stats.spill_bytes > 0);
        // A probe of a built index spills under the probe's own budget.
        let pred = OverlapPredicate::two_sided(0.6);
        let index = CorpusIndex::build(c.clone(), pred, &budgeted).unwrap();
        let config = SsJoinConfig::new(Algorithm::Inline).with_exec(budgeted);
        let mut ws = JoinWorkspace::new();
        let probed = index.probe(c, &config, &mut ws).unwrap();
        assert!(probed.stats.spill_partitions >= 2, "probe stayed resident");
        assert_eq!(probed.pairs, base.pairs.as_slice());
    }

    #[test]
    fn facade_approximate_is_subset_with_exact_scores() {
        let input = addresses_input();
        let c = collection(&input);
        let exact = join(&input, 0.6, ExecContext::new()).unwrap();
        let approx_exec = ExecContext::new().with_approximate(0.9);
        let approx = join(&input, 0.6, approx_exec.clone()).unwrap();
        // Every approximate pair appears in the exact output with an
        // identical overlap — approximation only drops pairs.
        for p in &approx.pairs {
            assert!(exact.pairs.contains(p), "spurious pair {p:?}");
        }
        assert!(approx.stats.approx_reps >= 1);
        // recall target 1.0 is exact, bit for bit.
        let one = join(&input, 0.6, ExecContext::new().with_approximate(1.0)).unwrap();
        assert_eq!(one.pairs, exact.pairs);
        assert_eq!(one.stats.approx_reps, 0);
        // An index built under the approximate context commits to its
        // sketch; probes under the same context reproduce the one-shot
        // approximate output.
        let pred = OverlapPredicate::two_sided(0.6);
        let index = CorpusIndex::build(c.clone(), pred, &approx_exec).unwrap();
        let config = SsJoinConfig::new(Algorithm::Inline).with_exec(approx_exec);
        let mut ws = JoinWorkspace::new();
        let probed = index.probe(c, &config, &mut ws).unwrap();
        assert_eq!(probed.pairs, approx.pairs.as_slice());
    }
}
