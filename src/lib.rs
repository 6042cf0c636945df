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
//! The [`SsJoin`] builder is the unified entry point — it drives both the
//! fused fast-path executors and the relational-plan fidelity path. Every
//! execution setting (threads, the bitmap signature filter, budgets,
//! cancellation, approximate mode) lives on one [`ExecContext`]:
//!
//! ```
//! use ssjoin::{Algorithm, ExecContext, OverlapPredicate, SsJoin, SsJoinInputBuilder};
//! use ssjoin::{ElementOrder, WeightScheme};
//!
//! let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
//! b.add_relation(vec![
//!     vec!["100".into(), "main".into(), "st".into()],
//!     vec!["100".into(), "main".into(), "street".into()],
//! ]);
//! let input = b.build().unwrap();
//! let out = SsJoin::new(&input)
//!     .predicate(OverlapPredicate::two_sided(0.5))
//!     .algorithm(Algorithm::Inline)
//!     .exec(ExecContext::new().with_threads(2))
//!     .run()
//!     .unwrap();
//! assert!(out.pairs.iter().any(|p| (p.r, p.s) == (0, 1)));
//! ```
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
    ssjoin, ssjoin_with, Algorithm, ApproxSpec, BudgetCause, CancelToken, CorpusIndex,
    CorpusIndexOptions, ElementOrder, ExecBudget, ExecContext, JoinWorkspace, NormKind,
    OverlapPredicate, QueryEncoder, SsJoinConfig, SsJoinInputBuilder, SsJoinRun, WeightScheme,
};
pub use ssjoin_joins::{
    cluster_pairs, cooccurrence_join, cosine_join, edit_similarity_join, ges_join, jaccard_join,
    soft_fd_join, top_k_matches, CosineConfig, EditJoinConfig, GesJoinConfig, JaccardConfig,
    SoftFdConfig, TopKConfig, TopKIndex,
};

use ssjoin_core::plan::{basic_plan, collection_to_relation, inline_plan, prefix_plan, run_plan};
use ssjoin_core::{
    BuiltInput, SetCollection, SsJoinError, SsJoinOutput, SsJoinResult, SsJoinStats,
};
use std::sync::Arc;

/// Which execution engine an [`SsJoin`] drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The fused in-memory executors (`ssjoin_core::exec`) — the fast path.
    /// Honors every [`ExecContext`] setting: threads, bitmap filter, budget
    /// (including out-of-core spill), cancellation, approximate mode.
    #[default]
    Fast,
    /// The literal relational operator trees of `ssjoin_core::plan`
    /// (Figures 7–9 of the paper) — the fidelity path. Runs sequentially;
    /// thread and bitmap settings are ignored.
    RelationalPlan,
}

enum JoinInput<'a> {
    Built(&'a BuiltInput),
    Pair(&'a SetCollection, &'a SetCollection),
}

/// One entry point for the whole stack: pick the input, the predicate, the
/// algorithm, the execution context, and the engine, then [`run`].
///
/// With a [`BuiltInput`] holding one relation the join is a self-join; with
/// two or more, the first two relations play R and S (override with
/// [`SsJoin::between`] for explicit collections).
///
/// ```
/// use ssjoin::{Algorithm, ExecContext, OverlapPredicate, SsJoin, SsJoinInputBuilder};
/// use ssjoin::{ElementOrder, WeightScheme};
///
/// let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
/// b.add_relation(vec![
///     vec!["a".to_string(), "b".to_string(), "c".to_string()],
///     vec!["b".to_string(), "c".to_string(), "d".to_string()],
/// ]);
/// let input = b.build().unwrap();
///
/// let out = SsJoin::new(&input)
///     .predicate(OverlapPredicate::absolute(2.0))
///     .algorithm(Algorithm::Inline)
///     .exec(ExecContext::new().with_threads(2))
///     .run()
///     .unwrap();
/// assert!(out.pairs.iter().any(|p| (p.r, p.s) == (0, 1)));
/// ```
///
/// [`run`]: SsJoin::run
pub struct SsJoin<'a> {
    input: JoinInput<'a>,
    predicate: Option<OverlapPredicate>,
    config: SsJoinConfig,
    engine: Engine,
}

impl<'a> SsJoin<'a> {
    /// Join over a built input: self-join of its only relation, or the first
    /// two relations as R and S.
    pub fn new(input: &'a BuiltInput) -> Self {
        Self {
            input: JoinInput::Built(input),
            predicate: None,
            config: SsJoinConfig::default(),
            engine: Engine::default(),
        }
    }

    /// Join two explicit collections (they must share a builder run).
    pub fn between(r: &'a SetCollection, s: &'a SetCollection) -> Self {
        Self {
            input: JoinInput::Pair(r, s),
            predicate: None,
            config: SsJoinConfig::default(),
            engine: Engine::default(),
        }
    }

    /// Set the overlap predicate (required).
    pub fn predicate(mut self, pred: OverlapPredicate) -> Self {
        self.predicate = Some(pred);
        self
    }

    /// Choose the physical algorithm (default: [`Algorithm::Inline`]).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.config.algorithm = algorithm;
        self
    }

    /// Set the execution context (fast path only): threads, the bitmap
    /// signature filter, the [`ExecBudget`] (including the resident budget
    /// that routes oversized joins out of core), a [`CancelToken`] and the
    /// approximate [`ApproxSpec`]. [`Self::index`] also adopts its thread
    /// count and approximate spec for the build.
    pub fn exec(mut self, exec: ExecContext) -> Self {
        self.config.exec = exec;
        self
    }

    /// Choose the engine (default: [`Engine::Fast`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    fn resolve(&self) -> SsJoinResult<(&'a SetCollection, &'a SetCollection)> {
        match self.input {
            JoinInput::Built(b) => {
                let cs = b.collections();
                match cs.len() {
                    0 => Err(SsJoinError::Config("built input holds no relations".into())),
                    1 => Ok((&cs[0], &cs[0])),
                    _ => Ok((&cs[0], &cs[1])),
                }
            }
            JoinInput::Pair(r, s) => Ok((r, s)),
        }
    }

    /// Execute the join.
    pub fn run(self) -> SsJoinResult<SsJoinOutput> {
        let (r, s) = self.resolve()?;
        let pred = self.predicate.ok_or_else(|| {
            SsJoinError::Config("no overlap predicate set; call .predicate(..)".into())
        })?;
        match self.engine {
            Engine::Fast => ssjoin(r, s, &pred, &self.config),
            Engine::RelationalPlan => {
                if self.config.exec.approx.is_some_and(|a| a.is_active()) {
                    return Err(SsJoinError::Config(
                        "RelationalPlan has no approximate mode; use Engine::Fast".into(),
                    ));
                }
                run_relational(r, s, &pred, self.config.algorithm)
            }
        }
    }

    /// Execute the join into a caller-owned [`JoinWorkspace`], reusing every
    /// transient buffer from previous runs. Does not consume the builder, so
    /// one configured `SsJoin` can serve repeated joins:
    ///
    /// ```
    /// use ssjoin::{Algorithm, JoinWorkspace, OverlapPredicate, SsJoin, SsJoinInputBuilder};
    /// use ssjoin::{ElementOrder, WeightScheme};
    ///
    /// let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
    /// b.add_relation(vec![
    ///     vec!["a".to_string(), "b".to_string(), "c".to_string()],
    ///     vec!["b".to_string(), "c".to_string(), "d".to_string()],
    /// ]);
    /// let input = b.build().unwrap();
    /// let join = SsJoin::new(&input)
    ///     .predicate(OverlapPredicate::absolute(2.0))
    ///     .algorithm(Algorithm::Inline);
    ///
    /// let mut ws = JoinWorkspace::new();
    /// let cold = join.run_with(&mut ws).unwrap().pairs.len();
    /// // The second run reuses the workspace pools: zero hot-path
    /// // allocations, identical output.
    /// let warm = join.run_with(&mut ws).unwrap();
    /// assert_eq!(warm.pairs.len(), cold);
    /// assert_eq!(warm.stats.workspace_reuses, 1);
    /// ```
    ///
    /// Only [`Engine::Fast`] supports workspace reuse; the relational-plan
    /// engine returns a [`SsJoinError::Config`] error.
    pub fn run_with<'w>(&self, ws: &'w mut JoinWorkspace) -> SsJoinResult<SsJoinRun<'w>> {
        let (r, s) = self.resolve()?;
        let pred = self.predicate.as_ref().ok_or_else(|| {
            SsJoinError::Config("no overlap predicate set; call .predicate(..)".into())
        })?;
        match self.engine {
            Engine::Fast => ssjoin_with(r, s, pred, &self.config, ws),
            Engine::RelationalPlan => Err(SsJoinError::Config(
                "RelationalPlan does not support workspace reuse; use run()".into(),
            )),
        }
    }

    /// Build a persistent [`CorpusIndex`] over this join's S side and
    /// predicate — the build half of the build-once/probe-many split. The
    /// returned index owns a copy of the S collection; probe it with
    /// [`SsJoin::probe_with`] (or [`CorpusIndex::probe`] directly), and keep
    /// it across queries so repeated joins stop paying index construction:
    ///
    /// ```
    /// use ssjoin::{Algorithm, JoinWorkspace, OverlapPredicate, SsJoin, SsJoinInputBuilder};
    /// use ssjoin::{ElementOrder, WeightScheme};
    ///
    /// let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
    /// b.add_relation(vec![
    ///     vec!["a".to_string(), "b".to_string(), "c".to_string()],
    ///     vec!["b".to_string(), "c".to_string(), "d".to_string()],
    /// ]);
    /// let input = b.build().unwrap();
    /// let join = SsJoin::new(&input).predicate(OverlapPredicate::absolute(2.0));
    ///
    /// let index = join.index().unwrap();
    /// let mut ws = JoinWorkspace::new();
    /// let run = join.probe_with(&index, &mut ws).unwrap();
    /// assert!(run.pairs.iter().any(|p| (p.r, p.s) == (0, 1)));
    /// ```
    pub fn index(&self) -> SsJoinResult<CorpusIndex> {
        let (_, s) = self.resolve()?;
        let pred = self.predicate.clone().ok_or_else(|| {
            SsJoinError::Config("no overlap predicate set; call .predicate(..)".into())
        })?;
        let options = CorpusIndexOptions {
            build_threads: self.config.exec.threads.max(1),
            approx: self.config.exec.approx,
            ..CorpusIndexOptions::default()
        };
        CorpusIndex::build_with(s.clone(), pred, &options)
    }

    /// Probe a prebuilt [`CorpusIndex`] with this join's R side, under this
    /// join's execution context (threads, bitmap filter, budget, cancel
    /// token all apply per probe). Emitted pairs are identical to
    /// [`SsJoin::run`] against the index's live corpus; only candidate-level
    /// counters may differ. Like [`SsJoin::run_with`], this is a fast-path
    /// API: the relational-plan engine returns a [`SsJoinError::Config`]
    /// error.
    pub fn probe_with<'w>(
        &self,
        index: &CorpusIndex,
        ws: &'w mut JoinWorkspace,
    ) -> SsJoinResult<SsJoinRun<'w>> {
        let (r, _) = self.resolve()?;
        match self.engine {
            Engine::Fast => index.probe(r, &self.config, ws),
            Engine::RelationalPlan => Err(SsJoinError::Config(
                "RelationalPlan does not support index probes; use run()".into(),
            )),
        }
    }
}

/// Execute the join as a relational operator tree (Figures 7–9).
fn run_relational(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    algorithm: Algorithm,
) -> SsJoinResult<SsJoinOutput> {
    if !r.shares_universe(s) {
        return Err(SsJoinError::UniverseMismatch);
    }
    let plan = match algorithm {
        Algorithm::Basic => basic_plan(
            Arc::new(collection_to_relation(r)),
            Arc::new(collection_to_relation(s)),
            pred,
        ),
        Algorithm::PrefixFiltered => prefix_plan(
            Arc::new(collection_to_relation(r)),
            Arc::new(collection_to_relation(s)),
            pred,
            r.norm_range(),
            s.norm_range(),
        ),
        Algorithm::Inline => inline_plan(r, s, pred),
    };
    let (pairs, ctx) = run_plan(plan.as_ref()).map_err(|e| SsJoinError::Plan(e.to_string()))?;
    #[allow(clippy::field_reassign_with_default)]
    let stats = {
        let mut st = SsJoinStats::default();
        // The candidate equi-join's output rows are the plan-path analogue
        // of the fast path's join_tuples counter (zero for the basic plan,
        // whose join is labeled differently).
        st.join_tuples = ctx.rows_for("prefix_join") as u64;
        st.output_pairs = pairs.len() as u64;
        st
    };
    Ok(SsJoinOutput { pairs, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn facade_fast_path_self_join() {
        let input = addresses_input();
        let out = SsJoin::new(&input)
            .predicate(OverlapPredicate::two_sided(0.6))
            .algorithm(Algorithm::Inline)
            .run()
            .unwrap();
        assert!(out.pairs.len() >= input.collections()[0].len());
    }

    #[test]
    fn facade_engines_agree() {
        let input = addresses_input();
        let pred = OverlapPredicate::two_sided(0.6);
        for alg in [
            Algorithm::Basic,
            Algorithm::PrefixFiltered,
            Algorithm::Inline,
        ] {
            let fast = SsJoin::new(&input)
                .predicate(pred.clone())
                .algorithm(alg)
                .run()
                .unwrap();
            let plan = SsJoin::new(&input)
                .predicate(pred.clone())
                .algorithm(alg)
                .engine(Engine::RelationalPlan)
                .run()
                .unwrap();
            let f: Vec<(u32, u32)> = fast.pairs.iter().map(|p| (p.r, p.s)).collect();
            let p: Vec<(u32, u32)> = plan.pairs.iter().map(|p| (p.r, p.s)).collect();
            assert_eq!(f, p, "alg {alg:?}");
        }
    }

    #[test]
    fn facade_parallel_with_bitmap_matches_sequential() {
        let input = addresses_input();
        let pred = OverlapPredicate::two_sided(0.5);
        let seq = SsJoin::new(&input)
            .predicate(pred.clone())
            .algorithm(Algorithm::Inline)
            .run()
            .unwrap();
        for threads in [2, 4] {
            let par = SsJoin::new(&input)
                .predicate(pred.clone())
                .algorithm(Algorithm::Inline)
                .exec(ExecContext::new().with_threads(threads))
                .run()
                .unwrap();
            assert_eq!(seq.pairs, par.pairs, "threads {threads}");
            assert!(par.stats.bitmap_probes > 0, "threads {threads}");
        }
    }

    #[test]
    fn facade_budget_and_cancel_are_honored() {
        let input = addresses_input();
        let pred = OverlapPredicate::two_sided(0.3);
        // A one-candidate budget must abort with the typed error.
        let err = SsJoin::new(&input)
            .predicate(pred.clone())
            .algorithm(Algorithm::Inline)
            .exec(ExecContext::new().with_budget(ExecBudget::new().with_max_candidate_pairs(1)))
            .run()
            .unwrap_err();
        assert!(
            matches!(
                &err,
                ssjoin_core::SsJoinError::BudgetExceeded { which, .. }
                    if *which == BudgetCause::CandidatePairs
            ),
            "{err:?}"
        );
        // A pre-cancelled token aborts before any work happens.
        let token = CancelToken::new();
        token.cancel();
        let err = SsJoin::new(&input)
            .predicate(pred)
            .algorithm(Algorithm::Inline)
            .exec(ExecContext::new().with_cancel_token(token))
            .run()
            .unwrap_err();
        assert!(
            matches!(
                &err,
                ssjoin_core::SsJoinError::BudgetExceeded { which, .. }
                    if *which == BudgetCause::Cancelled
            ),
            "{err:?}"
        );
    }

    #[test]
    fn facade_run_with_reuses_workspace() {
        let input = addresses_input();
        let pred = OverlapPredicate::two_sided(0.6);
        let join = SsJoin::new(&input)
            .predicate(pred.clone())
            .algorithm(Algorithm::Inline);
        let mut ws = JoinWorkspace::new();
        let first: Vec<_> = join.run_with(&mut ws).unwrap().pairs.to_vec();
        let warm = join.run_with(&mut ws).unwrap();
        assert_eq!(warm.pairs, first.as_slice());
        assert_eq!(warm.stats.workspace_reuses, 1);
        assert!(warm.stats.bytes_reserved > 0);
        assert!(warm.stats.effective_threads >= 1);
        // The reused-workspace output matches a fresh run() exactly.
        let fresh = SsJoin::new(&input)
            .predicate(pred.clone())
            .algorithm(Algorithm::Inline)
            .run()
            .unwrap();
        assert_eq!(fresh.pairs, first);
        // The relational-plan engine has no workspace path.
        let err = SsJoin::new(&input)
            .predicate(pred)
            .engine(Engine::RelationalPlan)
            .run_with(&mut ws);
        assert!(matches!(err, Err(SsJoinError::Config(_))));
    }

    #[test]
    fn facade_index_probe_matches_run() {
        let input = addresses_input();
        let pred = OverlapPredicate::two_sided(0.6);
        for alg in [
            Algorithm::Basic,
            Algorithm::PrefixFiltered,
            Algorithm::Inline,
        ] {
            let join = SsJoin::new(&input).predicate(pred.clone()).algorithm(alg);
            let fresh = SsJoin::new(&input)
                .predicate(pred.clone())
                .algorithm(alg)
                .run()
                .unwrap();
            let index = join.index().unwrap();
            let mut ws = JoinWorkspace::new();
            let probed = join.probe_with(&index, &mut ws).unwrap();
            assert_eq!(probed.pairs, fresh.pairs.as_slice(), "alg {alg:?}");
        }
        // The relational-plan engine has no probe path.
        let index = SsJoin::new(&input).predicate(pred.clone()).index().unwrap();
        let mut ws = JoinWorkspace::new();
        let err = SsJoin::new(&input)
            .predicate(pred)
            .engine(Engine::RelationalPlan)
            .probe_with(&index, &mut ws);
        assert!(matches!(err, Err(SsJoinError::Config(_))));
    }

    #[test]
    fn facade_memory_budget_spills_with_identical_output() {
        let input = addresses_input();
        let pred = OverlapPredicate::two_sided(0.6);
        let base = SsJoin::new(&input)
            .predicate(pred.clone())
            .algorithm(Algorithm::Inline)
            .run()
            .unwrap();
        assert_eq!(base.stats.spill_partitions, 0);
        let c = &input.collections()[0];
        let est = ssjoin_core::estimate_memory_bytes(c, c);
        let budgeted =
            ExecContext::new().with_budget(ExecBudget::new().with_max_resident_bytes(est / 4));
        let join = SsJoin::new(&input)
            .predicate(pred)
            .algorithm(Algorithm::Inline)
            .exec(budgeted);
        let mut ws = JoinWorkspace::new();
        let spilled = join.run_with(&mut ws).unwrap();
        assert_eq!(spilled.pairs, base.pairs.as_slice());
        assert!(
            spilled.stats.spill_partitions >= 2,
            "budgeted run stayed resident"
        );
        assert!(spilled.stats.spill_bytes > 0);
        // A probe of the built index spills under the same context budget.
        let index = join.index().unwrap();
        let probed = join.probe_with(&index, &mut ws).unwrap();
        assert!(probed.stats.spill_partitions >= 2, "probe stayed resident");
        assert_eq!(probed.pairs, base.pairs.as_slice());
    }

    #[test]
    fn facade_approximate_is_subset_with_exact_scores() {
        let input = addresses_input();
        let pred = OverlapPredicate::two_sided(0.6);
        let exact = SsJoin::new(&input).predicate(pred.clone()).run().unwrap();
        let approx = SsJoin::new(&input)
            .predicate(pred.clone())
            .exec(ExecContext::new().with_approximate(0.9))
            .run()
            .unwrap();
        // Every approximate pair appears in the exact output with an
        // identical overlap — approximation only drops pairs.
        for p in &approx.pairs {
            assert!(exact.pairs.contains(p), "spurious pair {p:?}");
        }
        assert!(approx.stats.approx_reps >= 1);
        // recall target 1.0 is exact, bit for bit.
        let one = SsJoin::new(&input)
            .predicate(pred.clone())
            .exec(ExecContext::new().with_approximate(1.0))
            .run()
            .unwrap();
        assert_eq!(one.pairs, exact.pairs);
        assert_eq!(one.stats.approx_reps, 0);
        // The approximate spec flows into the built index; probes under the
        // same spec reproduce the one-shot approximate output.
        let join = SsJoin::new(&input)
            .predicate(pred.clone())
            .exec(ExecContext::new().with_approximate(0.9));
        let index = join.index().unwrap();
        let mut ws = JoinWorkspace::new();
        let probed = join.probe_with(&index, &mut ws).unwrap();
        assert_eq!(probed.pairs, approx.pairs.as_slice());
        // The relational-plan engine has no approximate mode.
        let err = SsJoin::new(&input)
            .predicate(pred)
            .exec(ExecContext::new().with_approximate(0.9))
            .engine(Engine::RelationalPlan)
            .run();
        assert!(matches!(err, Err(SsJoinError::Config(_))));
    }

    #[test]
    fn facade_missing_predicate_is_config_error() {
        let input = addresses_input();
        let err = SsJoin::new(&input).run();
        assert!(matches!(err, Err(SsJoinError::Config(_))));
    }
}
