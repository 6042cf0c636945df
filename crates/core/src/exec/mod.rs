//! Physical SSJoin executors.
//!
//! All executors share the contract: given two [`SetCollection`]s built by
//! one [`crate::SsJoinInputBuilder`] and an [`OverlapPredicate`], return
//! every pair of group ids whose overlap satisfies the predicate, plus the
//! overlap itself (so downstream similarity-function filters can reuse it).
//! Output pairs are sorted by `(r, s)` — executors are interchangeable and
//! the test suite diffs them pairwise.

mod auto;
mod basic;
mod inline;
mod positional;
mod prefix;
mod workspace;

pub use auto::{estimate_costs, CostEstimate, PlanChoice};
pub use workspace::JoinWorkspace;

pub(crate) use auto::{effective_threads, estimate_probe_costs_into, run_planned};
pub(crate) use basic::probe_basic;
pub(crate) use positional::probe_positional;
pub(crate) use prefix::{prefix_lengths_into, probe_prefix_family, Side};
pub(crate) use workspace::{build_csr_parallel, vec_bytes, CsrIndex, WorkerScratch};

use crate::approx::ApproxSpec;
use crate::budget::{estimate_memory_bytes, BudgetState, CancelToken, ExecBudget};
use crate::error::{SsJoinError, SsJoinResult};
use crate::predicate::OverlapPredicate;
use crate::set::SetCollection;
use crate::stats::SsJoinStats;
use crate::weight::Weight;
use std::borrow::Cow;

/// One result pair: group ids on each side plus their weighted overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinPair {
    /// Group id in the R collection.
    pub r: u32,
    /// Group id in the S collection.
    pub s: u32,
    /// The weighted overlap of the two groups.
    pub overlap: Weight,
}

/// The result of an SSJoin execution.
#[derive(Debug, Clone)]
pub struct SsJoinOutput {
    /// Qualifying pairs, sorted by `(r, s)`.
    pub pairs: Vec<JoinPair>,
    /// Phase timings and counters.
    pub stats: SsJoinStats,
    /// The algorithm that actually ran (differs from the configured one only
    /// under [`Algorithm::Auto`]).
    pub algorithm_used: Algorithm,
}

/// Physical SSJoin algorithm, per §4 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// Figure 7: element equi-join + group-by + HAVING, realized as an
    /// inverted-index accumulation over the full sets.
    Basic,
    /// Figure 8: prefix filter, candidate join, then joins back to the base
    /// relations to regroup and verify.
    PrefixFiltered,
    /// Figure 9: prefix filter with the inline set representation —
    /// verification merges the carried sets directly.
    #[default]
    Inline,
    /// The inline algorithm plus the positional filter: candidates whose
    /// position-aware overlap upper bound cannot reach the required
    /// threshold are pruned before the verification merge. An extension of
    /// the paper's prefix filter in the direction later taken by PPJoin
    /// (Xiao et al., WWW 2008).
    PositionalInline,
    /// Cost-based choice over the whole configuration space — executor ×
    /// bitmap filter × thread count — from catalog statistics (§7's future
    /// work). The winning [`PlanChoice`] is recorded in
    /// [`SsJoinStats::plan`].
    Auto,
}

/// Execution context shared by every physical executor: thread count, the
/// candidate filter, resource limits, cancellation and approximate mode. It
/// is the one place an execution value is set: [`SsJoinConfig`] pairs it
/// with the algorithm choice, and the facade, the packaged joins and index
/// probes pass it through whole.
///
/// The default context runs one thread with the bitmap filter on. Output
/// never depends on either knob; counters are identical at every thread
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecContext {
    /// Worker threads for the probe/verify loops (1 = sequential). Every
    /// executor splits R into contiguous chunks, one per worker.
    pub threads: usize,
    /// Reject candidates whose 8-word bitmap-signature overlap bound cannot
    /// reach the required overlap, before the verification merge. Lossless;
    /// changes counters but never output. On by default;
    /// `with_bitmap_filter(false)` is the ablation and test oracle.
    pub bitmap_filter: bool,
    /// Resource limits (candidate pairs, output pairs, deadline, memory).
    /// Unlimited by default; exceeding any limit aborts the run with
    /// [`SsJoinError::BudgetExceeded`]. A `max_resident_bytes` below the
    /// run's estimate routes it out of core instead.
    pub budget: ExecBudget,
    /// Cooperative cancellation token. `None` by default; when set, calling
    /// [`CancelToken::cancel`] on any clone aborts the run at the next
    /// checkpoint.
    pub cancel: Option<CancelToken>,
    /// Opt-in approximate mode (`None` = exact, the default). When set to an
    /// active spec (`target_recall < 1`), candidate generation switches to
    /// the seeded LSH generator of [`crate::ApproxSpec`]; verification is
    /// unchanged, so every emitted pair is exact but a measured fraction of
    /// true pairs may be missed. A spec with `target_recall == 1.0`
    /// degenerates to the exact pipeline. Set the field directly to choose a
    /// seed other than the default.
    pub approx: Option<ApproxSpec>,
}

impl ExecContext {
    /// Sequential context with all defaults.
    pub fn new() -> Self {
        Self {
            threads: 1,
            bitmap_filter: true,
            budget: ExecBudget::default(),
            cancel: None,
            approx: None,
        }
    }

    /// Set the worker thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Enable or disable the bitmap signature filter.
    pub fn with_bitmap_filter(mut self, on: bool) -> Self {
        self.bitmap_filter = on;
        self
    }

    /// Set the execution budget.
    pub fn with_budget(mut self, budget: ExecBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Attach a cooperative cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Enable approximate candidate generation targeting `recall` under the
    /// default seed (see [`crate::ApproxSpec`]); exactly `1.0` keeps the
    /// exact pipeline.
    pub fn with_approximate(mut self, target_recall: f64) -> Self {
        self.approx = Some(ApproxSpec::new(target_recall));
        self
    }

    /// The approximate spec, if one is set *and* active (`target_recall < 1`).
    pub(crate) fn active_approx(&self) -> Option<ApproxSpec> {
        self.approx.filter(ApproxSpec::is_active)
    }
}

impl Default for ExecContext {
    fn default() -> Self {
        Self::new()
    }
}

/// Execution configuration: the physical algorithm plus the execution
/// context it runs under.
#[derive(Debug, Clone, Default)]
pub struct SsJoinConfig {
    /// Which physical algorithm to run.
    pub algorithm: Algorithm,
    /// Threads, filter, limits, cancellation, approximate mode.
    pub exec: ExecContext,
}

impl SsJoinConfig {
    /// Config with the given algorithm and the default (sequential) context.
    pub fn new(algorithm: Algorithm) -> Self {
        Self {
            algorithm,
            exec: ExecContext::new(),
        }
    }

    /// Replace the whole execution context.
    pub fn with_exec(mut self, exec: ExecContext) -> Self {
        self.exec = exec;
        self
    }
}

/// The result of an SSJoin execution into a caller-owned
/// [`JoinWorkspace`]: the pairs borrow the workspace's pooled output
/// buffer, so repeated joins allocate no output vector either.
#[derive(Debug)]
pub struct SsJoinRun<'w> {
    /// Qualifying pairs, sorted by `(r, s)`, borrowed from the workspace.
    pub pairs: &'w [JoinPair],
    /// Phase timings and counters.
    pub stats: SsJoinStats,
    /// The algorithm that actually ran (differs from the configured one only
    /// under [`Algorithm::Auto`]).
    pub algorithm_used: Algorithm,
}

/// Execute the SSJoin operator `R SSJoin_pred S`.
///
/// Both collections must come from the same [`crate::SsJoinInputBuilder`]
/// run (they must share the element universe); `R` and `S` may be the same
/// collection (self-join).
///
/// Every call allocates (and drops) a fresh [`JoinWorkspace`]; callers
/// running repeated joins should keep a workspace and use [`ssjoin_with`],
/// which reuses every transient buffer across runs.
///
/// # Budgets and cancellation
///
/// When the context carries an [`ExecBudget`] limit or a [`CancelToken`],
/// every executor checks it cooperatively at chunk granularity.
/// Exceeding a limit (or a cancel) aborts cleanly across all worker threads
/// and returns [`SsJoinError::BudgetExceeded`] with the statistics gathered
/// so far — a run either completes with correct, complete results or fails
/// with that typed error; it never returns a silently truncated result.
pub fn ssjoin(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    config: &SsJoinConfig,
) -> SsJoinResult<SsJoinOutput> {
    let mut ws = JoinWorkspace::new();
    let (stats, used) = ssjoin_into(r, s, pred, config, &mut ws)?;
    Ok(SsJoinOutput {
        pairs: std::mem::take(&mut ws.out),
        stats,
        algorithm_used: used,
    })
}

/// Execute the SSJoin operator into a caller-owned [`JoinWorkspace`].
///
/// Identical semantics to [`ssjoin`] — same output, same stats, same budget
/// behaviour — but every transient buffer (inverted indexes, prefix tables,
/// stamp arrays, candidate and output buffers) comes from the
/// workspace's pools. After the workspace has warmed on a first run of
/// comparable scale, subsequent sequential runs perform zero heap
/// allocations on the hot path.
pub fn ssjoin_with<'w>(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    config: &SsJoinConfig,
    ws: &'w mut JoinWorkspace,
) -> SsJoinResult<SsJoinRun<'w>> {
    let (stats, used) = ssjoin_into(r, s, pred, config, ws)?;
    Ok(SsJoinRun {
        pairs: &ws.out,
        stats,
        algorithm_used: used,
    })
}

fn ssjoin_into(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    config: &SsJoinConfig,
    ws: &mut JoinWorkspace,
) -> SsJoinResult<(SsJoinStats, Algorithm)> {
    if r.universe_tag() != s.universe_tag() {
        return Err(SsJoinError::UniverseMismatch);
    }
    let run = begin(r, s, config, ws)?;
    let ctx = &*run.ctx;
    let spilled = if run.spill {
        crate::spill::run(r, s, pred, config.algorithm, ctx, &run.budget, ws)?
    } else {
        None
    };
    let (stats, used) = match (spilled, run.approx) {
        (Some(result), _) => result,
        // Approximate candidate generation replaces the executor choice
        // wholesale — one deterministic pipeline regardless of the
        // configured algorithm, so output is identical across executors.
        (None, Some(spec)) => {
            crate::approx::run(r, s, pred, config.algorithm, ctx, &spec, &run.budget, ws)
        }
        // Resident path — also the fallback when the spill planner found
        // nothing to split (empty side, single-rank mass).
        (None, None) => run_algorithm(config.algorithm, r, s, pred, ctx, &run.budget, ws),
    };
    finish(run, stats, used, 0, ws)
}

/// One run's envelope, opened by [`begin`] and closed by [`finish`]: the
/// context the executors see, the shared budget state, and the route the
/// run takes. One-shot joins and [`crate::CorpusIndex`] probes share it, so
/// validation, the thread clamp, spill routing and the budget-error
/// conversion exist once.
pub(crate) struct RunEnvelope<'c> {
    /// The caller's context with its worker count clamped to the host.
    pub(crate) ctx: Cow<'c, ExecContext>,
    /// Limits and cancellation, shared by every worker of the run.
    pub(crate) budget: BudgetState,
    /// Route the run through the out-of-core spill driver.
    pub(crate) spill: bool,
    /// The active approximate spec; never set together with `spill`.
    pub(crate) approx: Option<ApproxSpec>,
}

/// Open a run of `config` over `r × s`: reject zero threads and invalid
/// approximate specs, clamp the worker count, decide whether the resident
/// budget routes the run out of core (refusing approximate mode there),
/// apply the memory preflight, take the entry checkpoint and reset `ws`.
pub(crate) fn begin<'c>(
    r: &SetCollection,
    s: &SetCollection,
    config: &'c SsJoinConfig,
    ws: &mut JoinWorkspace,
) -> SsJoinResult<RunEnvelope<'c>> {
    let ctx = &config.exec;
    if ctx.threads == 0 {
        return Err(SsJoinError::Config("threads must be at least 1".into()));
    }
    if let Some(spec) = &ctx.approx {
        spec.validate()?;
    }
    let approx = ctx.active_approx();
    // Clamp the worker count to the host's parallelism: more workers than
    // cores only adds scheduling overhead, and benchmarks on small hosts
    // would otherwise report fictitious "8-thread" numbers.
    let effective = auto::effective_threads(ctx.threads);
    let ctx = if effective == ctx.threads {
        Cow::Borrowed(ctx)
    } else {
        Cow::Owned(ctx.clone().with_threads(effective))
    };
    let budget = BudgetState::new(&ctx.budget, ctx.cancel.as_ref());
    // Out-of-core decision: a resident-budget knob below the estimate routes
    // the run through the token-range spill driver instead of rejecting it.
    let spilling = ctx
        .budget
        .max_resident_bytes
        .is_some_and(|limit| estimate_memory_bytes(r, s) > limit);
    if approx.is_some() && spilling {
        return Err(SsJoinError::Config(
            "approximate mode cannot run out of core: raise max_resident_bytes or drop \
             the approximate spec"
                .into(),
        ));
    }
    // Memory preflight: refuse runs whose index + scratch estimate already
    // exceeds the cap, before allocating anything. A spilled run holds only
    // one partition resident at a time, so its preflight happens inside the
    // spill driver against the per-partition peak instead.
    if let Some(limit) = ctx.budget.max_memory_bytes {
        if !spilling && estimate_memory_bytes(r, s) > limit {
            budget.trip_memory();
        }
    }
    // Entry checkpoint: an already-passed deadline (e.g. `Duration::ZERO`)
    // or a pre-cancelled token aborts before any phase runs. Executors
    // re-check at their own phase boundaries and per probe group.
    let _ = budget.proceed();
    ws.begin_run();
    Ok(RunEnvelope {
        spill: spilling && budget.cause().is_none(),
        approx,
        budget,
        ctx,
    })
}

/// Close a run opened by [`begin`]: stamp the run-level counters
/// (`extra_bytes` counts structures held outside `ws`, such as a persistent
/// index), turn a tripped limit into [`SsJoinError::BudgetExceeded`] with
/// the partial statistics, and count the `(r, s)`-sorted output.
pub(crate) fn finish(
    run: RunEnvelope<'_>,
    mut stats: SsJoinStats,
    used: Algorithm,
    extra_bytes: u64,
    ws: &JoinWorkspace,
) -> SsJoinResult<(SsJoinStats, Algorithm)> {
    stats.budget_checks = run.budget.checks();
    stats.effective_threads = run.ctx.threads as u64;
    stats.workspace_reuses = ws.reuses();
    stats.bytes_reserved = ws.bytes_reserved() + extra_bytes;
    if let Some(which) = run.budget.cause() {
        return Err(SsJoinError::BudgetExceeded {
            which,
            partial_stats: Box::new(stats),
        });
    }
    // Executors emit in `(r, s)` order by construction — chunked workers
    // concatenate in ascending-rid chunk order, and the spill driver k-way
    // merges its sorted partition runs — so no global sort runs here.
    debug_assert!(
        ws.out
            .windows(2)
            .all(|w| (w[0].r, w[0].s) < (w[1].r, w[1].s)),
        "executor output must arrive (r, s)-sorted and duplicate-free"
    );
    stats.output_pairs = ws.out.len() as u64;
    Ok((stats, used))
}

/// Dispatch to the physical executor for `algorithm`, returning its stats
/// and the algorithm that actually ran. [`Algorithm::Auto`] is first
/// resolved to a [`PlanChoice`] whose knobs override the context, so every
/// configuration — forced or planned — reaches the executors through the
/// one `match` below. Shared by the resident path of [`ssjoin_into`] and
/// the per-partition joins of the out-of-core driver (`crate::spill`),
/// which is exactly the "partition-driver layer over unmodified executors"
/// seam: the driver calls this once per partition with sub-collections.
pub(crate) fn run_algorithm(
    algorithm: Algorithm,
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    ctx: &ExecContext,
    budget: &BudgetState,
    ws: &mut JoinWorkspace,
) -> (SsJoinStats, Algorithm) {
    auto::run_planned(
        algorithm,
        ctx,
        ws,
        |ws| auto::estimate_costs_into(r, s, pred, ws),
        |algorithm, ctx, ws| match algorithm {
            Algorithm::Basic => basic::run(r, s, pred, ctx, budget, ws),
            Algorithm::PrefixFiltered => prefix::run(r, s, pred, ctx, budget, ws),
            Algorithm::PositionalInline => positional::run(r, s, pred, ctx, budget, ws),
            // `run_planned` resolved Auto to a concrete executor.
            Algorithm::Inline | Algorithm::Auto => inline::run(r, s, pred, ctx, budget, ws),
        },
    )
}

/// Split `0..n` into at most `threads` contiguous chunks.
pub(crate) fn chunk_ranges(n: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    let threads = threads.max(1).min(n.max(1));
    let base = n / threads;
    let extra = n % threads;
    let mut out = Vec::with_capacity(threads);
    let mut start = 0;
    for i in 0..threads {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Run `work` over R-id chunks, possibly in parallel. Each invocation gets a
/// dedicated [`WorkerScratch`] whose `pairs` buffer it must append output
/// to; pairs land in `out` in chunk order (so a per-chunk sorted stream
/// concatenates into a globally `(r, s)`-sorted one), and counter-only stats
/// are merged. Phase timing is the caller's responsibility.
pub(crate) fn run_chunked<F>(
    n: usize,
    threads: usize,
    workers: &mut Vec<WorkerScratch>,
    out: &mut Vec<JoinPair>,
    work: F,
) -> SsJoinStats
where
    F: Fn(std::ops::Range<usize>, &mut WorkerScratch) -> SsJoinStats + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if workers.len() < threads {
        workers.resize_with(threads, WorkerScratch::default);
    }
    if threads <= 1 {
        // Sequential fast path: no spawn, no copy — the worker's pair buffer
        // and the output buffer swap roles so results land in `out` without
        // a memcpy (capacities stay pooled either way).
        let scratch = &mut workers[0];
        scratch.pairs.clear();
        std::mem::swap(out, &mut scratch.pairs);
        let stats = work(0..n, scratch);
        std::mem::swap(out, &mut scratch.pairs);
        return stats;
    }
    let ranges = chunk_ranges(n, threads);
    let used = ranges.len();
    std::thread::scope(|scope| {
        let work = &work;
        let mut handles = Vec::new();
        for (scratch, range) in workers[..used].iter_mut().zip(ranges) {
            handles.push(scope.spawn(move || {
                scratch.pairs.clear();
                scratch.stats = work(range, scratch);
            }));
        }
        for h in handles {
            // Library code never panics by contract; if a worker still
            // unwinds (e.g. through a caller-supplied predicate), re-raise
            // the panic on the coordinating thread instead of swallowing it
            // — dropping the chunk would silently truncate the result.
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    let mut stats = SsJoinStats::default();
    for scratch in workers[..used].iter() {
        out.extend_from_slice(&scratch.pairs);
        stats.merge(&scratch.stats);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{SsJoinInputBuilder, WeightScheme};
    use crate::order::ElementOrder;

    #[test]
    fn universe_mismatch_rejected() {
        let build = || {
            let mut b =
                SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
            let h = b.add_relation(vec![vec!["a".to_string()]]);
            b.build().unwrap().collection(h).clone()
        };
        let (c1, c2) = (build(), build());
        let err = ssjoin(
            &c1,
            &c2,
            &OverlapPredicate::absolute(1.0),
            &SsJoinConfig::default(),
        );
        assert!(matches!(err, Err(SsJoinError::UniverseMismatch)));
    }

    #[test]
    fn zero_threads_rejected() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = b.add_relation(vec![vec!["a".to_string()]]);
        let built = b.build().unwrap();
        let c = built.collection(h);
        let cfg = SsJoinConfig::new(Algorithm::Basic).with_exec(ExecContext::new().with_threads(0));
        let err = ssjoin(c, c, &OverlapPredicate::absolute(1.0), &cfg);
        assert!(matches!(err, Err(SsJoinError::Config(_))));
    }

    #[test]
    fn asymmetric_collections_join() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let r = b.add_relation(vec![
            vec!["x".to_string(), "y".to_string()],
            vec!["p".to_string()],
        ]);
        let s = b.add_relation(vec![vec![
            "y".to_string(),
            "x".to_string(),
            "z".to_string(),
        ]]);
        let built = b.build().unwrap();
        for alg in [
            Algorithm::Basic,
            Algorithm::PrefixFiltered,
            Algorithm::Inline,
            Algorithm::PositionalInline,
        ] {
            let out = ssjoin(
                built.collection(r),
                built.collection(s),
                &OverlapPredicate::absolute(2.0),
                &SsJoinConfig::new(alg),
            )
            .unwrap();
            let keys: Vec<(u32, u32)> = out.pairs.iter().map(|p| (p.r, p.s)).collect();
            assert_eq!(keys, vec![(0, 0)], "alg {alg:?}");
        }
    }

    #[test]
    fn chunk_ranges_cover_everything() {
        for n in [0usize, 1, 5, 16, 17] {
            for t in [1usize, 2, 3, 8] {
                let ranges = chunk_ranges(n, t);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, n, "n={n} t={t}");
                // Contiguous and ordered.
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    expect = r.end;
                }
            }
        }
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn run_chunked_merges() {
        for threads in [1usize, 4] {
            let mut workers = Vec::new();
            let mut pairs = Vec::new();
            let stats = run_chunked(10, threads, &mut workers, &mut pairs, |range, scratch| {
                scratch.pairs.extend(range.map(|i| JoinPair {
                    r: i as u32,
                    s: 0,
                    overlap: Weight::ONE,
                }));
                let mut st = SsJoinStats::default();
                st.join_tuples = 1;
                st
            });
            assert_eq!(pairs.len(), 10, "threads {threads}");
            // Chunk-order concatenation keeps rids ascending.
            assert!(pairs.windows(2).all(|w| w[0].r < w[1].r));
            assert_eq!(stats.join_tuples, threads as u64); // one per chunk
        }
    }
}
