//! Physical SSJoin executors.
//!
//! All executors share the contract: given two [`SetCollection`]s built by
//! one [`crate::SsJoinInputBuilder`] and an [`OverlapPredicate`], return
//! every pair of group ids whose overlap satisfies the predicate, plus the
//! overlap itself (so downstream similarity-function filters can reuse it).
//! Output pairs are sorted by `(r, s)` — executors are interchangeable and
//! the test suite diffs them pairwise.

mod basic;
mod inline;
mod prefix;
mod prune;
mod workspace;

pub use workspace::JoinWorkspace;

pub(crate) use prefix::{prefix_lengths_into, probe_prefix_family, PrefixCaps, Side};
pub(crate) use prune::{bounds_into, Prune, SetBound};
pub(crate) use workspace::{vec_bytes, CsrIndex, MirrorScratch, WorkerScratch};

use crate::approx::ApproxSpec;
use crate::budget::{estimate_memory_bytes, ExecBudget};
use crate::error::{SsJoinError, SsJoinResult};
use crate::predicate::OverlapPredicate;
use crate::set::SetCollection;
use crate::stats::SsJoinStats;
use crate::weight::Weight;

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
    /// verification merges the carried sets directly. The default: a cost
    /// model choosing among the three picked it at every measured threshold
    /// (DESIGN §12).
    #[default]
    Inline,
}

/// Execution context shared by every physical executor: thread count, the
/// candidate filter, the resident-memory budget and approximate mode. It
/// is the one place an execution value is set: [`SsJoinConfig`] pairs it
/// with the algorithm choice, and the packaged joins, index builds and index
/// probes take it whole.
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
    /// The resident-memory budget. Unlimited by default; a
    /// `max_resident_bytes` below the run's estimate routes it out of core,
    /// with the same output.
    pub budget: ExecBudget,
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

    /// Set the resident-memory budget.
    pub fn with_budget(mut self, budget: ExecBudget) -> Self {
        self.budget = budget;
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

    /// Reject zero threads and an invalid approximate spec.
    pub(crate) fn validate(&self) -> SsJoinResult<()> {
        if self.threads == 0 {
            return Err(SsJoinError::Config("threads must be at least 1".into()));
        }
        self.approx.as_ref().map_or(Ok(()), ApproxSpec::validate)
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
    /// Threads, filter, resident budget, approximate mode.
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
/// A run either returns every qualifying pair or a typed input error
/// ([`SsJoinError::UniverseMismatch`], [`SsJoinError::Config`]); it never
/// returns a truncated result.
pub fn ssjoin(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    config: &SsJoinConfig,
) -> SsJoinResult<SsJoinOutput> {
    let mut ws = JoinWorkspace::new();
    let stats = ssjoin_into(r, s, pred, config, None, &mut ws)?;
    Ok(SsJoinOutput {
        pairs: std::mem::take(&mut ws.out),
        stats,
    })
}

/// [`ssjoin`] with each side's prefixes capped: the prefix-filtered and
/// inline executors keep `min(Lemma-1 length, cap)` elements of R's set `i`
/// (cap `r_caps[i]`) and of S's set `j` (cap `s_caps[j]`). An empty Lemma-1
/// prefix stays empty, and on `R ⋈ R` a set whose R prefix is not empty
/// still has its diagonal pair decided from its total.
///
/// The contract is weaker than [`ssjoin`]'s: the output holds every
/// overlap-qualifying pair `(i, j)` whose capped prefixes, R's set `i`'s
/// and S's set `j`'s, share an element, and may hold more. When `r` and
/// `s` are one collection under a symmetric predicate, each unordered pair
/// is found once, from the later set's R prefix and the earlier set's S
/// prefix, and kept in both orientations. The caller promises that every
/// pair it needs meets that test: for instance, that no qualifying partner
/// can lose all of a capped prefix (the edit join's location-based caps,
/// DESIGN §6). With caps no shorter than the sets this is [`ssjoin`]. A
/// run routed out of core by the resident budget, or through approximate
/// mode, ignores the caps and keeps [`ssjoin`]'s contract.
///
/// # Errors
/// As [`ssjoin`], plus [`SsJoinError::Config`] when a cap slice's length
/// differs from its side's set count.
pub fn ssjoin_capped(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    config: &SsJoinConfig,
    r_caps: &[u32],
    s_caps: &[u32],
) -> SsJoinResult<SsJoinOutput> {
    if r_caps.len() != r.len() || s_caps.len() != s.len() {
        return Err(SsJoinError::Config(format!(
            "prefix caps must have one value per set: {} and {} caps for {} and {} sets",
            r_caps.len(),
            s_caps.len(),
            r.len(),
            s.len()
        )));
    }
    let mut ws = JoinWorkspace::new();
    let caps = PrefixCaps {
        r: r_caps,
        s: s_caps,
    };
    let stats = ssjoin_into(r, s, pred, config, Some(caps), &mut ws)?;
    Ok(SsJoinOutput {
        pairs: std::mem::take(&mut ws.out),
        stats,
    })
}

/// Execute the SSJoin operator into a caller-owned [`JoinWorkspace`].
///
/// Identical semantics to [`ssjoin`] — same output, same stats — but every
/// transient buffer (inverted indexes, prefix tables, stamp arrays,
/// candidate and output buffers) comes from the workspace's pools. After the
/// workspace has warmed on a first run of comparable scale, subsequent
/// sequential runs perform zero heap allocations on the hot path.
pub fn ssjoin_with<'w>(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    config: &SsJoinConfig,
    ws: &'w mut JoinWorkspace,
) -> SsJoinResult<SsJoinRun<'w>> {
    let stats = ssjoin_into(r, s, pred, config, None, ws)?;
    Ok(SsJoinRun {
        pairs: &ws.out,
        stats,
    })
}

fn ssjoin_into(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    config: &SsJoinConfig,
    caps: Option<PrefixCaps<'_>>,
    ws: &mut JoinWorkspace,
) -> SsJoinResult<SsJoinStats> {
    if r.universe_tag() != s.universe_tag() {
        return Err(SsJoinError::UniverseMismatch);
    }
    let run = begin(r, s, config, ws)?;
    let (algorithm, ctx) = (run.algorithm, run.ctx);
    let spilled = if run.spill {
        crate::spill::run(r, s, pred, algorithm, ctx, ws)
    } else {
        None
    };
    let stats = match (spilled, run.approx) {
        (Some(stats), _) => stats,
        // Approximate candidate generation replaces the executor choice
        // wholesale — one deterministic pipeline regardless of the
        // configured algorithm, so output is identical across executors.
        (None, Some(spec)) => crate::approx::run(r, s, pred, ctx, &spec, ws),
        // Resident path — also the fallback when the spill planner found
        // nothing to split (empty side, single-rank mass).
        (None, None) => run_algorithm(algorithm, r, s, pred, ctx, caps, ws),
    };
    Ok(finish(run, stats, 0, ws))
}

/// One run's envelope, opened by [`begin`] and closed by [`finish`]: the
/// algorithm, the context the executors see, and the route the run takes.
/// One-shot joins and [`crate::CorpusIndex`] probes share it, so validation
/// and spill routing exist once.
pub(crate) struct RunEnvelope<'c> {
    /// The configured algorithm.
    pub(crate) algorithm: Algorithm,
    /// The caller's context, worker count included.
    pub(crate) ctx: &'c ExecContext,
    /// Route the run through the out-of-core spill driver.
    pub(crate) spill: bool,
    /// The active approximate spec; never set together with `spill`.
    pub(crate) approx: Option<ApproxSpec>,
}

/// Open a run of `config` over `r × s`: reject zero threads and invalid
/// approximate specs, decide whether the resident budget routes the run out
/// of core (refusing approximate mode there), and reset `ws`.
pub(crate) fn begin<'c>(
    r: &SetCollection,
    s: &SetCollection,
    config: &'c SsJoinConfig,
    ws: &mut JoinWorkspace,
) -> SsJoinResult<RunEnvelope<'c>> {
    let ctx = &config.exec;
    ctx.validate()?;
    let approx = ctx.active_approx();
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
    ws.begin_run();
    Ok(RunEnvelope {
        algorithm: config.algorithm,
        spill: spilling,
        approx,
        ctx,
    })
}

/// Close a run opened by [`begin`]: stamp the run-level counters
/// (`extra_bytes` counts structures held outside `ws`, such as a persistent
/// index) and count the `(r, s)`-sorted output.
pub(crate) fn finish(
    run: RunEnvelope<'_>,
    mut stats: SsJoinStats,
    extra_bytes: u64,
    ws: &JoinWorkspace,
) -> SsJoinStats {
    stats.effective_threads = run.ctx.threads as u64;
    stats.workspace_reuses = ws.reuses();
    stats.bytes_reserved = ws.bytes_reserved() + extra_bytes;
    // Resident executors emit in `(r, s)` order by construction — chunked
    // workers concatenate in ascending-rid chunk order — and the spill
    // driver and an index probe's epoch tail sort their output once in
    // place, so no sort runs here.
    debug_assert!(
        ws.out
            .windows(2)
            .all(|w| (w[0].r, w[0].s) < (w[1].r, w[1].s)),
        "executor output must arrive (r, s)-sorted and duplicate-free"
    );
    stats.output_pairs = ws.out.len() as u64;
    stats
}

/// Dispatch to the physical executor for `algorithm`. Shared by the
/// resident path of [`ssjoin_into`] and the per-partition joins of the
/// out-of-core driver (`crate::spill`), which is exactly the
/// "partition-driver layer over unmodified executors" seam: the driver
/// calls this once per partition with sub-collections and no caps. The
/// basic executor has no prefix to cap.
pub(crate) fn run_algorithm(
    algorithm: Algorithm,
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    ctx: &ExecContext,
    caps: Option<PrefixCaps<'_>>,
    ws: &mut JoinWorkspace,
) -> SsJoinStats {
    match algorithm {
        Algorithm::Basic => basic::run(r, s, pred, ctx, ws),
        Algorithm::PrefixFiltered => prefix::run(r, s, pred, ctx, caps, ws),
        Algorithm::Inline => inline::run(r, s, pred, ctx, caps, ws),
    }
}

/// Chunk `k` of `parts` contiguous chunks of `0..n`. An equal split gives
/// each chunk `n / parts` ids. A `triangle` split is for the lower-triangle
/// probes of a symmetric self-join, where probe `rid` walks only ids up to
/// `rid` and so costs about `rid`: the cumulative cost grows as `x²`, so
/// equal shares cut at `n·√(k / parts)` — wide chunks first, narrow last.
pub(crate) fn chunk_range(
    n: usize,
    parts: usize,
    k: usize,
    triangle: bool,
) -> std::ops::Range<usize> {
    let cut = |k: usize| {
        if k >= parts {
            n
        } else if triangle {
            ((n as f64) * (k as f64 / parts as f64).sqrt()) as usize
        } else {
            n * k / parts
        }
    };
    cut(k)..cut(k + 1)
}

/// Run `work` over R-id chunks, possibly in parallel: one contiguous chunk
/// per worker, [`chunk_range`]'s equal split or, with `triangle`, its
/// lower-triangle split. Each invocation gets a dedicated [`WorkerScratch`]
/// whose `pairs` buffer it must append output to; pairs land in `out` in
/// chunk order (so a per-chunk sorted stream concatenates into a globally
/// `(r, s)`-sorted one), and counter-only stats are merged. Phase timing is
/// the caller's responsibility.
pub(crate) fn run_chunked<F>(
    n: usize,
    threads: usize,
    triangle: bool,
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
    std::thread::scope(|scope| {
        let work = &work;
        let mut handles = Vec::new();
        for (k, scratch) in workers[..threads].iter_mut().enumerate() {
            let range = chunk_range(n, threads, k, triangle);
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
    for scratch in workers[..threads].iter() {
        out.extend_from_slice(&scratch.pairs);
        stats.merge(&scratch.stats);
    }
    stats
}

/// Run an executor's probe loop, taking the half path on a symmetric
/// self-join (`half`, from [`symmetric_self_join`]): `work` then emits only
/// the lower triangle `s ≤ r` into the workspace's pooled `half` buffer,
/// over [`chunk_range`]'s triangle split, and [`mirror_half`] expands it
/// into the full output in `out`. Otherwise `work` runs straight into
/// `out`.
pub(crate) fn run_probes<F>(
    n: usize,
    threads: usize,
    half: bool,
    workers: &mut Vec<WorkerScratch>,
    mirror: &mut MirrorScratch,
    out: &mut Vec<JoinPair>,
    work: F,
) -> SsJoinStats
where
    F: Fn(std::ops::Range<usize>, &mut WorkerScratch) -> SsJoinStats + Sync,
{
    if !half {
        return run_chunked(n, threads, false, workers, out, work);
    }
    mirror.half.clear();
    let stats = run_chunked(n, threads, true, workers, &mut mirror.half, work);
    mirror_half(n, &mirror.half, &mut mirror.row_starts, out);
    stats
}

/// True when `r ⋈ s` is a self-join (one collection passed as both sides)
/// under a symmetric predicate: then pair `(i, j)` qualifies exactly when
/// `(j, i)` does, with the same overlap, so the executors find each
/// unordered pair once (probe `rid` walks only ids `< rid` and decides
/// `(rid, rid)` from its set's total) and mirror.
pub(crate) fn symmetric_self_join(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
) -> bool {
    std::ptr::eq(r, s) && pred.is_symmetric()
}

/// Expand the `(r, s)`-sorted lower triangle `half` (every qualifying pair
/// with `s ≤ r`) of an `n`-set symmetric self-join into the full
/// `(r, s)`-sorted output in `out`: each off-diagonal pair `(i, j)` also
/// yields `(j, i)`. One counting pass sizes every output row in
/// `row_starts`, one scatter pass fills them. Row `r` receives its own half
/// row (`s ≤ r`, ascending) before any mirrored pair `(r, x)`, `x > r`,
/// because those come from later half rows, in ascending `x` — so the
/// scatter needs no sort.
pub(crate) fn mirror_half(
    n: usize,
    half: &[JoinPair],
    row_starts: &mut Vec<usize>,
    out: &mut Vec<JoinPair>,
) {
    row_starts.clear();
    row_starts.resize(n + 1, 0);
    for p in half {
        row_starts[p.r as usize + 1] += 1;
        if p.s != p.r {
            row_starts[p.s as usize + 1] += 1;
        }
    }
    for i in 1..=n {
        row_starts[i] += row_starts[i - 1];
    }
    out.clear();
    out.resize(
        row_starts[n],
        JoinPair {
            r: 0,
            s: 0,
            overlap: Weight::ZERO,
        },
    );
    // `row_starts[r]` now serves as row r's fill cursor.
    for &p in half {
        let cur = &mut row_starts[p.r as usize];
        out[*cur] = p;
        *cur += 1;
        if p.s != p.r {
            let cur = &mut row_starts[p.s as usize];
            out[*cur] = JoinPair {
                r: p.s,
                s: p.r,
                overlap: p.overlap,
            };
            *cur += 1;
        }
    }
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
    fn requested_threads_run_unclamped() {
        // An explicit worker count runs that many workers whatever the
        // host's parallelism: the run reports it, capped only by the group
        // count (one worker per group at most).
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = b.add_relation((0..40).map(|i| vec![format!("t{}", i % 7)]).collect());
        let built = b.build().unwrap();
        let c = built.collection(h);
        let pred = OverlapPredicate::absolute(1.0);
        for threads in [1usize, 3, 8, 64] {
            let cfg = SsJoinConfig::new(Algorithm::Inline)
                .with_exec(ExecContext::new().with_threads(threads));
            let out = ssjoin(c, c, &pred, &cfg).unwrap();
            assert_eq!(out.stats.effective_threads, threads as u64);
            let mut workers = Vec::new();
            let mut pairs = Vec::new();
            run_chunked(c.len(), threads, false, &mut workers, &mut pairs, |_, _| {
                SsJoinStats::default()
            });
            assert_eq!(workers.len(), threads.min(c.len()), "threads {threads}");
        }
    }

    #[test]
    fn threshold_past_the_weight_range_matches_nothing() {
        // 1e14 exceeds the fixed-point range; the requirement saturates, so
        // every executor, with and without the bitmap filter, and the
        // approximate path return no pairs instead of panicking.
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = b.add_relation((0..30).map(|i| vec![format!("t{}", i % 4)]).collect());
        let built = b.build().unwrap();
        let c = built.collection(h);
        let pred = OverlapPredicate::absolute(1e14);
        for alg in [
            Algorithm::Basic,
            Algorithm::PrefixFiltered,
            Algorithm::Inline,
        ] {
            for filter in [false, true] {
                let exec = ExecContext::new().with_bitmap_filter(filter);
                let out = ssjoin(c, c, &pred, &SsJoinConfig::new(alg).with_exec(exec)).unwrap();
                assert!(out.pairs.is_empty(), "alg {alg:?} filter {filter}");
            }
        }
        let approx = SsJoinConfig::default().with_exec(ExecContext::new().with_approximate(0.9));
        assert!(ssjoin(c, c, &pred, &approx).unwrap().pairs.is_empty());
    }

    #[test]
    fn capped_join_checks_its_caps() {
        // One cap per set on each side, or a typed error; caps as long as
        // the sets give `ssjoin`'s output, and a zero cap drops the set.
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = b.add_relation((0..12).map(|i| vec![format!("t{}", i % 3)]).collect());
        let built = b.build().unwrap();
        let c = built.collection(h);
        let (pred, cfg) = (OverlapPredicate::absolute(1.0), SsJoinConfig::default());
        let full = vec![1; c.len()];
        let err = ssjoin_capped(c, c, &pred, &cfg, &full[1..], &full);
        assert!(matches!(err, Err(SsJoinError::Config(_))));
        let plain = ssjoin(c, c, &pred, &cfg).unwrap().pairs;
        assert_eq!(
            ssjoin_capped(c, c, &pred, &cfg, &full, &full)
                .unwrap()
                .pairs,
            plain
        );
        let mut none = full.clone();
        none[0] = 0;
        let pairs = ssjoin_capped(c, c, &pred, &cfg, &none, &none)
            .unwrap()
            .pairs;
        assert!(pairs.iter().all(|p| p.r != 0 && p.s != 0));
        assert_eq!(pairs.len(), plain.len() - 2 * 4 + 1);
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
        for n in [0usize, 1, 5, 16, 17, 1000] {
            for t in [1usize, 2, 3, 8] {
                for triangle in [false, true] {
                    // Contiguous, ordered, and covering 0..n.
                    let mut expect = 0;
                    for k in 0..t {
                        let r = chunk_range(n, t, k, triangle);
                        assert_eq!(r.start, expect, "n={n} t={t} triangle={triangle}");
                        assert!(r.start <= r.end);
                        expect = r.end;
                    }
                    assert_eq!(expect, n, "n={n} t={t} triangle={triangle}");
                }
            }
        }
        // The triangle split balances `Σ rid` over its chunks: wide first.
        let n = 1000usize;
        let cost = |r: std::ops::Range<usize>| r.map(|i| i as u64 + 1).sum::<u64>();
        let costs: Vec<u64> = (0..4).map(|k| cost(chunk_range(n, 4, k, true))).collect();
        let total = cost(0..n);
        assert!(
            costs.iter().all(|&c| c.abs_diff(total / 4) < total / 100),
            "{costs:?}"
        );
        assert!(chunk_range(n, 4, 0, true).len() > chunk_range(n, 4, 3, true).len());
    }

    #[test]
    fn mirror_half_expands_the_triangle_sorted() {
        let mk = |r: u32, s: u32| JoinPair {
            r,
            s,
            overlap: Weight::from_f64(f64::from(r * 10 + s)),
        };
        // Lower triangle (s ≤ r) of a 4-set self-join, set 2 matching nothing.
        let half = [mk(0, 0), mk(1, 0), mk(1, 1), mk(3, 0), mk(3, 1), mk(3, 3)];
        let mut starts = Vec::new();
        let mut out = Vec::new();
        mirror_half(4, &half, &mut starts, &mut out);
        let keys: Vec<(u32, u32)> = out.iter().map(|p| (p.r, p.s)).collect();
        assert_eq!(
            keys,
            vec![
                (0, 0),
                (0, 1),
                (0, 3),
                (1, 0),
                (1, 1),
                (1, 3),
                (3, 0),
                (3, 1),
                (3, 3)
            ]
        );
        // A mirrored pair carries its original's overlap.
        assert_eq!(out[2].overlap, mk(3, 0).overlap);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn run_chunked_merges() {
        for threads in [1usize, 4] {
            let mut workers = Vec::new();
            let mut pairs = Vec::new();
            let stats = run_chunked(
                10,
                threads,
                false,
                &mut workers,
                &mut pairs,
                |range, scratch| {
                    scratch.pairs.extend(range.map(|i| JoinPair {
                        r: i as u32,
                        s: 0,
                        overlap: Weight::ONE,
                    }));
                    let mut st = SsJoinStats::default();
                    st.join_tuples = 1;
                    st
                },
            );
            assert_eq!(pairs.len(), 10, "threads {threads}");
            // Chunk-order concatenation keeps rids ascending.
            assert!(pairs.windows(2).all(|w| w[0].r < w[1].r));
            assert_eq!(stats.join_tuples, threads as u64); // one per chunk
        }
    }
}
