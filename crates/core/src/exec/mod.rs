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
pub(crate) use workspace::{vec_bytes, CsrIndex, Pairs, WorkerScratch};

use crate::approx::ApproxSpec;
use crate::budget::{estimate_memory_bytes, ExecBudget};
use crate::error::{SsJoinError, SsJoinResult};
use crate::predicate::OverlapPredicate;
use crate::set::SetCollection;
use crate::stats::{Phase, SsJoinStats};
use crate::weight::Weight;

/// One result pair: group ids on each side plus their weighted overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JoinPair {
    /// Group id in the R collection.
    pub r: u32,
    /// Group id in the S collection.
    pub s: u32,
    /// The weighted overlap of the two groups.
    pub overlap: Weight,
}

/// One pair that passed a join's filter, with the similarity the filter
/// gave it ([`ssjoin_filtered`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MatchPair {
    /// Index into the R-side input.
    pub r: u32,
    /// Index into the S-side input.
    pub s: u32,
    /// The similarity as computed by the join's own similarity function.
    pub similarity: f64,
}

/// The filter [`ssjoin_filtered`] runs on each overlap-qualifying pair, in
/// the probe workers: the pair's similarity if it passes, `None` if not.
pub type PairFilter<'f> = dyn Fn(&JoinPair) -> Option<f64> + Sync + 'f;

/// The result of an SSJoin execution: [`JoinPair`]s from [`ssjoin`],
/// [`MatchPair`]s from [`ssjoin_filtered`].
#[derive(Debug, Clone)]
pub struct SsJoinOutput<P = JoinPair> {
    /// Qualifying pairs, sorted by `(r, s)`.
    pub pairs: Vec<P>,
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
    let stats = ssjoin_into(r, s, pred, config, None, Sink::Plain, &mut ws)?;
    Ok(SsJoinOutput {
        pairs: std::mem::take(&mut ws.out.plain),
        stats,
    })
}

/// [`ssjoin`] with the join's similarity filter run inside the executors,
/// as in the paper's Figure 2 plan: each probe worker calls `filter` on a
/// pair as soon as it passes the overlap predicate and keeps it, with the
/// similarity `filter` gave it, only if it passes. `stats.filter_calls`
/// counts the calls and `Phase::Filter` times them. On one collection under
/// a symmetric predicate `filter` sees each unordered pair once, as
/// `(i, j)` with `j < i`, a pass is kept in both orientations, and a
/// qualifying diagonal pair never reaches it and scores 1.0: the filter
/// must be symmetric, and a caller whose sets do not all score 1.0 against
/// themselves rescores the diagonal pairs.
///
/// `caps` (one value per set of R, then of S) cuts the prefix-filtered and
/// inline executors' prefixes to `min(Lemma-1 length, cap)`: the output then
/// holds every qualifying pair whose capped prefixes share an element, and
/// may hold more. Spilled and approximate runs ignore them. DESIGN §6
/// ("Pipelined verification", "Location prefix") has the details.
///
/// # Errors
/// As [`ssjoin`], plus [`SsJoinError::Config`] when a cap slice's length
/// differs from its side's set count.
pub fn ssjoin_filtered(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    config: &SsJoinConfig,
    caps: Option<(&[u32], &[u32])>,
    filter: &PairFilter<'_>,
) -> SsJoinResult<SsJoinOutput<MatchPair>> {
    if caps.is_some_and(|(r_caps, s_caps)| r_caps.len() != r.len() || s_caps.len() != s.len()) {
        let msg = "prefix caps must have one value per set of each side";
        return Err(SsJoinError::Config(msg.into()));
    }
    let mut ws = JoinWorkspace::new();
    let sink = Sink::Scored(filter, None);
    let stats = ssjoin_into(r, s, pred, config, caps, sink, &mut ws)?;
    Ok(SsJoinOutput {
        pairs: std::mem::take(&mut ws.out.scored),
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
    let stats = ssjoin_into(r, s, pred, config, None, Sink::Plain, ws)?;
    Ok(SsJoinRun {
        pairs: &ws.out.plain,
        stats,
    })
}

fn ssjoin_into(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    config: &SsJoinConfig,
    caps: Option<PrefixCaps<'_>>,
    sink: Sink<'_>,
    ws: &mut JoinWorkspace,
) -> SsJoinResult<SsJoinStats> {
    if r.universe_tag() != s.universe_tag() {
        return Err(SsJoinError::UniverseMismatch);
    }
    let run = begin(r, s, config, ws)?;
    let (algorithm, ctx) = (run.algorithm, run.ctx);
    let spilled = if run.spill {
        crate::spill::run(r, s, pred, algorithm, ctx, sink, ws)
    } else {
        None
    };
    let stats = match (spilled, run.approx) {
        (Some(stats), _) => stats,
        // Approximate candidate generation replaces the executor choice
        // wholesale — one deterministic pipeline regardless of the
        // configured algorithm, so output is identical across executors.
        (None, Some(spec)) => crate::approx::run(r, s, pred, ctx, &spec, sink, ws),
        // Resident path — also the fallback when the spill planner found
        // nothing to split (empty side, single-rank mass).
        (None, None) => run_algorithm(algorithm, r, s, pred, ctx, caps, sink, ws),
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
    // Resident executors emit `(r, s)`-sorted (`gather`); the spill driver
    // and an index probe's epoch tail sort once in place. One buffer is empty.
    debug_assert!(
        sorted(&ws.out.plain) && sorted(&ws.out.scored),
        "executor output must arrive (r, s)-sorted and duplicate-free"
    );
    stats.output_pairs = (ws.out.plain.len() + ws.out.scored.len()) as u64;
    stats
}

fn sorted<P: OutPair>(pairs: &[P]) -> bool {
    pairs.windows(2).all(|w| w[0].key() < w[1].key())
}

/// Dispatch to the physical executor for `algorithm`. Shared by the
/// resident path of [`ssjoin_into`] and the per-partition joins of the
/// out-of-core driver (`crate::spill`), which is exactly the
/// "partition-driver layer over unmodified executors" seam: the driver
/// calls this once per partition with sub-collections and no caps. The
/// basic executor has no prefix to cap.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_algorithm(
    algorithm: Algorithm,
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    ctx: &ExecContext,
    caps: Option<PrefixCaps<'_>>,
    sink: Sink<'_>,
    ws: &mut JoinWorkspace,
) -> SsJoinStats {
    match algorithm {
        Algorithm::Basic => basic::run(r, s, pred, ctx, sink, ws),
        inline => {
            let inline = inline == Algorithm::Inline;
            prefix::run_prefix_family(r, s, pred, ctx, caps, inline, sink, ws)
        }
    }
}

/// Where an executor's overlap-qualifying pairs go. [`Sink::emit`] is the
/// one point where every executor hands a pair on.
#[derive(Clone, Copy)]
pub(crate) enum Sink<'f> {
    /// Keep each pair with its overlap: [`ssjoin`], [`ssjoin_with`] and
    /// [`crate::CorpusIndex`] probes.
    Plain,
    /// Keep each pair the filter passes, with the similarity it gave
    /// ([`ssjoin_filtered`]). On a spilled partition (`crate::spill`) the
    /// ownership test first drops the pairs another partition owns, so the
    /// filter runs, is counted and is clocked once per owned pair.
    Scored(
        &'f PairFilter<'f>,
        Option<&'f (dyn Fn(u32, u32) -> bool + Sync)>,
    ),
}

impl Sink<'_> {
    /// Hand the pair `(r, s)` and its overlap on to the worker's buffer
    /// `out`, through the filter if there is one. Each filter call is
    /// counted and clocked in `stats`.
    #[inline]
    pub(crate) fn emit(
        self,
        r: u32,
        s: u32,
        overlap: Weight,
        out: &mut Pairs,
        stats: &mut SsJoinStats,
    ) {
        let pair = JoinPair { r, s, overlap };
        let Sink::Scored(filter, owns) = self else {
            return out.plain.push(pair);
        };
        if owns.is_some_and(|owns| !owns(r, s)) {
            return;
        }
        stats.filter_calls += 1;
        let start = std::time::Instant::now();
        let similarity = filter(&pair);
        stats.add_time(Phase::Filter, start.elapsed());
        if let Some(similarity) = similarity {
            out.scored.push(MatchPair { r, s, similarity });
        }
    }
}

/// An output pair of either kind, as the gather and the spill driver move
/// it.
pub(crate) trait OutPair: Copy + Default {
    /// `(r, s)`.
    fn key(&self) -> (u32, u32);
    /// The same pair under the ids `(r, s)`.
    fn with_key(self, r: u32, s: u32) -> Self;
}

macro_rules! out_pair {
    ($($pair:ty),+) => {$(
        impl OutPair for $pair {
            fn key(&self) -> (u32, u32) {
                (self.r, self.s)
            }
            fn with_key(self, r: u32, s: u32) -> Self {
                Self { r, s, ..self }
            }
        }
    )+};
}
out_pair!(JoinPair, MatchPair);

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

/// The buffers an executor's probe loop runs in, from its workspace: the
/// workers' scratch, the run's output and the half path's row offsets.
pub(crate) type Buffers<'a> = (
    &'a mut Vec<WorkerScratch>,
    &'a mut Pairs,
    &'a mut Vec<usize>,
);

/// Run an executor's probe loop `work` over R-id chunks, one contiguous
/// chunk per worker (possibly in parallel), each with its own
/// [`WorkerScratch`], and [`gather`] their pairs into `out` (the buffer
/// `sink` fills). Counters are merged; the loop is timed as the SSJoin phase
/// less the workers' mean filter time, which is the `Filter` phase. On a
/// symmetric self-join (`half`, from [`symmetric_self_join`]) `work` emits
/// only `s < r`, over [`chunk_range`]'s triangle split, and `diagonal`
/// decides each `(i, i)` (its overlap, if it qualifies).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_probes<F>(
    n: usize,
    threads: usize,
    half: bool,
    sink: Sink<'_>,
    diagonal: impl Fn(u32) -> Option<Weight>,
    (workers, out, starts): Buffers<'_>,
    work: F,
) -> SsJoinStats
where
    F: Fn(std::ops::Range<usize>, &mut WorkerScratch) -> SsJoinStats + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    if workers.len() < threads {
        workers.resize_with(threads, WorkerScratch::default);
    }
    let start = std::time::Instant::now();
    // One worker off the half path writes straight into `out`: the output
    // buffers and worker 0's swap roles around the run, so the pooled
    // capacities stay with `out`.
    let direct = threads == 1 && !half;
    if direct {
        std::mem::swap(out, &mut workers[0].out);
    }
    let mut stats = if threads == 1 {
        workers[0].out.clear();
        work(0..n, &mut workers[0])
    } else {
        std::thread::scope(|scope| {
            let work = &work;
            let mut handles = Vec::new();
            for (k, scratch) in workers[..threads].iter_mut().enumerate() {
                let range = chunk_range(n, threads, k, half);
                handles.push(scope.spawn(move || {
                    scratch.out.clear();
                    scratch.stats = work(range, scratch);
                }));
            }
            for h in handles {
                // Library code never panics by contract; if a worker still
                // unwinds (e.g. through a caller-supplied filter), re-raise
                // the panic on the coordinating thread instead of swallowing
                // it — dropping the chunk would silently truncate the result.
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        let mut stats = SsJoinStats::default();
        for scratch in &workers[..threads] {
            stats.merge(&scratch.stats);
        }
        stats
    };
    let used = &workers[..threads];
    match sink {
        _ if direct => std::mem::swap(out, &mut workers[0].out),
        Sink::Plain => {
            let diag = |r| diagonal(r).map(|overlap| JoinPair { r, s: r, overlap });
            gather(n, half, used, |w| &w.plain, diag, starts, &mut out.plain);
        }
        Sink::Scored(..) => {
            let diag = |r| {
                diagonal(r).map(|_| MatchPair {
                    r,
                    s: r,
                    similarity: 1.0,
                })
            };
            gather(n, half, used, |w| &w.scored, diag, starts, &mut out.scored);
        }
    }
    stats.close_probes(threads as u32, start.elapsed());
    stats
}

/// Gather the chunk outputs of `workers` (the buffer `pick` selects) into
/// `out`, in chunk order. On the `half` path (the `(r, s)`-sorted `s < r`
/// triangle of an `n`-set self-join) one counting pass sizes each row in
/// `row_starts` and one fill pass writes row `r`'s own pairs, its
/// `diagonal`, then the mirrors `(r, x)` later rows add: sorted, no sort.
fn gather<P: OutPair>(
    n: usize,
    half: bool,
    workers: &[WorkerScratch],
    pick: impl Fn(&Pairs) -> &Vec<P>,
    diagonal: impl Fn(u32) -> Option<P>,
    row_starts: &mut Vec<usize>,
    out: &mut Vec<P>,
) {
    out.clear();
    let chunks = || workers.iter().flat_map(|w| pick(&w.out));
    if !half {
        out.extend(chunks());
        return;
    }
    row_starts.clear();
    row_starts.resize(n + 1, 0);
    for p in chunks() {
        let (r, s) = p.key();
        row_starts[r as usize + 1] += 1;
        row_starts[s as usize + 1] += 1;
    }
    for rid in 0..n {
        row_starts[rid + 1] += usize::from(diagonal(rid as u32).is_some());
    }
    for i in 1..=n {
        row_starts[i] += row_starts[i - 1];
    }
    out.resize(row_starts[n], P::default());
    // `row_starts[r]` now serves as row r's fill cursor.
    let mut place = |p: P| {
        let cur = &mut row_starts[p.key().0 as usize];
        out[*cur] = p;
        *cur += 1;
    };
    let mut pairs = chunks().peekable();
    for rid in 0..n as u32 {
        while let Some(&p) = pairs.next_if(|p| p.key().0 == rid) {
            place(p);
            place(p.with_key(p.key().1, rid));
        }
        if let Some(d) = diagonal(rid) {
            place(d);
        }
    }
}

/// True when `r ⋈ s` is a self-join (one collection passed as both sides)
/// under a symmetric predicate: then pair `(i, j)` qualifies exactly when
/// `(j, i)` does, with the same overlap, so the executors find each
/// unordered pair once (probe `rid` walks only ids `< rid`), decide
/// `(rid, rid)` from its set's total, and mirror.
pub(crate) fn symmetric_self_join(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
) -> bool {
    std::ptr::eq(r, s) && pred.is_symmetric()
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
            let (mut workers, mut out) = (Vec::new(), Pairs::default());
            let no_diagonal = |_| None;
            run_probes(
                c.len(),
                threads,
                false,
                Sink::Plain,
                no_diagonal,
                (&mut workers, &mut out, &mut Vec::new()),
                |_, _| SsJoinStats::default(),
            );
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
        let capped = |r_caps: &[u32], s_caps: &[u32]| {
            let by_overlap = |p: &JoinPair| Some(p.overlap.to_f64());
            ssjoin_filtered(c, c, &pred, &cfg, Some((r_caps, s_caps)), &by_overlap)
        };
        let err = capped(&full[1..], &full);
        assert!(matches!(err, Err(SsJoinError::Config(_))));
        let keys = |pairs: &[MatchPair]| pairs.iter().map(|p| (p.r, p.s)).collect::<Vec<_>>();
        let plain = ssjoin(c, c, &pred, &cfg).unwrap().pairs;
        let plain_keys: Vec<(u32, u32)> = plain.iter().map(|p| (p.r, p.s)).collect();
        let all = capped(&full, &full).unwrap().pairs;
        assert_eq!(keys(&all), plain_keys);
        // The filter scores each pair by its overlap: 1.0 here, as the half
        // path scores the diagonal.
        assert!(all
            .iter()
            .zip(&plain)
            .all(|(a, b)| a.similarity == b.overlap.to_f64()));
        let mut none = full.clone();
        none[0] = 0;
        let pairs = capped(&none, &none).unwrap().pairs;
        assert!(pairs.iter().all(|p| p.r != 0 && p.s != 0));
        assert_eq!(pairs.len(), plain.len() - 2 * 4 + 1);
    }

    #[test]
    fn filtered_join_keeps_what_the_filter_passes() {
        // 30 sets over 4 tokens: every executor, the half path (one
        // collection) and the full one (an equal copy), at 1 and 3 workers.
        // The filter keeps pairs whose ids sum to an even number, scored by
        // that sum: the output is the plain join's pairs it passes, and the
        // filter ran once per unordered off-diagonal pair on the half path,
        // once per pair otherwise.
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let groups: Vec<Vec<String>> = (0..30)
            .map(|i| vec![format!("t{}", i % 4), format!("u{}", i % 3)])
            .collect();
        let (h1, h2) = (b.add_relation(groups.clone()), b.add_relation(groups));
        let built = b.build().unwrap();
        let (c, copy) = (built.collection(h1), built.collection(h2));
        let pred = OverlapPredicate::two_sided(0.5);
        let filter = |p: &JoinPair| {
            (p.r + p.s)
                .is_multiple_of(2)
                .then_some(f64::from(p.r + p.s))
        };
        for s in [c, copy] {
            let plain = ssjoin(c, s, &pred, &SsJoinConfig::default()).unwrap().pairs;
            let half = std::ptr::eq(c, s);
            let (diagonal, off): (Vec<JoinPair>, _) = plain.iter().partition(|p| p.r == p.s);
            let want: Vec<MatchPair> = plain
                .iter()
                .filter_map(|p| {
                    let similarity = match (half, p.r == p.s) {
                        (true, true) => 1.0,
                        _ => filter(p)?,
                    };
                    Some(MatchPair {
                        r: p.r,
                        s: p.s,
                        similarity,
                    })
                })
                .collect();
            let calls = if half { off.len() / 2 } else { plain.len() };
            assert!(!diagonal.is_empty() && want.len() < plain.len());
            for alg in [
                Algorithm::Basic,
                Algorithm::PrefixFiltered,
                Algorithm::Inline,
            ] {
                for threads in [1, 3] {
                    let exec = ExecContext::new().with_threads(threads);
                    let cfg = SsJoinConfig::new(alg).with_exec(exec);
                    let out = ssjoin_filtered(c, s, &pred, &cfg, None, &filter).unwrap();
                    let at = format!("half {half} {alg:?} {threads}t");
                    assert_eq!(out.pairs, want, "{at}");
                    assert_eq!(out.stats.filter_calls, calls as u64, "{at}");
                    assert_eq!(out.stats.output_pairs, want.len() as u64, "{at}");
                }
            }
        }
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
    fn gather_scatters_the_triangle_sorted() {
        let mk = |r: u32, s: u32| JoinPair {
            r,
            s,
            overlap: Weight::from_f64(f64::from(r * 10 + s)),
        };
        // Lower triangle (s < r) of a 4-set self-join over two chunks, set
        // 2 matching nothing and having no diagonal.
        let mut workers = vec![WorkerScratch::default(), WorkerScratch::default()];
        workers[0].out.plain.extend([mk(1, 0)]);
        workers[1].out.plain.extend([mk(3, 0), mk(3, 1)]);
        let diagonal = |rid: u32| (rid != 2).then(|| mk(rid, rid));
        let (mut starts, mut out) = (Vec::new(), Vec::new());
        gather(
            4,
            true,
            &workers,
            |w| &w.plain,
            diagonal,
            &mut starts,
            &mut out,
        );
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
        // Off the half path the chunks concatenate in order.
        gather(
            4,
            false,
            &workers,
            |w| &w.plain,
            diagonal,
            &mut starts,
            &mut out,
        );
        assert_eq!(out, vec![mk(1, 0), mk(3, 0), mk(3, 1)]);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn run_probes_merges() {
        for threads in [1usize, 4] {
            let (mut workers, mut out) = (Vec::new(), Pairs::default());
            let no_diagonal = |_| None;
            let stats = run_probes(
                10,
                threads,
                false,
                Sink::Plain,
                no_diagonal,
                (&mut workers, &mut out, &mut Vec::new()),
                |range, scratch| {
                    scratch.out.plain.extend(range.map(|i| JoinPair {
                        r: i as u32,
                        s: 0,
                        overlap: Weight::ONE,
                    }));
                    let mut st = SsJoinStats::default();
                    st.join_tuples = 1;
                    st.add_time(Phase::Filter, std::time::Duration::from_millis(4));
                    st
                },
            );
            assert_eq!(out.plain.len(), 10, "threads {threads}");
            // Chunk-order concatenation keeps rids ascending.
            assert!(out.plain.windows(2).all(|w| w[0].r < w[1].r));
            assert_eq!(stats.join_tuples, threads as u64); // one per chunk
                                                           // The filter clock is each worker's mean share.
            let each = std::time::Duration::from_millis(4);
            assert_eq!(stats.time(Phase::Filter), each);
        }
    }
}
