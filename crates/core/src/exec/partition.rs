//! Token-sharded parallel executor for the inline algorithm, which
//! [`super::inline`] runs whenever `threads > 1`.
//!
//! The chunked parallel strategy ([`super::run_chunked`]) the other
//! executors use splits the R collection into contiguous group-id chunks.
//! Under Zipfian element frequencies that is a poor unit of work: a chunk
//! holding groups whose prefixes contain frequent tokens scans posting
//! lists orders of magnitude longer than its neighbours, and one worker
//! serializes the join.
//!
//! This executor shards the *candidate space* by prefix token instead. Both
//! sides get a prefix inverted index (built in parallel from per-worker
//! partial indexes; see [`super::workspace::build_csr_parallel`]); the
//! candidate pairs generated at rank `t` are exactly
//! `r_postings(t) × s_postings(t)`, so the planned cost of a rank is that
//! product and shards are contiguous rank ranges packed to near-equal cost.
//! A rank too heavy for one shard is split further by sub-slicing its R
//! posting list, so even a single stop-word token spreads across workers.
//! Shards are executed by scoped workers; a worker that drains its own
//! shards steals untaken ones (claimed via atomic compare-and-swap), and
//! steal events are counted.
//!
//! A candidate pair sharing several prefix tokens would be produced once per
//! shared rank, possibly by different workers; it is emitted only at its
//! *smallest* shared prefix rank (a merge scan of the two prefixes — the
//! same `O(prefix)` work the stamp array does for the group-at-a-time
//! executors). This makes shard outputs disjoint; each worker sorts each
//! shard's pairs locally and the workspace k-way merges the per-shard runs,
//! which reconstructs the unique `(r, s)`-sorted interleaving — bit-for-bit
//! the sequential inline executor's output, with no global sort.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use super::prefix::{prefix_lengths_into, Side};
use super::workspace::{build_csr_parallel, CsrIndex, JoinWorkspace, WorkerScratch};
use super::{ExecContext, JoinPair};
use crate::budget::BudgetState;
use crate::kernel::verify_overlap;
use crate::predicate::OverlapPredicate;
use crate::set::SetCollection;
use crate::stats::{timed_phase, Phase, SsJoinStats};

/// Shards planned per worker thread: more shards mean finer stealing
/// granularity at the price of more per-shard bookkeeping.
const SHARDS_PER_THREAD: usize = 8;

/// One unit of parallel work: a contiguous range of element ranks, plus an
/// optional sub-range of the R posting list when a single heavy rank was
/// split into several shards.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    ranks: std::ops::Range<usize>,
    /// `Some((lo, hi))` restricts processing to `r_postings(rank)[lo..hi]`;
    /// only set for single-rank shards produced by splitting.
    r_slice: Option<(usize, usize)>,
    /// Planned cost in posting-product units.
    cost: u64,
}

/// Pack ranks into at most `threads · per_thread` shards of near-equal
/// planned cost, splitting individual ranks whose posting product exceeds
/// twice the target. Writes the plan into the reusable `shards` buffer and
/// returns `(cost_total, cost_max)`.
fn plan_shards_into(
    r_index: &CsrIndex,
    s_index: &CsrIndex,
    universe: usize,
    threads: usize,
    per_thread: usize,
    shards: &mut Vec<Shard>,
) -> (u64, u64) {
    shards.clear();
    let rank_cost = |t: usize| -> u64 {
        let rp = r_index.postings(t as u32).len() as u64;
        let sp = s_index.postings(t as u32).len() as u64;
        rp * sp
    };
    let total: u64 = (0..universe).map(rank_cost).sum();
    let target_shards = (threads * per_thread.max(1)).max(1) as u64;
    let target = (total / target_shards).max(1);

    let mut cost_max = 0u64;
    let mut push = |shard: Shard| {
        cost_max = cost_max.max(shard.cost);
        shards.push(shard);
    };

    let mut start = 0usize;
    let mut acc = 0u64;
    for t in 0..universe {
        let c = rank_cost(t);
        if c >= 2 * target {
            // Close the open shard, then split this heavy rank by R posting
            // sub-ranges.
            if t > start {
                push(Shard {
                    ranks: start..t,
                    r_slice: None,
                    cost: acc,
                });
            }
            let r_len = r_index.postings(t as u32).len();
            let s_len = s_index.postings(t as u32).len().max(1) as u64;
            let pieces = (c / target).clamp(1, r_len.max(1) as u64) as usize;
            let base = r_len / pieces;
            let extra = r_len % pieces;
            let mut lo = 0usize;
            for p in 0..pieces {
                let len = base + usize::from(p < extra);
                push(Shard {
                    ranks: t..t + 1,
                    r_slice: Some((lo, lo + len)),
                    cost: len as u64 * s_len,
                });
                lo += len;
            }
            start = t + 1;
            acc = 0;
            continue;
        }
        acc += c;
        if acc >= target {
            push(Shard {
                ranks: start..t + 1,
                r_slice: None,
                cost: acc,
            });
            start = t + 1;
            acc = 0;
        }
    }
    if start < universe {
        push(Shard {
            ranks: start..universe,
            r_slice: None,
            cost: acc,
        });
    }
    (total, cost_max)
}

/// First rank shared by two rank-ascending slices. The caller guarantees at
/// least one shared rank exists.
fn first_shared_rank(a: &[u32], b: &[u32]) -> u32 {
    let (mut i, mut j) = (0usize, 0usize);
    loop {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return a[i],
        }
    }
}

/// Process one shard, appending qualifying pairs and accumulating counters.
/// Returns `false` when the budget tripped mid-shard and the caller should
/// stop taking work.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    shard: &Shard,
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    ctx: &ExecContext,
    r_index: &CsrIndex,
    s_index: &CsrIndex,
    r_lens: &[usize],
    s_lens: &[usize],
    pairs: &mut Vec<JoinPair>,
    stats: &mut SsJoinStats,
    budget: &BudgetState,
) -> bool {
    for t in shard.ranks.clone() {
        let cand_before = stats.candidate_pairs;
        let out_before = pairs.len();
        let rank = t as u32;
        let r_post = r_index.postings(rank);
        let r_post = match shard.r_slice {
            Some((lo, hi)) => &r_post[lo..hi],
            None => r_post,
        };
        let s_post = s_index.postings(rank);
        if r_post.is_empty() || s_post.is_empty() {
            continue;
        }
        for &rid in r_post {
            let rset = r.set(rid);
            let r_prefix = &rset.ranks()[..r_lens[rid as usize]];
            for &sid in s_post {
                stats.join_tuples += 1;
                let sset = s.set(sid);
                let s_prefix = &sset.ranks()[..s_lens[sid as usize]];
                // Emit each candidate only at its smallest shared prefix
                // rank — the cross-shard (and cross-rank) dedup rule.
                if first_shared_rank(r_prefix, s_prefix) != rank {
                    continue;
                }
                stats.candidate_pairs += 1;
                let required = pred.required_overlap(rset.norm(), sset.norm());
                if ctx.bitmap_filter {
                    stats.bitmap_probes += 1;
                    if rset.wide_overlap_bound(sset) < required {
                        stats.bitmap_prunes += 1;
                        continue;
                    }
                }
                stats.verified_pairs += 1;
                // Same fused kernel as the sequential inline executor, so
                // counters stay schedule-independent.
                if let Some(overlap) = verify_overlap(rset, sset, required, stats) {
                    pairs.push(JoinPair {
                        r: rid,
                        s: sid,
                        overlap,
                    });
                }
            }
        }
        // Budget checkpoint: one per rank, charging the candidates and
        // outputs this rank produced across its full posting product.
        if !budget.checkpoint(
            stats.candidate_pairs - cand_before,
            (pairs.len() - out_before) as u64,
        ) {
            return false;
        }
    }
    true
}

#[allow(clippy::field_reassign_with_default)]
pub(super) fn run(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    ctx: &ExecContext,
    budget: &BudgetState,
    ws: &mut JoinWorkspace,
) -> SsJoinStats {
    let threads = ctx.threads.max(1);
    let mut stats = SsJoinStats::default();
    if !budget.proceed() {
        return stats;
    }
    ws.ensure_workers(threads);

    // Phase: prefix-filter — prefix lengths for both sides and *two* prefix
    // inverted indexes (the R-side one is what makes rank-range shards a
    // complete description of the candidate space). Both indexes are built
    // in parallel from per-worker partial indexes.
    timed_phase(&mut stats, ctx.stats, Phase::PrefixFilter, |stats| {
        let JoinWorkspace {
            r_index,
            s_index,
            r_lens,
            s_lens,
            workers,
            ..
        } = &mut *ws;
        prefix_lengths_into(r, Side::R, pred, s.norm_range(), r_lens);
        prefix_lengths_into(s, Side::S, pred, r.norm_range(), s_lens);
        stats.prefix_tuples_r = r_lens.iter().map(|&l| l as u64).sum();
        stats.prefix_tuples_s = s_lens.iter().map(|&l| l as u64).sum();
        build_csr_parallel(r_index, r, r_lens, workers, threads);
        build_csr_parallel(s_index, s, s_lens, workers, threads);
    });
    if !budget.proceed() {
        return stats;
    }

    let inner = timed_phase(&mut stats, ctx.stats, Phase::SsJoin, |_| {
        let JoinWorkspace {
            r_index,
            s_index,
            r_lens,
            s_lens,
            workers,
            shards,
            ..
        } = &mut *ws;
        shard_phase(
            r, s, pred, ctx, budget, r_index, s_index, r_lens, s_lens, workers, shards, threads,
        )
    });
    stats.merge(&inner);

    // Merge the disjoint sorted runs into the workspace output buffer. A
    // tripped budget means the runs are truncated mid-shard; the caller
    // surfaces the error, so skip the (now meaningless) merge.
    if budget.cause().is_none() {
        ws.merge_shard_runs(threads);
    }
    stats
}

/// Plan and execute the token shards with work stealing, leaving per-worker
/// sorted runs behind for the caller's `merge_shard_runs`. Shared between
/// [`run`] (fresh per-call S index) and [`probe_partition`] (borrowed
/// persistent S index).
#[allow(clippy::too_many_arguments, clippy::field_reassign_with_default)]
fn shard_phase(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    ctx: &ExecContext,
    budget: &BudgetState,
    r_index: &CsrIndex,
    s_index: &CsrIndex,
    r_lens: &[usize],
    s_lens: &[usize],
    workers: &mut [WorkerScratch],
    shards: &mut Vec<Shard>,
    threads: usize,
) -> SsJoinStats {
    {
        let (total, cost_max) = plan_shards_into(
            r_index,
            s_index,
            r.universe_size(),
            threads,
            SHARDS_PER_THREAD,
            shards,
        );
        let mut agg = SsJoinStats::default();
        agg.shards = shards.len() as u64;
        agg.shard_cost_max = cost_max;
        agg.shard_cost_total = total;

        // The claim table is parallel-only bookkeeping; the zero-allocation
        // reuse contract covers the single-threaded hot path, which never
        // reaches this executor through the public API.
        let taken: Vec<AtomicBool> = (0..shards.len()).map(|_| AtomicBool::new(false)).collect();
        let steals = AtomicU64::new(0);
        let shards = &*shards;
        let claim = |i: usize| -> bool { !taken[i].swap(true, Ordering::AcqRel) };

        let active = &mut workers[..threads];
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (w, scratch) in active.iter_mut().enumerate() {
                let (claim, steals) = (&claim, &steals);
                handles.push(scope.spawn(move || {
                    scratch.pairs.clear();
                    scratch.runs.clear();
                    scratch.stats = SsJoinStats::default();
                    let pairs = &mut scratch.pairs;
                    let runs = &mut scratch.runs;
                    let st = &mut scratch.stats;
                    let mut live = true;
                    // Each claimed shard's pairs become one locally sorted
                    // run; disjointness across shards lets the workspace
                    // merge the runs back into the global (r, s) order.
                    let mut take = |i: usize, live: &mut bool| {
                        let start = pairs.len();
                        *live = run_shard(
                            &shards[i], r, s, pred, ctx, r_index, s_index, r_lens, s_lens, pairs,
                            st, budget,
                        );
                        pairs[start..].sort_unstable_by_key(|p| (p.r, p.s));
                        if pairs.len() > start {
                            runs.push((start, pairs.len()));
                        }
                    };
                    // Own shards first (round-robin assignment), then steal
                    // whatever other workers have not claimed yet. A tripped
                    // budget stops this worker from taking further shards;
                    // the other workers observe the shared cause at their
                    // next checkpoint.
                    for i in (w..shards.len()).step_by(threads) {
                        if !live {
                            break;
                        }
                        if claim(i) {
                            take(i, &mut live);
                        }
                    }
                    for i in 0..shards.len() {
                        if !live {
                            break;
                        }
                        if i % threads != w && claim(i) {
                            steals.fetch_add(1, Ordering::Relaxed);
                            take(i, &mut live);
                        }
                    }
                }));
            }
            for h in handles {
                // Propagate worker panics without introducing a new panic
                // site of our own.
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });

        agg.shard_steals = steals.load(Ordering::Relaxed);
        for scratch in active.iter() {
            agg.merge(&scratch.stats);
        }
        agg
    }
}

/// Token-sharded R×index probe against a borrowed, prebuilt S prefix index
/// and its prefix lengths. Mirrors [`run`] but only the R-side prefix index
/// is (re)built per call — into the caller's workspace, in parallel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn probe_partition(
    r: &SetCollection,
    s: &SetCollection,
    s_index: &CsrIndex,
    s_lens: &[usize],
    s_prefix_tuples: u64,
    pred: &OverlapPredicate,
    ctx: &ExecContext,
    budget: &BudgetState,
    ws: &mut JoinWorkspace,
) -> SsJoinStats {
    let threads = ctx.threads.max(1);
    let mut stats = SsJoinStats::default();
    if !budget.proceed() {
        return stats;
    }
    ws.ensure_workers(threads);

    timed_phase(&mut stats, ctx.stats, Phase::PrefixFilter, |stats| {
        let JoinWorkspace {
            r_index,
            r_lens,
            workers,
            ..
        } = &mut *ws;
        prefix_lengths_into(r, Side::R, pred, s.norm_range(), r_lens);
        stats.prefix_tuples_r = r_lens.iter().map(|&l| l as u64).sum();
        stats.prefix_tuples_s = s_prefix_tuples;
        build_csr_parallel(r_index, r, r_lens, workers, threads);
    });
    if !budget.proceed() {
        return stats;
    }

    let inner = timed_phase(&mut stats, ctx.stats, Phase::SsJoin, |_| {
        let JoinWorkspace {
            r_index,
            r_lens,
            workers,
            shards,
            ..
        } = &mut *ws;
        shard_phase(
            r, s, pred, ctx, budget, r_index, s_index, r_lens, s_lens, workers, shards, threads,
        )
    });
    stats.merge(&inner);

    if budget.cause().is_none() {
        ws.merge_shard_runs(threads);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::super::inline;
    use super::*;
    use crate::builder::{SsJoinInputBuilder, WeightScheme};
    use crate::exec::workspace::collect;
    use crate::order::ElementOrder;

    fn build(groups: Vec<Vec<String>>, scheme: WeightScheme) -> SetCollection {
        let mut b = SsJoinInputBuilder::new(scheme, ElementOrder::FrequencyAsc);
        let h = b.add_relation(groups);
        b.build().unwrap().collection(h).clone()
    }

    fn random_groups(n: usize, vocab: usize) -> Vec<Vec<String>> {
        (0..n)
            .map(|i| {
                (0..(2 + i % 7))
                    .map(|j| format!("v{}", (i * 13 + j * 17) % vocab))
                    .collect()
            })
            .collect()
    }

    fn zipf_groups(n: usize) -> Vec<Vec<String>> {
        // Every group shares a handful of stop words plus rarer tokens, so
        // posting lengths are heavily skewed.
        (0..n)
            .map(|i| {
                let mut g = vec!["the".to_string(), "of".to_string()];
                g.push(format!("mid{}", i % 9));
                g.push(format!("rare{i}"));
                g.push(format!("rare{i}x"));
                g
            })
            .collect()
    }

    fn sorted(mut pairs: Vec<JoinPair>) -> Vec<JoinPair> {
        pairs.sort_unstable_by_key(|p| (p.r, p.s));
        pairs
    }

    fn is_sorted(pairs: &[JoinPair]) -> bool {
        pairs
            .windows(2)
            .all(|w| (w[0].r, w[0].s) < (w[1].r, w[1].s))
    }

    #[test]
    fn matches_sequential_inline_exactly() {
        for scheme in [WeightScheme::Unweighted, WeightScheme::Idf] {
            let c = build(random_groups(90, 41), scheme);
            for pred in [
                OverlapPredicate::absolute(2.0),
                OverlapPredicate::r_normalized(0.7),
                OverlapPredicate::two_sided(0.5),
            ] {
                let seq = ExecContext::new();
                let (p1, st1) =
                    collect(|ws| inline::run(&c, &c, &pred, &seq, &BudgetState::unlimited(), ws));
                for threads in [2usize, 4] {
                    let ctx = ExecContext::new().with_threads(threads);
                    let (pn, stn) =
                        collect(|ws| run(&c, &c, &pred, &ctx, &BudgetState::unlimited(), ws));
                    // The merged runs arrive already in global (r, s) order —
                    // no caller-side sort.
                    assert!(is_sorted(&pn), "threads {threads}");
                    assert_eq!(sorted(p1.clone()), pn, "threads {threads}");
                    // Schedule-independent counters match the sequential
                    // inline executor's.
                    assert_eq!(st1.join_tuples, stn.join_tuples);
                    assert_eq!(st1.candidate_pairs, stn.candidate_pairs);
                    assert_eq!(st1.verified_pairs, stn.verified_pairs);
                    assert!(stn.shards > 0);
                }
            }
        }
    }

    #[test]
    fn zipf_heavy_token_is_split() {
        let c = build(zipf_groups(200), WeightScheme::Unweighted);
        let pred = OverlapPredicate::absolute(4.0);
        let ctx = ExecContext::new().with_threads(4);
        let (pairs, stats) = collect(|ws| run(&c, &c, &pred, &ctx, &BudgetState::unlimited(), ws));
        let (seq_pairs, _) = collect(|ws| {
            inline::run(
                &c,
                &c,
                &pred,
                &ExecContext::new(),
                &BudgetState::unlimited(),
                ws,
            )
        });
        assert!(is_sorted(&pairs));
        assert_eq!(pairs, sorted(seq_pairs));
        // The stop-word rank dominates total cost; splitting must keep the
        // heaviest shard well below the whole workload.
        assert!(stats.shards > 4, "shards {}", stats.shards);
        assert!(
            stats.shard_cost_max < stats.shard_cost_total / 2,
            "max {} total {}",
            stats.shard_cost_max,
            stats.shard_cost_total
        );
    }

    #[test]
    fn bitmap_filter_prunes_without_changing_output() {
        let c = build(random_groups(120, 61), WeightScheme::Idf);
        let pred = OverlapPredicate::two_sided(0.8);
        let plain = ExecContext::new().with_threads(3);
        let filtered = plain.clone().with_bitmap_filter(true);
        let (p0, st0) = collect(|ws| run(&c, &c, &pred, &plain, &BudgetState::unlimited(), ws));
        let (p1, st1) = collect(|ws| run(&c, &c, &pred, &filtered, &BudgetState::unlimited(), ws));
        assert_eq!(sorted(p0), sorted(p1));
        assert_eq!(st1.bitmap_probes, st0.candidate_pairs);
        assert!(st1.bitmap_prunes > 0, "{st1}");
        assert_eq!(st1.verified_pairs + st1.bitmap_prunes, st0.verified_pairs);
    }

    #[test]
    fn plan_covers_all_ranks_disjointly() {
        let c = build(zipf_groups(64), WeightScheme::Unweighted);
        let pred = OverlapPredicate::absolute(3.0);
        let r_lens = super::super::prefix::prefix_lengths(&c, Side::R, &pred, c.norm_range());
        let s_lens = super::super::prefix::prefix_lengths(&c, Side::S, &pred, c.norm_range());
        let mut r_index = CsrIndex::default();
        let mut s_index = CsrIndex::default();
        r_index.build(&c, Some(&r_lens));
        s_index.build(&c, Some(&s_lens));
        let mut shards = Vec::new();
        let (cost_total, _) =
            plan_shards_into(&r_index, &s_index, c.universe_size(), 4, 4, &mut shards);
        // Every rank is covered exactly once (counting split sub-shards via
        // their posting sub-ranges).
        let mut rank_cover = vec![0usize; c.universe_size()];
        for shard in &shards {
            match shard.r_slice {
                None => {
                    for t in shard.ranks.clone() {
                        rank_cover[t] += r_index.postings(t as u32).len().max(1);
                    }
                }
                Some((lo, hi)) => {
                    assert_eq!(shard.ranks.len(), 1);
                    rank_cover[shard.ranks.start] += hi - lo;
                }
            }
        }
        for (t, &cover) in rank_cover.iter().enumerate() {
            let expect = r_index.postings(t as u32).len().max(1);
            assert_eq!(cover, expect, "rank {t}");
        }
        assert_eq!(cost_total, shards.iter().map(|s| s.cost).sum::<u64>());
    }

    #[test]
    fn single_thread_context_still_correct() {
        // threads=1 normally routes to the sequential path, but the executor
        // itself must still be correct if called directly.
        let c = build(random_groups(40, 23), WeightScheme::Unweighted);
        let pred = OverlapPredicate::absolute(2.0);
        let (pairs, _) = collect(|ws| {
            run(
                &c,
                &c,
                &pred,
                &ExecContext::new(),
                &BudgetState::unlimited(),
                ws,
            )
        });
        let (seq, _) = collect(|ws| {
            inline::run(
                &c,
                &c,
                &pred,
                &ExecContext::new(),
                &BudgetState::unlimited(),
                ws,
            )
        });
        assert!(is_sorted(&pairs));
        assert_eq!(pairs, sorted(seq));
    }

    #[test]
    fn empty_inputs() {
        let c = build(vec![], WeightScheme::Unweighted);
        let pred = OverlapPredicate::absolute(1.0);
        let ctx = ExecContext::new().with_threads(2);
        let (pairs, _) = collect(|ws| run(&c, &c, &pred, &ctx, &BudgetState::unlimited(), ws));
        assert!(pairs.is_empty());
    }
}
