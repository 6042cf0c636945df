//! Basic SSJoin (Figure 7): equi-join on the element column, group by
//! `(R.A, S.A)`, HAVING `SUM(weight) ≥ threshold`.
//!
//! Fused in-memory realization: an inverted index over `S` maps each element
//! rank to the sets containing it; probing with each `R` set and summing
//! weights per touched `S` set *is* the equi-join followed by the group-by.
//! Every posting hit is one tuple of the equi-join result, which is the
//! quantity §4.1 identifies as the bottleneck on frequent elements.

use super::workspace::{CsrIndex, JoinWorkspace, WorkerScratch};
use super::{run_chunked, ExecContext, JoinPair};
use crate::budget::BudgetState;
use crate::predicate::OverlapPredicate;
use crate::set::SetCollection;
use crate::stats::{timed_phase, Phase, SsJoinStats};
use crate::weight::Weight;

pub(super) fn run(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    ctx: &ExecContext,
    budget: &BudgetState,
    ws: &mut JoinWorkspace,
) -> SsJoinStats {
    let mut stats = SsJoinStats::default();
    if !budget.proceed() {
        return stats;
    }
    let JoinWorkspace {
        s_index,
        workers,
        out,
        ..
    } = ws;
    timed_phase(&mut stats, Phase::Prep, |_| {
        s_index.build(s, None);
    });
    if !budget.proceed() {
        return stats;
    }
    let index = &*s_index;

    let inner = timed_phase(&mut stats, Phase::SsJoin, |_| {
        candidate_phase(r, s, index, pred, ctx, budget, workers, out)
    });
    stats.merge(&inner);
    stats
}

/// Probe + accumulate phase against a prebuilt full-set index. Shared
/// between [`run`] (fresh per-call build) and [`probe_basic`] (borrowed
/// persistent index).
#[allow(clippy::too_many_arguments)]
fn candidate_phase(
    r: &SetCollection,
    s: &SetCollection,
    index: &CsrIndex,
    pred: &OverlapPredicate,
    ctx: &ExecContext,
    budget: &BudgetState,
    workers: &mut Vec<WorkerScratch>,
    out: &mut Vec<JoinPair>,
) -> SsJoinStats {
    {
        run_chunked(r.len(), ctx.threads, workers, out, |range, scratch| {
            let mut stats = SsJoinStats::default();
            // Dense per-probe accumulator over S ids, reset via touch list.
            // The clear + resize refills every slot with zero, so values a
            // previous run (or an aborted probe) left behind cannot leak.
            scratch.acc.clear();
            scratch.acc.resize(s.len(), Weight::ZERO);
            scratch.touched.clear();
            let acc = &mut scratch.acc;
            let touched = &mut scratch.touched;
            let pairs = &mut scratch.pairs;
            for rid in range {
                let out_before = pairs.len();
                let rset = r.set(rid as u32);
                for (&rank, &w) in rset.ranks().iter().zip(rset.weights()) {
                    for &sid in index.postings(rank) {
                        if acc[sid as usize].is_zero() {
                            touched.push(sid);
                        }
                        acc[sid as usize] += w;
                        stats.join_tuples += 1;
                    }
                }
                stats.candidate_pairs += touched.len() as u64;
                touched.sort_unstable();
                for &sid in touched.iter() {
                    let overlap = acc[sid as usize];
                    acc[sid as usize] = Weight::ZERO;
                    let sset = s.set(sid);
                    if ctx.bitmap_filter {
                        stats.bitmap_probes += 1;
                        let required = pred.required_overlap(rset.norm(), sset.norm());
                        // The overlap is already accumulated here, so the
                        // prune saves only the predicate check — but it
                        // keeps the filter's counter semantics (and its
                        // losslessness: bound ≥ exact overlap, so a pruned
                        // pair could never pass the predicate) uniform
                        // across all executors.
                        if rset.wide_overlap_bound(sset) < required {
                            stats.bitmap_prunes += 1;
                            continue;
                        }
                    }
                    stats.verified_pairs += 1;
                    if pred.check(overlap, rset.norm(), sset.norm()) {
                        pairs.push(JoinPair {
                            r: rid as u32,
                            s: sid,
                            overlap,
                        });
                    }
                }
                let cand_delta = touched.len() as u64;
                touched.clear();
                // Budget checkpoint: one per probe group, charging the
                // candidates and outputs this group produced.
                if !budget.checkpoint(cand_delta, (pairs.len() - out_before) as u64) {
                    break;
                }
            }
            stats
        })
    }
}

/// Basic-algorithm R×index probe against a borrowed, prebuilt full-set
/// index. Mirrors [`run`] minus the Prep phase: the index is owned by the
/// caller's `CorpusIndex` and was built once up front.
pub(crate) fn probe_basic(
    r: &SetCollection,
    s: &SetCollection,
    index: &CsrIndex,
    pred: &OverlapPredicate,
    ctx: &ExecContext,
    budget: &BudgetState,
    ws: &mut JoinWorkspace,
) -> SsJoinStats {
    let mut stats = SsJoinStats::default();
    if !budget.proceed() {
        return stats;
    }
    let JoinWorkspace { workers, out, .. } = ws;
    let inner = timed_phase(&mut stats, Phase::SsJoin, |_| {
        candidate_phase(r, s, index, pred, ctx, budget, workers, out)
    });
    stats.merge(&inner);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{SsJoinInputBuilder, WeightScheme};
    use crate::exec::workspace::collect;
    use crate::order::ElementOrder;

    fn toks(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn build(groups: Vec<Vec<String>>) -> SetCollection {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = b.add_relation(groups);
        let built = b.build().unwrap();
        built.collection(h).clone()
    }

    #[test]
    fn absolute_threshold_self_join() {
        let c = build(vec![
            toks(&["a", "b", "c"]),
            toks(&["b", "c", "d"]),
            toks(&["x", "y"]),
        ]);
        let pred = OverlapPredicate::absolute(2.0);
        let (mut pairs, stats) = collect(|ws| {
            run(
                &c,
                &c,
                &pred,
                &ExecContext::new(),
                &BudgetState::unlimited(),
                ws,
            )
        });
        pairs.sort_unstable_by_key(|p| (p.r, p.s));
        // Self-pairs (0,0),(1,1),(2,2) plus (0,1),(1,0).
        let got: Vec<(u32, u32)> = pairs.iter().map(|p| (p.r, p.s)).collect();
        assert_eq!(got, vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]);
        // join_tuples = total posting hits: every shared element pair.
        assert!(stats.join_tuples >= 8);
    }

    #[test]
    fn overlap_values_correct() {
        let c = build(vec![toks(&["a", "b", "c"]), toks(&["b", "c", "d"])]);
        let pred = OverlapPredicate::absolute(1.0);
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
        let p01 = pairs.iter().find(|p| p.r == 0 && p.s == 1).unwrap();
        assert_eq!(p01.overlap, Weight::from_f64(2.0));
    }

    #[test]
    fn zero_overlap_pairs_never_emitted() {
        let c = build(vec![toks(&["a"]), toks(&["b"])]);
        let pred = OverlapPredicate::absolute(-10.0); // clamps to epsilon
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
        let got: Vec<(u32, u32)> = pairs.iter().map(|p| (p.r, p.s)).collect();
        assert_eq!(got, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn parallel_matches_sequential() {
        let groups: Vec<Vec<String>> = (0..40)
            .map(|i| {
                (0..5)
                    .map(|j| format!("t{}", (i * 3 + j * 7) % 29))
                    .collect()
            })
            .collect();
        let c = build(groups);
        let pred = OverlapPredicate::absolute(2.0);
        let (mut p1, _) = collect(|ws| {
            run(
                &c,
                &c,
                &pred,
                &ExecContext::new(),
                &BudgetState::unlimited(),
                ws,
            )
        });
        let (mut p4, _) = collect(|ws| {
            run(
                &c,
                &c,
                &pred,
                &ExecContext::new().with_threads(4),
                &BudgetState::unlimited(),
                ws,
            )
        });
        p1.sort_unstable_by_key(|p| (p.r, p.s));
        p4.sort_unstable_by_key(|p| (p.r, p.s));
        assert_eq!(p1, p4);
    }

    #[test]
    fn empty_inputs() {
        let e = build(vec![]);
        let c = build(vec![toks(&["a"])]);
        let pred = OverlapPredicate::absolute(1.0);
        let (empty_pairs, _) = collect(|ws| {
            run(
                &e,
                &e,
                &pred,
                &ExecContext::new(),
                &BudgetState::unlimited(),
                ws,
            )
        });
        assert!(empty_pairs.is_empty());
        // Note: e and c come from different builders here, so only same-
        // builder combinations are meaningful; the public API enforces that.
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
        assert_eq!(pairs.len(), 1);
    }
}
