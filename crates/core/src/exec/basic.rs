//! Basic SSJoin (Figure 7): equi-join on the element column, group by
//! `(R.A, S.A)`, HAVING `SUM(weight) ≥ threshold`.
//!
//! Fused in-memory realization: an inverted index over `S` maps each element
//! rank to the sets containing it; probing with each `R` set and summing
//! weights per touched `S` set *is* the equi-join followed by the group-by.
//! Every posting hit is one tuple of the equi-join result, which is the
//! quantity §4.1 identifies as the bottleneck on frequent elements.
//!
//! A symmetric self-join takes the half path of [`super::run_probes`]:
//! probe `rid` accumulates only over S ids `< rid`,
//! [`super::Prune::diagonal`] decides the pair `(rid, rid)`, and the
//! lower triangle is mirrored into the full output. Each probe accumulates
//! only over its id window ([`super::Prune::window`]). Every qualifying
//! pair leaves through [`super::Sink::emit`].

use super::prune::{join_bounds_into, Prune};
use super::workspace::{JoinWorkspace, WorkerScratch};
use super::{run_probes, symmetric_self_join, ExecContext, Sink};
use crate::predicate::OverlapPredicate;
use crate::set::SetCollection;
use crate::stats::{timed_phase, Phase, SsJoinStats};
use crate::weight::Weight;

pub(super) fn run(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    ctx: &ExecContext,
    sink: Sink<'_>,
    ws: &mut JoinWorkspace,
) -> SsJoinStats {
    let mut stats = SsJoinStats::default();
    let half = symmetric_self_join(r, s, pred);
    let JoinWorkspace {
        s_index,
        r_bounds,
        s_bounds,
        workers,
        row_starts,
        out,
        ..
    } = ws;
    timed_phase(&mut stats, Phase::Prep, |_| {
        s_index.build(s, None);
        join_bounds_into(r, s, pred, half, r_bounds, s_bounds);
    });
    let index = &*s_index;
    let r_bounds = if half { &*s_bounds } else { &*r_bounds };
    let prune = Prune::new(r, s, r_bounds, s_bounds, pred, ctx.bitmap_filter);

    let probe = |range: std::ops::Range<usize>, scratch: &mut WorkerScratch| {
        let mut stats = SsJoinStats::default();
        // Dense per-probe accumulator over S ids, reset via touch list.
        // The clear + resize refills every slot with zero, so values a
        // previous run (or an aborted probe) left behind cannot leak.
        scratch.acc.clear();
        scratch.acc.resize(s.len(), Weight::ZERO);
        scratch.touched.clear();
        let acc = &mut scratch.acc;
        let touched = &mut scratch.touched;
        let out = &mut scratch.out;
        for rid in range {
            let rset = r.set(rid as u32);
            let rid = rid as u32;
            let window = prune.window(rid, half);
            for (&rank, &w) in rset.ranks().iter().zip(rset.weights().iter()) {
                for &sid in index.postings_in(rank, window.clone()) {
                    if acc[sid as usize].is_zero() {
                        touched.push(sid);
                    }
                    acc[sid as usize] += w;
                    stats.join_tuples += 1;
                }
            }
            stats.candidate_pairs += touched.len() as u64;
            // The overlap is already accumulated here, so the prune
            // saves only the predicate check — but it keeps the filter's
            // counter semantics (and its losslessness: bound ≥ exact
            // overlap, so a pruned pair could never pass the predicate)
            // uniform across all executors. A pruned candidate's
            // accumulator is reset here, a survivor's after its check.
            touched.retain(|&sid| {
                let pruned = prune.prunes(rid, sid, &mut stats);
                if pruned {
                    acc[sid as usize] = Weight::ZERO;
                }
                !pruned
            });
            touched.sort_unstable();
            for &sid in touched.iter() {
                let overlap = acc[sid as usize];
                acc[sid as usize] = Weight::ZERO;
                stats.verified_pairs += 1;
                if overlap >= prune.required(rid, sid) {
                    sink.emit(rid, sid, overlap, out, &mut stats);
                }
            }
            touched.clear();
        }
        stats
    };
    let (n, diagonal) = (r.len(), |rid| prune.diagonal(rid));
    let inner = run_probes(
        n,
        ctx.threads,
        half,
        sink,
        diagonal,
        (workers, out, row_starts),
        probe,
    );
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
        let (mut pairs, stats) =
            collect(|ws| run(&c, &c, &pred, &ExecContext::new(), Sink::Plain, ws));
        pairs.sort_unstable_by_key(|p| (p.r, p.s));
        // Self-pairs (0,0),(1,1),(2,2) plus (0,1),(1,0).
        let got: Vec<(u32, u32)> = pairs.iter().map(|p| (p.r, p.s)).collect();
        assert_eq!(got, vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]);
        // join_tuples = total posting hits. The half path walks ids below
        // the probe only and decides the diagonal without a walk, so the
        // hits are the two shared elements (b, c) of the one unordered
        // off-diagonal pair.
        assert_eq!(stats.join_tuples, 2);
    }

    #[test]
    fn overlap_values_correct() {
        let c = build(vec![toks(&["a", "b", "c"]), toks(&["b", "c", "d"])]);
        let pred = OverlapPredicate::absolute(1.0);
        let (pairs, _) = collect(|ws| run(&c, &c, &pred, &ExecContext::new(), Sink::Plain, ws));
        let p01 = pairs.iter().find(|p| p.r == 0 && p.s == 1).unwrap();
        assert_eq!(p01.overlap, Weight::from_f64(2.0));
    }

    #[test]
    fn zero_overlap_pairs_never_emitted() {
        let c = build(vec![toks(&["a"]), toks(&["b"])]);
        let pred = OverlapPredicate::absolute(-10.0); // clamps to epsilon
        let (pairs, _) = collect(|ws| run(&c, &c, &pred, &ExecContext::new(), Sink::Plain, ws));
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
        let (mut p1, _) = collect(|ws| run(&c, &c, &pred, &ExecContext::new(), Sink::Plain, ws));
        let (mut p4, _) = collect(|ws| {
            run(
                &c,
                &c,
                &pred,
                &ExecContext::new().with_threads(4),
                Sink::Plain,
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
        let (empty_pairs, _) =
            collect(|ws| run(&e, &e, &pred, &ExecContext::new(), Sink::Plain, ws));
        assert!(empty_pairs.is_empty());
        // Note: e and c come from different builders here, so only same-
        // builder combinations are meaningful; the public API enforces that.
        let (pairs, _) = collect(|ws| run(&c, &c, &pred, &ExecContext::new(), Sink::Plain, ws));
        assert_eq!(pairs.len(), 1);
    }
}
