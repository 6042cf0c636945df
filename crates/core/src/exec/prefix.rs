//! Prefix-filtered SSJoin (Figure 8) and the shared prefix machinery.
//!
//! For every set, only the shortest prefix (under the global order) whose
//! weight exceeds `β = wt(set) − α_lb` passes the filter, where `α_lb` is a
//! safe lower bound on the required overlap over all possible partners
//! (Lemma 1, extended to norm-dependent predicates via interval
//! lower-bounding). The equi-join of the two prefix-filtered relations
//! yields candidate group pairs; the full overlap of each candidate is then
//! recomputed.
//!
//! The *standard* variant verifies by joining the candidates back to the
//! base relations and re-grouping — emulated faithfully by rebuilding a hash
//! table over each candidate's R-group and probing it with the S-group rows,
//! exactly the work the extra joins + group-by of Figure 8 perform. The
//! *inline* variant (Figure 9, in [`super::inline`]) skips that by carrying
//! sets through the filter and merging them directly.

use super::workspace::{CsrIndex, JoinWorkspace, WorkerScratch};
use super::{run_chunked, ExecContext, JoinPair};
use crate::budget::BudgetState;
use crate::kernel::verify_overlap;
use crate::predicate::{Interval, OverlapPredicate};
use crate::set::SetCollection;
use crate::stats::{timed_phase, Phase, SsJoinStats};
use crate::weight::Weight;

/// Which side of the join a collection plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    R,
    S,
}

/// Per-set prefix lengths for one side, written into a reusable buffer.
/// Length 0 means the set generates no candidates (it is empty, or its total
/// weight cannot reach the lowest possible required overlap).
pub(crate) fn prefix_lengths_into(
    collection: &SetCollection,
    side: Side,
    pred: &OverlapPredicate,
    other_norms: Option<(f64, f64)>,
    out: &mut Vec<usize>,
) {
    out.clear();
    let Some((lo, hi)) = other_norms else {
        // No partner groups at all: nothing can join.
        out.resize(collection.len(), 0);
        return;
    };
    let range = Interval::new(lo, hi);
    out.extend(collection.iter().map(|set| {
        if set.is_empty() {
            return 0;
        }
        let lb = match side {
            Side::R => pred.required_lower_bound_r(set.norm(), range),
            Side::S => pred.required_lower_bound_s(set.norm(), range),
        };
        let total = set.total_weight();
        if total < lb {
            return 0; // overlap ≤ wt(set) < required for every partner
        }
        set.prefix_len(total.saturating_sub(lb))
    }));
}

/// Allocating convenience wrapper over [`prefix_lengths_into`].
#[cfg(test)]
pub(crate) fn prefix_lengths(
    collection: &SetCollection,
    side: Side,
    pred: &OverlapPredicate,
    other_norms: Option<(f64, f64)>,
) -> Vec<usize> {
    let mut out = Vec::new();
    prefix_lengths_into(collection, side, pred, other_norms, &mut out);
    out
}

/// Candidate generation + verification shared by the prefix-filtered and
/// inline algorithms. `inline` selects merge-based verification; otherwise
/// the join-back emulation runs.
pub(crate) fn run_prefix_family(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    ctx: &ExecContext,
    inline: bool,
    budget: &BudgetState,
    ws: &mut JoinWorkspace,
) -> SsJoinStats {
    let mut stats = SsJoinStats::default();
    if !budget.proceed() {
        return stats;
    }
    let JoinWorkspace {
        s_index,
        r_lens,
        s_lens,
        workers,
        out,
        ..
    } = ws;

    // Phase: prefix-filter (computing prefixes and the prefix index). Only
    // the R-side lengths and the S-side prefix index escape the phase; the
    // S-side lengths are consumed by the index build.
    timed_phase(&mut stats, Phase::PrefixFilter, |stats| {
        prefix_lengths_into(r, Side::R, pred, s.norm_range(), r_lens);
        prefix_lengths_into(s, Side::S, pred, r.norm_range(), s_lens);
        stats.prefix_tuples_r = r_lens.iter().map(|&l| l as u64).sum();
        stats.prefix_tuples_s = s_lens.iter().map(|&l| l as u64).sum();
        s_index.build(s, Some(s_lens));
    });
    if !budget.proceed() {
        return stats;
    }
    let s_index = &*s_index;
    let r_lens = &*r_lens;

    // Phase: the SSJoin proper — prefix equi-join producing candidates, then
    // overlap recomputation per candidate.
    let inner = timed_phase(&mut stats, Phase::SsJoin, |_| {
        candidate_phase(
            r, s, s_index, r_lens, pred, ctx, inline, budget, workers, out,
        )
    });
    stats.merge(&inner);
    stats
}

/// The SSJoin phase of the prefix family — prefix equi-join against an
/// already-built S-side prefix index, then overlap verification per
/// candidate. Shared by the fresh-build path ([`run_prefix_family`], which
/// builds `s_index` into the workspace first) and the persistent-index probe
/// path ([`probe_prefix_family`], which borrows `s_index` from a
/// [`crate::CorpusIndex`]).
#[allow(clippy::too_many_arguments)]
fn candidate_phase(
    r: &SetCollection,
    s: &SetCollection,
    s_index: &CsrIndex,
    r_lens: &[usize],
    pred: &OverlapPredicate,
    ctx: &ExecContext,
    inline: bool,
    budget: &BudgetState,
    workers: &mut Vec<WorkerScratch>,
    out: &mut Vec<JoinPair>,
) -> SsJoinStats {
    {
        run_chunked(r.len(), ctx.threads, workers, out, |range, scratch| {
            let mut stats = SsJoinStats::default();
            // Candidate dedup via a stamp array (reset-free across probes
            // within one run). The clear + resize refills every slot with the
            // sentinel so a stamp from a previous run on this workspace can
            // never alias a rid of the current run.
            scratch.stamp.clear();
            scratch.stamp.resize(s.len(), u32::MAX);
            scratch.candidates.clear();
            scratch.r_table.clear();
            let stamp = &mut scratch.stamp;
            let candidates = &mut scratch.candidates;
            // Join-back scratch: hash table over the current R group.
            let r_table = &mut scratch.r_table;
            let pairs = &mut scratch.pairs;

            for rid in range {
                // The stamp array uses `u32::MAX` as its "never seen"
                // sentinel; group ids are capped at `u32::MAX - 1` by the
                // builder's TooManyGroups check, so a real rid can never
                // alias the sentinel.
                debug_assert_ne!(
                    rid as u32,
                    u32::MAX,
                    "rid collides with the stamp sentinel; collection exceeds the id space"
                );
                let out_before = pairs.len();
                let rset = r.set(rid as u32);
                let plen = r_lens[rid];
                if plen == 0 {
                    continue;
                }
                candidates.clear();
                for &rank in &rset.ranks()[..plen] {
                    for &sid in s_index.postings(rank) {
                        stats.join_tuples += 1;
                        if stamp[sid as usize] != rid as u32 {
                            stamp[sid as usize] = rid as u32;
                            candidates.push(sid);
                        }
                    }
                }
                stats.candidate_pairs += candidates.len() as u64;
                if candidates.is_empty() {
                    continue;
                }
                candidates.sort_unstable();
                // Budget checkpoint before verification: candidate work for
                // this probe is known, verification is the expensive tail.
                if !budget.checkpoint(candidates.len() as u64, 0) {
                    break;
                }

                if inline {
                    for &sid in candidates.iter() {
                        let sset = s.set(sid);
                        let required = pred.required_overlap(rset.norm(), sset.norm());
                        if ctx.bitmap_filter {
                            stats.bitmap_probes += 1;
                            if rset.wide_overlap_bound(sset) < required {
                                stats.bitmap_prunes += 1;
                                continue; // signature proves the merge can't reach the threshold
                            }
                        }
                        stats.verified_pairs += 1;
                        // The HAVING check is fused into the kernel: Some
                        // exactly when overlap >= required.
                        if let Some(overlap) = verify_overlap(rset, sset, required, &mut stats) {
                            pairs.push(JoinPair {
                                r: rid as u32,
                                s: sid,
                                overlap,
                            });
                        }
                    }
                } else {
                    // Join back to the base relations (Figure 8): the SQL
                    // plan re-joins the candidate pairs with R and S and
                    // re-groups, i.e. it materializes and hashes each
                    // candidate's group rows anew per pair — so the
                    // emulation rebuilds the R-group hash table for every
                    // candidate rather than amortizing it. (Skipping that
                    // rebuild is exactly the inline optimization of
                    // Figure 9.)
                    for &sid in candidates.iter() {
                        let sset = s.set(sid);
                        if ctx.bitmap_filter {
                            stats.bitmap_probes += 1;
                            let required = pred.required_overlap(rset.norm(), sset.norm());
                            if rset.wide_overlap_bound(sset) < required {
                                stats.bitmap_prunes += 1;
                                continue; // skip the per-candidate table rebuild
                            }
                        }
                        r_table.clear();
                        for (&rank, &w) in rset.ranks().iter().zip(rset.weights()) {
                            r_table.insert(rank, w);
                        }
                        let mut overlap = Weight::ZERO;
                        for rank in sset.ranks() {
                            if let Some(&w) = r_table.get(rank) {
                                overlap += w;
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
                }
                if !budget.checkpoint(0, (pairs.len() - out_before) as u64) {
                    break;
                }
            }
            stats
        })
    }
}

/// Probe an already-built S-side prefix index: identical to
/// [`run_prefix_family`] except that the prefix-filter phase computes only
/// the R-side (probe batch) prefix lengths — the S side's prefixes and index
/// were fixed when the [`crate::CorpusIndex`] was built, against a
/// conservative partner-norm interval, so the candidate set is a superset of
/// the fresh build's and verification makes the output identical.
/// `s_prefix_tuples` reports the stored index's prefix size into the stats.
#[allow(clippy::too_many_arguments)]
pub(crate) fn probe_prefix_family(
    r: &SetCollection,
    s: &SetCollection,
    s_index: &CsrIndex,
    s_prefix_tuples: u64,
    pred: &OverlapPredicate,
    ctx: &ExecContext,
    inline: bool,
    budget: &BudgetState,
    ws: &mut JoinWorkspace,
) -> SsJoinStats {
    let mut stats = SsJoinStats::default();
    if !budget.proceed() {
        return stats;
    }
    let JoinWorkspace {
        r_lens,
        workers,
        out,
        ..
    } = ws;

    timed_phase(&mut stats, Phase::PrefixFilter, |stats| {
        prefix_lengths_into(r, Side::R, pred, s.norm_range(), r_lens);
        stats.prefix_tuples_r = r_lens.iter().map(|&l| l as u64).sum();
        stats.prefix_tuples_s = s_prefix_tuples;
    });
    if !budget.proceed() {
        return stats;
    }
    let r_lens = &*r_lens;
    let inner = timed_phase(&mut stats, Phase::SsJoin, |_| {
        candidate_phase(
            r, s, s_index, r_lens, pred, ctx, inline, budget, workers, out,
        )
    });
    stats.merge(&inner);
    stats
}

pub(super) fn run(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    ctx: &ExecContext,
    budget: &BudgetState,
    ws: &mut JoinWorkspace,
) -> SsJoinStats {
    run_prefix_family(r, s, pred, ctx, false, budget, ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{NormKind, SsJoinInputBuilder, WeightScheme};
    use crate::exec::workspace::collect;
    use crate::order::ElementOrder;

    fn toks(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn build(groups: Vec<Vec<String>>, scheme: WeightScheme) -> SetCollection {
        let mut b = SsJoinInputBuilder::new(scheme, ElementOrder::FrequencyAsc);
        let h = b.add_relation(groups);
        b.build().unwrap().collection(h).clone()
    }

    #[test]
    fn lemma1_example_from_paper() {
        // §4.2: s1 = {1..5}, s2 = {1,2,3,4,6}, overlap 4 → size-2 prefixes
        // under the usual ordering intersect.
        let groups = vec![
            toks(&["1", "2", "3", "4", "5"]),
            toks(&["1", "2", "3", "4", "6"]),
        ];
        let c = build(groups, WeightScheme::Unweighted);
        let pred = OverlapPredicate::absolute(4.0);
        let lens = prefix_lengths(&c, Side::R, &pred, c.norm_range());
        assert_eq!(lens, vec![2, 2]);
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
        let mut got = got;
        got.sort_unstable();
        assert_eq!(got, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn matches_basic_on_random_input() {
        let groups: Vec<Vec<String>> = (0..60)
            .map(|i| {
                (0..(3 + i % 5))
                    .map(|j| format!("w{}", (i * 5 + j * 11) % 37))
                    .collect()
            })
            .collect();
        for scheme in [WeightScheme::Unweighted, WeightScheme::Idf] {
            let c = build(groups.clone(), scheme);
            for pred in [
                OverlapPredicate::absolute(2.0),
                OverlapPredicate::r_normalized(0.6),
                OverlapPredicate::two_sided(0.5),
            ] {
                let (mut a, _) = collect(|ws| {
                    super::super::basic::run(
                        &c,
                        &c,
                        &pred,
                        &ExecContext::new(),
                        &BudgetState::unlimited(),
                        ws,
                    )
                });
                let (mut b, _) = collect(|ws| {
                    run(
                        &c,
                        &c,
                        &pred,
                        &ExecContext::new(),
                        &BudgetState::unlimited(),
                        ws,
                    )
                });
                a.sort_unstable_by_key(|p| (p.r, p.s));
                b.sort_unstable_by_key(|p| (p.r, p.s));
                assert_eq!(a, b, "scheme {scheme:?} pred {pred:?}");
            }
        }
    }

    #[test]
    fn prefix_filter_reduces_join_tuples() {
        // Include a stop-word style frequent token; the prefix filter should
        // touch far fewer posting entries than the basic join.
        let groups: Vec<Vec<String>> = (0..50)
            .map(|i| vec!["the".to_string(), format!("a{i}"), format!("b{}", i % 7)])
            .collect();
        let c = build(groups, WeightScheme::Idf);
        let pred = OverlapPredicate::two_sided(0.9);
        let (_, basic_stats) = collect(|ws| {
            super::super::basic::run(
                &c,
                &c,
                &pred,
                &ExecContext::new(),
                &BudgetState::unlimited(),
                ws,
            )
        });
        let (_, prefix_stats) = collect(|ws| {
            run(
                &c,
                &c,
                &pred,
                &ExecContext::new(),
                &BudgetState::unlimited(),
                ws,
            )
        });
        assert!(
            prefix_stats.join_tuples < basic_stats.join_tuples / 2,
            "prefix {} vs basic {}",
            prefix_stats.join_tuples,
            basic_stats.join_tuples
        );
    }

    #[test]
    fn unreachable_sets_skipped() {
        // Predicate demands more than a small set's weight against any
        // partner: the set must be skipped outright.
        let groups = vec![toks(&["a"]), toks(&["b", "c", "d", "e", "f"])];
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = b.add_relation_with_norm(groups, NormKind::Cardinality);
        let c = b.build().unwrap().collection(h).clone();
        let pred = OverlapPredicate::absolute(3.0);
        let lens = prefix_lengths(&c, Side::R, &pred, c.norm_range());
        assert_eq!(lens[0], 0);
        assert!(lens[1] > 0);
    }

    #[test]
    fn empty_other_side_yields_nothing() {
        let c = build(vec![toks(&["a", "b"])], WeightScheme::Unweighted);
        let lens = prefix_lengths(&c, Side::R, &OverlapPredicate::absolute(1.0), None);
        assert_eq!(lens, vec![0]);
    }

    #[test]
    fn parallel_matches_sequential() {
        let groups: Vec<Vec<String>> = (0..64)
            .map(|i| {
                (0..6)
                    .map(|j| format!("t{}", (i * 7 + j * 13) % 41))
                    .collect()
            })
            .collect();
        let c = build(groups, WeightScheme::Idf);
        let pred = OverlapPredicate::two_sided(0.5);
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
}
