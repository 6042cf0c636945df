//! Positional-filter SSJoin — an extension of the prefix filter.
//!
//! The prefix filter (Lemma 1) decides *whether* a pair can qualify from
//! prefix intersection alone. The positional filter — introduced by the
//! follow-on PPJoin line of work (Xiao et al., WWW 2008) and implemented
//! here as the natural next optimization of the paper's §4.2 — additionally
//! exploits *where* in the global order the prefixes intersect: when the
//! last shared prefix element of a candidate sits at position `i` in `r` and
//! `j` in `s`, every further shared element has a strictly larger rank and
//! therefore lies in both suffixes, so
//!
//! ```text
//! overlap(r, s) ≤ shared_prefix_weight + min(suffix_r(i+1), suffix_s(j+1))
//! ```
//!
//! Candidates whose upper bound is below the pair's exact required overlap
//! are discarded *before* the verification merge — reducing the dominant
//! cost of the inline algorithm at high thresholds.

use super::prefix::{prefix_lengths_into, Side};
use super::workspace::{CsrIndex, JoinWorkspace, WorkerScratch};
use super::{run_chunked, ExecContext, JoinPair};
use crate::budget::BudgetState;
use crate::kernel::verify_overlap;
use crate::predicate::OverlapPredicate;
use crate::set::SetCollection;
use crate::stats::{timed_phase, Phase, SsJoinStats};
use crate::weight::Weight;

/// Positional posting: set id, element position within the set, shared with
/// the inverted index's rank dimension. Suffix weight tables come
/// precomputed from the [`SetCollection`] arena.
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
        r_lens,
        s_lens,
        workers,
        out,
        ..
    } = ws;

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

    let inner = timed_phase(&mut stats, Phase::SsJoin, |_| {
        candidate_phase(r, s, s_index, r_lens, pred, ctx, budget, workers, out)
    });
    stats.merge(&inner);
    stats
}

/// Candidate generation + positional prune + verification against a
/// prebuilt S-prefix index. Shared between [`run`] (fresh per-call build)
/// and [`probe_positional`] (borrowed persistent index).
#[allow(clippy::too_many_arguments)]
fn candidate_phase(
    r: &SetCollection,
    s: &SetCollection,
    s_index: &CsrIndex,
    r_lens: &[usize],
    pred: &OverlapPredicate,
    ctx: &ExecContext,
    budget: &BudgetState,
    workers: &mut Vec<WorkerScratch>,
    out: &mut Vec<JoinPair>,
) -> SsJoinStats {
    {
        run_chunked(r.len(), ctx.threads, workers, out, |range, scratch| {
            let mut stats = SsJoinStats::default();
            // The clear + resize refills the stamps with the sentinel so a
            // previous run on this workspace cannot alias a current rid. The
            // slot array needs no refill: it is only read behind a matching
            // stamp.
            scratch.stamp.clear();
            scratch.stamp.resize(s.len(), u32::MAX);
            scratch.slot.clear();
            scratch.slot.resize(s.len(), 0);
            scratch.cand_sids.clear();
            scratch.cand_accum.clear();
            scratch.cand_bound.clear();
            scratch.order.clear();
            let stamp = &mut scratch.stamp;
            let slot = &mut scratch.slot;
            // Per-candidate accumulated shared prefix weight and tightest
            // remaining-weight bound.
            let cand_sids = &mut scratch.cand_sids;
            let cand_accum = &mut scratch.cand_accum;
            let cand_bound = &mut scratch.cand_bound;
            let order = &mut scratch.order;
            let pairs = &mut scratch.pairs;

            for rid in range {
                let out_before = pairs.len();
                let rset = r.set(rid as u32);
                let plen = r_lens[rid];
                if plen == 0 {
                    continue;
                }
                cand_sids.clear();
                cand_accum.clear();
                cand_bound.clear();

                for (i, (&rank, &w)) in rset.ranks()[..plen]
                    .iter()
                    .zip(&rset.weights()[..plen])
                    .enumerate()
                {
                    for &sid in s_index.postings(rank) {
                        stats.join_tuples += 1;
                        let sset = s.set(sid);
                        // Position of `rank` within the S set (binary search
                        // over the rank-sorted elements).
                        // A posting implies membership, so the search must
                        // succeed; degrade to skipping the posting rather
                        // than panicking if the index were ever inconsistent.
                        let Ok(j) = sset.ranks().binary_search(&rank) else {
                            debug_assert!(false, "posting without membership");
                            continue;
                        };
                        let k = if stamp[sid as usize] != rid as u32 {
                            stamp[sid as usize] = rid as u32;
                            slot[sid as usize] = cand_sids.len() as u32;
                            cand_sids.push(sid);
                            cand_accum.push(Weight::ZERO);
                            cand_bound.push(Weight::ZERO);
                            cand_sids.len() - 1
                        } else {
                            slot[sid as usize] as usize
                        };
                        cand_accum[k] += w;
                        // Bound from the positions *after* this match, using
                        // the arena's precomputed suffix weight tables.
                        let rem = rset.suffix_weight(i + 1).min(sset.suffix_weight(j + 1));
                        cand_bound[k] = cand_accum[k] + rem;
                    }
                }
                stats.candidate_pairs += cand_sids.len() as u64;

                // Verify in sid order for deterministic output.
                order.clear();
                order.extend(0..cand_sids.len() as u32);
                order.sort_unstable_by_key(|&k| cand_sids[k as usize]);
                for &k in order.iter() {
                    let k = k as usize;
                    let sid = cand_sids[k];
                    let sset = s.set(sid);
                    let required = pred.required_overlap(rset.norm(), sset.norm());
                    if cand_bound[k] < required {
                        continue; // positional prune: skip the merge
                    }
                    if ctx.bitmap_filter {
                        stats.bitmap_probes += 1;
                        if rset.wide_overlap_bound(sset) < required {
                            stats.bitmap_prunes += 1;
                            continue; // signature prune: skip the merge
                        }
                    }
                    stats.verified_pairs += 1;
                    // HAVING fused into the kernel: Some exactly when the
                    // overlap reaches `required`.
                    if let Some(overlap) = verify_overlap(rset, sset, required, &mut stats) {
                        pairs.push(JoinPair {
                            r: rid as u32,
                            s: sid,
                            overlap,
                        });
                    }
                }
                // Budget checkpoint: one per probe group, charging the
                // candidates generated and outputs emitted for this group.
                if !budget.checkpoint(cand_sids.len() as u64, (pairs.len() - out_before) as u64) {
                    break;
                }
            }
            stats
        })
    }
}

/// Positional-filter R×index probe against a borrowed, prebuilt S-prefix
/// index. Mirrors [`run`] but computes only the R-side prefix lengths; the
/// S-side lengths and index are owned by the caller's `CorpusIndex`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn probe_positional(
    r: &SetCollection,
    s: &SetCollection,
    s_index: &CsrIndex,
    s_prefix_tuples: u64,
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
        candidate_phase(r, s, s_index, r_lens, pred, ctx, budget, workers, out)
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

    fn build(groups: Vec<Vec<String>>, scheme: WeightScheme) -> SetCollection {
        let mut b = SsJoinInputBuilder::new(scheme, ElementOrder::FrequencyAsc);
        let h = b.add_relation(groups);
        b.build().unwrap().collection(h).clone()
    }

    fn random_groups(n: usize, vocab: usize) -> Vec<Vec<String>> {
        (0..n)
            .map(|i| {
                (0..(3 + (i * 7) % 6))
                    .map(|j| format!("v{}", (i * 13 + j * 17) % vocab))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn matches_inline_on_random_inputs() {
        for scheme in [WeightScheme::Unweighted, WeightScheme::Idf] {
            let c = build(random_groups(80, 47), scheme);
            for pred in [
                OverlapPredicate::absolute(2.0),
                OverlapPredicate::r_normalized(0.7),
                OverlapPredicate::two_sided(0.6),
            ] {
                let (mut a, _) = collect(|ws| {
                    super::super::inline::run(
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
    fn positional_prunes_verifications() {
        // One big set and many small sets all sharing the first-ordered
        // element "aaa". A (big, small) candidate has bound
        // 1 + min(9, 3) = 4, far below the required overlap 0.9·10 = 9, so
        // the positional filter skips its merge; the plain inline algorithm
        // verifies it.
        let mut groups: Vec<Vec<String>> = vec![std::iter::once("aaa".to_string())
            .chain((0..9).map(|i| format!("mm{i}")))
            .collect()];
        for i in 0..30 {
            groups.push(vec![
                "aaa".to_string(),
                format!("z{i}x"),
                format!("z{i}y"),
                format!("z{i}z"),
            ]);
        }
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::Lexicographic);
        let h = b.add_relation(groups);
        let c = b.build().unwrap().collection(h).clone();
        let pred = OverlapPredicate::two_sided(0.9);

        // The signature filter would prune these candidates too; switch it
        // off to isolate the positional bound.
        let ctx = ExecContext::new().with_bitmap_filter(false);
        let (mut inline_pairs, inline_stats) = collect(|ws| {
            super::super::inline::run(&c, &c, &pred, &ctx, &BudgetState::unlimited(), ws)
        });
        let (mut pairs, pos_stats) =
            collect(|ws| run(&c, &c, &pred, &ctx, &BudgetState::unlimited(), ws));
        assert_eq!(pos_stats.candidate_pairs, inline_stats.candidate_pairs);
        assert!(
            pos_stats.verified_pairs < inline_stats.verified_pairs,
            "positional {} vs inline {}",
            pos_stats.verified_pairs,
            inline_stats.verified_pairs
        );
        // And the results are identical.
        inline_pairs.sort_unstable_by_key(|p| (p.r, p.s));
        pairs.sort_unstable_by_key(|p| (p.r, p.s));
        assert_eq!(pairs, inline_pairs);
        assert!(pairs.iter().any(|p| p.r == 0 && p.s == 0));
    }

    #[test]
    fn parallel_matches_sequential() {
        let c = build(random_groups(64, 31), WeightScheme::Idf);
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

    #[test]
    fn empty_and_tiny_inputs() {
        let c = build(vec![vec!["only".to_string()]], WeightScheme::Unweighted);
        let (pairs, _) = collect(|ws| {
            run(
                &c,
                &c,
                &OverlapPredicate::absolute(1.0),
                &ExecContext::new(),
                &BudgetState::unlimited(),
                ws,
            )
        });
        assert_eq!(pairs.len(), 1);
    }
}
