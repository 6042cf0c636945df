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
//!
//! A symmetric self-join takes the half path of [`super::run_probes`]: probe
//! `rid` walks each prefix rank's postings only below `rid`, so every
//! unordered off-diagonal pair is found, deduplicated, bitmap-probed and
//! merged once, and the lower triangle is mirrored into the full output.
//! The diagonal `(rid, rid)` is never a candidate:
//! [`super::Prune::diagonal`] decides it from the set's total. Every
//! qualifying pair leaves through [`super::Sink::emit`]. Under a
//! norm-ratio predicate over norm-sorted sets, each probe walks only its
//! partner window's id range of every list ([`super::Prune::window`]).

use super::prune::{bounds_into, join_bounds_into, Prune, SetBound};
use super::workspace::{CsrIndex, JoinWorkspace, WorkerScratch};
use super::{run_probes, symmetric_self_join, Buffers, ExecContext, Sink};
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
    out: &mut Vec<u32>,
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
        // A prefix is no longer than its set, whose length fits in u32.
        set.prefix_len(total.saturating_sub(lb)) as u32
    }));
}

/// Per-set prefix caps for each side of a join ([`crate::ssjoin_filtered`]):
/// set `i` of R keeps at most `r_caps[i]` prefix elements, set `j` of S at
/// most `s_caps[j]`.
pub(crate) type PrefixCaps<'a> = (&'a [u32], &'a [u32]);

/// Shorten each prefix length in `lens` to its set's cap; an empty prefix
/// stays empty.
fn apply_caps(lens: &mut [u32], caps: &[u32]) {
    for (len, &cap) in lens.iter_mut().zip(caps) {
        *len = (*len).min(cap);
    }
}

/// Allocating convenience wrapper over [`prefix_lengths_into`].
#[cfg(test)]
pub(crate) fn prefix_lengths(
    collection: &SetCollection,
    side: Side,
    pred: &OverlapPredicate,
    other_norms: Option<(f64, f64)>,
) -> Vec<u32> {
    let mut out = Vec::new();
    prefix_lengths_into(collection, side, pred, other_norms, &mut out);
    out
}

/// Candidate generation + verification shared by the prefix-filtered and
/// inline algorithms. `inline` selects merge-based verification; otherwise
/// the join-back emulation runs. `caps` shortens each side's prefixes.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_prefix_family(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    ctx: &ExecContext,
    caps: Option<PrefixCaps<'_>>,
    inline: bool,
    sink: Sink<'_>,
    ws: &mut JoinWorkspace,
) -> SsJoinStats {
    let mut stats = SsJoinStats::default();
    let half = symmetric_self_join(r, s, pred);
    let JoinWorkspace {
        s_index,
        r_lens,
        s_lens,
        r_bounds,
        s_bounds,
        workers,
        row_starts,
        out,
        ..
    } = ws;

    // Phase: prefix-filter (computing prefixes, the prefix index and the
    // per-set prune columns). Only the R-side lengths, the S-side prefix
    // index and the prune columns escape the phase; the S-side lengths are
    // consumed by the index build.
    timed_phase(&mut stats, Phase::PrefixFilter, |stats| {
        prefix_lengths_into(r, Side::R, pred, s.norm_range(), r_lens);
        if half {
            // One collection under a symmetric predicate: each side's lower
            // bound is the other's mirror image, so the lengths are equal
            // (only the caps may differ).
            s_lens.clone_from(r_lens);
        } else {
            prefix_lengths_into(s, Side::S, pred, r.norm_range(), s_lens);
        }
        if let Some((r_caps, s_caps)) = caps {
            apply_caps(r_lens, r_caps);
            apply_caps(s_lens, s_caps);
        }
        stats.prefix_tuples_r = r_lens.iter().map(|&l| l as u64).sum();
        stats.prefix_tuples_s = s_lens.iter().map(|&l| l as u64).sum();
        s_index.build(s, Some(s_lens));
        join_bounds_into(r, s, pred, half, r_bounds, s_bounds);
    });
    let r_bounds = if half { &*s_bounds } else { &*r_bounds };
    let prune = Prune::new(r, s, r_bounds, s_bounds, pred, ctx.bitmap_filter);
    let (s_index, r_lens) = (&*s_index, &*r_lens);

    // Phase: the SSJoin proper — prefix equi-join producing candidates, then
    // overlap recomputation per candidate.
    let out = (workers, out, row_starts);
    let inner = candidate_phase(r, s, s_index, r_lens, prune, ctx, inline, half, sink, out);
    stats.merge(&inner);
    stats
}

/// The SSJoin phase of the prefix family — prefix equi-join against an
/// already-built S-side prefix index, then overlap verification per
/// candidate. Shared by the fresh-build path ([`run_prefix_family`], which
/// builds `s_index` into the workspace first) and the persistent-index probe
/// path ([`probe_prefix_family`], which borrows `s_index` from a
/// [`crate::CorpusIndex`]). `half` selects the symmetric self-join's
/// lower-triangle walk ([`super::run_probes`]); `out` holds the workers,
/// the output and the half path's row offsets.
///
/// Each probe gathers its candidates in posting order, prunes them there,
/// and sorts only the survivors (on the edit join, about 0.5% of them).
#[allow(clippy::too_many_arguments)]
fn candidate_phase(
    r: &SetCollection,
    s: &SetCollection,
    s_index: &CsrIndex,
    r_lens: &[u32],
    prune: Prune<'_>,
    ctx: &ExecContext,
    inline: bool,
    half: bool,
    sink: Sink<'_>,
    buffers: Buffers<'_>,
) -> SsJoinStats {
    let probe = |range: std::ops::Range<usize>, scratch: &mut WorkerScratch| {
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
        let out = &mut scratch.out;

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
            // An empty prefix rules out the diagonal pair too: its set's
            // total misses the lowest requirement of any partner.
            let plen = r_lens[rid] as usize;
            if plen == 0 {
                continue;
            }
            let rset = r.set(rid as u32);
            let rid = rid as u32;
            let window = prune.window(rid, half);
            candidates.clear();
            for &rank in &rset.ranks()[..plen] {
                for &sid in s_index.postings_in(rank, window.clone()) {
                    stats.join_tuples += 1;
                    if stamp[sid as usize] != rid {
                        stamp[sid as usize] = rid;
                        candidates.push(sid);
                    }
                }
            }
            stats.candidate_pairs += candidates.len() as u64;
            // The signature bound rejects a candidate without reading its
            // set; only the survivors are sorted into `(r, s)` order.
            prune.retain(rid, candidates, &mut stats);
            candidates.sort_unstable();

            if inline {
                for &sid in candidates.iter() {
                    let sset = s.set(sid);
                    stats.verified_pairs += 1;
                    // The HAVING check is fused into the kernel: Some
                    // exactly when overlap >= required.
                    let required = prune.required(rid, sid);
                    if let Some(overlap) = verify_overlap(rset, sset, required, &mut stats) {
                        sink.emit(rid, sid, overlap, out, &mut stats);
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
                // Figure 9.) Pruned candidates skip the rebuild.
                for &sid in candidates.iter() {
                    let sset = s.set(sid);
                    r_table.clear();
                    for (&rank, &w) in rset.ranks().iter().zip(rset.weights().iter()) {
                        r_table.insert(rank, w);
                    }
                    let mut overlap = Weight::ZERO;
                    for rank in sset.ranks() {
                        if let Some(&w) = r_table.get(rank) {
                            overlap += w;
                        }
                    }
                    stats.verified_pairs += 1;
                    if overlap >= prune.required(rid, sid) {
                        sink.emit(rid, sid, overlap, out, &mut stats);
                    }
                }
            }
        }
        stats
    };
    // As in the probe loop, an empty prefix rules out the diagonal.
    let diagonal = |rid: u32| prune.diagonal(rid).filter(|_| r_lens[rid as usize] > 0);
    let n = r.len();
    run_probes(n, ctx.threads, half, sink, diagonal, buffers, probe)
}

/// Probe an already-built S-side prefix index: identical to
/// [`run_prefix_family`] except that the prefix-filter phase computes only
/// the R-side (probe batch) prefix lengths and prune column — the S side's
/// prefixes, index and prune column were fixed when the
/// [`crate::CorpusIndex`] was built, against a conservative partner-norm
/// interval, so the candidate set is a superset of the fresh build's and
/// verification makes the output identical. `s_prefix_tuples` reports the
/// stored index's prefix size into the stats.
#[allow(clippy::too_many_arguments)]
pub(crate) fn probe_prefix_family(
    r: &SetCollection,
    s: &SetCollection,
    s_index: &CsrIndex,
    s_prefix_tuples: u64,
    s_bounds: &[SetBound],
    pred: &OverlapPredicate,
    ctx: &ExecContext,
    inline: bool,
    ws: &mut JoinWorkspace,
) -> SsJoinStats {
    let mut stats = SsJoinStats::default();
    let JoinWorkspace {
        r_lens,
        r_bounds,
        workers,
        row_starts,
        out,
        ..
    } = ws;

    timed_phase(&mut stats, Phase::PrefixFilter, |stats| {
        prefix_lengths_into(r, Side::R, pred, s.norm_range(), r_lens);
        stats.prefix_tuples_r = r_lens.iter().map(|&l| l as u64).sum();
        stats.prefix_tuples_s = s_prefix_tuples;
        bounds_into(r, pred, Side::R, r_bounds);
    });
    let prune = Prune::new(r, s, r_bounds, s_bounds, pred, ctx.bitmap_filter);
    let r_lens = &*r_lens;
    let out = (workers, out, row_starts);
    let inner = candidate_phase(
        r,
        s,
        s_index,
        r_lens,
        prune,
        ctx,
        inline,
        false,
        Sink::Plain,
        out,
    );
    stats.merge(&inner);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{NormKind, SsJoinInputBuilder, WeightScheme};
    use crate::exec::workspace::collect;
    use crate::order::ElementOrder;

    fn run(
        r: &SetCollection,
        s: &SetCollection,
        pred: &OverlapPredicate,
        ctx: &ExecContext,
        caps: Option<PrefixCaps<'_>>,
        sink: Sink<'_>,
        ws: &mut JoinWorkspace,
    ) -> SsJoinStats {
        run_prefix_family(r, s, pred, ctx, caps, false, sink, ws)
    }

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
        let (pairs, _) =
            collect(|ws| run(&c, &c, &pred, &ExecContext::new(), None, Sink::Plain, ws));
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
                    super::super::basic::run(&c, &c, &pred, &ExecContext::new(), Sink::Plain, ws)
                });
                let (mut b, _) =
                    collect(|ws| run(&c, &c, &pred, &ExecContext::new(), None, Sink::Plain, ws));
                a.sort_unstable_by_key(|p| (p.r, p.s));
                b.sort_unstable_by_key(|p| (p.r, p.s));
                assert_eq!(a, b, "scheme {scheme:?} pred {pred:?}");
            }
        }
    }

    #[test]
    fn capped_prefixes_keep_every_pair_that_meets_in_both() {
        use crate::exec::symmetric_self_join;
        let groups: Vec<Vec<String>> = (0..60)
            .map(|i| {
                (0..(3 + i % 7))
                    .map(|j| format!("w{}", (i * 5 + j * 11) % 29))
                    .collect()
            })
            .collect();
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % (bound as u64 + 1)) as usize
        };
        let meets = |a: &[u32], b: &[u32]| a.iter().any(|x| b.contains(x));
        // Pairs the contract keeps, and qualifying pairs the caps dropped.
        let (mut kept, mut dropped) = (0, 0);
        for scheme in [WeightScheme::Unweighted, WeightScheme::Idf] {
            let c = build(groups.clone(), scheme);
            let other = c.clone();
            for pred in [
                OverlapPredicate::absolute(2.0),
                OverlapPredicate::two_sided(0.5),
                OverlapPredicate::r_normalized(0.6),
            ] {
                let ctx = ExecContext::new();
                let (all, _) =
                    collect(|ws| super::super::basic::run(&c, &c, &pred, &ctx, Sink::Plain, ws));
                let all: Vec<(u32, u32)> = all.iter().map(|p| (p.r, p.s)).collect();
                // One collection as both sides (the half path under a
                // symmetric predicate), and two equal ones (the full path).
                for s in [&c, &other] {
                    let half = symmetric_self_join(&c, s, &pred);
                    let r_lens = prefix_lengths(&c, Side::R, &pred, s.norm_range());
                    let s_lens = prefix_lengths(s, Side::S, &pred, c.norm_range());
                    let sizes: Vec<u32> = c.iter().map(|set| set.len() as u32).collect();
                    let random = |next: &mut dyn FnMut(usize) -> usize| {
                        sizes
                            .iter()
                            .map(|&n| next(n as usize + 1) as u32)
                            .collect::<Vec<_>>()
                    };
                    let (r_caps, s_caps) = (random(&mut next), random(&mut next));
                    for inline in [false, true] {
                        let at = format!("{scheme:?} {pred:?} half {half} inline {inline}");
                        let run = |r_caps: &[u32], s_caps: &[u32]| {
                            let caps = Some((r_caps, s_caps));
                            collect(|ws| {
                                run_prefix_family(&c, s, &pred, &ctx, caps, inline, Sink::Plain, ws)
                            })
                        };
                        let (pairs, _) = run(&r_caps, &s_caps);
                        let got: Vec<(u32, u32)> = pairs.iter().map(|p| (p.r, p.s)).collect();
                        assert!(got.iter().all(|p| all.contains(p)), "{at}");
                        dropped += all.len() - got.len();
                        for &(i, j) in &all {
                            // On the half path the later set probes.
                            let (a, b) = if half { (i.max(j), i.min(j)) } else { (i, j) };
                            let (a, b) = (a as usize, b as usize);
                            let pa = &c.set(a as u32).ranks()[..r_lens[a].min(r_caps[a]) as usize];
                            let pb = &s.set(b as u32).ranks()[..s_lens[b].min(s_caps[b]) as usize];
                            if meets(pa, pb) {
                                assert!(got.contains(&(i, j)), "{at}: ({i}, {j}) lost");
                                kept += 1;
                            }
                        }
                        // Caps no shorter than the sets change nothing.
                        let (pairs, capped) = run(&sizes, &sizes);
                        let (plain, uncapped) = collect(|ws| {
                            run_prefix_family(&c, s, &pred, &ctx, None, inline, Sink::Plain, ws)
                        });
                        assert_eq!(pairs, plain, "{at}");
                        let counters = |st: &SsJoinStats| {
                            (st.prefix_tuples_r, st.prefix_tuples_s, st.join_tuples)
                        };
                        assert_eq!(counters(&capped), counters(&uncapped), "{at}");
                    }
                }
            }
        }
        assert!(kept > 0 && dropped > 0, "kept {kept} dropped {dropped}");
    }

    /// A symmetric self-join computes its prefix lengths once, for R, and
    /// reuses them for S; they equal S's own under every symmetric shape.
    #[test]
    fn symmetric_predicates_give_both_sides_equal_lengths() {
        use crate::predicate::NormExpr;
        let groups: Vec<Vec<String>> = (0..80)
            .map(|i| {
                (0..(1 + i % 9))
                    .map(|j| format!("w{}", (i * 7 + j * 13) % 31))
                    .collect()
            })
            .collect();
        let boxed = Box::new;
        // Property 4's `max(R.norm, S.norm)·c − k` and cosine's
        // `t · R.norm · S.norm`.
        let property_4 = OverlapPredicate::new(vec![NormExpr::Sub(
            boxed(NormExpr::Mul(
                boxed(NormExpr::Max(
                    boxed(NormExpr::RNorm),
                    boxed(NormExpr::SNorm),
                )),
                boxed(NormExpr::Const(0.6)),
            )),
            boxed(NormExpr::Const(1.0)),
        )]);
        let cosine = OverlapPredicate::new(vec![NormExpr::Mul(
            boxed(NormExpr::Const(0.7)),
            boxed(NormExpr::Mul(
                boxed(NormExpr::RNorm),
                boxed(NormExpr::SNorm),
            )),
        )]);
        // Sets with a non-empty prefix, per predicate.
        let mut reached = [0usize; 4];
        for (scheme, norm) in [
            (WeightScheme::Unweighted, NormKind::Cardinality),
            (WeightScheme::Idf, NormKind::TotalWeight),
            (WeightScheme::IdfSquared, NormKind::SqrtTotalWeight),
        ] {
            let mut b = SsJoinInputBuilder::new(scheme, ElementOrder::FrequencyAsc);
            let h = b.add_relation_with_norm(groups.clone(), norm.clone());
            let c = b.build().unwrap().collection(h).clone();
            let preds = [
                OverlapPredicate::two_sided(0.6),
                OverlapPredicate::absolute(2.0),
                property_4.clone(),
                cosine.clone(),
            ];
            for (pred, reached) in preds.iter().zip(&mut reached) {
                let at = format!("{scheme:?} {norm:?} {pred:?}");
                assert!(pred.is_symmetric(), "{at}");
                let r_lens = prefix_lengths(&c, Side::R, pred, c.norm_range());
                let s_lens = prefix_lengths(&c, Side::S, pred, c.norm_range());
                assert_eq!(r_lens, s_lens, "{at}");
                *reached += r_lens.iter().filter(|&&l| l > 0).count();
                // The half path reports S's own prefix size.
                let (_, stats) =
                    collect(|ws| run(&c, &c, pred, &ExecContext::new(), None, Sink::Plain, ws));
                let total: u64 = s_lens.iter().map(|&l| u64::from(l)).sum();
                assert_eq!(stats.prefix_tuples_s, total, "{at}");
            }
        }
        assert!(reached.iter().all(|&n| n > 0), "{reached:?}");
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
            super::super::basic::run(&c, &c, &pred, &ExecContext::new(), Sink::Plain, ws)
        });
        let (_, prefix_stats) =
            collect(|ws| run(&c, &c, &pred, &ExecContext::new(), None, Sink::Plain, ws));
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
        let (mut p1, _) =
            collect(|ws| run(&c, &c, &pred, &ExecContext::new(), None, Sink::Plain, ws));
        let (mut p4, _) = collect(|ws| {
            run(
                &c,
                &c,
                &pred,
                &ExecContext::new().with_threads(4),
                None,
                Sink::Plain,
                ws,
            )
        });
        p1.sort_unstable_by_key(|p| (p.r, p.s));
        p4.sort_unstable_by_key(|p| (p.r, p.s));
        assert_eq!(p1, p4);
    }
}
