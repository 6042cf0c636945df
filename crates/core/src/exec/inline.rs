//! Inline-representation SSJoin (Figure 9).
//!
//! Identical candidate generation to the prefix-filtered algorithm, but each
//! tuple passing the prefix filter conceptually *carries its whole group
//! inline* (§4.3.4), so verification is a single merge of two rank-sorted
//! arrays — no joins back to the base relations, no per-candidate hash table.
//! The paper finds this variant uniformly faster than the standard
//! prefix-filtered implementation and usually the best of the three.
//!
//! At `threads > 1` each worker takes a contiguous chunk of R groups and
//! dedups its candidates with its own stamp array, as the other executors do.
//! It runs as `prefix::run_prefix_family` with `inline` set.

#[cfg(test)]
mod tests {
    use super::super::prefix::{run_prefix_family, PrefixCaps};
    use super::super::workspace::JoinWorkspace;
    use super::super::{ExecContext, Sink};
    use crate::builder::{SsJoinInputBuilder, WeightScheme};
    use crate::exec::workspace::collect;
    use crate::order::ElementOrder;
    use crate::predicate::OverlapPredicate;
    use crate::set::SetCollection;
    use crate::stats::SsJoinStats;

    fn run(
        r: &SetCollection,
        s: &SetCollection,
        pred: &OverlapPredicate,
        ctx: &ExecContext,
        caps: Option<PrefixCaps<'_>>,
        sink: Sink<'_>,
        ws: &mut JoinWorkspace,
    ) -> SsJoinStats {
        run_prefix_family(r, s, pred, ctx, caps, true, sink, ws)
    }

    fn build(groups: Vec<Vec<String>>, scheme: WeightScheme) -> SetCollection {
        let mut b = SsJoinInputBuilder::new(scheme, ElementOrder::FrequencyAsc);
        let h = b.add_relation(groups);
        b.build().unwrap().collection(h).clone()
    }

    fn random_groups(n: usize, vocab: usize) -> Vec<Vec<String>> {
        (0..n)
            .map(|i| {
                (0..(2 + i % 6))
                    .map(|j| format!("v{}", (i * 13 + j * 17) % vocab))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn matches_prefix_filtered_and_basic() {
        let c = build(random_groups(70, 43), WeightScheme::Idf);
        for pred in [
            OverlapPredicate::absolute(1.5),
            OverlapPredicate::r_normalized(0.7),
            OverlapPredicate::two_sided(0.6),
            OverlapPredicate::s_normalized(0.8),
        ] {
            let (mut basic, _) = collect(|ws| {
                super::super::basic::run(&c, &c, &pred, &ExecContext::new(), Sink::Plain, ws)
            });
            let (mut prefix, _) = collect(|ws| {
                run_prefix_family(
                    &c,
                    &c,
                    &pred,
                    &ExecContext::new(),
                    None,
                    false,
                    Sink::Plain,
                    ws,
                )
            });
            let (mut inline, _) =
                collect(|ws| run(&c, &c, &pred, &ExecContext::new(), None, Sink::Plain, ws));
            basic.sort_unstable_by_key(|p| (p.r, p.s));
            prefix.sort_unstable_by_key(|p| (p.r, p.s));
            inline.sort_unstable_by_key(|p| (p.r, p.s));
            assert_eq!(basic, inline, "pred {pred:?}");
            assert_eq!(prefix, inline, "pred {pred:?}");
        }
    }

    #[test]
    fn verification_work_equals_candidates() {
        let c = build(random_groups(40, 19), WeightScheme::Unweighted);
        let pred = OverlapPredicate::two_sided(0.5);
        for filter in [false, true] {
            let ctx = ExecContext::new().with_bitmap_filter(filter);
            let (_, stats) = collect(|ws| run(&c, &c, &pred, &ctx, None, Sink::Plain, ws));
            // Every candidate is either pruned by its signature or merged.
            assert_eq!(
                stats.verified_pairs + stats.bitmap_prunes,
                stats.candidate_pairs,
                "filter {filter}"
            );
            assert!(stats.candidate_pairs > 0);
            if !filter {
                assert_eq!(stats.bitmap_probes, 0);
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let c = build(random_groups(64, 31), WeightScheme::Idf);
        let pred = OverlapPredicate::two_sided(0.5);
        let (mut p1, _) =
            collect(|ws| run(&c, &c, &pred, &ExecContext::new(), None, Sink::Plain, ws));
        let (mut p3, _) = collect(|ws| {
            run(
                &c,
                &c,
                &pred,
                &ExecContext::new().with_threads(3),
                None,
                Sink::Plain,
                ws,
            )
        });
        p1.sort_unstable_by_key(|p| (p.r, p.s));
        p3.sort_unstable_by_key(|p| (p.r, p.s));
        assert_eq!(p1, p3);
    }
}
