//! Out-of-core acceptance suite: a join run with
//! [`ExecBudget::max_resident_bytes`] set below the memory estimate must
//! complete via token-range spill with output **bit-identical** to the
//! unbudgeted in-memory run — across predicates, self- and two-relation
//! joins, partition counts (driven by the budget), executors, bitmap filter
//! settings, and thread counts.

use ssjoin_core::{
    estimate_memory_bytes, plan_spill, ssjoin, Algorithm, CorpusIndex, ElementOrder, ExecBudget,
    ExecContext, JoinPair, JoinWorkspace, OverlapPredicate, SetCollection, SsJoinConfig,
    SsJoinInputBuilder, WeightScheme,
};
use ssjoin_prng::{Rng, StdRng};
fn corpus(seed: u64, groups: usize, vocab: u32) -> SetCollection {
    let mut rng = StdRng::seed_from_u64(seed);
    let groups: Vec<Vec<String>> = (0..groups)
        .map(|_| {
            let len = rng.gen_range(3usize..9);
            (0..len)
                .map(|_| format!("t{}", rng.gen_range(0u32..vocab)))
                .collect()
        })
        .collect();
    let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
    let h = b.add_relation(groups);
    b.build().unwrap().collection(h).clone()
}

fn keyed(pairs: &[JoinPair]) -> Vec<(u32, u32, u64)> {
    pairs.iter().map(|p| (p.r, p.s, p.overlap.raw())).collect()
}

/// Budgets that force progressively more partitions, derived from the
/// spill planner itself so each really does plan a distinct partition
/// count where the corpus allows it.
fn partition_forcing_budgets(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
) -> Vec<(usize, u64)> {
    let est = estimate_memory_bytes(r, s);
    let mut out = Vec::new();
    for div in [2u64, 4, 8, 32] {
        let budget = (est / div).max(1);
        if let Some(plan) = plan_spill(r, s, pred, budget) {
            out.push((plan.partitions(), budget));
        }
    }
    out.dedup_by_key(|&mut (p, _)| p);
    out
}

/// Two relations over one element universe, from the same generator as
/// [`corpus`]; every third S group is an R group with its last token
/// replaced, so the join has near-duplicate pairs at every predicate.
fn corpus_pair(
    seed: u64,
    r_groups: usize,
    s_groups: usize,
    vocab: u32,
) -> (SetCollection, SetCollection) {
    let mut rng = StdRng::seed_from_u64(seed);
    let group = |rng: &mut StdRng| -> Vec<String> {
        let len = rng.gen_range(3usize..9);
        (0..len)
            .map(|_| format!("t{}", rng.gen_range(0u32..vocab)))
            .collect()
    };
    let rg: Vec<Vec<String>> = (0..r_groups).map(|_| group(&mut rng)).collect();
    let sg: Vec<Vec<String>> = (0..s_groups)
        .map(|i| match rg.get(i / 3).filter(|_| i % 3 == 0) {
            Some(src) => {
                let mut near = src.clone();
                if let Some(last) = near.last_mut() {
                    *last = format!("t{}", rng.gen_range(0u32..vocab));
                }
                near
            }
            None => group(&mut rng),
        })
        .collect();
    let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
    let (rh, sh) = (b.add_relation(rg), b.add_relation(sg));
    let built = b.build().unwrap();
    (built.collection(rh).clone(), built.collection(sh).clone())
}

/// The tentpole property: spilled ≡ resident, bit for bit, across
/// predicates × join shapes × partition counts × executors × bitmap filter
/// × threads. Sets are routed by their prefix, so every predicate shape
/// matters: the R-normalized and S-normalized predicates give a set
/// different prefixes in its R and S roles (a self-join must route by the
/// longer), and an absolute overlap bound ignores norms entirely.
#[test]
fn spilled_output_bit_identical_to_resident() {
    let c = corpus(0x59111, 260, 151);
    let (r, s) = corpus_pair(0x5911a, 180, 240, 151);
    for pred in [
        OverlapPredicate::two_sided(0.7),
        OverlapPredicate::r_normalized(0.6),
        OverlapPredicate::s_normalized(0.6),
        OverlapPredicate::absolute(2.0),
    ] {
        for (what, r, s) in [("self-join", &c, &c), ("R != S", &r, &s)] {
            let budgets = partition_forcing_budgets(r, s, &pred);
            assert!(
                budgets.len() >= 2,
                "{what} {pred:?}: too few partition counts: {budgets:?}"
            );
            for alg in [
                Algorithm::Basic,
                Algorithm::PrefixFiltered,
                Algorithm::Inline,
            ] {
                for threads in [1usize, 3] {
                    for filter in [false, true] {
                        let cfg = SsJoinConfig::new(alg).with_exec(
                            ExecContext::new()
                                .with_threads(threads)
                                .with_bitmap_filter(filter),
                        );
                        let base = ssjoin(r, s, &pred, &cfg).unwrap();
                        assert_eq!(base.stats.spill_partitions, 0, "unbudgeted run spilled");
                        assert!(!base.pairs.is_empty(), "{what} {pred:?}: no pairs to lose");
                        for &(partitions, budget) in &budgets {
                            let bcfg =
                                cfg.clone().with_exec(cfg.exec.clone().with_budget(
                                    ExecBudget::new().with_max_resident_bytes(budget),
                                ));
                            let out = ssjoin(r, s, &pred, &bcfg).unwrap();
                            assert_eq!(
                                keyed(&base.pairs),
                                keyed(&out.pairs),
                                "{what} {pred:?} alg {alg:?} threads {threads} filter {filter} \
                                 partitions {partitions}: spilled output diverged"
                            );
                            assert_eq!(
                                out.stats.spill_partitions, partitions as u64,
                                "{what} {pred:?} alg {alg:?} budget {budget}: \
                                 ran a different plan than planned"
                            );
                            assert!(out.stats.spill_bytes > 0, "spilled run built no partition");
                            assert!(out.stats.spill_peak_resident_bytes > 0);
                        }
                    }
                }
            }
        }
    }
}

/// A budget ABOVE the estimate must not spill: `max_resident_bytes` is a
/// strategy knob, not a cap, and at-or-over-estimate budgets stay resident.
#[test]
fn generous_resident_budget_stays_in_memory() {
    let c = corpus(0x59112, 80, 67);
    let pred = OverlapPredicate::two_sided(0.75);
    let est = estimate_memory_bytes(&c, &c);
    let cfg = SsJoinConfig::new(Algorithm::Inline)
        .with_exec(ExecContext::new().with_budget(ExecBudget::new().with_max_resident_bytes(est)));
    let out = ssjoin(&c, &c, &pred, &cfg).unwrap();
    assert_eq!(out.stats.spill_partitions, 0);
    assert_eq!(out.stats.spill_bytes, 0);
}

/// An asymmetric (non-self) join spills correctly too: both sides are
/// copied per partition and the result matches the resident run.
#[test]
fn asymmetric_spilled_join_matches_resident() {
    let mut rng = StdRng::seed_from_u64(0x59113);
    let mut gen_side = |n: usize| -> Vec<Vec<String>> {
        (0..n)
            .map(|_| {
                let len = rng.gen_range(2usize..7);
                (0..len)
                    .map(|_| format!("w{}", rng.gen_range(0u32..89)))
                    .collect()
            })
            .collect()
    };
    let r_groups = gen_side(140);
    let s_groups = gen_side(200);
    let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
    let rh = b.add_relation(r_groups);
    let sh = b.add_relation(s_groups);
    let built = b.build().unwrap();
    let (r, s) = (built.collection(rh), built.collection(sh));
    let pred = OverlapPredicate::two_sided(0.65);
    let base = ssjoin(r, s, &pred, &SsJoinConfig::default()).unwrap();
    let est = estimate_memory_bytes(r, s);
    for div in [3u64, 10] {
        let cfg = SsJoinConfig::default().with_exec(
            ExecContext::new()
                .with_budget(ExecBudget::new().with_max_resident_bytes((est / div).max(1))),
        );
        let out = ssjoin(r, s, &pred, &cfg).unwrap();
        assert_eq!(keyed(&base.pairs), keyed(&out.pairs), "div {div}");
        assert!(out.stats.spill_partitions >= 2, "div {div} did not spill");
    }
}

/// A self-join handed the same collection twice — `ssjoin(&c, &c, ..)`, as
/// every packaged join runs a same-slice call — copies one side per
/// partition: the same pairs as the two-copy join `ssjoin(&c,
/// &c.clone(), ..)` under the same budget, with fewer spill bytes.
#[test]
fn same_collection_self_join_spills_one_side() {
    let c = corpus(0x59114, 400, 151);
    let copy = c.clone();
    let est = estimate_memory_bytes(&c, &c);
    for pred in [
        OverlapPredicate::two_sided(0.7),
        OverlapPredicate::r_normalized(0.6),
    ] {
        for div in [4u64, 8] {
            let cfg = SsJoinConfig::default().with_exec(
                ExecContext::new()
                    .with_budget(ExecBudget::new().with_max_resident_bytes(est / div)),
            );
            let one = ssjoin(&c, &c, &pred, &cfg).unwrap();
            let two = ssjoin(&c, &copy, &pred, &cfg).unwrap();
            assert!(!one.pairs.is_empty(), "{pred:?}: no pairs to compare");
            assert_eq!(keyed(&one.pairs), keyed(&two.pairs), "{pred:?} div {div}");
            assert!(
                one.stats.spill_partitions >= 2 && two.stats.spill_partitions >= 2,
                "{pred:?} div {div} did not spill"
            );
            assert!(
                one.stats.spill_bytes < two.stats.spill_bytes,
                "{pred:?} div {div}: one side spilled {} bytes, two copies {}",
                one.stats.spill_bytes,
                two.stats.spill_bytes
            );
        }
    }
}

/// A spilled run's planned per-partition peak sits below the full-input
/// estimate, and the run takes that plan.
#[test]
fn spilled_run_plans_a_peak_below_the_estimate() {
    let c = corpus(0x59116, 220, 131);
    let pred = OverlapPredicate::two_sided(0.7);
    let est = estimate_memory_bytes(&c, &c);
    let resident_budget = est / 4;
    let plan = plan_spill(&c, &c, &pred, resident_budget).expect("splittable corpus");
    let peak = plan.peak_resident_bytes();
    assert!(peak < est, "partitioning should shrink the resident peak");
    let cfg = SsJoinConfig::default().with_exec(
        ExecContext::new().with_budget(ExecBudget::new().with_max_resident_bytes(resident_budget)),
    );
    let out = ssjoin(&c, &c, &pred, &cfg).unwrap();
    assert!(out.stats.spill_partitions >= 2);
    assert_eq!(out.stats.spill_peak_resident_bytes, peak);
}

/// Workspace reuse across spilled runs: the same workspace serves spilled
/// and resident runs interchangeably with identical output.
#[test]
fn workspace_survives_spilled_and_resident_interleaving() {
    let c = corpus(0x59117, 180, 101);
    let pred = OverlapPredicate::two_sided(0.7);
    let est = estimate_memory_bytes(&c, &c);
    let mut ws = ssjoin_core::JoinWorkspace::new();
    let resident_cfg = SsJoinConfig::default();
    let spill_cfg = SsJoinConfig::default().with_exec(
        ExecContext::new().with_budget(ExecBudget::new().with_max_resident_bytes(est / 4)),
    );
    let base = keyed(
        ssjoin_core::ssjoin_with(&c, &c, &pred, &resident_cfg, &mut ws)
            .unwrap()
            .pairs,
    );
    for round in 0..3 {
        let spilled = keyed(
            ssjoin_core::ssjoin_with(&c, &c, &pred, &spill_cfg, &mut ws)
                .unwrap()
                .pairs,
        );
        assert_eq!(base, spilled, "round {round} spilled diverged");
        let resident = keyed(
            ssjoin_core::ssjoin_with(&c, &c, &pred, &resident_cfg, &mut ws)
                .unwrap()
                .pairs,
        );
        assert_eq!(base, resident, "round {round} resident diverged");
    }
}

/// A probe whose own context carries a resident budget below its estimate
/// is served out of core, exactly as a one-shot join spills — bit-identical
/// pairs, tombstones filtered, epoch-tail inserts visible.
#[test]
fn index_probe_spills_under_memory_budget() {
    let c = corpus(0x59118, 200, 127);
    let pred = OverlapPredicate::two_sided(0.7);
    let est = estimate_memory_bytes(&c, &c);
    let mut index = CorpusIndex::build(c.clone(), pred, &ExecContext::new()).unwrap();
    let mut ws = JoinWorkspace::new();
    let resident = SsJoinConfig::default();
    let budgeted = SsJoinConfig::default().with_exec(
        ExecContext::new().with_budget(ExecBudget::new().with_max_resident_bytes(est / 4)),
    );
    let mut check = |index: &CorpusIndex, what: &str| {
        let base = {
            let run = index.probe(&c, &resident, &mut ws).unwrap();
            assert_eq!(run.stats.spill_partitions, 0, "{what}");
            keyed(run.pairs)
        };
        let run = index.probe(&c, &budgeted, &mut ws).unwrap();
        assert!(
            run.stats.spill_partitions >= 2,
            "{what}: budgeted probe stayed resident"
        );
        assert_eq!(base, keyed(run.pairs), "{what}: spilled probe diverged");
    };
    check(&index, "fresh");
    // Tombstones plus an epoch-tail insert (a copy of set 0, which certainly
    // matches itself).
    let elems = c.set(0).ranks().to_vec();
    for idx in [3u32, 17, 42] {
        index.delete(idx).unwrap();
    }
    index.insert(&elems, c.set(0).norm()).unwrap();
    assert!(
        index.pending() > 0,
        "the insert must stay in the epoch tail"
    );
    check(&index, "mutated");
}
