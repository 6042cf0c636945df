//! Bitmap-filter invariance across every executor and the persistent-index
//! probe path: the 8-word signature filter (on by default) must never change
//! the emitted pairs relative to `with_bitmap_filter(false)`, only the
//! counters — and the counters must balance exactly: the filter probes every
//! pair the unfiltered run verified, and each of those is either verified or
//! bitmap-pruned by the filtered run.

use ssjoin_core::{
    ssjoin, Algorithm, CorpusIndex, ElementOrder, ExecContext, JoinWorkspace, NormExpr, NormKind,
    OverlapPredicate, SetCollection, SsJoinConfig, SsJoinInputBuilder, WeightScheme,
};
use ssjoin_prng::{Rng, StdRng};

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::Basic,
    Algorithm::PrefixFiltered,
    Algorithm::Inline,
];

/// A collision-heavy Idf corpus: 120 groups of 3–7 tokens from a 61-token
/// vocabulary.
fn corpus() -> SetCollection {
    let mut rng = StdRng::seed_from_u64(0xB17F);
    let groups: Vec<Vec<String>> = (0..120)
        .map(|_| {
            let len = rng.gen_range(3usize..8);
            (0..len)
                .map(|_| format!("t{}", rng.gen_range(0u32..61)))
                .collect()
        })
        .collect();
    let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
    let h = b.add_relation(groups);
    b.build().unwrap().collection(h).clone()
}

/// Check one filtered run against its unfiltered twin: identical pairs and
/// balancing counters. A probe with a pending epoch tail verifies the
/// tail brute-force, outside the filter, so `tail` relaxes the probe
/// count to an upper bound. Returns the filtered run's prunes.
fn check_balance(
    what: &str,
    tail: bool,
    base: (&[ssjoin_core::JoinPair], u64),
    out: (&[ssjoin_core::JoinPair], &ssjoin_core::SsJoinStats),
) -> u64 {
    let (base_pairs, base_verified) = base;
    let (pairs, st) = out;
    assert_eq!(base_pairs, pairs, "{what}: filter changed output");
    if tail {
        assert!(
            st.bitmap_probes <= base_verified,
            "{what}: probes exceed verifications"
        );
    } else {
        assert_eq!(
            st.bitmap_probes, base_verified,
            "{what}: the filter must probe exactly the unfiltered verification set"
        );
    }
    assert_eq!(
        st.verified_pairs + st.bitmap_prunes,
        base_verified,
        "{what}: verified + pruned must balance the unfiltered verifications"
    );
    st.bitmap_prunes
}

/// Every executor at 1, 2, and 4 threads: filter on emits identical pairs,
/// probes exactly the pairs the unfiltered run verified, the
/// verified/pruned split balances, and the filter prunes on this workload.
#[test]
fn bitmap_filter_prunes_without_changing_output_all_executors() {
    let c = corpus();
    let pred = OverlapPredicate::two_sided(0.8);
    for alg in ALGORITHMS {
        for threads in [1usize, 2, 4] {
            let cfg = SsJoinConfig::new(alg).with_exec(ExecContext::new().with_threads(threads));
            let plain_cfg = cfg
                .clone()
                .with_exec(cfg.exec.clone().with_bitmap_filter(false));
            let base = ssjoin(&c, &c, &pred, &plain_cfg).unwrap();
            let out = ssjoin(&c, &c, &pred, &cfg).unwrap();
            let prunes = check_balance(
                &format!("alg {alg:?}, threads {threads}"),
                false,
                (&base.pairs, base.stats.verified_pairs),
                (&out.pairs, &out.stats),
            );
            assert!(
                prunes > 0,
                "alg {alg:?}, threads {threads}: the filter never pruned"
            );
        }
    }
}

/// The `CorpusIndex::probe` path under the same invariants, at 1, 2, and 4
/// threads, on a fresh index and again after insert/delete/compact churn.
#[test]
fn bitmap_filter_prunes_without_changing_probe_output() {
    let c = corpus();
    let pred = OverlapPredicate::two_sided(0.8);
    let mut ws = JoinWorkspace::new();
    let mut index = CorpusIndex::build(c.clone(), pred.clone(), &ExecContext::new()).unwrap();
    let mut check_all = |index: &CorpusIndex, stage: &str| {
        for alg in ALGORITHMS {
            for threads in [1usize, 2, 4] {
                let cfg =
                    SsJoinConfig::new(alg).with_exec(ExecContext::new().with_threads(threads));
                let plain_cfg = cfg
                    .clone()
                    .with_exec(cfg.exec.clone().with_bitmap_filter(false));
                let base = index.probe(&c, &plain_cfg, &mut ws).unwrap();
                let base_pairs = base.pairs.to_vec();
                let base_verified = base.stats.verified_pairs;
                let out = index.probe(&c, &cfg, &mut ws).unwrap();
                let prunes = check_balance(
                    &format!("{stage}: alg {alg:?}, threads {threads}"),
                    index.pending() > 0,
                    (&base_pairs, base_verified),
                    (out.pairs, &out.stats),
                );
                assert!(
                    prunes > 0,
                    "{stage}: alg {alg:?}, threads {threads}: probe never pruned"
                );
            }
        }
    };
    check_all(&index, "fresh");

    // Churn: copies of live sets land in the epoch tail, some indexed and
    // some tail sets are tombstoned; then the tail is merged, more indexed
    // sets are tombstoned, and everything is compacted.
    for id in 0..12u32 {
        let set = c.set(id * 7);
        index.insert(set.ranks(), set.norm()).unwrap();
    }
    for id in [3u32, 40, 77, 121, 125] {
        index.delete(id).unwrap();
    }
    assert!(index.pending() > 0, "inserts must stay in the epoch tail");
    check_all(&index, "after insert/delete");
    index.merge_epoch();
    for id in [10u32, 50, 123] {
        index.delete(id).unwrap();
    }
    check_all(&index, "after merge/delete");
    index.compact().unwrap();
    check_all(&index, "after compact");
}

/// The edit join's shape: q-gram sets of address-like strings, string-length
/// norms, and the Property-4 predicate at θ = 0.85
/// (`Overlap ≥ max(|r|, |s|)·(1 − 0.15·3) − 2`). Most candidates share only a
/// few frequent q-grams, so the default context's filter must prune, and it
/// must emit exactly the pairs of the unfiltered run.
#[test]
fn default_filter_prunes_qgram_edit_candidates() {
    let mut rng = StdRng::seed_from_u64(0x9A3);
    let streets = ["main st", "oak ave", "elm street", "park road", "lake dr"];
    let mut strings: Vec<String> = (0..300)
        .map(|_| {
            format!(
                "{} {} apt {}",
                rng.gen_range(1u32..400),
                streets[rng.gen_range(0..streets.len())],
                rng.gen_range(1u32..40)
            )
        })
        .collect();
    // Near-duplicates: one substituted character each.
    for i in 0..60 {
        let mut chars: Vec<char> = strings[i].chars().collect();
        let at = rng.gen_range(0..chars.len());
        chars[at] = 'x';
        strings.push(chars.into_iter().collect());
    }
    let qgrams = |s: &str| -> Vec<String> {
        let padded: Vec<char> = format!("##{s}$$").chars().collect();
        padded.windows(3).map(|w| w.iter().collect()).collect()
    };
    let norms: Vec<f64> = strings.iter().map(|s| s.chars().count() as f64).collect();
    let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
    let h = b.add_relation_with_norm(
        strings.iter().map(|s| qgrams(s)).collect(),
        NormKind::Custom(norms),
    );
    let c = b.build().unwrap().collection(h).clone();
    let (q, alpha) = (3.0, 0.85);
    let pred = OverlapPredicate::new(vec![NormExpr::Sub(
        Box::new(NormExpr::Mul(
            Box::new(NormExpr::Max(
                Box::new(NormExpr::RNorm),
                Box::new(NormExpr::SNorm),
            )),
            Box::new(NormExpr::Const(1.0 - (1.0 - alpha) * q)),
        )),
        Box::new(NormExpr::Const(q - 1.0)),
    )]);
    for threads in [1usize, 2, 4] {
        let cfg = SsJoinConfig::new(Algorithm::Inline)
            .with_exec(ExecContext::new().with_threads(threads));
        assert!(cfg.exec.bitmap_filter, "the filter is on by default");
        let out = ssjoin(&c, &c, &pred, &cfg).unwrap();
        let base = ssjoin(
            &c,
            &c,
            &pred,
            &cfg.clone()
                .with_exec(cfg.exec.clone().with_bitmap_filter(false)),
        )
        .unwrap();
        let prunes = check_balance(
            &format!("q-gram edit, threads {threads}"),
            false,
            (&base.pairs, base.stats.verified_pairs),
            (&out.pairs, &out.stats),
        );
        assert!(prunes > 0, "threads {threads}: the filter never pruned");
        assert!(base.pairs.len() > strings.len(), "the join found no pairs");
    }
}
