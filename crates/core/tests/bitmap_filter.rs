//! Bitmap-filter invariance across every executor and the persistent-index
//! probe path: turning the 8-word signature filter on must never change the
//! emitted pairs, only the counters — and the counters must balance
//! exactly: the filter probes every pair the unfiltered run verified, and
//! each of those is either verified or bitmap-pruned by the filtered run.

use ssjoin_core::{
    ssjoin, Algorithm, CorpusIndex, ElementOrder, JoinWorkspace, OverlapPredicate, SetCollection,
    SsJoinConfig, SsJoinInputBuilder, Weight, WeightScheme,
};
use ssjoin_prng::{Rng, StdRng};

const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Basic,
    Algorithm::PrefixFiltered,
    Algorithm::Inline,
    Algorithm::PositionalInline,
    Algorithm::Auto,
];

/// A collision-heavy Idf corpus: 120 groups of 3–7 tokens from a 61-token
/// vocabulary, the same shape as the token-sharded executor's
/// `bitmap_filter_prunes_without_changing_output` unit workload.
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
/// balancing counters. `Auto` plans its own filter configuration (possibly
/// overriding the forced one), so for it only output invariance and the
/// recorded plan are asserted. A probe with a pending epoch tail verifies
/// the tail brute-force, outside the filter, so `tail` relaxes the probe
/// count to an upper bound. Returns the filtered run's prunes.
fn check_balance(
    what: &str,
    alg: Algorithm,
    tail: bool,
    base: (&[ssjoin_core::JoinPair], u64),
    out: (&[ssjoin_core::JoinPair], &ssjoin_core::SsJoinStats),
) -> u64 {
    let (base_pairs, base_verified) = base;
    let (pairs, st) = out;
    assert_eq!(base_pairs, pairs, "{what}: filter changed output");
    if alg == Algorithm::Auto {
        assert!(st.plan.is_some(), "{what}: auto run without a plan");
        return 0;
    }
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
            let plain_cfg = SsJoinConfig::new(alg).with_threads(threads);
            let base = ssjoin(&c, &c, &pred, &plain_cfg).unwrap();
            let cfg = plain_cfg.with_bitmap_filter(true);
            let out = ssjoin(&c, &c, &pred, &cfg).unwrap();
            let prunes = check_balance(
                &format!("alg {alg:?}, threads {threads}"),
                alg,
                false,
                (&base.pairs, base.stats.verified_pairs),
                (&out.pairs, &out.stats),
            );
            assert!(
                alg == Algorithm::Auto || prunes > 0,
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
    let mut index = CorpusIndex::build(c.clone(), pred.clone()).unwrap();
    let mut check_all = |index: &CorpusIndex, stage: &str| {
        for alg in ALGORITHMS {
            for threads in [1usize, 2, 4] {
                let plain_cfg = SsJoinConfig::new(alg).with_threads(threads);
                let base = index.probe(&c, &plain_cfg, &mut ws).unwrap();
                let base_pairs = base.pairs.to_vec();
                let base_verified = base.stats.verified_pairs;
                let cfg = plain_cfg.with_bitmap_filter(true);
                let out = index.probe(&c, &cfg, &mut ws).unwrap();
                let prunes = check_balance(
                    &format!("{stage}: alg {alg:?}, threads {threads}"),
                    alg,
                    index.pending() > 0,
                    (&base_pairs, base_verified),
                    (out.pairs, &out.stats),
                );
                assert!(
                    alg == Algorithm::Auto || prunes > 0,
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
        let elems: Vec<(u32, Weight)> = set
            .ranks()
            .iter()
            .copied()
            .zip(set.weights().iter().copied())
            .collect();
        index.insert(&elems, set.norm()).unwrap();
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
