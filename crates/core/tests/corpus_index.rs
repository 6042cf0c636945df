//! Property tests for the persistent [`CorpusIndex`]: probes must be
//! indistinguishable from fresh [`ssjoin`] runs across every executor and
//! thread count, and any insert/delete sequence must be equivalent to a
//! fresh rebuild over the surviving sets. Inputs are driven by a seeded PRNG
//! so every failure is reproducible from the iteration's seed.

use ssjoin_core::{
    ssjoin, Algorithm, CancelToken, CorpusIndex, CorpusIndexOptions, ElementOrder, ExecBudget,
    ExecContext, JoinPair, JoinWorkspace, NormKind, OverlapPredicate, SetCollection, SsJoinConfig,
    SsJoinError, SsJoinInputBuilder, Weight, WeightScheme,
};
use ssjoin_prng::{Rng, StdRng};

const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Basic,
    Algorithm::PrefixFiltered,
    Algorithm::Inline,
    Algorithm::PositionalInline,
    Algorithm::Auto,
];

/// 1–19 groups of 0–7 single-letter tokens from a 10-letter alphabet —
/// small enough for the oracle, collision-heavy enough to exercise every
/// code path.
fn random_groups(rng: &mut StdRng) -> Vec<Vec<String>> {
    let n = rng.gen_range(1usize..20);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(0usize..8);
            (0..len)
                .map(|_| {
                    let c = b'a' + rng.gen_range(0u8..10);
                    (c as char).to_string()
                })
                .collect()
        })
        .collect()
}

fn random_predicate(rng: &mut StdRng) -> OverlapPredicate {
    match rng.gen_range(0u32..4) {
        0 => OverlapPredicate::absolute(0.5 + 3.5 * rng.gen_f64()),
        1 => OverlapPredicate::r_normalized(0.1 + 0.9 * rng.gen_f64()),
        2 => OverlapPredicate::s_normalized(0.1 + 0.9 * rng.gen_f64()),
        _ => OverlapPredicate::two_sided(0.1 + 0.9 * rng.gen_f64()),
    }
}

fn build_two(
    r_groups: Vec<Vec<String>>,
    s_groups: Vec<Vec<String>>,
) -> (SetCollection, SetCollection) {
    let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
    let rh = b.add_relation(r_groups);
    let sh = b.add_relation(s_groups);
    let built = b.build().unwrap();
    (built.collection(rh).clone(), built.collection(sh).clone())
}

/// Brute force over the live sets of the index — by construction the same
/// answer a fresh rebuild over the surviving collection would give.
fn oracle_live(
    batch: &SetCollection,
    index: &CorpusIndex,
    pred: &OverlapPredicate,
) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for (i, rs) in batch.iter().enumerate() {
        for id in 0..index.len() as u32 {
            if !index.is_alive(id) {
                continue;
            }
            let ss = index.corpus().set(id);
            if pred.check(rs.overlap(ss), rs.norm(), ss.norm()) {
                out.push((i as u32, id));
            }
        }
    }
    out
}

fn keys(pairs: &[JoinPair]) -> Vec<(u32, u32)> {
    pairs.iter().map(|p| (p.r, p.s)).collect()
}

/// The set at `id`, re-extracted as insertable `(rank, weight)` elements.
fn elements_of(c: &SetCollection, id: u32) -> (Vec<(u32, Weight)>, f64) {
    let set = c.set(id);
    let elems = set
        .ranks()
        .iter()
        .copied()
        .zip(set.weights().iter().copied())
        .collect();
    (elems, set.norm())
}

/// Probing a freshly built index is indistinguishable from a fresh
/// `ssjoin()` run — identical pairs *and* overlaps — for every executor at
/// both sequential and sharded thread counts.
#[test]
fn probe_equals_fresh_ssjoin_across_executors_and_threads() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x1D1_u64.wrapping_add(seed));
        let pred = random_predicate(&mut rng);
        let (r, s) = build_two(random_groups(&mut rng), random_groups(&mut rng));
        let index = CorpusIndex::build(s.clone(), pred.clone()).unwrap();
        let mut ws = JoinWorkspace::new();
        for alg in ALGORITHMS {
            for threads in [1usize, 4] {
                let config =
                    SsJoinConfig::new(alg).with_exec(ExecContext::new().with_threads(threads));
                let fresh = ssjoin(&r, &s, &pred, &config).unwrap();
                let probed = index.probe(&r, &config, &mut ws).unwrap();
                assert_eq!(
                    probed.pairs,
                    fresh.pairs.as_slice(),
                    "seed {seed}, alg {alg:?}, threads {threads}"
                );
                if alg == Algorithm::Auto {
                    // The probe-side planner sees different costs than the
                    // fresh-join planner (prebuilt indexes cost nothing to
                    // build), so the chosen executor may legitimately
                    // differ; it must still be a concrete one, and the
                    // output above already matched bit for bit.
                    assert_ne!(
                        probed.algorithm_used,
                        Algorithm::Auto,
                        "seed {seed}, threads {threads}"
                    );
                    assert!(
                        probed.stats.plan.is_some(),
                        "seed {seed}, threads {threads}: auto probe without a plan"
                    );
                } else {
                    assert_eq!(
                        probed.algorithm_used, fresh.algorithm_used,
                        "seed {seed}, alg {alg:?}, threads {threads}"
                    );
                }
            }
        }
    }
}

/// Any interleaving of inserts, deletes, and epoch merges leaves the index
/// answering exactly like a fresh rebuild over the surviving sets, at every
/// probe along the way.
#[test]
fn insert_delete_sequences_equal_fresh_rebuild() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xEF0C_u64.wrapping_add(seed));
        let pred = random_predicate(&mut rng);
        let (batch, pool) = build_two(random_groups(&mut rng), random_groups(&mut rng));
        // Tiny epoch limit so auto-merges trigger mid-sequence; parallel
        // rebuilds must stay bit-identical.
        let options = CorpusIndexOptions {
            epoch_limit: Some(3),
            build_threads: if seed % 2 == 0 { 1 } else { 4 },
            ..CorpusIndexOptions::default()
        };
        let mut index = CorpusIndex::build_with(pool.clone(), pred.clone(), &options).unwrap();
        let mut ws = JoinWorkspace::new();

        for _step in 0..30 {
            match rng.gen_range(0u32..10) {
                // Insert a pool set (possibly a duplicate of a live one).
                0..=3 => {
                    let (elems, norm) = elements_of(&pool, rng.gen_range(0..pool.len() as u32));
                    let id = index.insert(&elems, norm).unwrap();
                    assert_eq!(id as usize, index.len() - 1);
                    assert!(index.is_alive(id));
                }
                // Delete a random id (idempotent on repeats).
                4..=6 => {
                    let id = rng.gen_range(0..index.len() as u32);
                    index.delete(id).unwrap();
                    assert!(!index.is_alive(id));
                }
                7 => index.merge_epoch(),
                // Probe and compare against the live-set oracle.
                _ => {
                    let alg = ALGORITHMS[rng.gen_range(0..ALGORITHMS.len())];
                    let threads = if rng.gen_bool(0.5) { 1 } else { 4 };
                    let config =
                        SsJoinConfig::new(alg).with_exec(ExecContext::new().with_threads(threads));
                    let probed = index.probe(&batch, &config, &mut ws).unwrap();
                    assert_eq!(
                        keys(probed.pairs),
                        oracle_live(&batch, &index, &pred),
                        "seed {seed}, alg {alg:?}, threads {threads}, \
                         len {}, pending {}, live {}",
                        index.len(),
                        index.pending(),
                        index.live_len()
                    );
                }
            }
        }

        // Final state: merging the epoch tail changes nothing observable.
        let config = SsJoinConfig::new(Algorithm::Inline);
        let before = keys(index.probe(&batch, &config, &mut ws).unwrap().pairs);
        index.merge_epoch();
        assert_eq!(index.pending(), 0);
        let after = keys(index.probe(&batch, &config, &mut ws).unwrap().pairs);
        assert_eq!(before, after, "seed {seed}: epoch merge must be invisible");

        // Compacting renumbers densely but answers identically under the
        // returned id map — the literal fresh-rebuild equivalence.
        let live_before = index.live_len();
        let survivors = index.compact().unwrap();
        assert_eq!(survivors.len(), live_before);
        assert_eq!(index.len(), live_before);
        assert_eq!(index.live_len(), live_before);
        let compacted = keys(index.probe(&batch, &config, &mut ws).unwrap().pairs);
        let remapped: Vec<(u32, u32)> = compacted
            .iter()
            .map(|&(r, s)| (r, survivors[s as usize]))
            .collect();
        assert_eq!(remapped, after, "seed {seed}: compaction must be invisible");
    }
}

/// Budget limits and cancellation are honored per probe, exactly as in the
/// one-shot path: the probe fails with `BudgetExceeded` and the index stays
/// usable afterwards.
#[test]
fn probe_honors_budget_and_cancellation() {
    let mut rng = StdRng::seed_from_u64(0xB1D9);
    let pred = OverlapPredicate::absolute(1.0);
    let (batch, pool) = build_two(random_groups(&mut rng), random_groups(&mut rng));
    let mut index = CorpusIndex::build(pool.clone(), pred.clone()).unwrap();
    let mut ws = JoinWorkspace::new();

    let cancelled = CancelToken::new();
    cancelled.cancel();
    let config = SsJoinConfig::new(Algorithm::Inline)
        .with_exec(ExecContext::new().with_cancel_token(cancelled));
    assert!(matches!(
        index.probe(&batch, &config, &mut ws),
        Err(SsJoinError::BudgetExceeded { .. })
    ));

    let config = SsJoinConfig::new(Algorithm::Inline)
        .with_exec(ExecContext::new().with_budget(ExecBudget::new().with_max_memory_bytes(1)));
    assert!(matches!(
        index.probe(&batch, &config, &mut ws),
        Err(SsJoinError::BudgetExceeded { .. })
    ));

    // An un-budgeted probe still works, including over an epoch tail.
    let (elems, norm) = elements_of(&pool, 0);
    index.insert(&elems, norm).unwrap();
    let config = SsJoinConfig::new(Algorithm::Inline);
    let probed = index.probe(&batch, &config, &mut ws).unwrap();
    assert_eq!(keys(probed.pairs), oracle_live(&batch, &index, &pred));

    // Cancellation is also checked inside the brute-force epoch scan.
    let cancelled = CancelToken::new();
    cancelled.cancel();
    let config = SsJoinConfig::new(Algorithm::Inline)
        .with_exec(ExecContext::new().with_cancel_token(cancelled));
    assert!(matches!(
        index.probe(&batch, &config, &mut ws),
        Err(SsJoinError::BudgetExceeded { .. })
    ));
}

/// Config-level validation: inverted partner intervals and zero threads are
/// rejected; batches escaping the promised interval are rejected; batches
/// inside a *tight* interval answer exactly like the default wide one.
#[test]
fn partner_norm_interval_is_validated_and_tightenable() {
    let mut rng = StdRng::seed_from_u64(0x9AB5);
    let pred = OverlapPredicate::two_sided(0.5);
    let (batch, pool) = build_two(random_groups(&mut rng), random_groups(&mut rng));

    let inverted = CorpusIndexOptions {
        partner_norms: Some((2.0, 1.0)),
        ..CorpusIndexOptions::default()
    };
    assert!(matches!(
        CorpusIndex::build_with(pool.clone(), pred.clone(), &inverted),
        Err(SsJoinError::Config(_))
    ));
    let zero_threads = CorpusIndexOptions {
        build_threads: 0,
        ..CorpusIndexOptions::default()
    };
    assert!(matches!(
        CorpusIndex::build_with(pool.clone(), pred.clone(), &zero_threads),
        Err(SsJoinError::Config(_))
    ));

    let wide = CorpusIndex::build(pool.clone(), pred.clone()).unwrap();
    let (lo, hi) = batch.norm_range().unwrap();
    let tight = CorpusIndexOptions {
        partner_norms: Some((lo, hi)),
        ..CorpusIndexOptions::default()
    };
    let tight = CorpusIndex::build_with(pool.clone(), pred.clone(), &tight).unwrap();
    let mut ws = JoinWorkspace::new();
    for alg in ALGORITHMS {
        let config = SsJoinConfig::new(alg);
        let from_wide = keys(wide.probe(&batch, &config, &mut ws).unwrap().pairs);
        let from_tight = keys(tight.probe(&batch, &config, &mut ws).unwrap().pairs);
        assert_eq!(from_wide, from_tight, "alg {alg:?}");
    }

    // A batch escaping the promised interval is a config error, not a
    // silently wrong answer.
    let escaping = CorpusIndexOptions {
        partner_norms: Some((hi + 1.0, hi + 2.0)),
        ..CorpusIndexOptions::default()
    };
    let escaping = CorpusIndex::build_with(pool, pred, &escaping).unwrap();
    assert!(matches!(
        escaping.probe(&batch, &SsJoinConfig::default(), &mut ws),
        Err(SsJoinError::Config(_))
    ));
}

/// With the bitmap filter on, probes answer identically to a fresh join for
/// every executor, and keep matching the live-set oracle through
/// insert/delete churn and compaction.
#[test]
fn bitmap_filter_probe_output_invariant() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0x51D8_u64.wrapping_add(seed));
        let pred = random_predicate(&mut rng);
        let (batch, pool) = build_two(random_groups(&mut rng), random_groups(&mut rng));
        let mut ws = JoinWorkspace::new();
        let options = CorpusIndexOptions {
            epoch_limit: Some(3),
            ..CorpusIndexOptions::default()
        };
        let mut index = CorpusIndex::build_with(pool.clone(), pred.clone(), &options).unwrap();
        for alg in ALGORITHMS {
            let config =
                SsJoinConfig::new(alg).with_exec(ExecContext::new().with_bitmap_filter(true));
            let fresh = ssjoin(&batch, &pool, &pred, &config).unwrap();
            let probed = index.probe(&batch, &config, &mut ws).unwrap();
            assert_eq!(
                probed.pairs,
                fresh.pairs.as_slice(),
                "seed {seed}, alg {alg:?}"
            );
        }

        // Churn: inserts (forcing epoch merges), deletes, then compact.
        let config = SsJoinConfig::new(Algorithm::Inline)
            .with_exec(ExecContext::new().with_bitmap_filter(true));
        for _ in 0..6 {
            let (elems, norm) = elements_of(&pool, rng.gen_range(0..pool.len() as u32));
            index.insert(&elems, norm).unwrap();
        }
        index.delete(rng.gen_range(0..index.len() as u32)).unwrap();
        let probed = index.probe(&batch, &config, &mut ws).unwrap();
        assert_eq!(
            keys(probed.pairs),
            oracle_live(&batch, &index, &pred),
            "seed {seed}, after churn"
        );
        index.compact().unwrap();
        let probed = index.probe(&batch, &config, &mut ws).unwrap();
        assert_eq!(
            keys(probed.pairs),
            oracle_live(&batch, &index, &pred),
            "seed {seed}, after compact"
        );
    }
}

/// A batch from a different builder run (different universe) is rejected.
#[test]
fn probe_rejects_foreign_universe() {
    let mut rng = StdRng::seed_from_u64(0x0DD);
    let (_, pool) = build_two(random_groups(&mut rng), random_groups(&mut rng));
    let (foreign, _) = build_two(random_groups(&mut rng), random_groups(&mut rng));
    let index = CorpusIndex::build(pool, OverlapPredicate::absolute(1.0)).unwrap();
    let mut ws = JoinWorkspace::new();
    assert!(matches!(
        index.probe(&foreign, &SsJoinConfig::default(), &mut ws),
        Err(SsJoinError::UniverseMismatch)
    ));
}

/// Parallel index builds are bit-identical to sequential ones: probes over
/// either answer the same pairs.
#[test]
fn parallel_build_is_bit_identical() {
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0xB41D_u64.wrapping_add(seed));
        let pred = random_predicate(&mut rng);
        let (batch, pool) = build_two(random_groups(&mut rng), random_groups(&mut rng));
        let sequential = CorpusIndex::build(pool.clone(), pred.clone()).unwrap();
        let parallel = CorpusIndex::build_with(
            pool,
            pred,
            &CorpusIndexOptions {
                build_threads: 4,
                ..CorpusIndexOptions::default()
            },
        )
        .unwrap();
        let mut ws = JoinWorkspace::new();
        for alg in ALGORITHMS {
            let config = SsJoinConfig::new(alg);
            let a = keys(sequential.probe(&batch, &config, &mut ws).unwrap().pairs);
            let b = keys(parallel.probe(&batch, &config, &mut ws).unwrap().pairs);
            assert_eq!(a, b, "seed {seed}, alg {alg:?}");
        }
    }
}

/// Custom-norm corpora: the S-prefix construction against the wide partner
/// interval must stay a candidate superset even when norms are arbitrary
/// caller-provided values (the edit join's string lengths, for instance).
#[test]
fn probe_matches_fresh_join_under_custom_norms() {
    for seed in 0..16u64 {
        let mut rng = StdRng::seed_from_u64(0xC057_u64.wrapping_add(seed));
        let r_groups = random_groups(&mut rng);
        let s_groups = random_groups(&mut rng);
        let r_norms: Vec<f64> = (0..r_groups.len())
            .map(|_| 1.0 + 9.0 * rng.gen_f64())
            .collect();
        let s_norms: Vec<f64> = (0..s_groups.len())
            .map(|_| 1.0 + 9.0 * rng.gen_f64())
            .collect();
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let rh = b.add_relation_with_norm(r_groups, NormKind::Custom(r_norms));
        let sh = b.add_relation_with_norm(s_groups, NormKind::Custom(s_norms));
        let built = b.build().unwrap();
        let (r, s) = (built.collection(rh), built.collection(sh));
        let pred = random_predicate(&mut rng);
        let index = CorpusIndex::build(s.clone(), pred.clone()).unwrap();
        let mut ws = JoinWorkspace::new();
        for alg in ALGORITHMS {
            let config = SsJoinConfig::new(alg);
            let fresh = ssjoin(r, s, &pred, &config).unwrap();
            let probed = index.probe(r, &config, &mut ws).unwrap();
            assert_eq!(
                probed.pairs,
                fresh.pairs.as_slice(),
                "seed {seed}, alg {alg:?}"
            );
        }
    }
}
