//! Property tests for the persistent [`CorpusIndex`]: probes must be
//! indistinguishable from fresh [`ssjoin`] runs across every executor and
//! thread count, and any insert/delete sequence must be equivalent to a
//! fresh rebuild over the surviving sets. Inputs are driven by a seeded PRNG
//! so every failure is reproducible from the iteration's seed.

use ssjoin_core::{
    ssjoin, Algorithm, CorpusIndex, ElementOrder, ExecContext, JoinPair, JoinWorkspace, NormKind,
    OverlapPredicate, SetCollection, SsJoinConfig, SsJoinError, SsJoinInputBuilder, WeightScheme,
};
use ssjoin_prng::{Rng, StdRng};

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::Basic,
    Algorithm::PrefixFiltered,
    Algorithm::Inline,
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

/// The set at `id`, re-extracted as insertable ranks (their weights are
/// the shared universe's).
fn elements_of(c: &SetCollection, id: u32) -> (Vec<u32>, f64) {
    let set = c.set(id);
    (set.ranks().to_vec(), set.norm())
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
        let index = CorpusIndex::build(s.clone(), pred.clone(), &ExecContext::new()).unwrap();
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
        // The build context's thread count must not change any answer.
        let exec = ExecContext::new().with_threads(if seed % 2 == 0 { 1 } else { 4 });
        let mut index = CorpusIndex::build(pool.clone(), pred.clone(), &exec).unwrap();
        let mut ws = JoinWorkspace::new();

        for _step in 0..30 {
            match rng.gen_range(0u32..10) {
                // Insert a pool set (possibly a duplicate of a live one).
                0..=3 => {
                    let (elems, norm) = elements_of(&pool, rng.gen_range(0..pool.len() as u32));
                    let id = index.insert(&elems, norm).unwrap();
                    assert_eq!(id as usize, index.len() - 1);
                    assert!(index.is_alive(id));
                    // Merge a tail of more than 3 sets mid-sequence, well
                    // before the automatic `max(64, indexed/8)` limit.
                    if index.pending() > 3 {
                        index.merge_epoch();
                    }
                }
                // Delete a random id (idempotent on repeats).
                4..=6 => {
                    let id = rng.gen_range(0..index.len() as u32);
                    index.delete(id).unwrap();
                    assert!(!index.is_alive(id));
                }
                7 => index.merge_epoch(),
                // Leave the index as it is and probe it again.
                _ => {}
            }
            // Every executor, on every tombstone and epoch-tail state,
            // against the live-set oracle and a fresh join over the arena
            // restricted to the survivors (which also pins the overlaps).
            let expect = oracle_live(&batch, &index, &pred);
            for alg in ALGORITHMS {
                let threads = if rng.gen_bool(0.5) { 1 } else { 4 };
                let config =
                    SsJoinConfig::new(alg).with_exec(ExecContext::new().with_threads(threads));
                let mut fresh = ssjoin(&batch, index.corpus(), &pred, &config)
                    .unwrap()
                    .pairs;
                fresh.retain(|p| index.is_alive(p.s));
                let probed = index.probe(&batch, &config, &mut ws).unwrap();
                let state = format!(
                    "seed {seed}, alg {alg:?}, threads {threads}, len {}, pending {}, live {}",
                    index.len(),
                    index.pending(),
                    index.live_len()
                );
                assert_eq!(keys(probed.pairs), expect, "{state}");
                assert_eq!(probed.pairs, fresh.as_slice(), "{state}");
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

/// A probe joins the sets inserted since the last rebuild (the brute-force
/// epoch tail) like any other live set.
#[test]
fn probe_joins_the_epoch_tail() {
    let mut rng = StdRng::seed_from_u64(0xB1D9);
    let pred = OverlapPredicate::absolute(1.0);
    let (batch, pool) = build_two(random_groups(&mut rng), random_groups(&mut rng));
    let mut index = CorpusIndex::build(pool.clone(), pred.clone(), &ExecContext::new()).unwrap();
    let mut ws = JoinWorkspace::new();
    let (elems, norm) = elements_of(&pool, 0);
    index.insert(&elems, norm).unwrap();
    let config = SsJoinConfig::new(Algorithm::Inline);
    let probed = index.probe(&batch, &config, &mut ws).unwrap();
    assert_eq!(keys(probed.pairs), oracle_live(&batch, &index, &pred));
}

/// Config-level validation: a zero-thread build context is rejected, and
/// a batch with a negative norm — outside the `[0, ∞)` partner interval the
/// stored prefixes were extracted against — is a config error, not a
/// silently wrong answer.
#[test]
fn zero_threads_and_escaping_batches_are_config_errors() {
    let mut rng = StdRng::seed_from_u64(0x9AB5);
    let pred = OverlapPredicate::two_sided(0.5);
    let (_, pool) = build_two(random_groups(&mut rng), random_groups(&mut rng));
    assert!(matches!(
        CorpusIndex::build(
            pool.clone(),
            pred.clone(),
            &ExecContext::new().with_threads(0)
        ),
        Err(SsJoinError::Config(_))
    ));

    let groups = vec![
        vec!["a".to_string()],
        vec!["a".to_string(), "b".to_string()],
    ];
    let norms = vec![-1.0, 2.0];
    let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
    let bh = b.add_relation_with_norm(groups, NormKind::Custom(norms));
    let sh = b.add_relation(random_groups(&mut rng));
    let built = b.build().unwrap();
    let index =
        CorpusIndex::build(built.collection(sh).clone(), pred, &ExecContext::new()).unwrap();
    let mut ws = JoinWorkspace::new();
    assert!(matches!(
        index.probe(built.collection(bh), &SsJoinConfig::default(), &mut ws),
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
        let mut index =
            CorpusIndex::build(pool.clone(), pred.clone(), &ExecContext::new()).unwrap();
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

        // Churn: inserts (merging the epoch once it exceeds 3 sets),
        // deletes, then compact.
        let config = SsJoinConfig::new(Algorithm::Inline)
            .with_exec(ExecContext::new().with_bitmap_filter(true));
        for _ in 0..6 {
            let (elems, norm) = elements_of(&pool, rng.gen_range(0..pool.len() as u32));
            index.insert(&elems, norm).unwrap();
            if index.pending() > 3 {
                index.merge_epoch();
            }
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
    let index =
        CorpusIndex::build(pool, OverlapPredicate::absolute(1.0), &ExecContext::new()).unwrap();
    let mut ws = JoinWorkspace::new();
    assert!(matches!(
        index.probe(&foreign, &SsJoinConfig::default(), &mut ws),
        Err(SsJoinError::UniverseMismatch)
    ));
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
        let index = CorpusIndex::build(s.clone(), pred.clone(), &ExecContext::new()).unwrap();
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

/// A corpus built in norm order reports it, and keeps it through an
/// in-order insert, so its probes window each posting list by id. An
/// out-of-order insert clears the flag; probes then check the norm ratio
/// per candidate. Either way a probe of the churned index equals one of a
/// fresh rebuild over the same arena, and the brute-force oracle.
#[test]
fn norm_order_flag_follows_inserts() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x5027_u64.wrapping_add(seed));
        let pred = random_predicate(&mut rng).with_norm_ratio(0.3 + 0.7 * rng.gen_f64());
        let mut groups = random_groups(&mut rng);
        groups.sort_by_key(Vec::len);
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let ch = b.add_relation_with_norm(groups, NormKind::Cardinality);
        let bh = b.add_relation_with_norm(random_groups(&mut rng), NormKind::Cardinality);
        let built = b.build().unwrap();
        let (corpus, batch) = (built.collection(ch), built.collection(bh));
        assert!(corpus.norms_sorted(), "seed {seed}");
        let mut index =
            CorpusIndex::build(corpus.clone(), pred.clone(), &ExecContext::new()).unwrap();
        let mut ws = JoinWorkspace::new();
        let last = corpus.len() as u32 - 1;
        let (elems, top) = elements_of(corpus, last);
        let top = top.max(1.0);
        // In order: the largest norm again, then a smaller one.
        for (norm, sorted) in [(top, true), (top / 2.0, false)] {
            index.insert(&elems, norm).unwrap();
            assert_eq!(index.corpus().norms_sorted(), sorted, "seed {seed}");
            let fresh =
                CorpusIndex::build(index.corpus().clone(), pred.clone(), &ExecContext::new())
                    .unwrap();
            let mut fresh_ws = JoinWorkspace::new();
            let expect = oracle_live(batch, &index, &pred);
            for alg in ALGORITHMS {
                let config = SsJoinConfig::new(alg);
                let probed = keys(index.probe(batch, &config, &mut ws).unwrap().pairs);
                let rebuilt = keys(fresh.probe(batch, &config, &mut fresh_ws).unwrap().pairs);
                let ctx = format!("seed {seed} {alg:?} sorted {sorted} {pred}");
                assert_eq!(probed, rebuilt, "{ctx}");
                assert_eq!(probed, expect, "{ctx}");
            }
        }
    }
}
