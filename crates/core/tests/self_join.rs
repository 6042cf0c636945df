//! Differential suite for the symmetric self-join half path.
//!
//! `ssjoin(&c, &c, ..)` with a symmetric predicate probes each set only
//! against the sets at or before it and mirrors the lower triangle;
//! `ssjoin(&c, &c.clone(), ..)` passes two distinct collections and so runs
//! the full path. Both must emit the same pairs with the same overlaps —
//! for every executor, thread count and filter setting, under every
//! predicate shape (the asymmetric ones fall back to the full path on both
//! sides), resident and spilled. The work counters of either path must not
//! depend on the thread count, and the half path generates fewer candidates
//! than the full one: each unordered pair once, and no diagonal pair, which
//! it decides from the set's own total.

use ssjoin_core::{
    estimate_memory_bytes, ssjoin, Algorithm, ElementOrder, ExecBudget, ExecContext, JoinPair,
    NormExpr, OverlapPredicate, SetCollection, SsJoinConfig, SsJoinInputBuilder, SsJoinStats,
    WeightScheme,
};
use ssjoin_prng::{Rng, StdRng};

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::Basic,
    Algorithm::PrefixFiltered,
    Algorithm::Inline,
];
const THREADS: [usize; 4] = [1, 2, 3, 8];

fn build(groups: Vec<Vec<String>>, scheme: WeightScheme) -> SetCollection {
    let mut b = SsJoinInputBuilder::new(scheme, ElementOrder::FrequencyAsc);
    let h = b.add_relation(groups);
    b.build().unwrap().collection(h).clone()
}

/// Random sets over a small vocabulary, with empty sets and groups of exact
/// duplicates mixed in.
fn corpus(seed: u64, n: usize, vocab: u32, scheme: WeightScheme) -> SetCollection {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut groups: Vec<Vec<String>> = Vec::with_capacity(n);
    while groups.len() < n {
        match rng.gen_range(0u32..10) {
            0 => groups.push(Vec::new()),
            1 if !groups.is_empty() => {
                let copy = groups[rng.gen_range(0..groups.len())].clone();
                for _ in 0..rng.gen_range(1usize..4) {
                    groups.push(copy.clone());
                }
            }
            _ => {
                let len = rng.gen_range(1usize..8);
                groups.push(
                    (0..len)
                        .map(|_| format!("t{}", rng.gen_range(0..vocab)))
                        .collect(),
                );
            }
        }
    }
    groups.truncate(n);
    build(groups, scheme)
}

/// Unweighted sets whose pairs sit exactly at the thresholds below: every
/// set holds 4 of 6 tokens, so two sets share 2, 3 or 4 — an absolute
/// threshold of 2 or 3 and a two-sided fraction of 0.5 or 0.75 land on the
/// boundary.
fn at_threshold() -> SetCollection {
    let mut groups = Vec::new();
    for mask in 0u32..64 {
        if mask.count_ones() == 4 {
            groups.push(
                (0..6)
                    .filter(|b| mask >> b & 1 == 1)
                    .map(|b| format!("x{b}"))
                    .collect(),
            );
        }
    }
    build(groups, WeightScheme::Unweighted)
}

/// Property 4's edit-join bound: `max(R.norm, S.norm)·c − (q − 1)`.
fn property4(c: f64, q: f64) -> OverlapPredicate {
    OverlapPredicate::new(vec![NormExpr::Sub(
        Box::new(NormExpr::Mul(
            Box::new(NormExpr::Max(
                Box::new(NormExpr::RNorm),
                Box::new(NormExpr::SNorm),
            )),
            Box::new(NormExpr::Const(c)),
        )),
        Box::new(NormExpr::Const(q - 1.0)),
    )])
}

fn predicates() -> Vec<OverlapPredicate> {
    vec![
        OverlapPredicate::two_sided(0.5),
        OverlapPredicate::two_sided(0.75),
        property4(0.7, 2.0),
        OverlapPredicate::absolute(2.0),
        OverlapPredicate::absolute(3.0),
        OverlapPredicate::r_normalized(0.6),
        OverlapPredicate::s_normalized(0.6),
    ]
}

fn keyed(pairs: &[JoinPair]) -> Vec<(u32, u32, u64)> {
    pairs.iter().map(|p| (p.r, p.s, p.overlap.raw())).collect()
}

/// The counters that measure join work, which must not move with the
/// thread count.
fn work(s: &SsJoinStats) -> [u64; 7] {
    [
        s.join_tuples,
        s.candidate_pairs,
        s.verified_pairs,
        s.bitmap_probes,
        s.bitmap_prunes,
        s.merge_steps,
        s.output_pairs,
    ]
}

#[test]
fn half_path_equals_full_path() {
    let corpora = [
        ("idf", corpus(0x5E1F, 160, 24, WeightScheme::Idf)),
        (
            "unweighted",
            corpus(0xD0B1, 120, 12, WeightScheme::Unweighted),
        ),
        ("at-threshold", at_threshold()),
    ];
    let mut halved = 0;
    for (name, c) in &corpora {
        let twin = c.clone();
        let spill_at = estimate_memory_bytes(c, c) / 4;
        for pred in predicates() {
            for alg in ALGORITHMS {
                for filter in [false, true] {
                    for resident in [None, Some(spill_at)] {
                        let mut first: Option<(SsJoinStats, SsJoinStats)> = None;
                        for threads in THREADS {
                            let mut budget = ExecBudget::new();
                            if let Some(bytes) = resident {
                                budget = budget.with_max_resident_bytes(bytes);
                            }
                            let config = SsJoinConfig::new(alg).with_exec(
                                ExecContext::new()
                                    .with_threads(threads)
                                    .with_bitmap_filter(filter)
                                    .with_budget(budget),
                            );
                            let ctx = format!(
                                "{name} {pred} {alg:?} filter {filter} threads {threads} \
                                 resident {resident:?}"
                            );
                            let half = ssjoin(c, c, &pred, &config).unwrap();
                            let full = ssjoin(c, &twin, &pred, &config).unwrap();
                            assert_eq!(keyed(&half.pairs), keyed(&full.pairs), "{ctx}");
                            if resident.is_some() {
                                assert!(half.stats.spill_partitions >= 2, "{ctx}: no spill");
                            }
                            if pred.is_symmetric() {
                                // The half path: never more candidates, and
                                // strictly fewer once there are any.
                                assert!(
                                    half.stats.candidate_pairs <= full.stats.candidate_pairs,
                                    "{ctx}: half {} > full {} candidates",
                                    half.stats.candidate_pairs,
                                    full.stats.candidate_pairs
                                );
                                if full.stats.candidate_pairs > 0 {
                                    assert!(
                                        half.stats.candidate_pairs < full.stats.candidate_pairs,
                                        "{ctx}"
                                    );
                                    halved += 1;
                                }
                                if resident.is_none() {
                                    // The full path meets every unordered
                                    // pair twice and some diagonal pairs
                                    // once, each output diagonal among
                                    // them; the half path meets each
                                    // unordered pair once and decides the
                                    // diagonal without a candidate.
                                    let diagonal =
                                        full.pairs.iter().filter(|p| p.r == p.s).count() as u64;
                                    for (h, f) in [
                                        (half.stats.candidate_pairs, full.stats.candidate_pairs),
                                        (half.stats.verified_pairs, full.stats.verified_pairs),
                                    ] {
                                        assert!(
                                            2 * h + diagonal <= f && f <= 2 * h + c.len() as u64,
                                            "{ctx}: half {h}, full {f}, diagonal {diagonal}"
                                        );
                                    }
                                }
                            } else if resident.is_none() {
                                // Asymmetric: both sides take the full path.
                                // (Spilled, a self-join routes each set by
                                // the longer of its two prefixes, so its
                                // partitions and counters differ.)
                                assert_eq!(work(&half.stats), work(&full.stats), "{ctx}");
                            }
                            match &first {
                                None => first = Some((half.stats, full.stats)),
                                Some((h1, f1)) => {
                                    assert_eq!(work(&half.stats), work(h1), "{ctx}: half");
                                    assert_eq!(work(&full.stats), work(f1), "{ctx}: full");
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(halved > 0, "no run took the half path");
}

#[test]
fn degenerate_self_joins() {
    let pred = OverlapPredicate::two_sided(0.5);
    for groups in [
        Vec::new(),
        vec![Vec::new(); 5],
        vec![vec!["a".to_string()]],
        vec![vec!["a".to_string(), "b".to_string()]; 7],
    ] {
        let c = build(groups, WeightScheme::Unweighted);
        for alg in ALGORITHMS {
            for threads in THREADS {
                let config =
                    SsJoinConfig::new(alg).with_exec(ExecContext::new().with_threads(threads));
                let half = ssjoin(&c, &c, &pred, &config).unwrap();
                let full = ssjoin(&c, &c.clone(), &pred, &config).unwrap();
                assert_eq!(keyed(&half.pairs), keyed(&full.pairs), "{alg:?} {threads}");
                // Nonempty identical sets all join each other: n² pairs.
                let nonempty = c.iter().filter(|s| !s.is_empty()).count();
                assert_eq!(half.pairs.len(), nonempty * nonempty, "{alg:?} {threads}");
            }
        }
    }
}
