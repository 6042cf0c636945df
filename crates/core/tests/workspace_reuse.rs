//! Workspace-reuse correctness: a single [`JoinWorkspace`] serving many
//! runs — across predicates, collections, filter settings, executors, and thread
//! counts — must produce output bit-for-bit identical to fresh-workspace
//! runs, and no state (stamps, candidate buffers, accumulators, shard
//! plans) may leak from one run into the next.

use ssjoin_core::{
    ssjoin, ssjoin_with, Algorithm, ElementOrder, ExecContext, JoinPair, JoinWorkspace,
    OverlapPredicate, SetCollection, SsJoinConfig, SsJoinInputBuilder, WeightScheme,
};
use ssjoin_prng::{Rng, StdRng};

fn random_groups(rng: &mut StdRng, max_groups: usize) -> Vec<Vec<String>> {
    let n = rng.gen_range(1usize..max_groups.max(2));
    (0..n)
        .map(|_| {
            let len = rng.gen_range(0usize..9);
            (0..len)
                .map(|_| {
                    let c = b'a' + rng.gen_range(0u8..12);
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

fn build_self(groups: Vec<Vec<String>>, scheme: WeightScheme) -> SetCollection {
    let mut b = SsJoinInputBuilder::new(scheme, ElementOrder::FrequencyAsc);
    let h = b.add_relation(groups);
    b.build().unwrap().collection(h).clone()
}

/// Every (bitmap filter × algorithm × threads) combination, on a stream of varying
/// collections and predicates sharing ONE workspace, must match a
/// fresh-workspace run of the same query bit-for-bit (pairs including
/// overlap weights, and the schedule-independent counters).
#[test]
fn reused_workspace_matches_fresh_matrix() {
    let algorithms = [
        Algorithm::Basic,
        Algorithm::PrefixFiltered,
        Algorithm::Inline,
    ];
    for (a, &algorithm) in algorithms.iter().enumerate() {
        for (k, filter) in [false, true].into_iter().enumerate() {
            for (t, &threads) in [1usize, 4].iter().enumerate() {
                // One workspace per combination, reused across every
                // iteration's (collection, predicate) pair.
                let mut ws = JoinWorkspace::new();
                let mut rng = StdRng::seed_from_u64(0xC0FFEE + (a * 100 + k * 10 + t) as u64);
                for round in 0..6 {
                    let scheme = if round % 2 == 0 {
                        WeightScheme::Unweighted
                    } else {
                        WeightScheme::Idf
                    };
                    let c = build_self(random_groups(&mut rng, 30), scheme);
                    let pred = random_predicate(&mut rng);
                    let config = SsJoinConfig::new(algorithm).with_exec(
                        ExecContext::new()
                            .with_bitmap_filter(filter)
                            .with_threads(threads),
                    );
                    let fresh = ssjoin(&c, &c, &pred, &config).unwrap();
                    let reused = ssjoin_with(&c, &c, &pred, &config, &mut ws).unwrap();
                    assert_eq!(
                        fresh.pairs,
                        reused.pairs.to_vec(),
                        "alg {algorithm:?} filter {filter} threads {threads} round {round}"
                    );
                    assert_eq!(fresh.stats.join_tuples, reused.stats.join_tuples);
                    assert_eq!(fresh.stats.candidate_pairs, reused.stats.candidate_pairs);
                    assert_eq!(fresh.stats.verified_pairs, reused.stats.verified_pairs);
                    assert_eq!(fresh.stats.output_pairs, reused.stats.output_pairs);
                    assert_eq!(reused.stats.workspace_reuses, round as u64);
                }
            }
        }
    }
}

/// Shrinking the input must not resurrect results from a previous, larger
/// run: a workspace warmed on a big, match-heavy collection and then run on
/// a tiny or empty one must see only the new input.
#[test]
fn no_stale_state_leaks_across_runs() {
    // Big collection where everything matches everything.
    let big: Vec<Vec<String>> = (0..60)
        .map(|i| {
            vec![
                "x".to_string(),
                "y".to_string(),
                format!("r{}", i % 7),
                format!("q{}", i % 5),
            ]
        })
        .collect();
    // Tiny disjoint collection: exactly the two self-pairs qualify.
    let tiny = vec![
        vec!["aa".to_string(), "bb".to_string()],
        vec!["cc".to_string(), "dd".to_string()],
    ];
    for algorithm in [
        Algorithm::Basic,
        Algorithm::PrefixFiltered,
        Algorithm::Inline,
    ] {
        for threads in [1usize, 4] {
            let mut ws = JoinWorkspace::new();
            let config =
                SsJoinConfig::new(algorithm).with_exec(ExecContext::new().with_threads(threads));
            let big_c = build_self(big.clone(), WeightScheme::Unweighted);
            let many = ssjoin_with(
                &big_c,
                &big_c,
                &OverlapPredicate::absolute(2.0),
                &config,
                &mut ws,
            )
            .unwrap();
            assert!(
                many.pairs.len() >= 60,
                "warm-up run should be match-heavy, got {}",
                many.pairs.len()
            );

            let tiny_c = build_self(tiny.clone(), WeightScheme::Unweighted);
            let few = ssjoin_with(
                &tiny_c,
                &tiny_c,
                &OverlapPredicate::absolute(2.0),
                &config,
                &mut ws,
            )
            .unwrap();
            let keys: Vec<(u32, u32)> = few.pairs.iter().map(|p| (p.r, p.s)).collect();
            assert_eq!(keys, vec![(0, 0), (1, 1)], "alg {algorithm:?} t{threads}");

            // A predicate nothing satisfies leaves the output truly empty.
            let none = ssjoin_with(
                &tiny_c,
                &tiny_c,
                &OverlapPredicate::absolute(100.0),
                &config,
                &mut ws,
            )
            .unwrap();
            assert!(none.pairs.is_empty(), "alg {algorithm:?} t{threads}");
            assert_eq!(none.stats.output_pairs, 0);
        }
    }
}

/// Output pairs arrive (r, s)-sorted and duplicate-free from every executor
/// without a final sort — reused or not.
#[test]
fn outputs_sorted_without_global_sort() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut ws = JoinWorkspace::new();
    for _ in 0..8 {
        let c = build_self(random_groups(&mut rng, 40), WeightScheme::Idf);
        let pred = random_predicate(&mut rng);
        for threads in [1usize, 3] {
            for algorithm in [Algorithm::Basic, Algorithm::Inline] {
                let config = SsJoinConfig::new(algorithm)
                    .with_exec(ExecContext::new().with_threads(threads));
                let run = ssjoin_with(&c, &c, &pred, &config, &mut ws).unwrap();
                let sorted = run
                    .pairs
                    .windows(2)
                    .all(|w: &[JoinPair]| (w[0].r, w[0].s) < (w[1].r, w[1].s));
                assert!(sorted, "alg {algorithm:?} threads {threads}");
            }
        }
    }
}
