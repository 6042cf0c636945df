//! Acceptance tests for panic-free budgeted execution (seeded, reproducible).
//!
//! Three properties, checked for all five physical algorithms:
//!
//! 1. adversarial inputs — empty relations, empty sets, singleton vocab,
//!    heavy duplicates — never panic any executor;
//! 2. with *any* budget set, every run either completes with correct,
//!    complete results or fails with `SsJoinError::BudgetExceeded` — never a
//!    silently truncated result;
//! 3. a `Duration::ZERO` deadline aborts before any join work happens.

use ssjoin_core::{
    ssjoin, Algorithm, BudgetCause, CancelToken, ElementOrder, ExecBudget, ExecContext, JoinPair,
    OverlapPredicate, SetCollection, SsJoinConfig, SsJoinError, SsJoinInputBuilder, WeightScheme,
};
use ssjoin_prng::{Rng, StdRng};
use std::time::Duration;

const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Basic,
    Algorithm::PrefixFiltered,
    Algorithm::Inline,
    Algorithm::PositionalInline,
    Algorithm::Auto,
];

fn pairs_to_keys(pairs: &[JoinPair]) -> Vec<(u32, u32)> {
    pairs.iter().map(|p| (p.r, p.s)).collect()
}

fn build_two(
    r_groups: Vec<Vec<String>>,
    s_groups: Vec<Vec<String>>,
    scheme: WeightScheme,
) -> (SetCollection, SetCollection) {
    let mut b = SsJoinInputBuilder::new(scheme, ElementOrder::FrequencyAsc);
    let rh = b.add_relation(r_groups);
    let sh = b.add_relation(s_groups);
    let built = b.build().unwrap();
    (built.collection(rh).clone(), built.collection(sh).clone())
}

/// Adversarial group generator: empty relations, empty sets, singleton
/// vocabularies, and above-threshold-weight duplicate structure.
fn adversarial_groups(rng: &mut StdRng, case: u32) -> Vec<Vec<String>> {
    match case {
        // Empty relation.
        0 => Vec::new(),
        // All-empty sets.
        1 => vec![Vec::new(); rng.gen_range(1usize..5)],
        // Singleton vocabulary: every set repeats one token (ordinalized
        // into distinct elements), maximally collision-heavy postings.
        2 => (0..rng.gen_range(1usize..12))
            .map(|_| vec!["t".to_string(); rng.gen_range(0usize..6)])
            .collect(),
        // Duplicate groups: identical heavy sets, every pair qualifies.
        3 => {
            let g: Vec<String> = (0..rng.gen_range(1usize..6))
                .map(|k| format!("d{k}"))
                .collect();
            vec![g; rng.gen_range(2usize..8)]
        }
        // Mixed: some empty, some singleton-vocab, some random.
        _ => (0..rng.gen_range(1usize..10))
            .map(|_| {
                let len = rng.gen_range(0usize..6);
                (0..len)
                    .map(|_| {
                        let c = b'a' + rng.gen_range(0u8..3);
                        (c as char).to_string()
                    })
                    .collect()
            })
            .collect(),
    }
}

fn random_predicate(rng: &mut StdRng) -> OverlapPredicate {
    match rng.gen_range(0u32..4) {
        0 => OverlapPredicate::absolute(0.5 + 3.5 * rng.gen_f64()),
        1 => OverlapPredicate::r_normalized(0.1 + 0.9 * rng.gen_f64()),
        2 => OverlapPredicate::s_normalized(0.1 + 0.9 * rng.gen_f64()),
        _ => OverlapPredicate::two_sided(0.1 + 0.9 * rng.gen_f64()),
    }
}

/// Property 1: adversarial inputs never panic any executor, with or without
/// budgets, sequentially and in parallel.
#[test]
fn adversarial_inputs_never_panic() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xB0D6 + seed);
        let r_case = rng.gen_range(0u32..5);
        let s_case = rng.gen_range(0u32..5);
        let (r, s) = build_two(
            adversarial_groups(&mut rng, r_case),
            adversarial_groups(&mut rng, s_case),
            if rng.gen_bool(0.5) {
                WeightScheme::Idf
            } else {
                WeightScheme::Unweighted
            },
        );
        let pred = random_predicate(&mut rng);
        for alg in ALGORITHMS {
            for threads in [1usize, 3] {
                let config =
                    SsJoinConfig::new(alg).with_exec(ExecContext::new().with_threads(threads));
                // Unbudgeted: must succeed (nothing to trip).
                let out = ssjoin(&r, &s, &pred, &config)
                    .unwrap_or_else(|e| panic!("seed {seed} alg {alg:?} threads {threads}: {e}"));
                // Budgeted with a tiny limit: must not panic either way.
                let tight = config.clone().with_exec(
                    config
                        .exec
                        .clone()
                        .with_budget(ExecBudget::default().with_max_candidate_pairs(1)),
                );
                match ssjoin(&r, &s, &pred, &tight) {
                    Ok(tight_out) => assert_eq!(
                        pairs_to_keys(&tight_out.pairs),
                        pairs_to_keys(&out.pairs),
                        "seed {seed} alg {alg:?}: within-budget run must be complete"
                    ),
                    Err(SsJoinError::BudgetExceeded { which, .. }) => {
                        assert_eq!(which, BudgetCause::CandidatePairs);
                    }
                    Err(e) => panic!("seed {seed} alg {alg:?}: unexpected {e}"),
                }
            }
        }
    }
}

/// Property 2: with any budget set, every executor either returns the same
/// complete result as the unbudgeted run or `BudgetExceeded` — never a
/// silently truncated `Ok`.
#[test]
fn any_budget_is_complete_or_typed_error() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xC0DE + seed);
        let n = rng.gen_range(4usize..24);
        let groups: Vec<Vec<String>> = (0..n)
            .map(|_| {
                let len = rng.gen_range(1usize..7);
                (0..len)
                    .map(|_| {
                        let c = b'a' + rng.gen_range(0u8..8);
                        (c as char).to_string()
                    })
                    .collect()
            })
            .collect();
        let (r, s) = build_two(groups.clone(), groups, WeightScheme::Unweighted);
        let pred = random_predicate(&mut rng);

        // Random budget: candidate or output limit of random tightness.
        let budget = if rng.gen_bool(0.5) {
            ExecBudget::default().with_max_candidate_pairs(rng.gen_range(0u64..200))
        } else {
            ExecBudget::default().with_max_output_pairs(rng.gen_range(0u64..50))
        };

        for alg in ALGORITHMS {
            let threads = if rng.gen_bool(0.5) { 1 } else { 4 };
            let config = SsJoinConfig::new(alg).with_exec(ExecContext::new().with_threads(threads));
            let full = ssjoin(&r, &s, &pred, &config).unwrap();
            let budgeted = config
                .clone()
                .with_exec(config.exec.clone().with_budget(budget.clone()));
            match ssjoin(&r, &s, &pred, &budgeted) {
                Ok(out) => {
                    assert_eq!(
                        pairs_to_keys(&out.pairs),
                        pairs_to_keys(&full.pairs),
                        "seed {seed} alg {alg:?} budget {budget:?}: Ok must be complete"
                    );
                }
                Err(SsJoinError::BudgetExceeded {
                    which,
                    partial_stats,
                }) => {
                    assert!(
                        matches!(
                            which,
                            BudgetCause::CandidatePairs | BudgetCause::OutputPairs
                        ),
                        "seed {seed}: {which}"
                    );
                    assert!(
                        partial_stats.budget_checks > 0,
                        "seed {seed}: abort implies at least one checkpoint"
                    );
                }
                Err(e) => panic!("seed {seed} alg {alg:?}: unexpected {e}"),
            }
        }
    }
}

/// Property 3: a zero deadline aborts every executor before join work, and a
/// cancelled token behaves identically.
#[test]
fn zero_deadline_and_cancel_abort_immediately() {
    let groups: Vec<Vec<String>> = (0..64)
        .map(|i| {
            (0..5)
                .map(|j| format!("t{}", (i * 3 + j * 7) % 29))
                .collect()
        })
        .collect();
    let (r, s) = build_two(groups.clone(), groups, WeightScheme::Idf);
    let pred = OverlapPredicate::absolute(2.0);
    for alg in ALGORITHMS {
        let config = SsJoinConfig::new(alg).with_exec(
            ExecContext::new().with_budget(ExecBudget::default().with_deadline(Duration::ZERO)),
        );
        let err = ssjoin(&r, &s, &pred, &config).unwrap_err();
        match err {
            SsJoinError::BudgetExceeded {
                which,
                partial_stats,
            } => {
                assert_eq!(which, BudgetCause::Deadline, "alg {alg:?}");
                assert_eq!(
                    partial_stats.join_tuples, 0,
                    "alg {alg:?}: no join work after an entry abort"
                );
            }
            e => panic!("alg {alg:?}: unexpected {e}"),
        }

        let token = CancelToken::new();
        token.cancel();
        let config = SsJoinConfig::new(alg).with_exec(ExecContext::new().with_cancel_token(token));
        let err = ssjoin(&r, &s, &pred, &config).unwrap_err();
        assert!(
            matches!(
                err,
                SsJoinError::BudgetExceeded {
                    which: BudgetCause::Cancelled,
                    ..
                }
            ),
            "alg {alg:?}: {err:?}"
        );
    }
}

/// Memory preflight: an absurdly small cap refuses the run up front; a huge
/// cap lets it through.
#[test]
fn memory_preflight_gates_runs() {
    let groups: Vec<Vec<String>> = (0..32)
        .map(|i| (0..4).map(|j| format!("m{}", (i + j * 5) % 17)).collect())
        .collect();
    let (r, s) = build_two(groups.clone(), groups, WeightScheme::Unweighted);
    let pred = OverlapPredicate::absolute(2.0);
    for alg in ALGORITHMS {
        let config = SsJoinConfig::new(alg).with_exec(
            ExecContext::new().with_budget(ExecBudget::default().with_max_memory_bytes(16)),
        );
        let err = ssjoin(&r, &s, &pred, &config).unwrap_err();
        assert!(
            matches!(
                err,
                SsJoinError::BudgetExceeded {
                    which: BudgetCause::Memory,
                    ..
                }
            ),
            "alg {alg:?}: {err:?}"
        );
        let config = SsJoinConfig::new(alg).with_exec(
            ExecContext::new().with_budget(ExecBudget::default().with_max_memory_bytes(u64::MAX)),
        );
        ssjoin(&r, &s, &pred, &config).unwrap();
    }
}

/// Exactly-at-limit runs complete: limits use strictly-greater semantics.
#[test]
fn at_limit_runs_complete() {
    let groups: Vec<Vec<String>> = (0..16)
        .map(|i| (0..4).map(|j| format!("e{}", (i + j * 3) % 11)).collect())
        .collect();
    let (r, s) = build_two(groups.clone(), groups, WeightScheme::Unweighted);
    let pred = OverlapPredicate::absolute(2.0);
    for alg in ALGORITHMS {
        let config = SsJoinConfig::new(alg);
        let full = ssjoin(&r, &s, &pred, &config).unwrap();
        let exact = config.clone().with_exec(
            ExecContext::new().with_budget(
                ExecBudget::default()
                    .with_max_candidate_pairs(full.stats.candidate_pairs)
                    .with_max_output_pairs(full.stats.output_pairs),
            ),
        );
        let out = ssjoin(&r, &s, &pred, &exact)
            .unwrap_or_else(|e| panic!("alg {alg:?}: exactly-at-limit must pass: {e}"));
        assert_eq!(pairs_to_keys(&out.pairs), pairs_to_keys(&full.pairs));
    }
}

/// Mid-run cancellation from another thread aborts a large parallel join
/// with the typed error (not a hang, not a panic).
#[test]
fn cross_thread_cancel_aborts_parallel_run() {
    // Heavy self-join: every set shares two stop words.
    let groups: Vec<Vec<String>> = (0..600)
        .map(|i| {
            let mut g = vec!["the".to_string(), "of".to_string()];
            g.push(format!("x{}", i % 13));
            g.push(format!("y{i}"));
            g
        })
        .collect();
    let (r, s) = build_two(groups.clone(), groups, WeightScheme::Unweighted);
    let pred = OverlapPredicate::absolute(1.0);
    let token = CancelToken::new();
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            token.cancel();
        })
    };
    let config = SsJoinConfig::new(Algorithm::Inline)
        .with_exec(ExecContext::new().with_threads(4).with_cancel_token(token));
    let result = ssjoin(&r, &s, &pred, &config);
    canceller.join().unwrap();
    match result {
        // Either the run finished before the cancel landed…
        Ok(out) => assert!(!out.pairs.is_empty()),
        // …or it aborted with the typed cause.
        Err(SsJoinError::BudgetExceeded { which, .. }) => {
            assert_eq!(which, BudgetCause::Cancelled);
        }
        Err(e) => panic!("unexpected {e}"),
    }
}
