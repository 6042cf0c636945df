//! Property-based tests: every physical implementation of SSJoin must agree
//! with a brute-force oracle, for random inputs, weights, orders, and
//! predicate shapes. Inputs are driven by a seeded PRNG so every failure is
//! reproducible from the iteration's seed.

use ssjoin_core::kernel::{overlap_at_least, overlap_gallop, verify_overlap};
use ssjoin_core::plan::{basic_plan, collection_to_relation, inline_plan, prefix_plan, run_plan};
use ssjoin_core::{
    ssjoin, Algorithm, CorpusIndex, ElementOrder, ExecContext, JoinPair, JoinWorkspace,
    OverlapPredicate, SetCollection, SsJoinConfig, SsJoinInputBuilder, SsJoinStats, Weight,
    WeightScheme,
};
use ssjoin_prng::{Rng, StdRng};
use std::sync::Arc;

/// Brute force: check every pair with the merge-based overlap.
fn oracle(r: &SetCollection, s: &SetCollection, pred: &OverlapPredicate) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for (i, rs) in r.iter().enumerate() {
        for (j, ss) in s.iter().enumerate() {
            let ov = rs.overlap(ss);
            if pred.check(ov, rs.norm(), ss.norm()) {
                out.push((i as u32, j as u32));
            }
        }
    }
    out
}

fn pairs_to_keys(pairs: &[JoinPair]) -> Vec<(u32, u32)> {
    pairs.iter().map(|p| (p.r, p.s)).collect()
}

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

fn random_order(rng: &mut StdRng) -> ElementOrder {
    match rng.gen_range(0u32..4) {
        0 => ElementOrder::FrequencyAsc,
        1 => ElementOrder::FrequencyDesc,
        2 => ElementOrder::Lexicographic,
        _ => ElementOrder::Hashed,
    }
}

fn build_two(
    r_groups: Vec<Vec<String>>,
    s_groups: Vec<Vec<String>>,
    scheme: WeightScheme,
    order: ElementOrder,
) -> (SetCollection, SetCollection) {
    let mut b = SsJoinInputBuilder::new(scheme, order);
    let rh = b.add_relation(r_groups);
    let sh = b.add_relation(s_groups);
    let built = b.build().unwrap();
    (built.collection(rh).clone(), built.collection(sh).clone())
}

/// The four fast-path executors and the planner agree with the oracle, for
/// every weighting scheme and global order.
#[test]
fn executors_match_oracle() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xA110 + seed);
        let scheme = if rng.gen_bool(0.5) {
            WeightScheme::Idf
        } else {
            WeightScheme::Unweighted
        };
        let order = random_order(&mut rng);
        let pred = random_predicate(&mut rng);
        let (r, s) = build_two(
            random_groups(&mut rng),
            random_groups(&mut rng),
            scheme,
            order,
        );
        let expect = oracle(&r, &s, &pred);
        for alg in [
            Algorithm::Basic,
            Algorithm::PrefixFiltered,
            Algorithm::Inline,
            Algorithm::PositionalInline,
            Algorithm::Auto,
        ] {
            let out = ssjoin(&r, &s, &pred, &SsJoinConfig::new(alg)).unwrap();
            assert_eq!(
                pairs_to_keys(&out.pairs),
                expect,
                "seed {seed}, algorithm {alg:?}, order {order:?}, scheme {scheme:?}"
            );
        }
    }
}

/// Overlap values reported by different algorithms are identical (exact
/// fixed-point, not merely approximately equal).
#[test]
fn overlaps_are_exact_across_algorithms() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xEAAC + seed);
        let pred = random_predicate(&mut rng);
        let groups = random_groups(&mut rng);
        let (r, s) = build_two(
            groups.clone(),
            groups,
            WeightScheme::Idf,
            ElementOrder::FrequencyAsc,
        );
        let a = ssjoin(&r, &s, &pred, &SsJoinConfig::new(Algorithm::Basic)).unwrap();
        let b = ssjoin(&r, &s, &pred, &SsJoinConfig::new(Algorithm::Inline)).unwrap();
        assert_eq!(a.pairs, b.pairs, "seed {seed}");
    }
}

/// The relational plans (Figures 7/8/9) agree with the fast path.
#[test]
fn relational_plans_match_fast_path() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0x9E1A + seed);
        let pred = random_predicate(&mut rng);
        // Smaller inputs: the plan path materializes full intermediates.
        let n = rng.gen_range(1usize..12);
        let groups: Vec<Vec<String>> = (0..n)
            .map(|_| {
                let len = rng.gen_range(0usize..6);
                (0..len)
                    .map(|_| ((b'a' + rng.gen_range(0u8..6)) as char).to_string())
                    .collect()
            })
            .collect();
        let (r, s) = build_two(
            groups.clone(),
            groups,
            WeightScheme::Idf,
            ElementOrder::FrequencyAsc,
        );
        let expect = ssjoin(&r, &s, &pred, &SsJoinConfig::new(Algorithm::Basic))
            .unwrap()
            .pairs;

        let r_rel = Arc::new(collection_to_relation(&r));
        let s_rel = Arc::new(collection_to_relation(&s));
        let (basic, _) =
            run_plan(basic_plan(r_rel.clone(), s_rel.clone(), &pred).as_ref()).unwrap();
        assert_eq!(&basic, &expect, "basic plan, seed {seed}");
        let (prefix, _) =
            run_plan(prefix_plan(r_rel, s_rel, &pred, r.norm_range(), s.norm_range()).as_ref())
                .unwrap();
        assert_eq!(&prefix, &expect, "prefix plan, seed {seed}");
        let (inline, _) = run_plan(inline_plan(&r, &s, &pred).as_ref()).unwrap();
        assert_eq!(&inline, &expect, "inline plan, seed {seed}");
    }
}

/// Parallel execution — with the bitmap signature filter on or off — is
/// exactly equivalent to sequential: same pairs, same overlaps, for every
/// algorithm.
#[test]
fn parallel_equals_sequential() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x5A4D + seed);
        let pred = random_predicate(&mut rng);
        let order = random_order(&mut rng);
        let groups = random_groups(&mut rng);
        let (r, s) = build_two(groups.clone(), groups, WeightScheme::Idf, order);
        for alg in [
            Algorithm::Basic,
            Algorithm::PrefixFiltered,
            Algorithm::Inline,
            Algorithm::PositionalInline,
            Algorithm::Auto,
        ] {
            let seq = ssjoin(&r, &s, &pred, &SsJoinConfig::new(alg)).unwrap();
            for threads in [2usize, 8] {
                for bitmap in [false, true] {
                    let ctx = ExecContext::new()
                        .with_threads(threads)
                        .with_bitmap_filter(bitmap);
                    let par =
                        ssjoin(&r, &s, &pred, &SsJoinConfig::new(alg).with_exec(ctx)).unwrap();
                    assert_eq!(
                        seq.pairs, par.pairs,
                        "seed {seed}, alg {alg:?}, threads {threads}, bitmap {bitmap}"
                    );
                }
            }
        }
    }
}

/// The verification kernel and both of its paths (early-exit merge and
/// galloping) agree with the full linear merge on random weighted sets —
/// including empty, singleton, disjoint, identical, and heavily
/// skewed-length pairs — at thresholds below, at, and above the exact
/// overlap.
#[test]
fn kernels_agree_with_linear_oracle() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xCE12 + seed);
        // Shape mixture: empty, singleton, random small sets, one long set
        // plus a tiny subset of it (the skewed-length case galloping is for).
        let mut groups: Vec<Vec<String>> = vec![vec![], vec!["solo".to_string()]];
        groups.extend(random_groups(&mut rng));
        groups.push((0..200).map(|i| format!("L{i:03}")).collect());
        groups.push(
            (0..3)
                .map(|k| format!("L{:03}", 50 * (k + 1) + rng.gen_range(0u8..40) as usize))
                .collect(),
        );
        let (c, _) = build_two(
            groups.clone(),
            groups,
            WeightScheme::Idf,
            ElementOrder::FrequencyAsc,
        );
        for i in 0..c.len() as u32 {
            for j in 0..c.len() as u32 {
                let (a, b) = (c.set(i), c.set(j));
                let exact = a.overlap(b);
                // Thresholds straddling the exact overlap, plus the extremes.
                let requireds = [
                    Weight::ZERO,
                    Weight::from_raw(exact.raw() / 2),
                    exact,
                    exact + Weight::EPSILON,
                    a.total_weight().max(b.total_weight()) + Weight::ONE,
                ];
                for required in requireds {
                    let want = (exact >= required).then_some(exact);
                    let mut st = SsJoinStats::default();
                    assert_eq!(
                        overlap_at_least(a, b, required, &mut st),
                        want,
                        "early-exit: seed {seed} pair ({i},{j}) required {required}"
                    );
                    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                    assert_eq!(
                        overlap_gallop(short, long, required, &mut st),
                        want,
                        "gallop: seed {seed} pair ({i},{j}) required {required}"
                    );
                    assert_eq!(
                        verify_overlap(a, b, required, &mut st),
                        want,
                        "verify_overlap: seed {seed} pair ({i},{j}) required {required}"
                    );
                }
            }
        }
    }
}

/// The bitmap filter never changes the join output: for every executor ×
/// thread count, with the filter on and off, the emitted pairs (ids *and*
/// overlaps) are bit-identical to the sequential unfiltered baseline. This
/// is the losslessness proof for the signature filter: the 8-word bound
/// always dominates the exact overlap, so pruning below the required
/// overlap removes only pairs the predicate would reject anyway.
#[test]
fn bitmap_filter_never_changes_output() {
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x51D7 + seed);
        let pred = random_predicate(&mut rng);
        let order = random_order(&mut rng);
        let groups = random_groups(&mut rng);
        let (r, s) = build_two(groups.clone(), groups, WeightScheme::Idf, order);
        for alg in [
            Algorithm::Basic,
            Algorithm::PrefixFiltered,
            Algorithm::Inline,
            Algorithm::PositionalInline,
            Algorithm::Auto,
        ] {
            let baseline = ssjoin(&r, &s, &pred, &SsJoinConfig::new(alg)).unwrap();
            for threads in [1usize, 2, 8] {
                for filter in [false, true] {
                    let ctx = ExecContext::new()
                        .with_threads(threads)
                        .with_bitmap_filter(filter);
                    let out =
                        ssjoin(&r, &s, &pred, &SsJoinConfig::new(alg).with_exec(ctx)).unwrap();
                    assert_eq!(
                        baseline.pairs, out.pairs,
                        "seed {seed}, alg {alg:?}, threads {threads}, filter {filter}"
                    );
                }
            }
        }
    }
}

/// The counters a run's schedule cannot change: every one of them must be
/// identical at any thread count.
fn work_counters(st: &SsJoinStats) -> [u64; 8] {
    [
        st.join_tuples,
        st.candidate_pairs,
        st.verified_pairs,
        st.bitmap_probes,
        st.bitmap_prunes,
        st.merge_steps,
        st.early_exits,
        st.gallop_probes,
    ]
}

/// Parallel inline through the public API at 2, 4 and 8 threads, on
/// deterministic unweighted and Idf corpora under absolute, one-sided and
/// two-sided predicates (and on an empty input): the pairs arrive in the
/// sequential `(r, s)` order with no caller-side sort, and every
/// schedule-independent counter equals the sequential run's.
#[test]
fn parallel_inline_counters_equal_sequential() {
    let groups: Vec<Vec<String>> = (0..90)
        .map(|i| {
            (0..(2 + i % 7))
                .map(|j| format!("v{}", (i * 13 + j * 17) % 41))
                .collect()
        })
        .collect();
    let cases = [groups.clone(), groups, Vec::new()];
    for (case, (groups, scheme)) in cases
        .into_iter()
        .zip([
            WeightScheme::Unweighted,
            WeightScheme::Idf,
            WeightScheme::Idf,
        ])
        .enumerate()
    {
        let (r, s) = build_two(groups.clone(), groups, scheme, ElementOrder::FrequencyAsc);
        for pred in [
            OverlapPredicate::absolute(2.0),
            OverlapPredicate::r_normalized(0.7),
            OverlapPredicate::two_sided(0.5),
        ] {
            for filter in [false, true] {
                let ctx = ExecContext::new().with_bitmap_filter(filter);
                let run = |threads: usize| {
                    let cfg = SsJoinConfig::new(Algorithm::Inline)
                        .with_exec(ctx.clone().with_threads(threads));
                    ssjoin(&r, &s, &pred, &cfg).unwrap()
                };
                let seq = run(1);
                for threads in [2usize, 4, 8] {
                    let par = run(threads);
                    let what = format!("case {case}, {pred:?}, filter {filter}, threads {threads}");
                    assert_eq!(seq.pairs, par.pairs, "{what}");
                    assert_eq!(
                        work_counters(&seq.stats),
                        work_counters(&par.stats),
                        "{what}"
                    );
                }
            }
        }
    }
}

/// Parallel inline on a Zipf-head corpus — every set carries one stop-word
/// token, so a single rank's posting list spans the whole collection and one
/// worker's chunk may hold most of the verification work — emits exactly the
/// sequential pairs at every thread count, with or without the filter, and
/// does exactly the sequential work.
#[test]
fn parallel_inline_matches_sequential_on_zipf_head() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0x21FF + seed);
        let groups: Vec<Vec<String>> = (0..rng.gen_range(40usize..120))
            .map(|i| {
                let mut g = vec!["the".to_string()];
                if rng.gen_bool(0.7) {
                    g.push("of".to_string());
                }
                g.push(format!("mid{}", i % 9));
                for _ in 0..rng.gen_range(1usize..5) {
                    g.push(format!("r{}", rng.gen_range(0u32..60)));
                }
                g
            })
            .collect();
        let pred = random_predicate(&mut rng);
        let (r, s) = build_two(
            groups.clone(),
            groups,
            WeightScheme::Idf,
            ElementOrder::FrequencyAsc,
        );
        for filter in [false, true] {
            let ctx = ExecContext::new().with_bitmap_filter(filter);
            let run = |threads: usize| {
                let cfg = SsJoinConfig::new(Algorithm::Inline)
                    .with_exec(ctx.clone().with_threads(threads));
                ssjoin(&r, &s, &pred, &cfg).unwrap()
            };
            let seq = run(1);
            for threads in [2usize, 4, 8] {
                let par = run(threads);
                let what = format!("seed {seed}, threads {threads}, filter {filter}");
                assert_eq!(seq.pairs, par.pairs, "{what}");
                assert_eq!(par.algorithm_used, Algorithm::Inline);
                assert_eq!(
                    work_counters(&seq.stats),
                    work_counters(&par.stats),
                    "{what}"
                );
            }
        }
    }
}

/// The planner's contract: whatever `Algorithm::Auto` picks, its output is
/// bit-identical (ids *and* overlaps) to every forced configuration —
/// executor × thread count × filter — on both the one-shot path and the
/// [`CorpusIndex::probe`] path.
#[test]
fn auto_matches_every_forced_configuration() {
    const EXECUTORS: [Algorithm; 4] = [
        Algorithm::Basic,
        Algorithm::PrefixFiltered,
        Algorithm::Inline,
        Algorithm::PositionalInline,
    ];
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0xA070 + seed);
        let pred = random_predicate(&mut rng);
        let order = random_order(&mut rng);
        let groups = random_groups(&mut rng);
        let (r, s) = build_two(groups.clone(), groups, WeightScheme::Idf, order);
        let auto = ssjoin(&r, &s, &pred, &SsJoinConfig::new(Algorithm::Auto)).unwrap();
        assert!(auto.stats.plan.is_some(), "seed {seed}: no plan recorded");
        let index = CorpusIndex::build(s.clone(), pred.clone()).unwrap();
        let mut ws = JoinWorkspace::new();
        for threads in [1usize, 4] {
            let auto_probe = index
                .probe(
                    &r,
                    &SsJoinConfig::new(Algorithm::Auto)
                        .with_exec(ExecContext::new().with_threads(threads)),
                    &mut ws,
                )
                .unwrap();
            assert!(
                auto_probe.stats.plan.is_some(),
                "seed {seed}, {threads}t: no probe plan recorded"
            );
            assert_eq!(auto.pairs, auto_probe.pairs, "seed {seed}, {threads}t");
            for alg in EXECUTORS {
                for filter in [false, true] {
                    let cfg = SsJoinConfig::new(alg).with_exec(
                        ExecContext::new()
                            .with_threads(threads)
                            .with_bitmap_filter(filter),
                    );
                    let forced = ssjoin(&r, &s, &pred, &cfg).unwrap();
                    assert_eq!(
                        auto.pairs, forced.pairs,
                        "seed {seed}: auto differs from {alg:?}/{threads}t/filter={filter}"
                    );
                    let probed = index.probe(&r, &cfg, &mut ws).unwrap();
                    assert_eq!(
                        auto.pairs, probed.pairs,
                        "seed {seed}: probe differs from {alg:?}/{threads}t/filter={filter}"
                    );
                }
            }
        }
    }
}

/// Regression for the planner's parallel branch: with a multi-thread budget
/// and an input heavy enough that the modeled parallel saving dwarfs the
/// spawn cost, `Algorithm::Auto` must plan a parallel configuration — it
/// used to silently run its chosen executor sequentially, ignoring
/// `ExecContext::threads` entirely.
#[test]
fn auto_plan_uses_requested_parallelism() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 2 {
        eprintln!(
            "skipping auto_plan_uses_requested_parallelism: \
             host has a single core, the clamp forces sequential plans \
             (the planner's parallel branch is covered by the pure cost-model \
             unit tests in exec/auto.rs)"
        );
        return;
    }
    let groups: Vec<Vec<String>> = (0..4000)
        .map(|i| {
            (0..8)
                .map(|j| format!("t{}", (i * 31 + j * 7) % 199))
                .collect()
        })
        .collect();
    let (r, s) = build_two(
        groups.clone(),
        groups,
        WeightScheme::Idf,
        ElementOrder::FrequencyAsc,
    );
    let pred = OverlapPredicate::two_sided(0.7);
    let cfg = SsJoinConfig::new(Algorithm::Auto).with_exec(ExecContext::new().with_threads(cores));
    let out = ssjoin(&r, &s, &pred, &cfg).unwrap();
    let plan = out.stats.plan.expect("auto records a plan");
    assert!(
        plan.threads > 1,
        "auto degraded to a sequential plan on a {cores}-core host: {plan:?}"
    );
    assert_eq!(
        plan.threads as u64, out.stats.effective_threads,
        "the plan must spend the whole effective thread budget: {plan:?}"
    );
}

/// Monotonicity: raising an absolute threshold never adds pairs.
#[test]
fn threshold_monotonicity() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x300 + seed);
        let lo = 0.5 + 1.5 * rng.gen_f64();
        let delta = 0.1 + 1.9 * rng.gen_f64();
        let groups = random_groups(&mut rng);
        let (r, s) = build_two(
            groups.clone(),
            groups,
            WeightScheme::Unweighted,
            ElementOrder::FrequencyAsc,
        );
        let loose = ssjoin(
            &r,
            &s,
            &OverlapPredicate::absolute(lo),
            &SsJoinConfig::default(),
        )
        .unwrap();
        let tight = ssjoin(
            &r,
            &s,
            &OverlapPredicate::absolute(lo + delta),
            &SsJoinConfig::default(),
        )
        .unwrap();
        let loose_keys: std::collections::HashSet<_> =
            pairs_to_keys(&loose.pairs).into_iter().collect();
        for key in pairs_to_keys(&tight.pairs) {
            assert!(loose_keys.contains(&key), "seed {seed}, key {key:?}");
        }
    }
}

/// Self-join symmetry for symmetric predicates: (i, j) present iff (j, i)
/// present.
#[test]
fn self_join_symmetry() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x55EF + seed);
        let alpha = 0.1 + 0.9 * rng.gen_f64();
        let groups = random_groups(&mut rng);
        let (r, s) = build_two(
            groups.clone(),
            groups,
            WeightScheme::Idf,
            ElementOrder::FrequencyAsc,
        );
        let out = ssjoin(
            &r,
            &s,
            &OverlapPredicate::two_sided(alpha),
            &SsJoinConfig::default(),
        )
        .unwrap();
        let keys: std::collections::HashSet<_> = pairs_to_keys(&out.pairs).into_iter().collect();
        for &(i, j) in &keys {
            assert!(
                keys.contains(&(j, i)),
                "seed {seed}, missing mirror of ({i},{j})"
            );
        }
    }
}
