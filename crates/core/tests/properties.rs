//! Property-based tests: every physical implementation of SSJoin must agree
//! with a brute-force oracle, for random inputs, weights, orders, and
//! predicate shapes. Inputs are driven by a seeded PRNG so every failure is
//! reproducible from the iteration's seed.

use ssjoin_baselines::naive_join;
use ssjoin_core::kernel::{overlap_at_least, overlap_gallop, verify_overlap, GALLOP_CROSSOVER};
use ssjoin_core::plan::{basic_plan, collection_to_relation, inline_plan, prefix_plan, run_plan};
use ssjoin_core::{
    estimate_memory_bytes, ssjoin, Algorithm, ElementOrder, ExecBudget, ExecContext, JoinPair,
    NormKind, OverlapPredicate, SetCollection, SetRef, SsJoinConfig, SsJoinInputBuilder,
    SsJoinStats, Weight, WeightScheme,
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

/// The three executors agree with the oracle, for every weighting scheme
/// and global order.
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

/// Each set's suffix weights, `suffix[i] = Σ weights[i..]` (one entry past
/// the end, zero): the column the kernels read before they tracked the
/// suffix from the total.
fn suffixes(set: SetRef<'_>) -> Vec<Weight> {
    let mut out = vec![Weight::ZERO; set.len() + 1];
    let weights = set.weights();
    for k in (0..set.len()).rev() {
        out[k] = out[k + 1] + weights[k];
    }
    out
}

/// The early-exit merge over a stored suffix column, counting merge steps
/// and early exits: the reference for [`overlap_at_least`]'s counters.
fn column_at_least(
    a: SetRef<'_>,
    b: SetRef<'_>,
    required: Weight,
    st: &mut SsJoinStats,
) -> Option<Weight> {
    let (sa, sb) = (suffixes(a), suffixes(b));
    let (ar, br, aw) = (a.ranks(), b.ranks(), a.weights());
    let (mut i, mut j, mut acc) = (0, 0, Weight::ZERO);
    while i < ar.len() && j < br.len() {
        if acc + sa[i].min(sb[j]) < required {
            st.early_exits += 1;
            return None;
        }
        st.merge_steps += 1;
        if ar[i] == br[j] {
            acc += aw[i];
        }
        let (x, y) = (ar[i], br[j]);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    (acc >= required).then_some(acc)
}

/// The galloping kernel over a stored suffix column: the reference for
/// [`overlap_gallop`]'s early exits and probes.
fn column_gallop(
    short: SetRef<'_>,
    long: SetRef<'_>,
    required: Weight,
    st: &mut SsJoinStats,
) -> Option<Weight> {
    let (ss, sl) = (suffixes(short), suffixes(long));
    let (lr, sw) = (long.ranks(), short.weights());
    let (mut j, mut acc) = (0, Weight::ZERO);
    for (i, &rank) in short.ranks().iter().enumerate() {
        if j >= lr.len() {
            break;
        }
        if acc + ss[i].min(sl[j]) < required {
            st.early_exits += 1;
            return None;
        }
        // Exponential probe from j, then binary search, counting compares.
        let (mut lo, mut hi, mut bound) = (j, lr.len(), 1);
        while j + bound < lr.len() {
            st.gallop_probes += 1;
            if lr[j + bound] < rank {
                lo = j + bound + 1;
                bound <<= 1;
            } else {
                hi = j + bound + 1;
                break;
            }
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            st.gallop_probes += 1;
            if lr[mid] < rank {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        j = lo;
        if j < lr.len() && lr[j] == rank {
            acc += sw[i];
            j += 1;
        }
    }
    (acc >= required).then_some(acc)
}

/// The verification kernel and both of its paths (early-exit merge and
/// galloping) agree with an oracle that sums the universe's weights over
/// the shared ranks, on random sets under unit, IDF and squared-IDF
/// weights — including empty, singleton, disjoint, identical, and skewed
/// pairs past [`GALLOP_CROSSOVER`] — at thresholds below, at, and above
/// the exact overlap. Their `merge_steps`, `early_exits` and
/// `gallop_probes` equal those of the same kernels over a stored suffix
/// column, so tracking the suffix from the set's total changes no counter;
/// the run must gallop and exit early under every scheme.
#[test]
fn kernels_agree_with_linear_oracle() {
    for scheme in [
        WeightScheme::Unweighted,
        WeightScheme::Idf,
        WeightScheme::IdfSquared,
    ] {
        let (mut total, mut skewed) = (SsJoinStats::default(), 0);
        for seed in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(0xCE12 + seed);
            // Shape mixture: empty, singleton, random small sets, one long
            // set plus a tiny subset of it (the skewed-length case galloping
            // is for).
            let mut groups: Vec<Vec<String>> = vec![vec![], vec!["solo".to_string()]];
            groups.extend(random_groups(&mut rng));
            groups.push((0..200).map(|i| format!("L{i:03}")).collect());
            groups.push(
                (0..3)
                    .map(|k| format!("L{:03}", 50 * (k + 1) + rng.gen_range(0u8..40) as usize))
                    .collect(),
            );
            let mut b = SsJoinInputBuilder::new(scheme, ElementOrder::FrequencyAsc);
            let h = b.add_relation(groups);
            let built = b.build().unwrap();
            let c = built.collection(h);
            assert_eq!(c.is_weighted(), scheme != WeightScheme::Unweighted);
            for i in 0..c.len() as u32 {
                for j in 0..c.len() as u32 {
                    let (a, b) = (c.set(i), c.set(j));
                    let exact: Weight = a
                        .ranks()
                        .iter()
                        .filter(|r| b.ranks().binary_search(r).is_ok())
                        .map(|&r| built.element_weight(r))
                        .sum();
                    assert_eq!(a.overlap(b), exact, "{scheme:?} seed {seed} ({i},{j})");
                    // Thresholds straddling the exact overlap, plus the
                    // extremes.
                    let requireds = [
                        Weight::ZERO,
                        Weight::from_raw(exact.raw() / 2),
                        exact,
                        exact + Weight::EPSILON,
                        a.total_weight().max(b.total_weight()) + Weight::ONE,
                    ];
                    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                    skewed += usize::from(
                        !short.is_empty() && long.len() / short.len() >= GALLOP_CROSSOVER,
                    );
                    for required in requireds {
                        let want = (exact >= required).then_some(exact);
                        let what = format!("{scheme:?} seed {seed} ({i},{j}) required {required}");
                        let (mut st, mut col) = (SsJoinStats::default(), SsJoinStats::default());
                        assert_eq!(overlap_at_least(a, b, required, &mut st), want, "{what}");
                        assert_eq!(column_at_least(a, b, required, &mut col), want, "{what}");
                        assert_eq!(
                            overlap_gallop(short, long, required, &mut st),
                            want,
                            "{what}"
                        );
                        assert_eq!(
                            column_gallop(short, long, required, &mut col),
                            want,
                            "{what}"
                        );
                        assert_eq!(work_counters(&st), work_counters(&col), "{what}");
                        let mut kernel = SsJoinStats::default();
                        assert_eq!(verify_overlap(a, b, required, &mut kernel), want, "{what}");
                        total.merge(&kernel);
                    }
                }
            }
        }
        assert!(skewed > 0, "{scheme:?}: no pair past the gallop crossover");
        assert!(
            total.gallop_probes > 0,
            "{scheme:?}: no skewed pair galloped"
        );
        assert!(total.early_exits > 0, "{scheme:?}: no pair exited early");
        assert!(total.merge_steps > 0, "{scheme:?}: no pair merged");
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
                assert_eq!(
                    work_counters(&seq.stats),
                    work_counters(&par.stats),
                    "{what}"
                );
            }
        }
    }
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

/// A predicate with a norm ratio gives the oracle's answer whether the
/// sets' ids follow their norms (each probe then walks one id window of
/// every posting list) or not (each candidate's norms are checked instead):
/// on the self-join's half path and the two-relation path, under every
/// executor, at 1 and 3 workers, resident and spilled. Approximate output
/// stays a subset of it.
#[test]
fn norm_ratio_matches_oracle_in_and_out_of_norm_order() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x4A71 + seed);
        let pred = random_predicate(&mut rng).with_norm_ratio(0.2 + 0.8 * rng.gen_f64());
        let mut groups = random_groups(&mut rng);
        let others = random_groups(&mut rng);
        for sorted in [false, true] {
            if sorted {
                groups.sort_by_key(Vec::len);
            }
            // Unweighted cardinality norms: sorting the groups by size sorts
            // the norms.
            let mut b =
                SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
            let ch = b.add_relation_with_norm(groups.clone(), NormKind::Cardinality);
            let oh = b.add_relation_with_norm(others.clone(), NormKind::Cardinality);
            let built = b.build().unwrap();
            let (c, o) = (built.collection(ch), built.collection(oh));
            assert!(!sorted || c.norms_sorted(), "seed {seed}");
            for (r, s) in [(c, c), (o, c)] {
                let expect = oracle(r, s, &pred);
                for alg in [
                    Algorithm::Basic,
                    Algorithm::PrefixFiltered,
                    Algorithm::Inline,
                ] {
                    for threads in [1, 3] {
                        for resident in [None, Some(1)] {
                            let mut budget = ExecBudget::new();
                            if let Some(bytes) = resident {
                                budget = budget.with_max_resident_bytes(bytes);
                            }
                            let exec = ExecContext::new().with_threads(threads).with_budget(budget);
                            let out = ssjoin(r, s, &pred, &SsJoinConfig::new(alg).with_exec(exec))
                                .unwrap();
                            assert_eq!(
                                pairs_to_keys(&out.pairs),
                                expect,
                                "seed {seed} sorted {sorted} self {} {alg:?} threads {threads} \
                                 resident {resident:?} {pred}",
                                std::ptr::eq(r, s)
                            );
                        }
                    }
                }
                let approx =
                    SsJoinConfig::default().with_exec(ExecContext::new().with_approximate(0.9));
                let out = ssjoin(r, s, &pred, &approx).unwrap();
                for key in pairs_to_keys(&out.pairs) {
                    assert!(expect.contains(&key), "seed {seed} sorted {sorted} {key:?}");
                }
            }
        }
    }
}

/// Adversarial group generator: empty relations, empty sets, a single-token
/// vocabulary, and heavy duplicates.
fn adversarial_groups(rng: &mut StdRng, case: u32) -> Vec<Vec<String>> {
    match case {
        // Empty relation.
        0 => Vec::new(),
        // All-empty sets.
        1 => vec![Vec::new(); rng.gen_range(1usize..5)],
        // Single-token vocabulary: every set repeats one token (ordinalized
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
        // Mixed: some empty, some single-token, some random.
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

/// Adversarial inputs never panic any executor, at 1 and 3 workers,
/// resident and spilled (a resident budget of a quarter of the estimate),
/// and every run returns exactly the pairs of the naive UDF cross product
/// (`ssjoin_baselines::naive_join` over the predicate), with exact overlaps.
#[test]
fn adversarial_inputs_never_panic() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xB0D6 + seed);
        let r_case = rng.gen_range(0u32..5);
        let s_case = rng.gen_range(0u32..5);
        let scheme = if rng.gen_bool(0.5) {
            WeightScheme::Idf
        } else {
            WeightScheme::Unweighted
        };
        let (r, s) = build_two(
            adversarial_groups(&mut rng, r_case),
            adversarial_groups(&mut rng, s_case),
            scheme,
            ElementOrder::FrequencyAsc,
        );
        let pred = random_predicate(&mut rng);
        let (r_sets, s_sets): (Vec<_>, Vec<_>) = (r.iter().collect(), s.iter().collect());
        let (naive, _) = naive_join(&r_sets, &s_sets, 1.0, |a, b| {
            f64::from(u8::from(pred.check(a.overlap(*b), a.norm(), b.norm())))
        });
        let expect: Vec<(u32, u32)> = naive.iter().map(|&(i, j, _)| (i, j)).collect();
        let spill_at = estimate_memory_bytes(&r, &s) / 4;
        for alg in [
            Algorithm::Basic,
            Algorithm::PrefixFiltered,
            Algorithm::Inline,
        ] {
            for threads in [1usize, 3] {
                for budget in [
                    ExecBudget::new(),
                    ExecBudget::new().with_max_resident_bytes(spill_at),
                ] {
                    let ctx = format!("seed {seed} {alg:?} threads {threads} {budget:?}");
                    let exec = ExecContext::new().with_threads(threads).with_budget(budget);
                    let out = ssjoin(&r, &s, &pred, &SsJoinConfig::new(alg).with_exec(exec))
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    assert_eq!(pairs_to_keys(&out.pairs), expect, "{ctx}");
                    for p in &out.pairs {
                        assert_eq!(p.overlap, r.set(p.r).overlap(s.set(p.s)), "{ctx}");
                    }
                }
            }
        }
    }
}
