//! Property-based tests for similarity functions, driven by a seeded PRNG
//! so every failure is reproducible from the iteration's seed.

use ssjoin_prng::{Rng, StdRng};
use ssjoin_sim::*;
use ssjoin_text::{QGramTokenizer, Tokenizer};

/// A random lowercase string over the first `alphabet` letters with length
/// in `lo..=hi`.
fn random_lower(rng: &mut StdRng, alphabet: u8, lo: usize, hi: usize) -> String {
    let len = rng.gen_range_inclusive(lo..=hi);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..alphabet)) as char)
        .collect()
}

/// A random vector of short tokens over `alphabet` letters.
fn random_tokens(
    rng: &mut StdRng,
    alphabet: u8,
    max_token_len: usize,
    max_n: usize,
) -> Vec<String> {
    let n = rng.gen_range_inclusive(0..=max_n);
    (0..n)
        .map(|_| random_lower(rng, alphabet, 1, max_token_len))
        .collect()
}

/// Levenshtein is a metric: identity and symmetry.
#[test]
fn levenshtein_identity_and_symmetry() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x1E5 + seed);
        let a = random_lower(&mut rng, 4, 0, 12);
        let b = random_lower(&mut rng, 4, 0, 12);
        assert_eq!(levenshtein(&a, &a), 0, "seed {seed}");
        assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a), "seed {seed}");
    }
}

#[test]
fn levenshtein_triangle() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x7A1 + seed);
        let a = random_lower(&mut rng, 3, 0, 8);
        let b = random_lower(&mut rng, 3, 0, 8);
        let c = random_lower(&mut rng, 3, 0, 8);
        assert!(
            levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c),
            "seed {seed}: a={a:?} b={b:?} c={c:?}"
        );
    }
}

/// Edit distance is bounded by the longer length and at least the length
/// difference.
#[test]
fn levenshtein_bounds() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0xB0 + seed);
        let a = random_lower(&mut rng, 5, 0, 16);
        let b = random_lower(&mut rng, 5, 0, 16);
        let d = levenshtein(&a, &b);
        let (la, lb) = (a.chars().count(), b.chars().count());
        assert!(d <= la.max(lb), "seed {seed}");
        assert!(d >= la.abs_diff(lb), "seed {seed}");
    }
}

/// The threshold-aware verifier agrees with the full DP for all budgets.
#[test]
fn within_matches_full() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0xBA2 + seed);
        let a = random_lower(&mut rng, 3, 0, 14);
        let b = random_lower(&mut rng, 3, 0, 14);
        let k = rng.gen_range(0usize..8);
        let d = levenshtein(&a, &b);
        match levenshtein_within(&a, &b, k) {
            Some(got) => {
                assert_eq!(got, d, "seed {seed}");
                assert!(d <= k, "seed {seed}");
            }
            None => assert!(d > k, "seed {seed}"),
        }
    }
}

/// Property 4 of the paper: strings within edit distance ε share at least
/// max(|σ1|,|σ2|) − q + 1 − ε·q q-grams (as a multiset overlap).
#[test]
fn qgram_overlap_lower_bound() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x46B + seed);
        let a = random_lower(&mut rng, 3, 3, 14);
        let b = random_lower(&mut rng, 3, 3, 14);
        let q = rng.gen_range(1usize..4);
        let eps = levenshtein(&a, &b);
        let tok = QGramTokenizer::new(q);
        let ga = tok.tokenize(&a);
        let gb = tok.tokenize(&b);
        let max_len = a.chars().count().max(b.chars().count());
        let bound = max_len as i64 - q as i64 + 1 - (eps * q) as i64;
        assert!(
            (overlap(&ga, &gb) as i64) >= bound,
            "seed {seed}: overlap {} < bound {bound} for a={a:?} b={b:?} q={q} eps={eps}",
            overlap(&ga, &gb)
        );
    }
}

/// Jaccard containment dominates resemblance; both in [0,1].
#[test]
fn jaccard_ranges() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x1AC + seed);
        let a = random_tokens(&mut rng, 3, 2, 11);
        let b = random_tokens(&mut rng, 3, 2, 11);
        let jc = jaccard_containment(&a, &b);
        let jr = jaccard_resemblance(&a, &b);
        assert!((0.0..=1.0).contains(&jc), "seed {seed}");
        assert!((0.0..=1.0).contains(&jr), "seed {seed}");
        assert!(jc + 1e-12 >= jr, "seed {seed}");
        // Symmetry of resemblance.
        assert!(
            (jr - jaccard_resemblance(&b, &a)).abs() < 1e-12,
            "seed {seed}"
        );
    }
}

/// JR(a,b) >= alpha implies max(JC(a,b), JC(b,a)) >= alpha — the rewrite
/// Figure 4 relies on.
#[test]
fn resemblance_implies_containment() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x4E5 + seed);
        let mut a = random_tokens(&mut rng, 2, 2, 9);
        let mut b = random_tokens(&mut rng, 2, 2, 9);
        if a.is_empty() {
            a.push("a".to_string());
        }
        if b.is_empty() {
            b.push("b".to_string());
        }
        let jr = jaccard_resemblance(&a, &b);
        let jc = jaccard_containment(&a, &b).max(jaccard_containment(&b, &a));
        assert!(jc + 1e-12 >= jr, "seed {seed}");
    }
}

/// Overlap is bounded by both multiset sizes.
#[test]
fn overlap_bounds() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x0B5 + seed);
        let a = random_tokens(&mut rng, 3, 1, 16);
        let b = random_tokens(&mut rng, 3, 1, 16);
        let o = overlap(&a, &b);
        assert!(o <= a.len(), "seed {seed}");
        assert!(o <= b.len(), "seed {seed}");
    }
}

/// GES is in [0,1] and 1 on identical sequences.
#[test]
fn ges_range() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x6E5 + seed);
        let a = random_tokens(&mut rng, 3, 4, 5);
        let b = random_tokens(&mut rng, 3, 4, 5);
        let g = ges(&a, &b, &|_| 1.0, GesConfig::default());
        assert!((0.0..=1.0).contains(&g), "seed {seed}");
        let gid = ges(&a, &a, &|_| 1.0, GesConfig::default());
        assert_eq!(gid, 1.0, "seed {seed}");
    }
}

/// GES(a,b) = 1 implies a = b for unit weights on nonempty sequences.
#[test]
fn ges_one_means_equal() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x0E1 + seed);
        let mut a = random_tokens(&mut rng, 2, 3, 4);
        let mut b = random_tokens(&mut rng, 2, 3, 4);
        if a.is_empty() {
            a.push("a".to_string());
        }
        if b.is_empty() {
            b.push("b".to_string());
        }
        let g = ges(&a, &b, &|_| 1.0, GesConfig::default());
        if (g - 1.0).abs() < 1e-12 {
            assert_eq!(a, b, "seed {seed}");
        }
    }
}

/// Hamming distance: defined iff equal length; symmetric; bounded.
#[test]
fn hamming_properties() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x4A3 + seed);
        let a = random_lower(&mut rng, 3, 0, 12);
        let b = random_lower(&mut rng, 3, 0, 12);
        match hamming_distance(&a, &b) {
            Some(d) => {
                assert_eq!(a.chars().count(), b.chars().count(), "seed {seed}");
                assert!(d <= a.chars().count(), "seed {seed}");
                assert_eq!(hamming_distance(&b, &a), Some(d), "seed {seed}");
                // Hamming upper-bounds Levenshtein.
                assert!(levenshtein(&a, &b) <= d, "seed {seed}");
            }
            None => assert_ne!(a.chars().count(), b.chars().count(), "seed {seed}"),
        }
    }
}

/// edit_similarity_at_least agrees with computing the similarity.
#[test]
fn threshold_udf_agrees() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x7D0 + seed);
        let a = random_lower(&mut rng, 3, 0, 10);
        let b = random_lower(&mut rng, 3, 0, 10);
        let alpha = rng.gen_f64();
        let expect = edit_similarity(&a, &b) >= alpha - 1e-9;
        assert_eq!(
            edit_similarity_at_least(&a, &b, alpha),
            expect,
            "seed {seed}"
        );
    }
}

/// edit_similarity_within is `Some(edit_similarity)` bit for bit at or above
/// the threshold and `None` below it — on empty, unicode and random strings,
/// at thresholds exactly on, just above and just below the similarity.
#[test]
fn similarity_within_equals_full_similarity() {
    let fixed = [
        ("", ""),
        ("", "abc"),
        ("café münchen", "cafe münchen"),
        ("日本語テキスト", "日本語テクスト"),
        ("abcdefghij", "abcdefghXY"),
        ("abcde", "abcdX"),
    ];
    let mut pairs: Vec<(String, String)> = fixed
        .iter()
        .map(|&(a, b)| (a.to_string(), b.to_string()))
        .collect();
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0xE51 + seed);
        pairs.push((
            random_lower(&mut rng, 3, 0, 20),
            random_lower(&mut rng, 3, 0, 20),
        ));
    }
    for (i, (a, b)) in pairs.iter().enumerate() {
        let es = edit_similarity(a, b);
        let mut alphas = vec![0.0, 0.5, 0.8, 0.85, 0.9, 1.0, es];
        // The neighbouring doubles of `es` (it lies in [0, 1]).
        alphas.push(f64::from_bits(es.to_bits() + 1));
        if es > 0.0 {
            alphas.push(f64::from_bits(es.to_bits() - 1));
        }
        for alpha in alphas {
            let got = edit_similarity_within(a, b, alpha);
            let expect = (es >= alpha).then_some(es);
            assert_eq!(
                got.map(f64::to_bits),
                expect.map(f64::to_bits),
                "pair {i} {a:?} {b:?} alpha {alpha}"
            );
            assert_eq!(edit_similarity_at_least(a, b, alpha), expect.is_some());
        }
    }
}
