//! Property-based tests: every packaged similarity join against brute
//! force on random inputs — including the short strings where the q-gram
//! bound is vacuous, which the joins claim to handle exactly. Inputs are
//! driven by a seeded PRNG so every failure is reproducible from the
//! iteration's seed.

use ssjoin_core::{Algorithm, WeightScheme};
use ssjoin_joins::{
    edit_similarity_join, hamming_join, jaccard_join, soft_fd_join, EditJoinConfig,
    HammingJoinConfig, JaccardConfig, SoftFdConfig, TopKConfig, TopKIndex,
};
use ssjoin_prng::{Rng, StdRng};
use ssjoin_sim::{edit_distance_budget, edit_similarity, hamming_distance, jaccard_resemblance};
use ssjoin_text::{Tokenizer, WordTokenizer};

/// A random string over `pool` with length in `0..=max_len`.
fn random_string(rng: &mut StdRng, pool: &[char], max_len: usize) -> String {
    let len = rng.gen_range_inclusive(0..=max_len);
    (0..len).map(|_| pool[rng.gen_index(pool.len())]).collect()
}

/// 1–9 strings of up to 14 chars over {a, b, c, space} — word-boundary and
/// empty-string heavy.
fn random_corpus(rng: &mut StdRng) -> Vec<String> {
    let n = rng.gen_range(1usize..10);
    (0..n)
        .map(|_| random_string(rng, &['a', 'b', 'c', ' '], 14))
        .collect()
}

/// The edit join is exact for arbitrary (including very short) strings.
#[test]
fn edit_join_exact() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xED17 + seed);
        let data = random_corpus(&mut rng);
        let theta = 0.3 + 0.65 * rng.gen_f64();
        let mut expect = Vec::new();
        for (i, a) in data.iter().enumerate() {
            for (j, b) in data.iter().enumerate() {
                if edit_similarity(a, b) >= theta - 1e-9 {
                    expect.push((i as u32, j as u32));
                }
            }
        }
        for alg in [Algorithm::Basic, Algorithm::Inline] {
            let out = edit_similarity_join(
                &data,
                &data,
                &EditJoinConfig::new(theta).with_algorithm(alg),
            )
            .unwrap();
            assert_eq!(out.keys(), expect, "seed {seed} alg {alg:?} theta {theta}");
        }
    }
}

/// `s` without `count` of its characters, chosen at random: a row at edit
/// distance exactly `count` (the length difference) from `s`.
fn delete_chars(rng: &mut StdRng, s: &str, count: usize) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    for _ in 0..count.min(chars.len()) {
        chars.remove(rng.gen_index(chars.len()));
    }
    chars.into_iter().collect()
}

/// Rows whose lengths sit on the edit join's length window at `theta`: per
/// base row of length `l` (8–110 chars over a pool with multi-byte chars,
/// so chars ≠ bytes, and lengths past 64), deletions down to
/// `⌈θ·l⌉ − 1`, `⌈θ·l⌉` and `⌈θ·l⌉ + 1` chars, and a 1–3-edit variant.
fn window_edge_corpus(rng: &mut StdRng, theta: f64) -> Vec<String> {
    let pool = ['a', 'b', 'é', 'ß', '東', ' ', 'z', 'ø'];
    let mut rows = Vec::new();
    for _ in 0..6 {
        let len = rng.gen_range_inclusive(8usize..=110);
        let base: String = (0..len).map(|_| pool[rng.gen_index(pool.len())]).collect();
        let edge = (theta * len as f64).ceil() as usize;
        for keep in [edge - 1, edge, (edge + 1).min(len)] {
            rows.push(delete_chars(rng, &base, len - keep));
        }
        let edits = rng.gen_range_inclusive(1usize..=3);
        rows.push(perturb(rng, &base, &pool, edits));
        rows.push(base);
    }
    rows
}

/// The edit join is exact on rows at the edge of its length window, under
/// every executor, at 1 and 3 workers, resident and spilled, one-file and
/// two-file.
#[test]
fn edit_join_exact_on_the_length_window_edge() {
    use ssjoin_core::ExecContext;
    let brute = |r: &[String], s: &[String], theta: f64| {
        let mut expect = Vec::new();
        for (i, a) in r.iter().enumerate() {
            for (j, b) in s.iter().enumerate() {
                if edit_similarity(a, b) >= theta {
                    expect.push((i as u32, j as u32));
                }
            }
        }
        expect
    };
    for theta in [0.8, 0.85, 0.9] {
        for seed in 0..2u64 {
            let mut rng = StdRng::seed_from_u64(0x1E46 + seed);
            let rows = window_edge_corpus(&mut rng, theta);
            let half = rows.len() / 2;
            // One file, and two overlapping slices of it as two files.
            let inputs = [
                (&rows[..], &rows[..]),
                (&rows[..half + 5], &rows[half - 5..]),
            ];
            for (r, s) in inputs {
                let expect = brute(r, s, theta);
                assert!(expect.len() > r.len().min(s.len()), "theta {theta}");
                for alg in [
                    Algorithm::Basic,
                    Algorithm::PrefixFiltered,
                    Algorithm::Inline,
                ] {
                    for threads in [1, 3] {
                        for spill in [false, true] {
                            let mut exec = ExecContext::new().with_threads(threads);
                            if spill {
                                exec.budget.max_resident_bytes = Some(1 << 10);
                            }
                            let cfg = EditJoinConfig::new(theta)
                                .with_algorithm(alg)
                                .with_exec(exec);
                            let out = edit_similarity_join(r, s, &cfg).unwrap();
                            let at = format!(
                                "theta {theta} seed {seed} one-file {} alg {alg:?} \
                                 threads {threads} spill {spill}",
                                std::ptr::eq(r, s)
                            );
                            assert_eq!(out.stats.spill_partitions > 0, spill, "{at}");
                            assert_eq!(out.keys(), expect, "{at}");
                        }
                    }
                }
            }
        }
    }
}

/// Rows where a q-gram's later occurrences sit far from its first, the
/// shapes the edit join's location caps must survive: runs of one char
/// (`aaa…`), periodic rows (`abab…`, `aab…`, `東京…`, the repeated token
/// `main st main st`), and random rows over {a, b} and {a, b, é}. Lengths
/// run 6–100 chars, so many rows pass 64 and chars ≠ bytes; each base row
/// is followed by three variants 1–4 random edits away.
fn repeated_qgram_corpus(rng: &mut StdRng) -> Vec<String> {
    let periods = ["a", "ab", "aab", "東京", "main st ", "abcab"];
    let randoms: [&[char]; 2] = [&['a', 'b'], &['a', 'b', 'é']];
    let edits_pool = ['a', 'b', 'é', '東', ' '];
    let mut rows = Vec::new();
    for _ in 0..36 {
        let len = rng.gen_range_inclusive(6usize..=100);
        let base: String = match rng.gen_index(periods.len() + randoms.len()) {
            k if k < periods.len() => periods[k].chars().cycle().take(len).collect(),
            k => {
                let pool = randoms[k - periods.len()];
                (0..len).map(|_| pool[rng.gen_index(pool.len())]).collect()
            }
        };
        for _ in 0..3 {
            let edits = rng.gen_range_inclusive(1usize..=4);
            rows.push(perturb(rng, &base, &edits_pool, edits));
        }
        rows.push(base);
    }
    rows
}

/// The edit join's location-capped prefixes lose no pair on rows of
/// repeated q-grams: one-file and two-file, prefix and inline executors, 1
/// and 3 workers, against brute force.
#[test]
fn edit_join_exact_on_repeated_qgrams() {
    use ssjoin_core::ExecContext;
    for seed in 0..2u64 {
        let mut rng = StdRng::seed_from_u64(0x10CA + seed);
        let rows = repeated_qgram_corpus(&mut rng);
        let half = rows.len() / 2;
        // One file, and two overlapping slices of it as two files.
        let inputs = [
            (&rows[..], &rows[..]),
            (&rows[..half + 8], &rows[half - 8..]),
        ];
        for (r, s) in inputs {
            let sims: Vec<(u32, u32, f64)> = (0..r.len())
                .flat_map(|i| (0..s.len()).map(move |j| (i, j)))
                .map(|(i, j)| (i as u32, j as u32, edit_similarity(&r[i], &s[j])))
                .collect();
            for theta in [0.8, 0.85, 0.9] {
                let expect: Vec<(u32, u32)> = sims
                    .iter()
                    .filter(|&&(_, _, sim)| sim >= theta)
                    .map(|&(i, j, _)| (i, j))
                    .collect();
                assert!(expect.len() > r.len().min(s.len()), "theta {theta}");
                for alg in [Algorithm::PrefixFiltered, Algorithm::Inline] {
                    for threads in [1, 3] {
                        let cfg = EditJoinConfig::new(theta)
                            .with_algorithm(alg)
                            .with_exec(ExecContext::new().with_threads(threads));
                        let out = edit_similarity_join(r, s, &cfg).unwrap();
                        let at = format!(
                            "theta {theta} seed {seed} one-file {} alg {alg:?} threads {threads}",
                            std::ptr::eq(r, s)
                        );
                        assert_eq!(out.keys(), expect, "{at}");
                    }
                }
            }
        }
    }
}

/// `s` after `edits` random single-character substitutions, insertions or
/// deletions over `pool`.
fn perturb(rng: &mut StdRng, s: &str, pool: &[char], edits: usize) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    for _ in 0..edits {
        let at = rng.gen_index(chars.len() + 1);
        let c = pool[rng.gen_index(pool.len())];
        match rng.gen_index(3) {
            0 if at < chars.len() => chars[at] = c,
            1 if at < chars.len() => {
                chars.remove(at);
            }
            _ => chars.insert(at, c),
        }
    }
    chars.into_iter().collect()
}

/// `s` with up to `edits` characters replaced by `#` (absent from `s`),
/// spaced `q` apart so each replacement destroys `q` q-grams of its own:
/// when `edits` is the threshold's distance budget, the pair shares exactly
/// the Property-4 minimum of q-grams (or, for short strings, none at all).
fn spaced_substitutions(s: &str, edits: usize, q: usize) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    for e in 0..edits {
        if let Some(c) = chars.get_mut(q - 1 + e * q) {
            *c = '#';
        }
    }
    chars.into_iter().collect()
}

/// A `TopKIndex` built at θ returns exactly the brute-force matches — the
/// same references, in similarity order (ties by index), with the same
/// similarity values. The oracle shares no code with the index's Property-4
/// bound or its short-string pool, so a wrong bound fails here: besides the
/// random corpus, the references hold random 1–4-edit variants of each
/// query — one of up to 24 characters, and one of every length 2–12, which
/// sweeps the short-string cutoff — and, per query, one variant sitting
/// exactly on the bound.
#[test]
fn topk_index_exact() {
    let letters: Vec<char> = ('a'..='z').chain([' ']).collect();
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x3A7C + seed);
        let mut refs = random_corpus(&mut rng);
        let theta = 0.3 + 0.65 * rng.gen_f64();
        let mut queries = vec![random_string(&mut rng, &letters, 24)];
        for len in 2..=12 {
            queries.push((0..len).map(|_| letters[rng.gen_index(26)]).collect());
        }
        for query in &queries {
            for edits in 1..=4 {
                refs.push(perturb(&mut rng, query, &letters, edits));
            }
            let budget = edit_distance_budget(query.chars().count(), theta).unwrap_or(0);
            let q = EditJoinConfig::new(theta).q;
            refs.push(spaced_substitutions(query, budget, q));
        }
        let config = TopKConfig::new(refs.len(), theta).unwrap();
        let mut index = TopKIndex::build(&refs, config).unwrap();
        for query in &queries {
            let got: Vec<(u32, f64)> = index
                .matches(query)
                .unwrap()
                .into_iter()
                .map(|m| (m.index, m.similarity))
                .collect();
            let mut expect: Vec<(u32, f64)> = refs
                .iter()
                .enumerate()
                .map(|(i, r)| (i as u32, edit_similarity(query, r)))
                .filter(|&(_, s)| s >= theta)
                .collect();
            expect.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            assert_eq!(got, expect, "seed {seed} theta {theta} query {query:?}");
        }
    }
}

/// Unweighted Jaccard resemblance join is exact.
#[test]
fn jaccard_join_exact() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x1ACC + seed);
        let data = random_corpus(&mut rng);
        let theta = 0.2 + 0.8 * rng.gen_f64();
        let tok = WordTokenizer::new().lowercased();
        let groups: Vec<Vec<String>> = data.iter().map(|s| tok.tokenize(s)).collect();
        let mut expect = Vec::new();
        for (i, a) in groups.iter().enumerate() {
            for (j, b) in groups.iter().enumerate() {
                // The operator never joins empty groups (positive-threshold
                // assumption), so skip them in the oracle too.
                if a.is_empty() || b.is_empty() {
                    continue;
                }
                if jaccard_resemblance(a, b) >= theta - 1e-9 {
                    expect.push((i as u32, j as u32));
                }
            }
        }
        let cfg = JaccardConfig::resemblance(theta).with_weights(WeightScheme::Unweighted);
        let out = jaccard_join(&data, &data, &cfg).unwrap();
        assert_eq!(out.keys(), expect, "seed {seed} theta {theta}");
    }
}

/// Hamming join is exact.
#[test]
fn hamming_join_exact() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x4A33 + seed);
        let n = rng.gen_range(1usize..10);
        let data: Vec<String> = (0..n)
            .map(|_| random_string(&mut rng, &['0', '1'], 8))
            .collect();
        let k = rng.gen_range(0usize..4);
        let mut expect = Vec::new();
        for (i, a) in data.iter().enumerate() {
            for (j, b) in data.iter().enumerate() {
                if matches!(hamming_distance(a, b), Some(d) if d <= k) {
                    expect.push((i as u32, j as u32));
                }
            }
        }
        let out = hamming_join(&data, &data, &HammingJoinConfig::new(k)).unwrap();
        let mut got = out.keys();
        got.sort_unstable();
        assert_eq!(got, expect, "seed {seed} k {k}");
    }
}

/// Soft-FD join is exact for arbitrary attribute data.
#[test]
fn soft_fd_exact() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x50FD + seed);
        let n = rng.gen_range(1usize..12);
        let rows: Vec<Vec<String>> = (0..n)
            .map(|_| {
                (0..3)
                    .map(|_| random_string(&mut rng, &['a', 'b'], 2))
                    .collect()
            })
            .collect();
        let k = rng.gen_range_inclusive(1usize..=3);
        let mut expect = Vec::new();
        for (i, a) in rows.iter().enumerate() {
            for (j, b) in rows.iter().enumerate() {
                let agree = a
                    .iter()
                    .zip(b)
                    .filter(|(x, y)| x == y && !x.is_empty())
                    .count();
                if agree >= k {
                    expect.push((i as u32, j as u32));
                }
            }
        }
        let out = soft_fd_join(&rows, &rows, &SoftFdConfig::new(k)).unwrap();
        assert_eq!(out.keys(), expect, "seed {seed} k {k}");
    }
}
