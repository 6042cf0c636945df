//! Property-based tests for tokenizers and ordinalization, driven by a
//! seeded PRNG so every failure is reproducible from the iteration's seed.

use ssjoin_prng::{Rng, StdRng};
use ssjoin_text::{ordinalize, qgram_count, Normalizer, QGramTokenizer, Tokenizer, WordTokenizer};
use std::collections::{HashMap, HashSet};

/// A random string over a mixed pool: ASCII letters, digits, punctuation,
/// whitespace, and multi-byte characters — the hostile shapes proptest's
/// `\PC` regex used to generate.
fn random_text(rng: &mut StdRng, max_len: usize) -> String {
    const POOL: &[char] = &[
        'a', 'b', 'c', 'x', 'y', 'z', 'A', 'Z', '0', '9', ' ', '\t', '-', '_', '.', ',', '!', '#',
        'é', 'ß', 'λ', '漢', '字', '🦀',
    ];
    let len = rng.gen_range_inclusive(0..=max_len);
    (0..len).map(|_| POOL[rng.gen_index(POOL.len())]).collect()
}

/// A random lowercase ASCII string with length in `lo..=hi`.
fn random_lower(rng: &mut StdRng, alphabet: u8, lo: usize, hi: usize) -> String {
    let len = rng.gen_range_inclusive(lo..=hi);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0..alphabet)) as char)
        .collect()
}

/// A random vector of short tokens over `alphabet` letters.
fn random_tokens(rng: &mut StdRng, alphabet: u8, max_n: usize) -> Vec<String> {
    let n = rng.gen_range_inclusive(0..=max_n);
    (0..n).map(|_| random_lower(rng, alphabet, 1, 2)).collect()
}

/// Unpadded q-gram count always matches the closed-form formula.
#[test]
fn qgram_token_count_matches_formula() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x41 + seed);
        let s = random_text(&mut rng, 64);
        let q = rng.gen_range(1usize..6);
        let t = QGramTokenizer::new(q);
        let len = s.chars().count();
        assert_eq!(t.tokenize(&s).len(), qgram_count(len, q), "seed {seed}");
    }
}

/// Both conventions: tokenize length equals count_for_len for every
/// (len, q, pad) in the satellite grid len 0..=8 × q 1..=4, plus random
/// longer strings.
#[test]
fn token_count_agrees_with_tokenize_all_conventions() {
    for q in 1usize..=4 {
        for pad in [false, true] {
            let t = if pad {
                QGramTokenizer::padded(q, '#')
            } else {
                QGramTokenizer::new(q)
            };
            for len in 0usize..=8 {
                let s = "x".repeat(len);
                assert_eq!(
                    t.tokenize(&s).len(),
                    t.count_for_len(len),
                    "len {len} q {q} pad {pad}"
                );
            }
        }
    }
    for seed in 0..128u64 {
        let mut rng = StdRng::seed_from_u64(0x51 + seed);
        let s = random_text(&mut rng, 48);
        let q = rng.gen_range(1usize..5);
        let t = if rng.gen_bool(0.5) {
            QGramTokenizer::padded(q, '$')
        } else {
            QGramTokenizer::new(q)
        };
        assert_eq!(
            t.tokenize(&s).len(),
            t.count_for_len(s.chars().count()),
            "seed {seed}"
        );
    }
}

/// Every unpadded q-gram of a long-enough string has exactly q chars.
#[test]
fn qgrams_have_length_q() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x42 + seed);
        let s = random_lower(&mut rng, 26, 6, 40);
        let q = rng.gen_range(1usize..6);
        let t = QGramTokenizer::new(q);
        for g in t.tokenize(&s) {
            assert_eq!(g.chars().count(), q, "seed {seed}");
        }
    }
}

/// Padded tokenization of a non-empty string yields len + q - 1 grams, each
/// of length q.
#[test]
fn padded_counts() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x43 + seed);
        let s = random_lower(&mut rng, 26, 1, 40);
        let q = rng.gen_range(1usize..6);
        let t = QGramTokenizer::padded(q, '#');
        let grams = t.tokenize(&s);
        assert_eq!(grams.len(), s.chars().count() + q - 1, "seed {seed}");
        for g in &grams {
            assert_eq!(g.chars().count(), q, "seed {seed}");
        }
    }
}

/// Each unpadded q-gram is the sliding window starting at its index.
#[test]
fn qgrams_are_sliding_windows() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x44 + seed);
        let s = random_lower(&mut rng, 26, 4, 30);
        let q = 3;
        let grams = QGramTokenizer::new(q).tokenize(&s);
        let chars: Vec<char> = s.chars().collect();
        for (i, g) in grams.iter().enumerate() {
            let expect: String = chars[i..i + q].iter().collect();
            assert_eq!(g, &expect, "seed {seed}");
        }
    }
}

/// Ordinalization preserves multiset cardinality and token content.
#[test]
fn ordinalize_preserves_tokens() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x45 + seed);
        let tokens = random_tokens(&mut rng, 3, 31);
        let out = ordinalize(tokens.clone());
        assert_eq!(out.len(), tokens.len(), "seed {seed}");
        for (orig, ord) in tokens.iter().zip(&out) {
            assert_eq!(orig, &ord.token, "seed {seed}");
        }
        // Ordinalized pairs are all distinct (that is the point).
        let set: HashSet<_> = out.iter().collect();
        assert_eq!(set.len(), out.len(), "seed {seed}");
    }
}

/// For each token, ordinals are exactly 1..=count.
#[test]
fn ordinals_are_dense() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x46 + seed);
        let tokens = random_tokens(&mut rng, 2, 31);
        let out = ordinalize(tokens);
        let mut per_token: HashMap<&str, Vec<u32>> = HashMap::new();
        for t in &out {
            per_token.entry(&t.token).or_default().push(t.ordinal);
        }
        for ords in per_token.values() {
            let expect: Vec<u32> = (1..=ords.len() as u32).collect();
            assert_eq!(ords, &expect, "seed {seed}");
        }
    }
}

/// Normalization is idempotent.
#[test]
fn normalize_idempotent() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x47 + seed);
        let s = random_text(&mut rng, 64);
        let n = Normalizer::default();
        let once = n.normalize(&s);
        assert_eq!(n.normalize(&once), once, "seed {seed}");
    }
}

/// Word tokens never contain delimiters and are never empty.
#[test]
fn word_tokens_clean() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x48 + seed);
        let s = random_text(&mut rng, 64);
        let t = WordTokenizer::new();
        for w in t.tokenize(&s) {
            assert!(!w.is_empty(), "seed {seed}");
            assert!(w.chars().all(|c| c.is_alphanumeric()), "seed {seed}");
        }
    }
}

/// The word-tokenizer semantics as one `char` loop, the model both of
/// `WordTokenizer`'s paths must reproduce.
fn model_words(s: &str, is_delim: impl Fn(char) -> bool, lowercase: bool) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    for c in s.chars() {
        if is_delim(c) {
            if !current.is_empty() {
                out.push(std::mem::take(&mut current));
            }
        } else if lowercase {
            current.extend(c.to_lowercase());
        } else {
            current.push(c);
        }
    }
    if !current.is_empty() {
        out.push(current);
    }
    out
}

/// The q-gram semantics over a `Vec<char>`: windows of the (padded) string,
/// or the whole string when it is non-empty and shorter than q unpadded.
fn model_qgrams(s: &str, q: usize) -> Vec<String> {
    let chars: Vec<char> = s.chars().collect();
    match chars.len() {
        0 => Vec::new(),
        n if n < q => vec![s.to_string()],
        _ => chars.windows(q).map(|w| w.iter().collect()).collect(),
    }
}

/// Seeded strings of three shapes: pure ASCII (the word tokenizer's byte
/// path), mixed Unicode with punctuation (the `char` path), and ASCII with
/// a case-folding trap (`İ`, `ẞ`) appended.
fn visitor_inputs() -> Vec<String> {
    const ASCII: &[char] = &[
        'a', 'b', 'z', 'A', 'Q', 'Z', '0', '7', ' ', ' ', '\t', '\n', '\x0b', '\x0c', '\r', '-',
        '.', ',', ';', '!', '#', '/', '_',
    ];
    let mut out = Vec::new();
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(0x5EED_0000 + seed);
        let len: usize = rng.gen_range_inclusive(0..=32);
        let ascii: String = (0..len)
            .map(|_| ASCII[rng.gen_index(ASCII.len())])
            .collect();
        out.push(format!("{ascii}İstanbul STRASSE ẞ"));
        out.push(ascii);
        out.push(random_text(&mut rng, 32));
    }
    out.extend(["", "café", "İstanbul", "STRASSE", "  ,.;  "].map(String::from));
    out
}

/// Tokens through the visitor, with one scratch buffer reused (and left
/// dirty) across every input.
fn visited(t: &dyn Tokenizer, s: &str, scratch: &mut String) -> Vec<String> {
    let mut out = Vec::new();
    t.for_each_token(s, scratch, &mut |x| out.push(x.to_owned()));
    out
}

/// For every word-tokenizer rule × case and q-gram tokenizer q = 1..=4 on
/// seeded ASCII, Unicode and punctuation strings: the visitor equals
/// `tokenize`, `token_count` counts the same tokens, and both equal the
/// `char`-loop model — so the word tokenizer's ASCII byte path equals its
/// `char` path.
#[test]
fn visitor_equals_tokenize_and_the_char_model() {
    const DELIMS: [char; 4] = [',', ';', 'Q', ' '];
    type IsDelim = fn(char) -> bool;
    let words: [(WordTokenizer, IsDelim); 3] = [
        (WordTokenizer::new(), |c| !c.is_alphanumeric()),
        (WordTokenizer::whitespace(), char::is_whitespace),
        (WordTokenizer::with_delimiters(&DELIMS), |c| {
            DELIMS.contains(&c)
        }),
    ];
    let mut scratch = String::from("left over");
    for s in visitor_inputs() {
        for (t, is_delim) in &words {
            for (t, lowercase) in [(t.clone(), false), (t.clone().lowercased(), true)] {
                let expect = model_words(&s, is_delim, lowercase);
                assert_eq!(visited(&t, &s, &mut scratch), expect, "{t:?} on {s:?}");
                assert_eq!(t.tokenize(&s), expect, "{t:?} on {s:?}");
                assert_eq!(t.token_count(&s), expect.len(), "{t:?} on {s:?}");
            }
        }
        for q in 1..=4 {
            let t = QGramTokenizer::new(q);
            let expect = model_qgrams(&s, q);
            assert_eq!(visited(&t, &s, &mut scratch), expect, "q {q} on {s:?}");
            assert_eq!(t.tokenize(&s), expect, "q {q} on {s:?}");
            assert_eq!(t.token_count(&s), expect.len(), "q {q} on {s:?}");
            let padded = QGramTokenizer::padded(q, '#');
            let pad = "#".repeat(q - 1);
            let expect = if s.is_empty() {
                Vec::new()
            } else {
                model_qgrams(&format!("{pad}{s}{pad}"), q)
            };
            assert_eq!(
                visited(&padded, &s, &mut scratch),
                expect,
                "padded q {q} on {s:?}"
            );
            assert_eq!(
                padded.token_count(&s),
                expect.len(),
                "padded q {q} on {s:?}"
            );
        }
    }
}
