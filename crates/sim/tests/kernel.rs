//! The bit-parallel edit-distance kernel against the full dynamic program,
//! bit for bit, on seeded strings: every length from 0 to 200 (the word
//! edges 63/64/65 and 127/128/129 among them), alphabets of 2 to 26 letters,
//! 2-, 3- and 4-byte chars, every distance budget from 0 to the longer
//! length, and the edit join's thresholds. GES, whose per-token distance
//! runs on the kernel, is checked against a reference built on the full
//! dynamic program.

use ssjoin_prng::{Rng, StdRng};
use ssjoin_sim::{edit_similarity, edit_similarity_within, ges, levenshtein, levenshtein_within};
use ssjoin_sim::{edit_similarity_at_least, GesConfig};

/// Alphabets: ASCII of sizes 2, 4 and 26, and mixes holding 2-, 3- and
/// 4-byte chars.
const ALPHABETS: [&[char]; 6] = [
    &['a', 'b'],
    &['a', 'c', 'g', 't'],
    &[
        'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 'i', 'j', 'k', 'l', 'm', 'n', 'o', 'p', 'q', 'r',
        's', 't', 'u', 'v', 'w', 'x', 'y', 'z',
    ],
    &['a', 'é'],
    &['e', 'é', 'ß', '東', ' '],
    &['x', 'ß', '東', '𝄞', '😀', 'z'],
];

const ALPHAS: [f64; 6] = [0.3, 0.6, 0.8, 0.85, 0.9, 1.0];

/// Lengths at and around the kernel's word edges.
const EDGES: [usize; 8] = [1, 63, 64, 65, 127, 128, 129, 200];

fn random_string(rng: &mut StdRng, alphabet: &[char], len: usize) -> String {
    (0..len)
        .map(|_| alphabet[rng.gen_index(alphabet.len())])
        .collect()
}

/// `s` after `edits` random substitutions, insertions and deletions.
fn mutate(rng: &mut StdRng, alphabet: &[char], s: &str, edits: usize) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    for _ in 0..edits {
        let c = alphabet[rng.gen_index(alphabet.len())];
        match rng.gen_range(0u32..3) {
            0 if !chars.is_empty() => {
                let at = rng.gen_index(chars.len());
                chars[at] = c;
            }
            1 if !chars.is_empty() => {
                chars.remove(rng.gen_index(chars.len()));
            }
            _ => chars.insert(rng.gen_index(chars.len() + 1), c),
        }
    }
    chars.into_iter().collect()
}

/// Check one pair: `levenshtein_within` at every budget from 0 to the
/// longer length (the reversed pair at the budgets around the distance),
/// and `edit_similarity_within` at every threshold, both ways round.
fn check(a: &str, b: &str, at: &str) {
    let d = levenshtein(a, b);
    let max = a.chars().count().max(b.chars().count());
    let near = [d.saturating_sub(1), d, d + 1, max];
    for (x, y, budgets) in [(a, b, (0..=max).collect()), (b, a, near.to_vec())] {
        for k in budgets {
            let expect = (d <= k).then_some(d);
            assert_eq!(
                levenshtein_within(x, y, k),
                expect,
                "{at}: k={k} {x:?} {y:?}"
            );
        }
        let es = edit_similarity(x, y);
        for alpha in ALPHAS {
            let expect = (es >= alpha).then_some(es);
            let got = edit_similarity_within(x, y, alpha);
            assert_eq!(
                got.map(f64::to_bits),
                expect.map(f64::to_bits),
                "{at}: alpha={alpha} {x:?} {y:?}"
            );
            assert_eq!(edit_similarity_at_least(x, y, alpha), expect.is_some());
        }
    }
}

#[test]
fn kernel_equals_the_full_dp_at_every_budget() {
    let mut rng = StdRng::seed_from_u64(0xB17_9A4);
    let mut pairs = 0usize;
    for (ai, alphabet) in ALPHABETS.iter().enumerate() {
        // Every length 0..=200 as the shorter side, each against a near
        // variant (few edits, so small budgets decide) and a random string.
        for len in (0..=200).step_by(if ai == 0 { 1 } else { 9 }) {
            let a = random_string(&mut rng, alphabet, len);
            let edits = rng.gen_range(0usize..6);
            let near = mutate(&mut rng, alphabet, &a, edits);
            let other_len = len + rng.gen_range(0usize..4);
            let far = random_string(&mut rng, alphabet, other_len);
            check(&a, &near, &format!("alphabet {ai} len {len} near"));
            check(&a, &far, &format!("alphabet {ai} len {len} far"));
            pairs += 2;
        }
        // The word edges, with the partner on both sides of the edge.
        for &len in &EDGES {
            for delta in [0usize, 1, 2] {
                let a = random_string(&mut rng, alphabet, len);
                let mut b = mutate(&mut rng, alphabet, &a, 2);
                b.extend((0..delta).map(|_| alphabet[rng.gen_index(alphabet.len())]));
                check(&a, &b, &format!("alphabet {ai} edge {len}+{delta}"));
                pairs += 1;
            }
        }
    }
    // Empty and equal strings, and a 64-char pattern matched by no char.
    for (a, b) in [("", ""), ("", "é"), ("東東", "東東"), ("ab", "")] {
        check(a, b, "fixed");
    }
    check(&"a".repeat(64), &"b".repeat(64), "disjoint 64");
    check(&"𝄞".repeat(65), &"b".repeat(130), "disjoint 65/130");
    assert!(pairs > 500, "{pairs} pairs");
}

/// GES as Definition 6 states it, with each token distance from the full
/// dynamic program: the reference the kernel-backed `ges` must equal bit
/// for bit.
fn reference_ges(a: &[String], b: &[String], weight: &dyn Fn(&str) -> f64) -> f64 {
    let wa: f64 = a.iter().map(|t| weight(t)).sum();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if wa == 0.0 {
        return if b.is_empty() { 1.0 } else { 0.0 };
    }
    let ned = |x: &str, y: &str| {
        let max = x.chars().count().max(y.chars().count());
        if max == 0 {
            0.0
        } else {
            levenshtein(x, y) as f64 / max as f64
        }
    };
    let mut row: Vec<f64> = vec![0.0];
    for (j, t) in b.iter().enumerate() {
        row.push(row[j] + weight(t));
    }
    for x in a {
        let wx = weight(x);
        let mut prev_diag = row[0];
        row[0] += wx;
        for (j, y) in b.iter().enumerate() {
            let val = (prev_diag + ned(x, y) * wx)
                .min(row[j + 1] + wx)
                .min(row[j] + weight(y));
            prev_diag = row[j + 1];
            row[j + 1] = val;
        }
    }
    1.0 - (row[b.len()] / wa).min(1.0)
}

#[test]
fn ges_is_unchanged_on_seeded_token_sequences() {
    let weight = |t: &str| 0.5 + (t.len() % 5) as f64 * 0.25;
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(0x6E5_0000 + seed);
        let alphabet = ALPHABETS[seed as usize % ALPHABETS.len()];
        let tokens = |rng: &mut StdRng| -> Vec<String> {
            let n = rng.gen_range(0usize..6);
            (0..n)
                .map(|_| {
                    // Mostly short tokens, now and then one past a word.
                    let len = if rng.gen_range(0u32..10) == 0 {
                        rng.gen_range(60usize..140)
                    } else {
                        rng.gen_range(1usize..9)
                    };
                    random_string(rng, alphabet, len)
                })
                .collect()
        };
        let a = tokens(&mut rng);
        let mut b: Vec<String> = a.iter().map(|t| mutate(&mut rng, alphabet, t, 1)).collect();
        b.extend(tokens(&mut rng));
        for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
            let got = ges(x, y, &weight, GesConfig::default());
            let expect = reference_ges(x, y, &weight);
            assert_eq!(got.to_bits(), expect.to_bits(), "seed {seed}: {x:?} {y:?}");
        }
    }
}
