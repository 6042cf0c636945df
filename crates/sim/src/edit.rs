//! Levenshtein edit distance and edit similarity.
//!
//! Definition 2 of the paper: `ED(σ1, σ2)` is the minimum number of character
//! insertions, deletions, and substitutions transforming `σ1` into `σ2`;
//! `ES(σ1, σ2) = 1 − ED(σ1, σ2) / max(|σ1|, |σ2|)`.
//!
//! The SSJoin-based edit join uses q-gram overlap as a cheap candidate
//! filter and then verifies candidates with the real edit distance; that
//! verification is the hot UDF of Figures 10/11 and Table 1. Every
//! threshold-aware entry point ([`levenshtein_within`],
//! [`edit_similarity_within`], and GES's per-token distance) runs on one
//! exact bit-parallel kernel (Myers 1999, in Hyyrö's formulation): each
//! column of the dynamic program is a few word operations per 64 rows. The
//! full O(m·n) dynamic program ([`levenshtein`], [`edit_similarity`]) stays
//! as the independent reference the kernel is tested against.

/// Full Levenshtein distance between `a` and `b` (unit costs).
///
/// Two-row dynamic program: O(|a|·|b|) time, O(min(|a|,|b|)) space.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    // Iterate over the longer string, keep the row for the shorter one.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.is_empty() {
        return long.len();
    }
    let mut row: Vec<usize> = (0..=short.len()).collect();
    for (i, &lc) in long.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let sub = prev_diag + usize::from(lc != sc);
            prev_diag = row[j + 1];
            row[j + 1] = sub.min(row[j] + 1).min(prev_diag + 1);
        }
    }
    row[short.len()]
}

/// `Some(d)` if `levenshtein(a, b) = d ≤ max_dist`, `None` otherwise, from
/// the bit-parallel kernel: O(⌈min(|a|,|b|)/64⌉·max(|a|,|b|)) word
/// operations, and it stops as soon as the distance must exceed
/// `max_dist`.
///
/// This is the verification filter applied after the SSJoin candidate
/// generation of Figure 3 (and Gravano et al.'s baseline).
pub fn levenshtein_within(a: &str, b: &str, max_dist: usize) -> Option<usize> {
    distance_within(a, b, |_| Some(max_dist)).map(|(d, _)| d)
}

/// `(ED(a, b), max(|a|, |b|))` when `ED(a, b)` is at most `budget(max)`;
/// `None` when the budget is `None` or the distance exceeds it. Lengths are
/// in chars.
///
/// The shorter string is the pattern. An ASCII pair whose pattern has at
/// most 64 chars runs on one `u64` word, reading bytes through a stack
/// table, and allocates nothing; any other pair builds a per-call char →
/// mask map and runs the blocked pass over `⌈m/64⌉` words.
pub(crate) fn distance_within(
    a: &str,
    b: &str,
    budget: impl FnOnce(usize) -> Option<usize>,
) -> Option<(usize, usize)> {
    let ascii = a.is_ascii() && b.is_ascii();
    let len = |x: &str| if ascii { x.len() } else { x.chars().count() };
    let (a_len, b_len) = (len(a), len(b));
    let (short, m, long, n) = if a_len <= b_len {
        (a, a_len, b, b_len)
    } else {
        (b, b_len, a, a_len)
    };
    let budget = budget(n)?;
    if n - m > budget {
        return None;
    }
    if m == 0 {
        return Some((n, n));
    }
    let d = if ascii && m <= 64 {
        let mut peq = [0u64; 128];
        for (i, c) in short.bytes().enumerate() {
            peq[usize::from(c & 0x7f)] |= 1 << i;
        }
        one_word(m, n, long.bytes(), budget, |c| peq[usize::from(c & 0x7f)])
    } else {
        let masks = CharMasks::new(short, m);
        blocked(m, n, long.chars(), budget, |c| masks.get(c))
    };
    d.map(|d| (d, n))
}

/// One column step of the bit-parallel dynamic program over a block of 64
/// pattern rows: the new vertical delta vectors `(pv, mv)` given the
/// column's match mask `eq` and the horizontal delta `hin` ∈ {−1, 0, +1}
/// entering the block's top row, plus the horizontal deltas `(ph, mh)` of
/// every row before the shift (bit `i` set: row `i`'s cell grew or shrank
/// by one from the previous column).
#[inline(always)]
fn step(pv: u64, mv: u64, eq: u64, hin: i8) -> (u64, u64, u64, u64) {
    let xv = eq | mv;
    let eq = eq | u64::from(hin < 0);
    let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
    let ph = mv | !(xh | pv);
    let mh = pv & xh;
    let ph_in = (ph << 1) | u64::from(hin > 0);
    let mh_in = (mh << 1) | u64::from(hin < 0);
    (mh_in | !(xv | ph_in), ph_in & xv, ph, mh)
}

/// The kernel for a pattern of `1..=64` chars against a text of `n` chars:
/// `eq(c)` is the pattern's match mask of text char `c`. The score is the
/// last pattern row's cell, which moves by at most one per column, so once
/// it exceeds `budget` plus the columns still to come the distance must
/// too.
fn one_word<T>(
    m: usize,
    n: usize,
    text: impl Iterator<Item = T>,
    budget: usize,
    eq: impl Fn(T) -> u64,
) -> Option<usize> {
    let last = 1u64 << (m - 1);
    let (mut pv, mut mv, mut score) = (!0u64, 0u64, m);
    for (j, c) in text.enumerate() {
        // Row 0 of an edit-distance table grows by one per column: hin = +1.
        let (p, q, ph, mh) = step(pv, mv, eq(c), 1);
        (pv, mv) = (p, q);
        score = score + usize::from(ph & last != 0) - usize::from(mh & last != 0);
        if score > budget + (n - 1 - j) {
            return None;
        }
    }
    (score <= budget).then_some(score)
}

/// [`one_word`] for a pattern of any length: each column runs the pattern's
/// `⌈m/64⌉` blocks top to bottom, each block's bottom-row horizontal delta
/// entering the next block's top row. `eq(c)` holds one mask word per
/// block.
fn blocked<'a, T>(
    m: usize,
    n: usize,
    text: impl Iterator<Item = T>,
    budget: usize,
    eq: impl Fn(T) -> &'a [u64],
) -> Option<usize> {
    let last = 1u64 << ((m - 1) % 64);
    let mut vectors = vec![(!0u64, 0u64); m.div_ceil(64)];
    let mut score = m;
    for (j, c) in text.enumerate() {
        let (mut hin, mut bottom) = (1i8, (0u64, 0u64));
        for ((pv, mv), &e) in vectors.iter_mut().zip(eq(c)) {
            let (p, q, ph, mh) = step(*pv, *mv, e, hin);
            (*pv, *mv) = (p, q);
            hin = (ph >> 63) as i8 - (mh >> 63) as i8;
            bottom = (ph, mh);
        }
        let (ph, mh) = bottom;
        score = score + usize::from(ph & last != 0) - usize::from(mh & last != 0);
        if score > budget + (n - 1 - j) {
            return None;
        }
    }
    (score <= budget).then_some(score)
}

/// A pattern's match masks: for each char, the pattern positions holding
/// it, one bit each, `words` words per char. ASCII chars index a table;
/// the pattern's other chars are kept sorted and found by binary search.
struct CharMasks {
    words: usize,
    /// The pattern's distinct non-ASCII chars, ascending.
    other: Vec<char>,
    /// Mask words of ASCII char `c` at `c · words`, of `other[k]` at
    /// `(128 + k) · words`, then one all-zero mask for every absent char.
    masks: Vec<u64>,
}

impl CharMasks {
    /// The masks of `pattern`, which has `m` chars.
    fn new(pattern: &str, m: usize) -> Self {
        let words = m.div_ceil(64);
        let mut other: Vec<char> = pattern.chars().filter(|c| !c.is_ascii()).collect();
        other.sort_unstable();
        other.dedup();
        let mut masks = Self {
            words,
            masks: vec![0; (128 + other.len() + 1) * words],
            other,
        };
        for (i, c) in pattern.chars().enumerate() {
            let at = masks.slot(c) * words + i / 64;
            masks.masks[at] |= 1 << (i % 64);
        }
        masks
    }

    /// The mask slot of `c`: the zero mask's when the pattern lacks it.
    #[inline]
    fn slot(&self, c: char) -> usize {
        if c.is_ascii() {
            return c as usize;
        }
        match self.other.binary_search(&c) {
            Ok(k) => 128 + k,
            Err(_) => 128 + self.other.len(),
        }
    }

    /// The mask words of `c`.
    #[inline]
    fn get(&self, c: char) -> &[u64] {
        let at = self.slot(c) * self.words;
        &self.masks[at..at + self.words]
    }
}

/// Edit distance normalized by the maximum string length, in `[0, 1]`.
/// Two empty strings have distance 0.
pub fn normalized_edit_distance(a: &str, b: &str) -> f64 {
    let alen = a.chars().count();
    let blen = b.chars().count();
    let max = alen.max(blen);
    if max == 0 {
        return 0.0;
    }
    levenshtein(a, b) as f64 / max as f64
}

/// Edit similarity per Definition 2: `1 − ED(a, b) / max(|a|, |b|)`.
/// Two empty strings are maximally similar (1.0).
pub fn edit_similarity(a: &str, b: &str) -> f64 {
    1.0 - normalized_edit_distance(a, b)
}

/// Threshold check `ES(a, b) ≥ alpha`, evaluated with the bit-parallel
/// kernel, which stops once the distance must exceed the threshold's budget.
/// Agrees with
/// [`edit_similarity_within`] (and so with comparing [`edit_similarity`]
/// against `alpha`) on every input.
pub fn edit_similarity_at_least(a: &str, b: &str, alpha: f64) -> bool {
    edit_similarity_within(a, b, alpha).is_some()
}

/// The largest edit distance `d` whose similarity `1 − d / max_len`, as
/// [`edit_similarity`] computes it, still reaches `alpha`; `None` when even
/// `d = 0` falls short (`alpha > 1`). This is the band of the threshold
/// check. `⌊(1 − alpha)·max_len⌋` alone is not: at `alpha = 0.8` and
/// `max_len = 10` it rounds to 1, although distance 2 gives similarity 0.8.
pub fn edit_distance_budget(max_len: usize, alpha: f64) -> Option<usize> {
    // Start from the exact-arithmetic budget and correct it for float
    // rounding in either direction; similarity is monotone in the distance.
    let mut budget = ((1.0 - alpha) * max_len as f64)
        .floor()
        .clamp(-1.0, max_len as f64) as i64;
    while budget < max_len as i64 && similarity_at((budget + 1) as usize, max_len) >= alpha {
        budget += 1;
    }
    while budget >= 0 && similarity_at(budget as usize, max_len) < alpha {
        budget -= 1;
    }
    usize::try_from(budget).ok()
}

/// `1 − d / max_len`, the expression [`edit_similarity`] evaluates; two empty
/// strings (`max_len = 0`) are maximally similar.
fn similarity_at(d: usize, max_len: usize) -> f64 {
    if max_len == 0 {
        1.0
    } else {
        1.0 - d as f64 / max_len as f64
    }
}

/// `Some(ES(a, b))` when `ES(a, b) ≥ alpha`, `None` otherwise: the threshold
/// check and the similarity from one bit-parallel kernel pass, budgeted by
/// [`edit_distance_budget`]. The value is bit for bit [`edit_similarity`]'s,
/// so a caller keeping passing pairs needs no second O(|a|·|b|) dynamic
/// program.
pub fn edit_similarity_within(a: &str, b: &str, alpha: f64) -> Option<f64> {
    distance_within(a, b, |max| edit_distance_budget(max, alpha))
        .map(|(d, max)| similarity_at(d, max))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_distances() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn paper_example() {
        // §3.1: ED("microsoft", "mcrosoft") = 1 (delete 'i').
        assert_eq!(levenshtein("microsoft", "mcrosoft"), 1);
        assert_eq!(levenshtein("Microsoft Corp", "Mcrosoft Corp"), 1);
    }

    #[test]
    fn symmetric() {
        assert_eq!(
            levenshtein("abcdef", "azced"),
            levenshtein("azced", "abcdef")
        );
    }

    #[test]
    fn unicode() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("日本語", "日本"), 1);
    }

    #[test]
    fn within_agrees_with_full_when_within() {
        let pairs = [
            ("kitten", "sitting"),
            ("microsoft corp", "mcrosoft corp"),
            ("abcdefgh", "abcdefgh"),
            ("", "ab"),
            ("xy", ""),
            ("aaaa", "bbbb"),
        ];
        for (a, b) in pairs {
            let d = levenshtein(a, b);
            for k in 0..=d + 2 {
                let got = levenshtein_within(a, b, k);
                if k >= d {
                    assert_eq!(got, Some(d), "{a:?} {b:?} k={k}");
                } else {
                    assert_eq!(got, None, "{a:?} {b:?} k={k}");
                }
            }
        }
    }

    #[test]
    fn within_length_prune() {
        // Length difference alone exceeds the budget.
        assert_eq!(levenshtein_within("a", "abcdef", 2), None);
    }

    #[test]
    fn within_zero_budget_is_equality() {
        assert_eq!(levenshtein_within("same", "same", 0), Some(0));
        assert_eq!(levenshtein_within("same", "sane", 0), None);
    }

    #[test]
    fn edit_similarity_values() {
        assert!((edit_similarity("microsoft", "mcrosoft") - (1.0 - 1.0 / 9.0)).abs() < 1e-12);
        assert_eq!(edit_similarity("", ""), 1.0);
        assert_eq!(edit_similarity("abc", ""), 0.0);
        assert_eq!(edit_similarity("abc", "abc"), 1.0);
    }

    #[test]
    fn threshold_check_consistent() {
        let pairs = [
            ("microsoft corp", "mcrosoft corp"),
            ("abc", "xyz"),
            ("", ""),
            ("a", "ab"),
        ];
        for (a, b) in pairs {
            for alpha in [0.0, 0.5, 0.8, 0.9, 0.95, 1.0] {
                let expect = edit_similarity(a, b) >= alpha - 1e-12;
                assert_eq!(
                    edit_similarity_at_least(a, b, alpha),
                    expect,
                    "a={a:?} b={b:?} alpha={alpha}"
                );
            }
        }
    }

    #[test]
    fn within_keeps_pairs_exactly_at_the_threshold() {
        // (1 − 0.8)·10 rounds to 1.9999999999999996, so a floored distance
        // budget would be 1 and drop this pair although ES = 0.8 exactly.
        let (a, b) = ("abcdefghij", "abcdefghXY");
        assert_eq!(edit_similarity(a, b), 0.8);
        assert_eq!(edit_similarity_within(a, b, 0.8), Some(0.8));
        assert!(edit_similarity_at_least(a, b, 0.8));
        assert_eq!(edit_similarity_within("abcde", "abcdX", 0.8), Some(0.8));
        assert_eq!(edit_similarity_within(a, b, 0.81), None);
        assert_eq!(edit_similarity_within("", "", 1.0), Some(1.0));
        assert_eq!(edit_similarity_within("", "", 1.5), None);
        assert_eq!(edit_similarity_within("abc", "", 0.0), Some(0.0));
        assert_eq!(edit_distance_budget(10, 0.8), Some(2));
        assert_eq!(edit_distance_budget(10, 0.0), Some(10));
        assert_eq!(edit_distance_budget(0, 1.0), Some(0));
        assert_eq!(edit_distance_budget(7, 1.01), None);
    }

    #[test]
    fn triangle_inequality_spot() {
        let (a, b, c) = ("corporation", "corp", "cooperation");
        assert!(levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c));
    }
}
