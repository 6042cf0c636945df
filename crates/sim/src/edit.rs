//! Levenshtein edit distance and edit similarity.
//!
//! Definition 2 of the paper: `ED(σ1, σ2)` is the minimum number of character
//! insertions, deletions, and substitutions transforming `σ1` into `σ2`;
//! `ES(σ1, σ2) = 1 − ED(σ1, σ2) / max(|σ1|, |σ2|)`.
//!
//! The SSJoin-based edit join uses q-gram overlap as a cheap candidate
//! filter and then verifies candidates with the real edit distance; that
//! verification is the hot UDF of Figures 10/11 and Table 1, so a banded
//! O(k·n) verifier ([`levenshtein_within`]) is provided alongside the full
//! O(m·n) dynamic program.

/// Full Levenshtein distance between `a` and `b` (unit costs).
///
/// Two-row dynamic program: O(|a|·|b|) time, O(min(|a|,|b|)) space.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_chars(&a, &b)
}

pub(crate) fn levenshtein_chars(a: &[char], b: &[char]) -> usize {
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

/// Banded Levenshtein: returns `Some(d)` if `levenshtein(a, b) = d ≤ max_dist`,
/// `None` otherwise. O((2·max_dist + 1)·|a|) time.
///
/// This is the verification filter applied after the SSJoin candidate
/// generation of Figure 3: thresholds are high, so `max_dist` is small and
/// the band is narrow.
pub fn levenshtein_within(a: &str, b: &str, max_dist: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    levenshtein_within_chars(&a, &b, max_dist)
}

pub(crate) fn levenshtein_within_chars(a: &[char], b: &[char], max_dist: usize) -> Option<usize> {
    let (m, n) = (a.len(), b.len());
    if m.abs_diff(n) > max_dist {
        return None;
    }
    if m == 0 {
        return Some(n); // n <= max_dist by the check above
    }
    if n == 0 {
        return Some(m);
    }
    let k = max_dist;
    const INF: usize = usize::MAX / 2;
    // row[j] = distance for prefix (i, j); only j in [i-k, i+k] is relevant.
    let mut row = vec![INF; n + 1];
    for (j, slot) in row.iter_mut().enumerate().take(k.min(n) + 1) {
        *slot = j;
    }
    for i in 1..=m {
        let lo = i.saturating_sub(k).max(1);
        let hi = (i + k).min(n);
        if lo > hi {
            return None;
        }
        // Value entering the diagonal: row[lo-1] from the previous row.
        let mut prev_diag = if lo == 1 { i - 1 } else { row[lo - 1] };
        // Outside-band cells must not leak in.
        let left_of_lo = if lo == 1 { i } else { INF };
        let mut left = left_of_lo;
        if lo > 1 {
            row[lo - 1] = INF;
        }
        let mut best = INF;
        for j in lo..=hi {
            let up = row[j];
            let sub = prev_diag + usize::from(a[i - 1] != b[j - 1]);
            let val = sub.min(up + 1).min(left + 1);
            prev_diag = up;
            row[j] = val;
            left = val;
            best = best.min(val);
        }
        if hi < n {
            row[hi + 1] = INF;
        }
        if best > k {
            return None; // every band cell exceeds the threshold already
        }
    }
    let d = row[n];
    (d <= max_dist).then_some(d)
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

/// Threshold check `ES(a, b) ≥ alpha`, evaluated with the banded verifier so
/// the common (dissimilar) case costs O(k·n) rather than O(n²). Agrees with
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
/// check and the similarity from one banded [`levenshtein_within`] pass. The
/// value is bit for bit [`edit_similarity`]'s, so a caller keeping passing
/// pairs needs no second, unbanded O(|a|·|b|) dynamic program.
pub fn edit_similarity_within(a: &str, b: &str, alpha: f64) -> Option<f64> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let max = a.len().max(b.len());
    let budget = edit_distance_budget(max, alpha)?;
    levenshtein_within_chars(&a, &b, budget).map(|d| similarity_at(d, max))
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
    fn banded_agrees_with_full_when_within() {
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
    fn banded_length_prune() {
        // Length difference alone exceeds the budget.
        assert_eq!(levenshtein_within("a", "abcdef", 2), None);
    }

    #[test]
    fn banded_zero_budget_is_equality() {
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
