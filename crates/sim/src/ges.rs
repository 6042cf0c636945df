//! Generalized edit similarity (GES).
//!
//! Definition 6 of the paper (from Chaudhuri et al., SIGMOD 2003): a string
//! is a sequence of tokens; the cost of transforming token `t1` into `t2` is
//! `ed(t1, t2) · wt(t1)` where `ed` is length-normalized edit distance; the
//! cost of inserting or deleting token `t` is `wt(t)`. With `tc(σ1, σ2)` the
//! minimum-cost transformation of the token sequence of `σ1` into that of
//! `σ2`:
//!
//! ```text
//! GES(σ1, σ2) = 1.0 − min(tc(σ1, σ2) / wt(Set(σ1)), 1.0)
//! ```
//!
//! GES deliberately mixes token weights (so frequent tokens like "corp" are
//! cheap to edit) with intra-token edit distance (so "microsoft" ≈
//! "microsft"), which fixes the failure modes of plain edit distance and
//! plain Jaccard that §3.3 describes.

use crate::edit::distance_within;

/// Configuration for the GES computation.
#[derive(Debug, Clone, Copy, Default)]
pub struct GesConfig {
    /// If set, token pairs whose normalized edit distance exceeds this value
    /// are not considered for replacement (they cost a delete + insert
    /// instead). `None` considers every pair.
    pub replacement_cutoff: Option<f64>,
}

/// Generalized edit similarity of token sequence `a` into token sequence `b`
/// under the token weight function `weight`.
///
/// Note the asymmetry: the transformation cost is normalized by the weight of
/// `a`'s token set, exactly as Definition 6 states. See [`ges_symmetric`] for
/// the symmetric variant.
pub fn ges(a: &[String], b: &[String], weight: &dyn Fn(&str) -> f64, config: GesConfig) -> f64 {
    let wa: f64 = a.iter().map(|t| weight(t)).sum();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if wa == 0.0 {
        // Nothing to normalize by: degenerate source. Any needed insertion
        // makes the min(..., 1.0) clamp kick in unless b is empty too.
        return if b.is_empty() { 1.0 } else { 0.0 };
    }
    let cost = transformation_cost(a, b, weight, config);
    1.0 - (cost / wa).min(1.0)
}

/// Symmetric GES: `max(GES(a → b), GES(b → a))`.
pub fn ges_symmetric(
    a: &[String],
    b: &[String],
    weight: &dyn Fn(&str) -> f64,
    config: GesConfig,
) -> f64 {
    ges(a, b, weight, config).max(ges(b, a, weight, config))
}

/// Minimum-cost transformation of token sequence `a` into `b`:
/// sequence-alignment dynamic program with
/// delete(t) = wt(t), insert(t) = wt(t), replace(t1 → t2) = ed(t1,t2)·wt(t1).
fn transformation_cost(
    a: &[String],
    b: &[String],
    weight: &dyn Fn(&str) -> f64,
    config: GesConfig,
) -> f64 {
    let a_w: Vec<f64> = a.iter().map(|t| weight(t)).collect();
    let b_w: Vec<f64> = b.iter().map(|t| weight(t)).collect();

    let (m, n) = (a.len(), b.len());
    let mut row: Vec<f64> = Vec::with_capacity(n + 1);
    row.push(0.0);
    for j in 0..n {
        row.push(row[j] + b_w[j]); // insert b[0..j]
    }
    for i in 0..m {
        let mut prev_diag = row[0];
        row[0] += a_w[i]; // delete a[0..=i]
        for j in 0..n {
            let ned = normalized_token_ed(&a[i], &b[j]);
            let replace_ok = config.replacement_cutoff.is_none_or(|cut| ned <= cut);
            let replace = if replace_ok {
                prev_diag + ned * a_w[i]
            } else {
                f64::INFINITY
            };
            let delete = row[j + 1] + a_w[i];
            let insert = row[j] + b_w[j];
            let val = replace.min(delete).min(insert);
            prev_diag = row[j + 1];
            row[j + 1] = val;
        }
    }
    row[n]
}

/// Length-normalized edit distance of two tokens, from the bit-parallel
/// kernel with an unlimited budget (the distance never exceeds the longer
/// length).
fn normalized_token_ed(a: &str, b: &str) -> f64 {
    match distance_within(a, b, Some) {
        Some((d, max)) if max > 0 => d as f64 / max as f64,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    const UNIT: fn(&str) -> f64 = |_| 1.0;

    #[test]
    fn identical_sequences() {
        let a = toks(&["microsoft", "corp"]);
        assert_eq!(ges(&a, &a, &UNIT, GesConfig::default()), 1.0);
    }

    #[test]
    fn empty_conventions() {
        let e = toks(&[]);
        let x = toks(&["x"]);
        assert_eq!(ges(&e, &e, &UNIT, GesConfig::default()), 1.0);
        assert_eq!(ges(&e, &x, &UNIT, GesConfig::default()), 0.0);
        // Deleting the only (weight-1) token costs everything.
        assert_eq!(ges(&x, &e, &UNIT, GesConfig::default()), 0.0);
    }

    #[test]
    fn near_token_cheap() {
        // "microsoft" -> "microsft": ed = 1/9, so cost ~ 0.111 of 2.0 weight.
        let a = toks(&["microsoft", "corp"]);
        let b = toks(&["microsft", "corp"]);
        let g = ges(&a, &b, &UNIT, GesConfig::default());
        let expect = 1.0 - (1.0 / 9.0) / 2.0;
        assert!((g - expect).abs() < 1e-9, "got {g}, expected {expect}");
    }

    #[test]
    fn paper_motivating_example() {
        // §3.3: with low weight on corp/corporation, "microsoft corp" should
        // be closer to "microsft corporation" than to "mic corp".
        let w = |t: &str| -> f64 {
            match t {
                "corp" | "corporation" => 0.2,
                _ => 1.0,
            }
        };
        let base = toks(&["microsoft", "corp"]);
        let good = toks(&["microsft", "corporation"]);
        let bad = toks(&["mic", "corp"]);
        let g_good = ges(&base, &good, &w, GesConfig::default());
        let g_bad = ges(&base, &bad, &w, GesConfig::default());
        assert!(
            g_good > g_bad,
            "GES should rank microsft corporation ({g_good}) above mic corp ({g_bad})"
        );
    }

    #[test]
    fn clamped_to_zero_floor() {
        // Totally different tokens: transformation cost >= wa, clamp to 0.
        let a = toks(&["aaa"]);
        let b = toks(&["zzz", "yyy", "xxx"]);
        let g = ges(&a, &b, &UNIT, GesConfig::default());
        assert_eq!(g, 0.0);
    }

    #[test]
    fn weights_scale_costs() {
        // Heavy first token makes its edit matter more.
        let a = toks(&["alpha", "beta"]);
        let b = toks(&["alphx", "beta"]);
        let heavy = |t: &str| if t.starts_with("alph") { 10.0 } else { 1.0 };
        let light = |t: &str| if t.starts_with("alph") { 0.1 } else { 1.0 };
        let g_heavy = ges(&a, &b, &heavy, GesConfig::default());
        let g_light = ges(&a, &b, &light, GesConfig::default());
        // Relative cost of the edit is ed * w / total: heavier token -> the
        // edit consumes a larger share of the (also larger) norm.
        // ed = 1/5. heavy: (0.2*10)/11 ≈ 0.1818; light: (0.2*0.1)/1.1 ≈ 0.0182.
        assert!(g_heavy < g_light);
    }

    #[test]
    fn replacement_cutoff_forces_delete_insert() {
        let a = toks(&["abcd"]);
        let b = toks(&["abce"]);
        let no_cut = ges(&a, &b, &UNIT, GesConfig::default());
        let cut = ges(
            &a,
            &b,
            &UNIT,
            GesConfig {
                replacement_cutoff: Some(0.1),
            },
        );
        // ed = 0.25 > 0.1, so the cut version pays delete+insert = 2.0 -> 0.
        assert!(no_cut > cut);
        assert_eq!(cut, 0.0);
    }

    #[test]
    fn symmetric_takes_max() {
        let a = toks(&["a", "b", "c"]);
        let b = toks(&["a"]);
        let s = ges_symmetric(&a, &b, &UNIT, GesConfig::default());
        let fwd = ges(&a, &b, &UNIT, GesConfig::default());
        let back = ges(&b, &a, &UNIT, GesConfig::default());
        assert!((s - fwd.max(back)).abs() < 1e-12);
        // Forward direction deletes two unit tokens out of three (cost 2/3);
        // backward inserts two tokens against a weight-1 norm and clamps to 0.
        assert!(fwd > back);
    }

    #[test]
    fn token_order_matters_for_alignment() {
        // Alignment is sequential, not bag-of-words: reversal costs edits.
        let a = toks(&["alpha", "beta"]);
        let b = toks(&["beta", "alpha"]);
        assert!(ges(&a, &b, &UNIT, GesConfig::default()) < 1.0);
    }
}
