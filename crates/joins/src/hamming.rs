//! Hamming-distance join via SSJoin on `(position, character)` sets.
//!
//! §1 lists hamming distance among the similarity functions SSJoin covers:
//! two length-`L` strings are within hamming distance `k` iff their sets of
//! `(position, character)` pairs overlap in at least `L − k` elements. The
//! SSJoin predicate `Overlap ≥ max(R.norm, S.norm) − k` (norms = lengths) is
//! a superset filter — pairs of different lengths that slip through are
//! removed by the exact hamming check.

use crate::common::{
    run_join, verify_candidates, verify_uncovered, JoinSpec, SimilarityJoinOutput,
};
use ssjoin_core::{
    Algorithm, ElementOrder, JoinPair, NormExpr, NormKind, OverlapPredicate, SetCollection,
    SsJoinConfig, SsJoinResult, WeightScheme,
};
use ssjoin_sim::hamming_distance;

/// Configuration for [`hamming_join`].
#[derive(Debug, Clone)]
pub struct HammingJoinConfig {
    /// Maximum hamming distance.
    pub max_distance: usize,
    /// SSJoin physical algorithm.
    pub algorithm: Algorithm,
}

impl HammingJoinConfig {
    /// Join strings within `max_distance` mismatches.
    pub fn new(max_distance: usize) -> Self {
        Self {
            max_distance,
            algorithm: Algorithm::Inline,
        }
    }

    /// Override the SSJoin algorithm.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }
}

fn positional_elements(s: &str) -> Vec<String> {
    s.chars()
        .enumerate()
        .map(|(i, c)| format!("{i}\u{1}{c}"))
        .collect()
}

/// `1 − d/len`, with two empty strings maximally similar.
fn similarity(d: usize, len: usize) -> f64 {
    if len == 0 {
        1.0
    } else {
        1.0 - d as f64 / len as f64
    }
}

/// Hamming join: pairs of equal-length strings differing in at most
/// `max_distance` positions, with `similarity = 1 − d/len`.
pub fn hamming_join(
    r: &[String],
    s: &[String],
    config: &HammingJoinConfig,
) -> SsJoinResult<SimilarityJoinOutput> {
    let k = config.max_distance;
    let spec = JoinSpec {
        thresholds: &[],
        weights: WeightScheme::Unweighted,
        order: ElementOrder::FrequencyAsc,
        // Overlap ≥ max(L_r, L_s) − k.
        predicate: OverlapPredicate::new(vec![NormExpr::Sub(
            Box::new(NormExpr::Max(
                Box::new(NormExpr::RNorm),
                Box::new(NormExpr::SNorm),
            )),
            Box::new(NormExpr::Const(k as f64)),
        )]),
        config: SsJoinConfig::new(config.algorithm),
    };
    let prep = || {
        let side = |xs: &[String]| {
            let lens = xs.iter().map(|x| x.chars().count() as f64).collect();
            let groups = xs.iter().map(|x| positional_elements(x)).collect();
            (groups, NormKind::Custom(lens))
        };
        Ok([side(r), side(s)])
    };
    // Verify with the exact hamming check (the norms are the lengths).
    let udf = |i: u32, j: u32| {
        let d = hamming_distance(&r[i as usize], &s[j as usize]).filter(|&d| d <= k)?;
        Some(similarity(d, r[i as usize].chars().count()))
    };
    let verify = |candidates: &[JoinPair], r_col: &SetCollection, s_col: &SetCollection| {
        let mut verified = verify_candidates(candidates, 1, &udf);
        // Exactness for degenerate lengths: when `len ≤ max_distance`, every
        // equal-length pair is within distance (hamming ≤ len ≤ k) even if
        // the strings share no (position, char) element — which the positive
        // threshold of the SSJoin predicate cannot see.
        let len = |col: &SetCollection, i: u32| col.set(i).norm() as usize;
        let short = |col: &SetCollection| -> Vec<u32> {
            (0..col.len() as u32)
                .filter(|&i| len(col, i) <= k)
                .collect()
        };
        let short_s = short(s_col);
        let uncovered = short(r_col).into_iter().flat_map(|i| {
            let same_len = short_s
                .iter()
                .filter(move |&&j| len(r_col, i) == len(s_col, j));
            same_len.map(move |&j| (i, j))
        });
        verify_uncovered(&mut verified, uncovered, udf);
        verified
    };
    run_join(spec, prep, verify)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn brute_force(r: &[String], s: &[String], k: usize) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (i, a) in r.iter().enumerate() {
            for (j, b) in s.iter().enumerate() {
                if matches!(hamming_distance(a, b), Some(d) if d <= k) {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    #[test]
    fn matches_brute_force() {
        let data = strings(&["10110", "10010", "11111", "10110", "0011", "0010"]);
        for k in 0..=3 {
            let out = hamming_join(&data, &data, &HammingJoinConfig::new(k)).unwrap();
            assert_eq!(out.keys(), brute_force(&data, &data, k), "k={k}");
        }
    }

    #[test]
    fn degenerate_lengths_handled_exactly() {
        // "1" vs "0": hamming distance 1 ≤ k = 1 but zero shared
        // (position, char) elements — the SSJoin predicate can't see it, the
        // exact short-length pass must.
        let data = strings(&["1", "0"]);
        let out = hamming_join(&data, &data, &HammingJoinConfig::new(1)).unwrap();
        assert_eq!(out.keys(), vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        // Two empty strings are at distance 0 for every k.
        let empties = strings(&["", ""]);
        let out = hamming_join(&empties, &empties, &HammingJoinConfig::new(0)).unwrap();
        assert_eq!(out.keys().len(), 4);
    }

    #[test]
    fn different_lengths_never_match() {
        let data = strings(&["abc", "abcd"]);
        let out = hamming_join(&data, &data, &HammingJoinConfig::new(3)).unwrap();
        assert_eq!(out.keys(), vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn similarity_values() {
        let data = strings(&["abcd", "abce"]);
        let out = hamming_join(&data, &data, &HammingJoinConfig::new(1)).unwrap();
        let p = out.pairs.iter().find(|p| p.r == 0 && p.s == 1).unwrap();
        assert!((p.similarity - 0.75).abs() < 1e-9);
    }

    #[test]
    fn zero_distance_is_equality() {
        let data = strings(&["same", "same", "sane"]);
        let out = hamming_join(&data, &data, &HammingJoinConfig::new(0)).unwrap();
        let keys = out.keys();
        assert!(keys.contains(&(0, 1)));
        assert!(!keys.contains(&(0, 2)));
    }

    #[test]
    fn algorithms_agree() {
        let data: Vec<String> = (0..30).map(|i| format!("{:05b}", i % 32)).collect();
        let a = hamming_join(&data, &data, &HammingJoinConfig::new(1)).unwrap();
        let b = hamming_join(
            &data,
            &data,
            &HammingJoinConfig::new(1).with_algorithm(Algorithm::Basic),
        )
        .unwrap();
        assert_eq!(a.keys(), b.keys());
    }
}
