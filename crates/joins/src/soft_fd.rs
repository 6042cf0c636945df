//! Soft functional-dependency join (Figure 6, Definition 7 of the paper).
//!
//! Given `h` attributes each expected to functionally determine the target
//! (address, email, phone → person), two tuples are matched when they agree
//! on at least `k` of the `h` attributes: `t1 ≈_{k/h} t2`. Representing each
//! tuple as the set of `(attribute, value)` pairs turns the predicate into
//! an absolute-overlap SSJoin with threshold `k` — the reduction of
//! Figure 6.

use crate::common::{run_join, JoinSpec, MatchPair, SimilarityJoinOutput};
use ssjoin_core::{
    Algorithm, ElementOrder, JoinPair, NormKind, OverlapPredicate, SetCollection, SsJoinConfig,
    SsJoinError, SsJoinResult, WeightScheme,
};

/// Configuration for [`soft_fd_join`].
#[derive(Debug, Clone)]
pub struct SoftFdConfig {
    /// Minimum number of agreeing attributes (`k` of Definition 7).
    pub k: usize,
    /// SSJoin physical algorithm.
    pub algorithm: Algorithm,
}

impl SoftFdConfig {
    /// Require agreement on at least `k` attributes (checked when the join
    /// runs).
    pub fn new(k: usize) -> Self {
        Self {
            k,
            algorithm: Algorithm::Inline,
        }
    }

    /// Override the SSJoin algorithm.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }
}

/// Normalize one tuple's FD-source attributes into the `(attribute, value)`
/// element set. Empty values are skipped — a missing email agrees with
/// nothing.
fn tuple_elements(attrs: &[String]) -> Vec<String> {
    attrs
        .iter()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .map(|(i, v)| format!("{i}\u{1}{v}"))
        .collect()
}

/// Soft-FD join: `r` and `s` are tuples of FD-source attribute values (all
/// tuples must have the same arity `h`); returns pairs agreeing on ≥ `k`
/// attributes, with `similarity = agreements / h`.
///
/// # Errors
/// Returns [`SsJoinError::InvalidInput`] for tuples of unequal arity,
/// [`SsJoinError::Config`] when `k` is zero or exceeds the arity, and any
/// error of the underlying SSJoin.
///
/// ```
/// use ssjoin_joins::{soft_fd_join, SoftFdConfig};
///
/// // [address, email, phone] per record (Example 6 of the paper).
/// let records: Vec<Vec<String>> = vec![
///     vec!["1 Main St".into(), "ann@x.com".into(), "555-0100".into()],
///     vec!["1 Main St".into(), "ann@x.com".into(), "555-9999".into()],
/// ];
/// let out = soft_fd_join(&records, &records, &SoftFdConfig::new(2)).unwrap();
/// assert!(out.keys().contains(&(0, 1))); // 2 of 3 attributes agree
/// ```
pub fn soft_fd_join(
    r: &[Vec<String>],
    s: &[Vec<String>],
    config: &SoftFdConfig,
) -> SsJoinResult<SimilarityJoinOutput> {
    let h = r.first().or_else(|| s.first()).map(Vec::len).unwrap_or(0);
    if r.iter().chain(s).any(|row| row.len() != h) {
        return Err(SsJoinError::InvalidInput(
            "all tuples must have the same attribute arity".into(),
        ));
    }
    if config.k == 0 || config.k > h.max(1) {
        return Err(SsJoinError::Config(format!(
            "k must be in [1, {}] (the attribute count), got {}",
            h.max(1),
            config.k
        )));
    }
    let spec = JoinSpec {
        thresholds: &[],
        weights: WeightScheme::Unweighted,
        order: ElementOrder::FrequencyAsc,
        predicate: OverlapPredicate::absolute(config.k as f64),
        config: SsJoinConfig::new(config.algorithm),
    };
    let prep = || {
        let side = |rows: &[Vec<String>]| {
            let groups = rows.iter().map(|row| tuple_elements(row)).collect();
            (groups, NormKind::TotalWeight)
        };
        Ok([side(r), side(s)])
    };
    // The absolute-overlap predicate is exact: agreements are the overlap.
    let verify = |candidates: &[JoinPair], _: &SetCollection, _: &SetCollection| {
        let pairs = candidates
            .iter()
            .map(|p| MatchPair {
                r: p.r,
                s: p.s,
                similarity: p.overlap.to_f64() / h.max(1) as f64,
            })
            .collect();
        (pairs, 0)
    };
    run_join(spec, prep, verify)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuples(rows: &[[&str; 3]]) -> Vec<Vec<String>> {
        rows.iter()
            .map(|row| row.iter().map(|v| v.to_string()).collect())
            .collect()
    }

    /// Example 6 of the paper: match authors when at least 2 of
    /// {address, email, phone} agree.
    #[test]
    fn paper_example_two_of_three() {
        let authors1 = tuples(&[
            ["1 main st", "ann@x.com", "555-0100"],
            ["9 elm st", "bob@y.com", "555-0199"],
        ]);
        let authors2 = tuples(&[
            ["1 main st", "ann@x.com", "555-9999"],  // agrees on 2
            ["9 elm st", "other@z.com", "555-0000"], // agrees on 1
        ]);
        let out = soft_fd_join(&authors1, &authors2, &SoftFdConfig::new(2)).unwrap();
        assert_eq!(out.keys(), vec![(0, 0)]);
        assert!((out.pairs[0].similarity - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn k_equals_h_is_full_agreement() {
        let data = tuples(&[["a", "b", "c"], ["a", "b", "c"], ["a", "b", "x"]]);
        let out = soft_fd_join(&data, &data, &SoftFdConfig::new(3)).unwrap();
        let keys = out.keys();
        assert!(keys.contains(&(0, 1)));
        assert!(!keys.contains(&(0, 2)));
    }

    #[test]
    fn same_value_in_different_columns_does_not_agree() {
        let r = tuples(&[["x", "", ""]]);
        let s = tuples(&[["", "x", ""]]);
        let out = soft_fd_join(&r, &s, &SoftFdConfig::new(1)).unwrap();
        assert!(out.pairs.is_empty());
    }

    #[test]
    fn empty_attributes_never_agree() {
        let r = tuples(&[["", "", ""]]);
        let s = tuples(&[["", "", ""]]);
        let out = soft_fd_join(&r, &s, &SoftFdConfig::new(1)).unwrap();
        assert!(out.pairs.is_empty());
    }

    #[test]
    fn brute_force_equivalence() {
        let data: Vec<Vec<String>> = (0..20)
            .map(|i| {
                vec![
                    format!("addr{}", i % 4),
                    format!("mail{}", i % 5),
                    format!("phone{}", i % 3),
                ]
            })
            .collect();
        for k in 1..=3 {
            let out = soft_fd_join(&data, &data, &SoftFdConfig::new(k)).unwrap();
            let mut expect = Vec::new();
            for (i, a) in data.iter().enumerate() {
                for (j, b) in data.iter().enumerate() {
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
            assert_eq!(out.keys(), expect, "k={k}");
        }
    }

    #[test]
    fn ragged_tuples_rejected() {
        let r = vec![
            vec!["a".to_string()],
            vec!["a".to_string(), "b".to_string()],
        ];
        let out = soft_fd_join(&r, &r, &SoftFdConfig::new(1));
        assert!(
            matches!(out, Err(SsJoinError::InvalidInput(ref m)) if m.contains("same attribute arity")),
            "{out:?}"
        );
    }

    #[test]
    fn k_too_large_rejected() {
        let r = tuples(&[["a", "b", "c"]]);
        let out = soft_fd_join(&r, &r, &SoftFdConfig::new(4));
        assert!(
            matches!(out, Err(SsJoinError::Config(ref m)) if m.contains("attribute count")),
            "{out:?}"
        );
    }
}
