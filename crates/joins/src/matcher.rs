//! Reusable fuzzy-match index: one reference table, many queries.
//!
//! The fuzzy-match primitive of Chaudhuri et al. (SIGMOD 2003) — the
//! paper's ref.\ 4 — matches *incoming records one at a time* against a
//! reference table. [`crate::top_k_matches`] answers a single lookup but
//! rebuilds its index per call; [`EditMatcher`] builds the q-gram inverted
//! index over the reference table once and serves any number of lookups,
//! which is how an online cleaning pipeline actually runs.
//!
//! Candidate generation is the multiset q-gram count filter (Property 4):
//! accumulate `Σ_g min(count_query(g), count_ref(g))` over the query's
//! grams via the postings, keep references meeting the overlap bound, and
//! verify with the banded edit distance. Queries or references too short
//! for the bound to apply are handled exactly through a by-length pool, so
//! the matcher is exact for every input.

use crate::topk::TopKMatch;
use ssjoin_sim::{edit_distance_budget, levenshtein_within};
use ssjoin_text::{QGramTokenizer, Tokenizer};
use std::collections::HashMap;

/// A prebuilt fuzzy-match index over a reference table.
///
/// ```
/// use ssjoin_joins::EditMatcher;
///
/// let catalog: Vec<String> = vec!["Microsoft Corp".into(), "Oracle Inc".into()];
/// let matcher = EditMatcher::build(catalog, 3);
/// let hits = matcher.top_k("Mcrosoft Corp", 1, 0.8);
/// assert_eq!(hits[0].index, 0);
/// ```
#[derive(Debug)]
pub struct EditMatcher {
    q: usize,
    references: Vec<String>,
    ref_lens: Vec<usize>,
    /// gram → (reference id, occurrence count) — ids ascending.
    postings: HashMap<String, Vec<(u32, u32)>>,
    /// Reference ids grouped by length, for the exact short-string path.
    by_len: HashMap<usize, Vec<u32>>,
}

impl EditMatcher {
    /// Build the index. `q` is the q-gram length (3 is the paper's choice).
    pub fn build(references: Vec<String>, q: usize) -> Self {
        assert!(q >= 1, "q must be at least 1");
        let tok = QGramTokenizer::new(q);
        let mut postings: HashMap<String, Vec<(u32, u32)>> = HashMap::new();
        let mut by_len: HashMap<usize, Vec<u32>> = HashMap::new();
        let mut ref_lens = Vec::with_capacity(references.len());
        for (rid, r) in references.iter().enumerate() {
            let len = r.chars().count();
            ref_lens.push(len);
            by_len.entry(len).or_default().push(rid as u32);
            let mut counts: HashMap<String, u32> = HashMap::new();
            for gram in tok.tokenize(r) {
                *counts.entry(gram).or_insert(0) += 1;
            }
            for (gram, count) in counts {
                postings.entry(gram).or_default().push((rid as u32, count));
            }
        }
        Self {
            q,
            references,
            ref_lens,
            postings,
            by_len,
        }
    }

    /// The indexed reference strings.
    pub fn references(&self) -> &[String] {
        &self.references
    }

    /// All references with edit similarity ≥ `min_similarity` to `query`,
    /// sorted by descending similarity (ties by index).
    pub fn matches(&self, query: &str, min_similarity: f64) -> Vec<TopKMatch> {
        assert!(
            min_similarity > 0.0 && min_similarity <= 1.0,
            "min_similarity must be in (0, 1]"
        );
        let qlen = query.chars().count();
        let tok = QGramTokenizer::new(self.q);
        let mut query_counts: HashMap<String, u32> = HashMap::new();
        for gram in tok.tokenize(query) {
            *query_counts.entry(gram).or_insert(0) += 1;
        }

        // Count filter: accumulated multiset gram matches per reference.
        let mut acc: HashMap<u32, i64> = HashMap::new();
        for (gram, &qc) in &query_counts {
            if let Some(list) = self.postings.get(gram.as_str()) {
                for &(rid, rc) in list {
                    *acc.entry(rid).or_insert(0) += qc.min(rc) as i64;
                }
            }
        }

        let mut out: Vec<TopKMatch> = Vec::new();
        let verify = |rid: u32, out: &mut Vec<TopKMatch>| {
            let rlen = self.ref_lens[rid as usize];
            let max_len = qlen.max(rlen);
            if max_len == 0 {
                out.push(TopKMatch {
                    index: rid,
                    similarity: 1.0,
                });
                return;
            }
            let Some(budget) = edit_distance_budget(max_len, min_similarity) else {
                return;
            };
            if qlen.abs_diff(rlen) > budget {
                return;
            }
            if let Some(d) = levenshtein_within(query, &self.references[rid as usize], budget) {
                out.push(TopKMatch {
                    index: rid,
                    similarity: 1.0 - d as f64 / max_len as f64,
                });
            }
        };

        let mut checked: Vec<bool> = Vec::new();
        let needs_exact_pool = |len: usize| -> bool {
            // The Property-4 bound is below 1 when both strings are shorter
            // than q / (1 − (1−α)q); conservative per-string check.
            let c = 1.0 - (1.0 - min_similarity) * self.q as f64;
            c <= 0.0 || (len as f64) < self.q as f64 / c
        };
        let query_short = needs_exact_pool(qlen);
        if query_short {
            checked = vec![false; self.references.len()];
        }

        for (&rid, &count) in &acc {
            let rlen = self.ref_lens[rid as usize];
            let max_len = qlen.max(rlen) as f64;
            let eps = (1.0 - min_similarity) * max_len;
            let bound = max_len - self.q as f64 + 1.0 - eps * self.q as f64;
            if (count as f64) + 1e-9 < bound {
                continue; // count filter: cannot be within the budget
            }
            if query_short {
                checked[rid as usize] = true;
            }
            verify(rid, &mut out);
        }

        // Exact path for short strings the q-gram bound cannot cover: scan
        // references whose length is within the edit budget of the query.
        if query_short {
            let c = 1.0 - (1.0 - min_similarity) * self.q as f64;
            let cutoff = if c <= 0.0 {
                usize::MAX
            } else {
                (self.q as f64 / c).ceil() as usize
            };
            for (&len, rids) in &self.by_len {
                if len >= cutoff && cutoff != usize::MAX {
                    continue; // pair bound applies via the reference side
                }
                // Length filter relative to the query.
                let max_len = qlen.max(len);
                let Some(budget) = edit_distance_budget(max_len, min_similarity) else {
                    continue;
                };
                if qlen.abs_diff(len) > budget {
                    continue;
                }
                for &rid in rids {
                    if !checked[rid as usize] {
                        checked[rid as usize] = true;
                        verify(rid, &mut out);
                    }
                }
            }
        }

        out.sort_by(|a, b| {
            b.similarity
                .partial_cmp(&a.similarity)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.index.cmp(&b.index))
        });
        out
    }

    /// The best `k` matches with similarity ≥ `min_similarity`.
    pub fn top_k(&self, query: &str, k: usize, min_similarity: f64) -> Vec<TopKMatch> {
        let mut m = self.matches(query, min_similarity);
        m.truncate(k);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssjoin_sim::edit_similarity;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn brute(refs: &[String], query: &str, alpha: f64) -> Vec<u32> {
        let mut out: Vec<(u32, f64)> = refs
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                let s = edit_similarity(query, r);
                (s >= alpha - 1e-12).then_some((i as u32, s))
            })
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        out.into_iter().map(|(i, _)| i).collect()
    }

    fn reference() -> Vec<String> {
        strings(&[
            "microsoft corporation",
            "microsoft corp",
            "macrosoft inc",
            "oracle corporation",
            "international business machines",
            "ab",
            "ac",
            "x",
        ])
    }

    #[test]
    fn matches_brute_force_for_long_and_short_queries() {
        let matcher = EditMatcher::build(reference(), 3);
        for query in ["microsoft corp", "oracle corpp", "ab", "a", "zzzz", ""] {
            for alpha in [0.5, 0.75, 0.9] {
                let got: Vec<u32> = matcher
                    .matches(query, alpha)
                    .into_iter()
                    .map(|m| m.index)
                    .collect();
                assert_eq!(
                    got,
                    brute(&reference(), query, alpha),
                    "query={query:?} alpha={alpha}"
                );
            }
        }
    }

    #[test]
    fn top_k_truncates_and_orders() {
        let matcher = EditMatcher::build(reference(), 3);
        let m = matcher.top_k("microsoft corp", 2, 0.5);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].index, 1);
        assert_eq!(m[0].similarity, 1.0);
        assert!(m[0].similarity >= m[1].similarity);
    }

    #[test]
    fn index_is_reusable() {
        let matcher = EditMatcher::build(reference(), 3);
        // Two different queries against the same index.
        assert_eq!(matcher.top_k("oracle corporation", 1, 0.9)[0].index, 3);
        assert_eq!(matcher.top_k("microsoft corporation", 1, 0.9)[0].index, 0);
    }

    #[test]
    fn empty_reference() {
        let matcher = EditMatcher::build(vec![], 3);
        assert!(matcher.matches("anything", 0.8).is_empty());
    }

    #[test]
    fn multiset_gram_counting() {
        // "aaaa" has three "aa"-ish 3-grams as a multiset; a reference with
        // fewer repetitions must not be overcounted.
        let matcher = EditMatcher::build(strings(&["aaaa", "aaaaaaaa"]), 3);
        let got: Vec<u32> = matcher
            .matches("aaaa", 0.9)
            .into_iter()
            .map(|m| m.index)
            .collect();
        assert_eq!(got, brute(&strings(&["aaaa", "aaaaaaaa"]), "aaaa", 0.9));
    }
}
