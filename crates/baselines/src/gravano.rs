//! Customized q-gram edit-similarity join (Gravano et al., VLDB 2001).
//!
//! §5.1 of the SSJoin paper summarizes this algorithm (its Figure 11, left):
//! an equi-join on q-grams "along with additional filters (difference in
//! lengths of strings has to be less, and the positions of at least one
//! q-gram which is common to both strings has to be close) followed by an
//! invocation of the edit similarity computation".
//!
//! Concretely, a pair of strings becomes a candidate when
//!
//! 1. **length filter** — `| |σ1| − |σ2| | ≤ ε`, and
//! 2. **position filter** — they share at least one q-gram whose positions
//!    differ by at most ε,
//!
//! where `ε = ⌊(1 − α)·max(|σ1|, |σ2|)⌋` is the edit budget implied by the
//! similarity threshold α. Candidates are verified with the bit-parallel edit
//! distance. The optional **count filter** (`GravanoConfig::count_filter`)
//! additionally requires `max(|σ1|,|σ2|) − q + 1 − ε·q` positionally-close
//! shared q-grams (Property 4) before verification — Gravano et al.'s full
//! filter stack; the SSJoin paper's measured comparison counts (Table 1)
//! correspond to the filter set it describes, without the count filter.

use ssjoin_sim::{edit_distance_budget, edit_similarity, levenshtein_within};
use ssjoin_text::{QGramTokenizer, Tokenizer};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Configuration for the customized edit join.
#[derive(Debug, Clone)]
pub struct GravanoConfig {
    /// q-gram length (the paper's experiments use 3).
    pub q: usize,
    /// Edit-similarity threshold α in (0, 1].
    pub threshold: f64,
    /// Apply the count filter (Property 4) before verification.
    pub count_filter: bool,
}

impl GravanoConfig {
    /// Default configuration for a similarity threshold.
    pub fn new(q: usize, threshold: f64) -> Self {
        assert!(q >= 1, "q must be at least 1");
        assert!(
            threshold > 0.0 && threshold <= 1.0,
            "threshold must be in (0, 1], got {threshold}"
        );
        Self {
            q,
            threshold,
            count_filter: false,
        }
    }

    /// Enable the count filter.
    pub fn with_count_filter(mut self) -> Self {
        self.count_filter = true;
        self
    }
}

/// Counters and phase timings matching Figure 11's breakdown.
#[derive(Debug, Clone, Default)]
pub struct GravanoStats {
    /// Time to build positional q-gram lists ("Prep").
    pub prep: Duration,
    /// Time to enumerate candidate pairs ("Candidate-enumeration").
    pub candidate_enumeration: Duration,
    /// Time verifying candidates with edit distance ("EditSim-Filter").
    pub editsim_filter: Duration,
    /// q-gram equi-join tuples inspected.
    pub join_tuples: u64,
    /// Distinct candidate pairs surviving the filters.
    pub candidate_pairs: u64,
    /// Edit-distance computations performed (Table 1's quantity).
    pub edit_comparisons: u64,
    /// Result pairs.
    pub output_pairs: u64,
}

impl GravanoStats {
    /// Total wall time.
    pub fn total(&self) -> Duration {
        self.prep + self.candidate_enumeration + self.editsim_filter
    }
}

/// One matching pair with its edit similarity.
#[derive(Debug, Clone, PartialEq)]
pub struct GravanoPair {
    /// Index into the R strings.
    pub r: u32,
    /// Index into the S strings.
    pub s: u32,
    /// Edit similarity of the pair.
    pub similarity: f64,
}

/// The customized edit-similarity join.
#[derive(Debug, Clone)]
pub struct GravanoJoin {
    config: GravanoConfig,
}

struct PositionalGrams {
    /// Per string: `(gram, position)` pairs.
    grams: Vec<Vec<(String, u32)>>,
    lens: Vec<usize>,
}

impl GravanoJoin {
    /// New join with the given configuration.
    pub fn new(config: GravanoConfig) -> Self {
        Self { config }
    }

    fn prepare(&self, strings: &[String]) -> PositionalGrams {
        let tok = QGramTokenizer::new(self.config.q);
        let grams = strings
            .iter()
            .map(|s| {
                tok.tokenize(s)
                    .into_iter()
                    .enumerate()
                    .map(|(i, g)| (g, i as u32))
                    .collect()
            })
            .collect();
        let lens = strings.iter().map(|s| s.chars().count()).collect();
        PositionalGrams { grams, lens }
    }

    /// Join `r` with `s`, returning pairs with edit similarity ≥ the
    /// configured threshold. Pass the same slice twice for a self-join (all
    /// ordered pairs, including the diagonal, are reported — matching the
    /// SSJoin operator's semantics so outputs are directly comparable).
    pub fn run(&self, r: &[String], s: &[String]) -> (Vec<GravanoPair>, GravanoStats) {
        let mut stats = GravanoStats::default();
        let alpha = self.config.threshold;
        let q = self.config.q;

        let t0 = Instant::now();
        let pr = self.prepare(r);
        let ps = self.prepare(s);
        // Inverted index over S grams: gram → (string id, position).
        let mut index: HashMap<&str, Vec<(u32, u32)>> = HashMap::new();
        for (sid, grams) in ps.grams.iter().enumerate() {
            for (gram, pos) in grams {
                index
                    .entry(gram.as_str())
                    .or_default()
                    .push((sid as u32, *pos));
            }
        }
        stats.prep = t0.elapsed();

        // Candidate enumeration: equi-join on grams + length and position
        // filters; count filter optionally.
        let t1 = Instant::now();
        let mut candidates: Vec<(u32, u32)> = Vec::new();
        // Matching q-gram count per S id for the current R string.
        let mut match_count: Vec<u32> = vec![0; s.len()];
        let mut touched: Vec<u32> = Vec::new();
        for (rid, grams) in pr.grams.iter().enumerate() {
            let rlen = pr.lens[rid];
            for (gram, rpos) in grams {
                let Some(postings) = index.get(gram.as_str()) else {
                    continue;
                };
                for &(sid, spos) in postings {
                    stats.join_tuples += 1;
                    let slen = ps.lens[sid as usize];
                    let max_len = rlen.max(slen);
                    let Some(eps) = edit_distance_budget(max_len, alpha) else {
                        continue;
                    };
                    // Length filter.
                    if rlen.abs_diff(slen) > eps {
                        continue;
                    }
                    // Position filter.
                    if (*rpos as usize).abs_diff(spos as usize) > eps {
                        continue;
                    }
                    if match_count[sid as usize] == 0 {
                        touched.push(sid);
                    }
                    match_count[sid as usize] += 1;
                }
            }
            for &sid in &touched {
                let count = match_count[sid as usize];
                match_count[sid as usize] = 0;
                if self.config.count_filter {
                    let slen = ps.lens[sid as usize];
                    let max_len = rlen.max(slen);
                    let Some(eps) = edit_distance_budget(max_len, alpha) else {
                        continue;
                    };
                    let eps = eps as i64;
                    let bound = max_len as i64 - q as i64 + 1 - eps * q as i64;
                    if (count as i64) < bound {
                        continue;
                    }
                }
                candidates.push((rid as u32, sid));
            }
            touched.clear();
        }
        stats.candidate_pairs = candidates.len() as u64;
        stats.candidate_enumeration = t1.elapsed();

        // Verification with the threshold-aware edit distance.
        let t2 = Instant::now();
        let mut out = Vec::new();
        for (rid, sid) in candidates {
            let a = &r[rid as usize];
            let b = &s[sid as usize];
            let max_len = pr.lens[rid as usize].max(ps.lens[sid as usize]);
            stats.edit_comparisons += 1;
            if max_len == 0 {
                out.push(GravanoPair {
                    r: rid,
                    s: sid,
                    similarity: 1.0,
                });
                continue;
            }
            let Some(budget) = edit_distance_budget(max_len, alpha) else {
                continue;
            };
            if let Some(d) = levenshtein_within(a, b, budget) {
                out.push(GravanoPair {
                    r: rid,
                    s: sid,
                    similarity: 1.0 - d as f64 / max_len as f64,
                });
            }
        }
        stats.output_pairs = out.len() as u64;
        stats.editsim_filter = t2.elapsed();
        (out, stats)
    }
}

/// Reference: brute-force edit-similarity join (used to validate the
/// filtered algorithm in tests).
pub fn brute_force_edit_join(r: &[String], s: &[String], alpha: f64) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for (i, a) in r.iter().enumerate() {
        for (j, b) in s.iter().enumerate() {
            if edit_similarity(a, b) >= alpha - 1e-12 {
                out.push((i as u32, j as u32));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn sample() -> Vec<String> {
        strings(&[
            "microsoft corporation",
            "microsoft corp",
            "mcrosoft corp",
            "oracle incorporated",
            "oracle inc",
            "international business machines",
        ])
    }

    fn keys(pairs: &[GravanoPair]) -> Vec<(u32, u32)> {
        let mut k: Vec<(u32, u32)> = pairs.iter().map(|p| (p.r, p.s)).collect();
        k.sort_unstable();
        k
    }

    #[test]
    fn matches_brute_force_various_thresholds() {
        let data = sample();
        for alpha in [0.7, 0.8, 0.85, 0.9, 0.95] {
            let join = GravanoJoin::new(GravanoConfig::new(3, alpha));
            let (pairs, _) = join.run(&data, &data);
            let mut expect = brute_force_edit_join(&data, &data, alpha);
            expect.sort_unstable();
            assert_eq!(keys(&pairs), expect, "alpha={alpha}");
        }
    }

    #[test]
    fn count_filter_preserves_results() {
        let data = sample();
        for alpha in [0.8, 0.9] {
            let plain = GravanoJoin::new(GravanoConfig::new(3, alpha));
            let counted = GravanoJoin::new(GravanoConfig::new(3, alpha).with_count_filter());
            let (p1, s1) = plain.run(&data, &data);
            let (p2, s2) = counted.run(&data, &data);
            assert_eq!(keys(&p1), keys(&p2), "alpha={alpha}");
            // The count filter can only reduce verification work.
            assert!(s2.edit_comparisons <= s1.edit_comparisons);
        }
    }

    #[test]
    fn self_pairs_have_similarity_one() {
        let data = sample();
        let join = GravanoJoin::new(GravanoConfig::new(3, 0.9));
        let (pairs, _) = join.run(&data, &data);
        for p in pairs.iter().filter(|p| p.r == p.s) {
            assert_eq!(p.similarity, 1.0);
        }
    }

    #[test]
    fn filters_reduce_comparisons() {
        // Many dissimilar strings sharing a frequent q-gram ("the"):
        // the length+position filters must prune most verifications.
        let mut data: Vec<String> = (0..50)
            .map(|i| format!("the {} {}", "x".repeat(i % 20 + 1), i))
            .collect();
        data.push("the aaaa".into());
        let join = GravanoJoin::new(GravanoConfig::new(3, 0.9));
        let (_, stats) = join.run(&data, &data);
        let n = data.len() as u64;
        assert!(
            stats.edit_comparisons < n * n / 4,
            "comparisons {} vs cross product {}",
            stats.edit_comparisons,
            n * n
        );
    }

    #[test]
    fn stats_consistency() {
        let data = sample();
        let join = GravanoJoin::new(GravanoConfig::new(3, 0.8));
        let (pairs, stats) = join.run(&data, &data);
        assert_eq!(stats.output_pairs as usize, pairs.len());
        assert_eq!(stats.edit_comparisons, stats.candidate_pairs);
        assert!(stats.join_tuples >= stats.candidate_pairs);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let join = GravanoJoin::new(GravanoConfig::new(3, 0.8));
        let (pairs, _) = join.run(&[], &[]);
        assert!(pairs.is_empty());
        let one = strings(&["ab"]);
        let (pairs, _) = join.run(&one, &one);
        assert_eq!(keys(&pairs), vec![(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "threshold must be in (0, 1]")]
    fn invalid_threshold_rejected() {
        GravanoConfig::new(3, 0.0);
    }
}
