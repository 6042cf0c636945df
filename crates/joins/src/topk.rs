//! Top-K matching by composing SSJoin with ranking.
//!
//! §6 of the paper: "by composing the SSJoin operator with the top-k
//! operator, we can address the form of top-K queries which ask for the best
//! matches whose similarity is above a certain threshold" — the fuzzy-match
//! lookup of Chaudhuri et al. (SIGMOD 2003). Given a query string and a
//! reference table, run the edit-similarity join of the query against the
//! table at the floor threshold and keep the K best verified matches.
//!
//! Two entry points:
//!
//! * [`top_k_matches`] — one-shot: tokenizes the reference table, builds the
//!   q-gram index, and answers a single lookup. Simple, but the build cost
//!   is paid on every call.
//! * [`TopKIndex`] — persistent: the reference table is encoded once into a
//!   [`CorpusIndex`] and any number of lookups probe it, which is how an
//!   online cleaning pipeline actually runs. The index also supports
//!   incremental [`TopKIndex::insert`] / [`TopKIndex::delete`] and
//!   threshold-floor self-joins ([`TopKIndex::self_pairs`]) for duplicate
//!   grouping.

use crate::common::{check_threshold, MatchPair};
use crate::edit::{edit_similarity_join, property4_predicate, short_cutoff, EditJoinConfig};
use ssjoin_core::{
    Algorithm, ApproxSpec, CorpusIndex, CorpusIndexOptions, ElementOrder, ExecContext,
    JoinWorkspace, NormKind, QueryEncoder, SsJoinConfig, SsJoinError, SsJoinInputBuilder,
    SsJoinResult, SsJoinStats, WeightScheme,
};
use ssjoin_sim::edit_similarity_within;
use ssjoin_text::{QGramTokenizer, Tokenizer};
use std::collections::HashSet;

/// Configuration for [`top_k_matches`] and [`TopKIndex`].
#[derive(Debug, Clone)]
pub struct TopKConfig {
    /// Number of matches to return.
    pub k: usize,
    /// Similarity floor: matches below this are never returned (the
    /// "above a certain threshold" part of the composition).
    pub min_similarity: f64,
    /// q-gram length for the underlying edit join.
    pub q: usize,
    /// Resident-memory budget in bytes for probes against the underlying
    /// [`CorpusIndex`], carried into the probe context's
    /// [`ExecBudget::max_resident_bytes`](ssjoin_core::ExecBudget::max_resident_bytes).
    /// Probe batches whose working-set estimate exceeds the budget run out
    /// of core through the token-range spill driver with bit-identical
    /// matches — the knob that lets a long-lived matching service hold
    /// reference tables larger than RAM. `None` (the default) never spills.
    pub memory_budget: Option<u64>,
    /// Opt-in approximate candidate generation for indexed probes: `Some(r)`
    /// with `r < 1` builds the underlying [`CorpusIndex`] with a seeded LSH
    /// sketch and probes it targeting recall `r`. Verification is unchanged,
    /// so every returned match still carries its exact similarity — the only
    /// approximation is that some true matches may be missed. `None` (the
    /// default) and `Some(1.0)` are exact.
    pub approx: Option<f64>,
}

impl TopKConfig {
    /// Top-`k` with the given similarity floor.
    ///
    /// # Errors
    /// Returns [`SsJoinError::Config`] when `k` is zero or
    /// `min_similarity` is outside `(0, 1]`.
    pub fn new(k: usize, min_similarity: f64) -> SsJoinResult<Self> {
        if k < 1 {
            return Err(SsJoinError::Config("k must be at least 1".into()));
        }
        check_threshold("min_similarity", min_similarity)?;
        Ok(Self {
            k,
            min_similarity,
            q: 3,
            memory_budget: None,
            approx: None,
        })
    }

    /// Opt in to approximate candidate generation at `target_recall`
    /// (validated when the index is built).
    #[must_use]
    pub fn with_approximate(mut self, target_recall: f64) -> Self {
        self.approx = Some(target_recall);
        self
    }
}

/// One top-K match: reference index plus similarity.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKMatch {
    /// Index into the reference table.
    pub index: u32,
    /// Edit similarity to the query.
    pub similarity: f64,
}

fn rank_matches(out: &mut [TopKMatch]) {
    out.sort_by(|a, b| {
        b.similarity
            .partial_cmp(&a.similarity)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.index.cmp(&b.index))
    });
}

/// A persistent fuzzy-match index: the reference table is q-gram-encoded
/// into a [`CorpusIndex`] once; every lookup probes the prebuilt inverted
/// lists instead of re-running the full edit join.
///
/// Correctness mirrors [`edit_similarity_join`] exactly:
///
/// * probe candidates come from the Property-4 predicate at the configured
///   floor, then are verified with the banded edit-distance UDF;
/// * references (and queries) shorter than the q-gram cutoff are routed
///   through an exact brute-force pool;
/// * references [`insert`](TopKIndex::insert)ed later whose q-grams fall
///   outside the frozen element universe are checked against *every* query,
///   because their under-encoded sets would weaken the prefix-filter
///   guarantee.
///
/// ```
/// use ssjoin_joins::{TopKConfig, TopKIndex};
///
/// let catalog: Vec<String> = vec!["Microsoft Corp".into(), "Oracle Inc".into()];
/// let mut index = TopKIndex::build(&catalog, TopKConfig::new(1, 0.8).unwrap()).unwrap();
/// let hits = index.top_k("Mcrosoft Corp").unwrap();
/// assert_eq!(hits[0].index, 0);
/// ```
#[derive(Debug)]
pub struct TopKIndex {
    config: TopKConfig,
    reference: Vec<String>,
    ref_lens: Vec<usize>,
    encoder: QueryEncoder,
    index: CorpusIndex,
    ss_config: SsJoinConfig,
    ws: JoinWorkspace,
    /// Live reference ids below the q-gram cutoff (exact pool for short
    /// queries), ascending.
    short_ids: Vec<u32>,
    /// Live inserted ids whose encoding dropped out-of-universe q-grams;
    /// checked against every query. Ascending.
    brute_ids: Vec<u32>,
    short_cutoff: usize,
    /// Stats of the most recent probe (see [`TopKIndex::last_stats`]).
    last_stats: SsJoinStats,
}

impl TopKIndex {
    /// Build the index over `reference` once.
    ///
    /// # Errors
    /// Returns [`SsJoinError::Config`] when `config.q` is zero or
    /// `config.min_similarity` is outside `(0, 1]`, or any error of the
    /// underlying input build / index construction.
    pub fn build(reference: &[String], config: TopKConfig) -> SsJoinResult<Self> {
        if config.q == 0 {
            return Err(SsJoinError::Config("q must be at least 1".into()));
        }
        check_threshold("min_similarity", config.min_similarity)?;
        let tok = QGramTokenizer::new(config.q);
        let ref_lens: Vec<usize> = reference.iter().map(|x| x.chars().count()).collect();
        let norms: Vec<f64> = ref_lens.iter().map(|&l| l as f64).collect();
        let groups: Vec<Vec<String>> = reference.iter().map(|x| tok.tokenize(x)).collect();
        let mut builder =
            SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        builder.add_relation_with_norm(groups, NormKind::Custom(norms));
        let built = builder.build()?;
        let encoder = built.query_encoder();
        let corpus = built
            .into_collections()
            .pop()
            .unwrap_or_else(|| unreachable!("one relation was added"));
        let pred = property4_predicate(config.min_similarity, config.q);
        let approx = config.approx.map(ApproxSpec::new);
        let options = CorpusIndexOptions {
            approx,
            ..CorpusIndexOptions::default()
        };
        let index = CorpusIndex::build_with(corpus, pred, &options)?;
        let cutoff = short_cutoff(config.min_similarity, config.q);
        let short_ids = (0..reference.len() as u32)
            .filter(|&i| ref_lens[i as usize] < cutoff)
            .collect();
        let mut exec = ExecContext::new();
        exec.budget.max_resident_bytes = config.memory_budget;
        exec.approx = approx;
        let ss_config = SsJoinConfig::new(Algorithm::Inline).with_exec(exec);
        Ok(Self {
            ss_config,
            config,
            reference: reference.to_vec(),
            ref_lens,
            encoder,
            index,
            ws: JoinWorkspace::new(),
            short_ids,
            brute_ids: Vec::new(),
            short_cutoff: cutoff,
            last_stats: SsJoinStats::default(),
        })
    }

    /// The best `config.k` live references for `query` with edit similarity
    /// at least `config.min_similarity`, ordered by descending similarity
    /// (ties by index) — the indexed equivalent of [`top_k_matches`].
    pub fn top_k(&mut self, query: &str) -> SsJoinResult<Vec<TopKMatch>> {
        let mut out = self.matches(query)?;
        out.truncate(self.config.k);
        Ok(out)
    }

    /// All live references for `query` above the floor, unbounded by `k`.
    pub fn matches(&mut self, query: &str) -> SsJoinResult<Vec<TopKMatch>> {
        let alpha = self.config.min_similarity;
        let tok = QGramTokenizer::new(self.config.q);
        let qlen = query.chars().count();
        let batch = self
            .encoder
            .encode(&[tok.tokenize(query)], NormKind::Custom(vec![qlen as f64]))?;

        let run = self.index.probe(&batch, &self.ss_config, &mut self.ws)?;
        self.last_stats = run.stats.clone();
        // Probe candidates, then the exact route for pairs the q-gram bound
        // cannot cover: short query × short reference, plus under-encoded
        // inserts against every query.
        let short: &[u32] = if qlen < self.short_cutoff {
            &self.short_ids
        } else {
            &[]
        };
        let candidates = run.pairs.iter().map(|p| p.s);
        let candidates = candidates.chain(short.iter().chain(&self.brute_ids).copied());
        let mut seen: HashSet<u32> = HashSet::new();
        let mut out: Vec<TopKMatch> = candidates
            .filter(|&rid| self.index.is_alive(rid) && seen.insert(rid))
            .filter_map(|rid| {
                let similarity =
                    edit_similarity_within(query, &self.reference[rid as usize], alpha)?;
                Some(TopKMatch {
                    index: rid,
                    similarity,
                })
            })
            .collect();
        rank_matches(&mut out);
        Ok(out)
    }

    /// All live reference pairs `(r, s)` with `r < s` and edit similarity at
    /// least `theta`, sorted by `(r, s)` — the self-join feeding duplicate
    /// grouping ([`crate::cluster_pairs`]).
    ///
    /// # Errors
    /// Returns [`SsJoinError::Config`] when `theta` is below the index's
    /// build floor (candidates were generated at `config.min_similarity`, so
    /// lower thresholds would miss pairs) or above 1.
    pub fn self_pairs(&mut self, theta: f64) -> SsJoinResult<Vec<MatchPair>> {
        if !(theta >= self.config.min_similarity && theta <= 1.0) {
            return Err(SsJoinError::Config(format!(
                "theta must be in [{}, 1], got {theta}",
                self.config.min_similarity
            )));
        }
        // The batch side is the corpus arena itself, dead rows included:
        // the probe drops dead S rows, the alive check below dead R rows.
        let run = self
            .index
            .probe(self.index.corpus(), &self.ss_config, &mut self.ws)?;
        self.last_stats = run.stats.clone();
        // Probe candidates, then the exact supplements mirroring `matches`:
        // short × short, and under-encoded inserts against every reference.
        let (short, n) = (&self.short_ids, self.reference.len() as u32);
        let short_pairs =
            (0..short.len()).flat_map(|i| (i + 1..short.len()).map(move |j| (short[i], short[j])));
        let brute_pairs = self
            .brute_ids
            .iter()
            .flat_map(|&b| (0..n).map(move |o| (b, o)));
        let candidates = run.pairs.iter().map(|p| (p.r, p.s));
        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        let mut out: Vec<MatchPair> = candidates
            .chain(short_pairs)
            .chain(brute_pairs)
            .map(|(r, s)| (r.min(s), r.max(s)))
            .filter(|&(r, s)| {
                r != s && self.index.is_alive(r) && self.index.is_alive(s) && seen.insert((r, s))
            })
            .filter_map(|(r, s)| {
                let (a, b) = (&self.reference[r as usize], &self.reference[s as usize]);
                let similarity = edit_similarity_within(a, b, theta)?;
                Some(MatchPair { r, s, similarity })
            })
            .collect();
        out.sort_unstable_by_key(|p| (p.r, p.s));
        Ok(out)
    }

    /// Append a reference string, returning its id. The new row is matchable
    /// immediately; the underlying [`CorpusIndex`] merges its epoch tail
    /// into the inverted lists automatically as inserts accumulate.
    pub fn insert(&mut self, text: &str) -> SsJoinResult<u32> {
        let tok = QGramTokenizer::new(self.config.q);
        let group = tok.tokenize(text);
        let elems = self.encoder.encode_group(&group);
        let dropped = elems.len() < group.len();
        let len = text.chars().count();
        let id = self.index.insert(&elems, len as f64)?;
        self.reference.push(text.to_string());
        self.ref_lens.push(len);
        if len < self.short_cutoff {
            self.short_ids.push(id);
        }
        if dropped {
            self.brute_ids.push(id);
        }
        Ok(id)
    }

    /// Tombstone a reference: it stops appearing in match results
    /// immediately, and leaves the exact brute-force pools, so later
    /// lookups never walk it again. Idempotent.
    ///
    /// # Errors
    /// Returns [`SsJoinError::InvalidInput`] when `id` was never inserted.
    pub fn delete(&mut self, id: u32) -> SsJoinResult<()> {
        self.index.delete(id)?;
        for pool in [&mut self.short_ids, &mut self.brute_ids] {
            if let Ok(pos) = pool.binary_search(&id) {
                pool.remove(pos);
            }
        }
        Ok(())
    }

    /// The text of reference `id`, or `None` when out of range or deleted.
    pub fn reference_text(&self, id: u32) -> Option<&str> {
        self.index
            .is_alive(id)
            .then(|| self.reference[id as usize].as_str())
    }

    /// Total rows ever inserted (tombstones included).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no rows were ever inserted.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Rows that are still live (not tombstoned).
    pub fn live_len(&self) -> usize {
        self.index.live_len()
    }

    /// The configuration the index was built with.
    pub fn config(&self) -> &TopKConfig {
        &self.config
    }

    /// Statistics of the most recent probe ([`Self::matches`] /
    /// [`Self::self_pairs`]); all-zero before the first probe. Under a
    /// [`TopKConfig::memory_budget`] this is where per-batch spill activity
    /// surfaces: `spill_partitions`, `spill_bytes`, and the peak
    /// per-partition resident estimate.
    pub fn last_stats(&self) -> &SsJoinStats {
        &self.last_stats
    }
}

/// The best `k` reference entries for `query` with edit similarity at least
/// `min_similarity`, ordered by descending similarity (ties by index).
///
/// Builds the q-gram input on every call; for repeated lookups against one
/// reference table build a [`TopKIndex`] and call [`TopKIndex::top_k`].
///
/// # Errors
/// Returns [`SsJoinError::Config`] when `config.min_similarity` is outside
/// `(0, 1]` or `config.q` is zero, and any error of the underlying join.
pub fn top_k_matches(
    query: &str,
    reference: &[String],
    config: &TopKConfig,
) -> SsJoinResult<Vec<TopKMatch>> {
    check_threshold("min_similarity", config.min_similarity)?;
    let queries = vec![query.to_string()];
    let join_cfg = EditJoinConfig::new(config.min_similarity).with_q(config.q);
    let out = edit_similarity_join(&queries, reference, &join_cfg)?;
    let mut matches: Vec<TopKMatch> = out
        .pairs
        .iter()
        .map(|p| TopKMatch {
            index: p.s,
            similarity: p.similarity,
        })
        .collect();
    rank_matches(&mut matches);
    matches.truncate(config.k);
    Ok(matches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Vec<String> {
        [
            "microsoft corporation",
            "microsoft corp",
            "macrosoft inc",
            "oracle corporation",
            "international business machines",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    #[test]
    fn best_match_first() {
        let m = top_k_matches(
            "microsoft corp",
            &reference(),
            &TopKConfig::new(2, 0.5).unwrap(),
        )
        .unwrap();
        assert_eq!(m[0].index, 1); // exact match
        assert_eq!(m[0].similarity, 1.0);
        assert!(m.len() == 2);
        assert!(m[1].similarity < 1.0);
    }

    #[test]
    fn floor_excludes_weak_matches() {
        let m = top_k_matches(
            "microsoft corp",
            &reference(),
            &TopKConfig::new(5, 0.95).unwrap(),
        )
        .unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].index, 1);
    }

    #[test]
    fn no_match_above_floor() {
        let m = top_k_matches("zzzzzz", &reference(), &TopKConfig::new(3, 0.8).unwrap()).unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn k_truncates() {
        let refs: Vec<String> = (0..10).map(|i| format!("query {i}")).collect();
        let m = top_k_matches("query 0", &refs, &TopKConfig::new(3, 0.5).unwrap()).unwrap();
        assert_eq!(m.len(), 3);
        // Descending similarity, ties by index.
        assert!(m.windows(2).all(|w| w[0].similarity >= w[1].similarity));
    }

    #[test]
    fn config_validation_is_typed() {
        assert!(matches!(
            TopKConfig::new(0, 0.8),
            Err(SsJoinError::Config(_))
        ));
        assert!(matches!(
            TopKConfig::new(3, 0.0),
            Err(SsJoinError::Config(_))
        ));
        assert!(matches!(
            TopKConfig::new(3, 1.5),
            Err(SsJoinError::Config(_))
        ));
        assert!(matches!(
            TopKConfig::new(3, f64::NAN),
            Err(SsJoinError::Config(_))
        ));
        assert!(TopKConfig::new(1, 1.0).is_ok());
    }

    #[test]
    fn indexed_matches_one_shot() {
        // Long references, plus 1–2-char ones below the q-gram cutoff,
        // repeated q-grams (a multiset count must not credit "aaaa" with
        // more of "aaaaaaaa"'s grams than it has), and the empty table.
        let strings = |v: &[&str]| -> Vec<String> { v.iter().map(|s| s.to_string()).collect() };
        let mut with_short = reference();
        with_short.extend(strings(&["ab", "ac", "x"]));
        let tables = [
            reference(),
            with_short,
            strings(&["aaaa", "aaaaaaaa"]),
            Vec::new(),
        ];
        for refs in &tables {
            for (k, alpha) in [(2, 0.5), (5, 0.95), (3, 0.8), (1, 0.6), (8, 0.75), (8, 0.9)] {
                let config = TopKConfig::new(k, alpha).unwrap();
                let mut index = TopKIndex::build(refs, config.clone()).unwrap();
                for query in [
                    "microsoft corp",
                    "oracle corpp",
                    "zzzzzz",
                    "",
                    "machines",
                    "ab",
                    "a",
                    "aaaa",
                ] {
                    let fresh = top_k_matches(query, refs, &config).unwrap();
                    let indexed = index.top_k(query).unwrap();
                    assert_eq!(
                        indexed, fresh,
                        "refs={refs:?} k={k} alpha={alpha} query={query:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn memory_budget_spills_probes_with_identical_matches() {
        let refs = reference();
        let plain = TopKConfig::new(5, 0.5).unwrap();
        // One byte is below any probe's estimate: every probe spills.
        let budgeted = TopKConfig {
            memory_budget: Some(1),
            ..plain.clone()
        };
        let mut resident = TopKIndex::build(&refs, plain).unwrap();
        let mut spilled = TopKIndex::build(&refs, budgeted).unwrap();
        for query in ["microsoft corp", "oracle corpp", "machines"] {
            let expect = resident.matches(query).unwrap();
            assert_eq!(resident.last_stats().spill_partitions, 0);
            assert_eq!(spilled.matches(query).unwrap(), expect, "query={query:?}");
            assert!(
                spilled.last_stats().spill_partitions >= 2,
                "query={query:?}: budgeted probe stayed resident"
            );
        }
    }

    #[test]
    fn indexed_matches_one_shot_on_short_strings() {
        // Below the q-gram cutoff the exact pool must kick in, exactly as
        // edit_similarity_join's brute route does.
        let refs: Vec<String> = ["ab", "ac", "xy", "abcdefgh"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let config = TopKConfig::new(4, 0.5).unwrap();
        let mut index = TopKIndex::build(&refs, config.clone()).unwrap();
        for query in ["ab", "ax", "abcdefgx", "q", ""] {
            let fresh = top_k_matches(query, &refs, &config).unwrap();
            let indexed = index.top_k(query).unwrap();
            assert_eq!(indexed, fresh, "query={query:?}");
        }
    }

    #[test]
    fn insert_delete_match_fresh_rebuild() {
        let mut refs = reference();
        let config = TopKConfig::new(5, 0.5).unwrap();
        let mut index = TopKIndex::build(&refs, config.clone()).unwrap();

        // Insert a row already expressible in the frozen universe and one
        // with brand-new q-grams (forced through the brute pool).
        for added in ["microsoft corporatian", "zzz 999 qqq"] {
            let id = index.insert(added).unwrap();
            assert_eq!(id as usize, refs.len());
            refs.push(added.to_string());
        }
        for query in ["microsoft corporation", "zzz 999 qqq", "ab"] {
            let fresh = top_k_matches(query, &refs, &config).unwrap();
            let indexed = index.top_k(query).unwrap();
            assert_eq!(indexed, fresh, "after insert, query={query:?}");
        }

        // Delete one original and one inserted row: fresh results against
        // the surviving rows, with ids remapped, must agree.
        index.delete(1).unwrap();
        index.delete(6).unwrap();
        index.delete(6).unwrap(); // idempotent
        assert!(index.delete(99).is_err());
        let live: Vec<u32> = (0..refs.len() as u32)
            .filter(|&i| i != 1 && i != 6)
            .collect();
        let live_refs: Vec<String> = live.iter().map(|&i| refs[i as usize].clone()).collect();
        for query in ["microsoft corp", "zzz 999 qqq"] {
            let fresh: Vec<TopKMatch> = top_k_matches(query, &live_refs, &config)
                .unwrap()
                .into_iter()
                .map(|m| TopKMatch {
                    index: live[m.index as usize],
                    similarity: m.similarity,
                })
                .collect();
            let indexed = index.top_k(query).unwrap();
            assert_eq!(indexed, fresh, "after delete, query={query:?}");
        }
        assert_eq!(index.live_len(), refs.len() - 2);
        assert_eq!(index.reference_text(1), None);
        assert_eq!(index.reference_text(0), Some("microsoft corporation"));
    }

    #[test]
    fn delete_shrinks_brute_pools_and_matches_fresh_index() {
        // At floor 0.8 and q = 3 the q-gram cutoff is 8 characters.
        let config = TopKConfig::new(10, 0.8).unwrap();
        let mut refs = reference();
        refs.push("ab".into()); // id 5: short
        let mut index = TopKIndex::build(&refs, config.clone()).unwrap();
        // Short inserts, and inserts whose q-grams fall outside the frozen
        // universe (under-encoded, so brute-forced against every query).
        for added in [
            "abc",
            "xyz",
            "qqq www zzz",
            "jjj kkk vvv",
            "microsoft corpp",
        ] {
            index.insert(added).unwrap();
            refs.push(added.to_string());
        }
        // Pool memberships of `id` (a short under-encoded row is in both).
        let memberships = |index: &TopKIndex, id: u32| {
            usize::from(index.short_ids.contains(&id)) + usize::from(index.brute_ids.contains(&id))
        };
        let pooled = index.short_ids.len() + index.brute_ids.len();
        let deleted = [5u32, 6, 8]; // "ab", "abc", "qqq www zzz"
        let removed: usize = deleted.iter().map(|&id| memberships(&index, id)).sum();
        assert!(deleted.iter().all(|&id| memberships(&index, id) > 0));
        for id in deleted {
            index.delete(id).unwrap();
        }
        index.delete(8).unwrap(); // idempotent
        assert!(deleted.iter().all(|&id| memberships(&index, id) == 0));
        assert_eq!(
            index.short_ids.len() + index.brute_ids.len(),
            pooled - removed
        );

        // A fresh index over the live rows answers identically, ids remapped.
        let live: Vec<u32> = (0..refs.len() as u32)
            .filter(|id| !deleted.contains(id))
            .collect();
        let live_refs: Vec<String> = live.iter().map(|&i| refs[i as usize].clone()).collect();
        let mut fresh = TopKIndex::build(&live_refs, config).unwrap();
        for query in [
            "ab",
            "abc",
            "xyz",
            "qqq www zzz",
            "jjj kkk vvv",
            "microsoft corp",
        ] {
            let want: Vec<TopKMatch> = fresh
                .matches(query)
                .unwrap()
                .into_iter()
                .map(|m| TopKMatch {
                    index: live[m.index as usize],
                    similarity: m.similarity,
                })
                .collect();
            assert_eq!(index.matches(query).unwrap(), want, "query={query:?}");
        }
        let remap = |pairs: Vec<MatchPair>| -> Vec<(u32, u32)> {
            pairs
                .iter()
                .map(|p| (live[p.r as usize], live[p.s as usize]))
                .collect()
        };
        let got: Vec<(u32, u32)> = index
            .self_pairs(0.8)
            .unwrap()
            .iter()
            .map(|p| (p.r, p.s))
            .collect();
        assert_eq!(got, remap(fresh.self_pairs(0.8).unwrap()));
    }

    #[test]
    fn self_pairs_match_edit_join() {
        let mut refs = reference();
        refs.push("microsoft corp".to_string()); // exact duplicate of row 1
        refs.push("ab".to_string());
        refs.push("ac".to_string()); // short pair, no shared 3-gram
        let mut index = TopKIndex::build(&refs, TopKConfig::new(3, 0.5).unwrap()).unwrap();
        for theta in [0.5, 0.8, 1.0] {
            let got: Vec<(u32, u32)> = index
                .self_pairs(theta)
                .unwrap()
                .iter()
                .map(|p| (p.r, p.s))
                .collect();
            let cfg = EditJoinConfig::new(theta);
            let expect: Vec<(u32, u32)> = edit_similarity_join(&refs, &refs, &cfg)
                .unwrap()
                .keys()
                .into_iter()
                .filter(|&(r, s)| r < s)
                .collect();
            assert_eq!(got, expect, "theta={theta}");
        }
        // Below the build floor the candidate set is no longer a superset.
        assert!(index.self_pairs(0.4).is_err());
        // Deleted rows drop out of the self-join.
        index.delete(5).unwrap();
        let got: Vec<(u32, u32)> = index
            .self_pairs(0.9)
            .unwrap()
            .iter()
            .map(|p| (p.r, p.s))
            .collect();
        assert!(!got.contains(&(1, 5)));
    }

    #[test]
    fn empty_reference_index() {
        let mut index = TopKIndex::build(&[], TopKConfig::new(3, 0.8).unwrap()).unwrap();
        assert!(index.is_empty());
        assert!(index.top_k("anything").unwrap().is_empty());
        let id = index.insert("first row").unwrap();
        assert_eq!(id, 0);
        // The universe is empty, so the insert is under-encoded and served
        // from the brute pool — still matchable.
        let m = index.top_k("first row").unwrap();
        assert_eq!(m[0].index, 0);
        assert_eq!(m[0].similarity, 1.0);
    }
}
