//! Building SSJoin inputs from token groups.
//!
//! The paper's pipelines (Figure 2) first convert strings to sets and
//! construct normalized representations `R(A, B, norm(A))`. The builder does
//! that conversion for any number of relations at once, so both join sides
//! share one element universe, one weight assignment, and one global order:
//!
//! 1. tokens are interned across all relations;
//! 2. multisets are ordinalized (§4.3.1): occurrence *i* of token *t*
//!    becomes the element *(t, i)*;
//! 3. element weights are assigned (unweighted, or IDF over value
//!    frequencies exactly as §5 describes);
//! 4. the global order `O` is fixed (ascending frequency by default,
//!    §4.3.2) and every element is renamed to its dense *rank* in `O`.

use crate::error::{SsJoinError, SsJoinResult};
use crate::hash::FxHashMap;
use crate::order::ElementOrder;
use crate::set::SetCollection;
use crate::weight::Weight;
use std::sync::atomic::{AtomicU64, Ordering};

static UNIVERSE_TAG: AtomicU64 = AtomicU64::new(1);

/// A process-unique universe tag (used by builds and by deserialization).
pub(crate) fn fresh_universe_tag() -> u64 {
    UNIVERSE_TAG.fetch_add(1, Ordering::Relaxed)
}

/// Element weighting scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightScheme {
    /// Every element has weight 1. Overlap = multiset intersection size.
    #[default]
    Unweighted,
    /// Inverse document frequency, the paper's §5 choice: the weight of
    /// token `t` is `ln(1 + N / f_t)` where `N` is the total number of
    /// values (groups) across all relations and `f_t` the number of values
    /// containing `t`. (The paper uses `log(N / f_t)`; the `1 +` smoothing
    /// keeps weights strictly positive, which the weight model of §2
    /// requires, without changing relative order.)
    Idf,
    /// Squared IDF: `ln(1 + N / f_t)²`. With this scheme the weighted
    /// overlap of two *sets* equals the dot product of their IDF vectors,
    /// which is what the cosine similarity join needs (§6 cites cosine
    /// custom joins as SSJoin-expressible).
    IdfSquared,
}

/// How a group's norm (the quantity normalized predicates reference) is
/// derived.
#[derive(Debug, Clone, PartialEq)]
pub enum NormKind {
    /// `norm = wt(set)` — the weighted-set norm of Definition 5's Jaccard.
    TotalWeight,
    /// `norm = √wt(set)` — the L2 vector norm when element weights are
    /// squared (see [`WeightScheme::IdfSquared`]); the cosine join's
    /// normalizer.
    SqrtTotalWeight,
    /// `norm = |set|` (multiset cardinality) — e.g. q-gram counts.
    Cardinality,
    /// Caller-provided per-group norms (e.g. string lengths for the edit
    /// join). Must have one value per group.
    Custom(Vec<f64>),
}

/// Identifies a relation added to the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelationHandle(usize);

struct RelationData {
    groups: Vec<Vec<String>>,
    norm: NormKind,
}

/// Builds [`SetCollection`]s sharing one universe, weight assignment, and
/// global element order.
pub struct SsJoinInputBuilder {
    scheme: WeightScheme,
    order: ElementOrder,
    relations: Vec<RelationData>,
}

impl SsJoinInputBuilder {
    /// New builder with the given weighting scheme and global order.
    pub fn new(scheme: WeightScheme, order: ElementOrder) -> Self {
        Self {
            scheme,
            order,
            relations: Vec::new(),
        }
    }

    /// Add a relation: one token multiset per group. Norms default to the
    /// set's total weight.
    pub fn add_relation(&mut self, groups: Vec<Vec<String>>) -> RelationHandle {
        self.add_relation_with_norm(groups, NormKind::TotalWeight)
    }

    /// Add a relation with an explicit norm derivation.
    ///
    /// `NormKind::Custom` norms must have one value per group; the arity is
    /// validated by [`SsJoinInputBuilder::build`], which reports a mismatch
    /// as [`SsJoinError::InvalidInput`].
    pub fn add_relation_with_norm(
        &mut self,
        groups: Vec<Vec<String>>,
        norm: NormKind,
    ) -> RelationHandle {
        let handle = RelationHandle(self.relations.len());
        self.relations.push(RelationData { groups, norm });
        handle
    }

    /// Materialize every relation into a [`SetCollection`].
    ///
    /// # Errors
    /// Returns [`SsJoinError::InvalidInput`] when `NormKind::Custom` norms do
    /// not have one value per group, [`SsJoinError::TooManyGroups`] when a
    /// relation holds more groups than `u32` ids can address (group ids are
    /// capped at `u32::MAX - 1`, reserving `u32::MAX` as an executor
    /// sentinel), and [`SsJoinError::TooManyElements`] when the interned
    /// token/element universe or a collection's tuple arena overflows the
    /// `u32` id space.
    pub fn build(self) -> SsJoinResult<BuiltInput> {
        let tag = fresh_universe_tag();

        // Validate up front: custom-norm arity and the group-id space.
        // Group ids must stay strictly below u32::MAX because executors use
        // u32::MAX as a stamp-array sentinel.
        for (ri, rel) in self.relations.iter().enumerate() {
            if rel.groups.len() >= u32::MAX as usize {
                return Err(SsJoinError::TooManyGroups {
                    relation: ri,
                    groups: rel.groups.len(),
                });
            }
            if let NormKind::Custom(norms) = &rel.norm {
                if norms.len() != rel.groups.len() {
                    return Err(SsJoinError::InvalidInput(format!(
                        "custom norms must have one value per group: relation {ri} \
                         has {} groups but {} norms",
                        rel.groups.len(),
                        norms.len()
                    )));
                }
            }
        }

        // Pass 1: intern tokens and ordinalized elements; count frequencies.
        let mut token_ids: FxHashMap<String, u32> = FxHashMap::default();
        let mut tokens: Vec<String> = Vec::new();
        let mut element_ids: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        let mut elements: Vec<(u32, u32)> = Vec::new(); // eid -> (tid, ordinal)
        let mut element_freq: Vec<usize> = Vec::new(); // groups containing eid
        let mut token_freq: Vec<usize> = Vec::new(); // groups containing tid
                                                     // Per-group element lists (eids), per relation.
        let mut rel_groups: Vec<Vec<Vec<u32>>> = Vec::with_capacity(self.relations.len());
        let total_groups: usize = self.relations.iter().map(|r| r.groups.len()).sum();

        let mut occurrence_counter: FxHashMap<u32, u32> = FxHashMap::default();
        for rel in &self.relations {
            let mut groups_out = Vec::with_capacity(rel.groups.len());
            for group in &rel.groups {
                occurrence_counter.clear();
                let mut eids = Vec::with_capacity(group.len());
                for token in group {
                    let tid = match token_ids.get(token.as_str()) {
                        Some(&t) => t,
                        None => {
                            if tokens.len() >= u32::MAX as usize {
                                return Err(SsJoinError::TooManyElements {
                                    elements: tokens.len() + 1,
                                });
                            }
                            let t = tokens.len() as u32;
                            tokens.push(token.clone());
                            token_ids.insert(token.clone(), t);
                            token_freq.push(0);
                            t
                        }
                    };
                    let ord = occurrence_counter.entry(tid).or_insert(0);
                    *ord += 1;
                    if *ord == 1 {
                        token_freq[tid as usize] += 1;
                    }
                    let key = (tid, *ord);
                    let eid = match element_ids.get(&key) {
                        Some(&e) => e,
                        None => {
                            if elements.len() >= u32::MAX as usize {
                                return Err(SsJoinError::TooManyElements {
                                    elements: elements.len() + 1,
                                });
                            }
                            let e = elements.len() as u32;
                            elements.push(key);
                            element_ids.insert(key, e);
                            element_freq.push(0);
                            e
                        }
                    };
                    element_freq[eid as usize] += 1;
                    eids.push(eid);
                }
                groups_out.push(eids);
            }
            rel_groups.push(groups_out);
        }

        // Weights per element (by eid), from the token-level scheme.
        let weights_by_eid: Vec<Weight> = elements
            .iter()
            .map(|&(tid, _)| match self.scheme {
                WeightScheme::Unweighted => Weight::ONE,
                WeightScheme::Idf => {
                    let ft = token_freq[tid as usize].max(1) as f64;
                    Weight::from_f64((1.0 + total_groups as f64 / ft).ln())
                }
                WeightScheme::IdfSquared => {
                    let ft = token_freq[tid as usize].max(1) as f64;
                    let idf = (1.0 + total_groups as f64 / ft).ln();
                    Weight::from_f64(idf * idf)
                }
            })
            .collect();

        // Global order: rank per eid.
        let mut order_keys: Vec<u32> = (0..elements.len() as u32).collect();
        order_keys.sort_unstable_by_key(|&eid| {
            let (tid, _) = elements[eid as usize];
            self.order.sort_key(
                element_freq[eid as usize],
                &tokens[tid as usize],
                eid as u64,
            )
        });
        let mut rank_of_eid = vec![0u32; elements.len()];
        for (rank, &eid) in order_keys.iter().enumerate() {
            rank_of_eid[eid as usize] = rank as u32;
        }

        // Element metadata in rank order.
        let mut element_meta: Vec<(String, u32)> = vec![(String::new(), 0); elements.len()];
        let mut weights_by_rank: Vec<Weight> = vec![Weight::ZERO; elements.len()];
        for (eid, &(tid, ord)) in elements.iter().enumerate() {
            let rank = rank_of_eid[eid] as usize;
            element_meta[rank] = (tokens[tid as usize].clone(), ord);
            weights_by_rank[rank] = weights_by_eid[eid];
        }

        // Pass 2: build collections.
        let universe = elements.len();
        let mut collections = Vec::with_capacity(self.relations.len());
        for (rel, groups) in self.relations.iter().zip(rel_groups) {
            let mut sets = Vec::with_capacity(groups.len());
            for (gi, eids) in groups.iter().enumerate() {
                let elems: Vec<(u32, Weight)> = eids
                    .iter()
                    .map(|&eid| (rank_of_eid[eid as usize], weights_by_eid[eid as usize]))
                    .collect();
                let norm = match &rel.norm {
                    NormKind::TotalWeight => elems.iter().map(|&(_, w)| w).sum::<Weight>().to_f64(),
                    NormKind::SqrtTotalWeight => elems
                        .iter()
                        .map(|&(_, w)| w)
                        .sum::<Weight>()
                        .to_f64()
                        .sqrt(),
                    NormKind::Cardinality => elems.len() as f64,
                    NormKind::Custom(norms) => norms[gi],
                };
                sets.push((elems, norm));
            }
            collections.push(SetCollection::from_sets(sets, universe, tag)?);
        }

        Ok(BuiltInput {
            collections,
            element_meta,
            weights_by_rank,
        })
    }
}

/// The output of [`SsJoinInputBuilder::build`]: the collections plus the
/// shared universe metadata.
#[derive(Debug)]
pub struct BuiltInput {
    collections: Vec<SetCollection>,
    /// `(token, ordinal)` per rank.
    element_meta: Vec<(String, u32)>,
    /// Weight per rank.
    weights_by_rank: Vec<Weight>,
}

impl BuiltInput {
    /// The collection built for `handle`.
    pub fn collection(&self, handle: RelationHandle) -> &SetCollection {
        &self.collections[handle.0]
    }

    /// All collections, in handle order.
    pub fn collections(&self) -> &[SetCollection] {
        &self.collections
    }

    /// Consume into the collections, in handle order.
    pub fn into_collections(self) -> Vec<SetCollection> {
        self.collections
    }

    /// Reassemble a built input from its parts (deserialization).
    pub(crate) fn from_parts(
        collections: Vec<SetCollection>,
        element_meta: Vec<(String, u32)>,
        weights_by_rank: Vec<Weight>,
    ) -> Self {
        Self {
            collections,
            element_meta,
            weights_by_rank,
        }
    }

    /// Number of distinct elements in the universe.
    pub fn universe_size(&self) -> usize {
        self.element_meta.len()
    }

    /// The `(token, ordinal)` a rank denotes.
    pub fn element(&self, rank: u32) -> (&str, u32) {
        let (t, o) = &self.element_meta[rank as usize];
        (t.as_str(), *o)
    }

    /// The weight of the element at `rank`.
    pub fn element_weight(&self, rank: u32) -> Weight {
        self.weights_by_rank[rank as usize]
    }

    /// A [`QueryEncoder`] over this build's frozen universe, for encoding
    /// streamed queries against a prebuilt [`crate::CorpusIndex`].
    pub fn query_encoder(&self) -> QueryEncoder {
        let mut ids: FxHashMap<String, Vec<u32>> = FxHashMap::default();
        for (rank, (token, ord)) in self.element_meta.iter().enumerate() {
            let slots = ids.entry(token.clone()).or_default();
            let idx = (*ord as usize).saturating_sub(1);
            if slots.len() <= idx {
                slots.resize(idx + 1, u32::MAX);
            }
            slots[idx] = rank as u32;
        }
        QueryEncoder {
            ids,
            weights: self.weights_by_rank.clone(),
            universe_size: self.element_meta.len(),
            universe_tag: self
                .collections
                .first()
                .map(|c| c.universe_tag())
                .unwrap_or_else(fresh_universe_tag),
        }
    }
}

/// Encodes fresh token groups against the frozen universe of an existing
/// [`BuiltInput`], so streamed queries (and incremental corpus inserts) can
/// run against a prebuilt [`crate::CorpusIndex`] without rebuilding the
/// whole input.
///
/// Tokens — and multiset occurrences — never seen by the original build have
/// no rank in the frozen universe and are dropped from the encoded set. That
/// is exact for overlaps: an unseen element occurs in no corpus set, so it
/// can contribute nothing to any overlap. Norms derived outside the element
/// universe stay exact too ([`NormKind::Cardinality`] counts *all* tokens of
/// the group, dropped or not, and [`NormKind::Custom`] is caller-provided).
/// [`NormKind::TotalWeight`] and [`NormKind::SqrtTotalWeight`] sum the
/// weights of *known* elements only, which under-states the norm of queries
/// containing unseen tokens; prefer cardinality or custom norms for streamed
/// workloads under those schemes.
#[derive(Debug, Clone)]
pub struct QueryEncoder {
    /// token -> rank per ordinal (index `ord - 1`).
    ids: FxHashMap<String, Vec<u32>>,
    weights: Vec<Weight>,
    universe_size: usize,
    universe_tag: u64,
}

impl QueryEncoder {
    /// Look up the rank of `(token, ordinal)` in the frozen universe.
    /// Ordinals are 1-based, matching §4.3.1 ordinalization.
    pub fn rank_of(&self, token: &str, ordinal: u32) -> Option<u32> {
        self.ids
            .get(token)
            .and_then(|slots| slots.get((ordinal as usize).checked_sub(1)?))
            .copied()
            .filter(|&r| r != u32::MAX)
    }

    /// Encode one token multiset into `(rank, weight)` elements, dropping
    /// tokens outside the frozen universe. Elements come back in occurrence
    /// order; [`QueryEncoder::encode`] (via the collection constructor)
    /// handles sorting.
    pub fn encode_group(&self, group: &[String]) -> Vec<(u32, Weight)> {
        let mut occurrence: FxHashMap<&str, u32> = FxHashMap::default();
        let mut elems = Vec::with_capacity(group.len());
        for token in group {
            let ord = occurrence.entry(token.as_str()).or_insert(0);
            *ord += 1;
            if let Some(rank) = self.rank_of(token, *ord) {
                elems.push((rank, self.weights[rank as usize]));
            }
        }
        elems
    }

    /// Encode token groups into a [`SetCollection`] sharing the frozen
    /// universe (same tag, same ranks, same weights), suitable as a probe
    /// batch for [`crate::CorpusIndex::probe`].
    ///
    /// # Errors
    /// Returns [`SsJoinError::InvalidInput`] when `NormKind::Custom` norms
    /// do not have one value per group.
    pub fn encode(&self, groups: &[Vec<String>], norm: NormKind) -> SsJoinResult<SetCollection> {
        if let NormKind::Custom(norms) = &norm {
            if norms.len() != groups.len() {
                return Err(SsJoinError::InvalidInput(format!(
                    "custom norms must have one value per group: \
                     {} groups but {} norms",
                    groups.len(),
                    norms.len()
                )));
            }
        }
        let mut sets = Vec::with_capacity(groups.len());
        for (gi, group) in groups.iter().enumerate() {
            let elems = self.encode_group(group);
            let norm_value = match &norm {
                NormKind::TotalWeight => elems.iter().map(|&(_, w)| w).sum::<Weight>().to_f64(),
                NormKind::SqrtTotalWeight => elems
                    .iter()
                    .map(|&(_, w)| w)
                    .sum::<Weight>()
                    .to_f64()
                    .sqrt(),
                NormKind::Cardinality => group.len() as f64,
                NormKind::Custom(norms) => norms[gi],
            };
            sets.push((elems, norm_value));
        }
        SetCollection::from_sets(sets, self.universe_size, self.universe_tag)
    }

    /// Number of distinct elements in the frozen universe.
    pub fn universe_size(&self) -> usize {
        self.universe_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unweighted_overlap_counts_elements() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = b.add_relation(vec![toks(&["a", "b", "c"]), toks(&["b", "c", "d"])]);
        let built = b.build().unwrap();
        let c = built.collection(h);
        assert_eq!(c.len(), 2);
        assert_eq!(c.set(0).overlap(c.set(1)), Weight::from_f64(2.0));
    }

    #[test]
    fn multiset_ordinalization() {
        // {x, x} vs {x}: multiset overlap is 1, not 2.
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = b.add_relation(vec![toks(&["x", "x"]), toks(&["x"])]);
        let built = b.build().unwrap();
        let c = built.collection(h);
        assert_eq!(c.set(0).len(), 2); // (x,1), (x,2)
        assert_eq!(c.set(0).overlap(c.set(1)), Weight::ONE);
        assert_eq!(c.universe_size(), 2);
    }

    #[test]
    fn shared_universe_across_relations() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let r = b.add_relation(vec![toks(&["p", "q"])]);
        let s = b.add_relation(vec![toks(&["q", "z"])]);
        let built = b.build().unwrap();
        let overlap = built
            .collection(r)
            .set(0)
            .overlap(built.collection(s).set(0));
        assert_eq!(overlap, Weight::ONE); // shared "q"
    }

    #[test]
    fn idf_weights_rare_tokens_heavier() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
        // "the" in all 4 groups, "zyx" in one.
        let h = b.add_relation(vec![
            toks(&["the", "zyx"]),
            toks(&["the", "b"]),
            toks(&["the", "c"]),
            toks(&["the", "d"]),
        ]);
        let built = b.build().unwrap();
        let c = built.collection(h);
        // Under FrequencyAsc the rare elements come first; "the" (freq 4) is
        // the last rank.
        let last_rank = (built.universe_size() - 1) as u32;
        let (token, _) = built.element(last_rank);
        assert_eq!(token, "the");
        // IDF: ln(1 + 4/4) < ln(1 + 4/1).
        let w_the = built.element_weight(last_rank);
        let w_rare = built.element_weight(0);
        assert!(w_rare > w_the, "rare {w_rare} vs common {w_the}");
        // Norms default to total weight.
        let s0 = c.set(0);
        assert!((s0.norm() - s0.total_weight().to_f64()).abs() < 1e-9);
    }

    #[test]
    fn frequency_order_places_rare_first() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = b.add_relation(vec![
            toks(&["common", "rare1"]),
            toks(&["common", "rare2"]),
            toks(&["common"]),
        ]);
        let built = b.build().unwrap();
        let c = built.collection(h);
        // In every set containing it, "common" (freq 3) must sort after the
        // rare tokens (freq 1), i.e. have the largest rank.
        let (token, _) = built.element((built.universe_size() - 1) as u32);
        assert_eq!(token, "common");
        for set in c.iter() {
            assert!(set.ranks().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn norm_kinds() {
        let groups = vec![toks(&["a", "a", "b"])];
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let card = b.add_relation_with_norm(groups.clone(), NormKind::Cardinality);
        let custom = b.add_relation_with_norm(groups.clone(), NormKind::Custom(vec![42.0]));
        let total = b.add_relation_with_norm(groups, NormKind::TotalWeight);
        let built = b.build().unwrap();
        assert_eq!(built.collection(card).set(0).norm(), 3.0);
        assert_eq!(built.collection(custom).set(0).norm(), 42.0);
        assert_eq!(built.collection(total).set(0).norm(), 3.0); // unit weights
    }

    #[test]
    fn custom_norm_arity_checked() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        b.add_relation_with_norm(vec![toks(&["a"])], NormKind::Custom(vec![1.0, 2.0]));
        let err = b.build().unwrap_err();
        assert!(
            matches!(&err, SsJoinError::InvalidInput(m) if m.contains("one value per group")),
            "{err:?}"
        );
    }

    #[test]
    fn empty_groups_and_relations() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = b.add_relation(vec![vec![], toks(&["only"])]);
        let e = b.add_relation(vec![]);
        let built = b.build().unwrap();
        assert_eq!(built.collection(h).set(0).len(), 0);
        assert_eq!(built.collection(h).set(1).len(), 1);
        assert!(built.collection(e).is_empty());
    }

    #[test]
    fn query_encoder_round_trips_known_tokens() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
        let h = b.add_relation(vec![
            toks(&["a", "b", "b", "c"]),
            toks(&["b", "c"]),
            toks(&["a", "d"]),
        ]);
        let built = b.build().unwrap();
        let enc = built.query_encoder();
        assert_eq!(enc.universe_size(), built.universe_size());
        // Re-encoding the original groups reproduces the built sets exactly
        // (same ranks, same weights, same norms).
        let groups = vec![toks(&["a", "b", "b", "c"]), toks(&["b", "c"])];
        let again = enc.encode(&groups, NormKind::TotalWeight).unwrap();
        let c = built.collection(h);
        assert!(c.shares_universe(&again));
        for (i, set) in again.iter().enumerate() {
            let orig = c.set(i as u32);
            assert_eq!(set.ranks(), orig.ranks());
            assert_eq!(set.weights(), orig.weights());
            assert!((set.norm() - orig.norm()).abs() < 1e-12);
        }
    }

    #[test]
    fn query_encoder_drops_unseen_tokens() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        b.add_relation(vec![toks(&["a", "b"])]);
        let built = b.build().unwrap();
        let enc = built.query_encoder();
        // "z" was never interned; second occurrence of "a" was never seen.
        let coll = enc
            .encode(&[toks(&["a", "z", "a"])], NormKind::Cardinality)
            .unwrap();
        assert_eq!(coll.set(0).len(), 1); // only (a, 1) survives
        assert_eq!(coll.set(0).norm(), 3.0); // cardinality counts all tokens
        assert_eq!(enc.rank_of("z", 1), None);
        assert_eq!(enc.rank_of("a", 2), None);
        assert!(enc.rank_of("a", 1).is_some());
    }

    #[test]
    fn query_encoder_custom_norm_arity_checked() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        b.add_relation(vec![toks(&["a"])]);
        let enc = b.build().unwrap().query_encoder();
        let err = enc
            .encode(&[toks(&["a"])], NormKind::Custom(vec![1.0, 2.0]))
            .unwrap_err();
        assert!(matches!(err, SsJoinError::InvalidInput(_)), "{err:?}");
    }

    /// A self-join built as one relation equals the two-copy build bit for
    /// bit: doubling every group count leaves `N / f` exact (so IDF weights
    /// and norms) and keeps the `(freq, first-seen id)` order.
    #[test]
    fn one_relation_builds_like_two_copies() {
        let g = vec![
            toks(&["main", "st", "100", "seattle"]),
            toks(&["main", "street", "100", "seattle"]),
            toks(&["oak", "ave", "oak", "7"]),
            toks(&["main", "st"]),
            vec![],
            toks(&["zyx", "ave", "seattle", "wa", "wa"]),
        ];
        for scheme in [
            WeightScheme::Idf,
            WeightScheme::IdfSquared,
            WeightScheme::Unweighted,
        ] {
            for norm in [NormKind::TotalWeight, NormKind::SqrtTotalWeight] {
                let mut one = SsJoinInputBuilder::new(scheme, ElementOrder::FrequencyAsc);
                let h = one.add_relation_with_norm(g.clone(), norm.clone());
                let one = one.build().unwrap();
                let mut two = SsJoinInputBuilder::new(scheme, ElementOrder::FrequencyAsc);
                let hr = two.add_relation_with_norm(g.clone(), norm.clone());
                let hs = two.add_relation_with_norm(g.clone(), norm.clone());
                let two = two.build().unwrap();
                assert_eq!(one.universe_size(), two.universe_size());
                for rank in 0..one.universe_size() as u32 {
                    assert_eq!(
                        one.element(rank),
                        two.element(rank),
                        "{scheme:?} rank {rank}"
                    );
                    assert_eq!(
                        one.element_weight(rank).raw(),
                        two.element_weight(rank).raw(),
                        "{scheme:?} rank {rank}"
                    );
                }
                for other in [hr, hs] {
                    let (a, b) = (one.collection(h), two.collection(other));
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b.iter()) {
                        assert_eq!(x.ranks(), y.ranks(), "{scheme:?} {norm:?}");
                        assert_eq!(x.weights(), y.weights(), "{scheme:?} {norm:?}");
                        assert_eq!(
                            x.norm().to_bits(),
                            y.norm().to_bits(),
                            "{scheme:?} {norm:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn distinct_builds_have_distinct_tags() {
        let build = || {
            let mut b =
                SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
            let h = b.add_relation(vec![toks(&["a"])]);
            let built = b.build().unwrap();
            built.collection(h).clone()
        };
        let c1 = build();
        let c2 = build();
        assert_ne!(c1.universe_tag(), c2.universe_tag());
    }
}
