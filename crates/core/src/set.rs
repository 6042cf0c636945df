//! Weighted sets and set collections, stored in a flat CSR arena.
//!
//! A set is one group of the SSJoin input: the (ordinalized, weighted) set
//! of `B` values sharing one `A` value. Elements are dense `u32` *ranks* —
//! positions in the global order `O` — so "sorted by `O`" is an integer sort
//! and prefix extraction is a scan.
//!
//! A [`SetCollection`] is one side (R or S) of the join. Instead of boxing
//! one heap allocation per group, the collection holds a single contiguous
//! **compressed-sparse-row arena**: one `ranks` array, one parallel
//! `weights` array, one parallel `suffix` array of cumulative suffix
//! weights, and an `offsets` array delimiting each set's slice. Per set it
//! keeps a norm and one 80-byte [`SetRecord`] — the bitmap signature, the
//! total weight and the minimum element weight, contiguous, because the
//! bitmap prune reads exactly those. Index builds and verification merges
//! therefore stream cache-friendly memory with no pointer chasing, and a
//! prune touches one record per side.
//!
//! [`SetRef`] is the borrowed per-set view handed to executors and overlap
//! kernels (see [`crate::kernel`]); it is `Copy` and carries the arena
//! slices, the norm and the record.

use crate::error::{SsJoinError, SsJoinResult};
use crate::weight::Weight;

/// Number of 64-bit words in a set's bitmap signature: `64 · SIG_WORDS =
/// 512` hashed bit positions per set, stored in the set's prune record and
/// compared whole by the bitmap filter.
pub const SIG_WORDS: usize = 8;

/// Hashed bit position for an element rank inside the signature: a multiplicative hash spreads nearby ranks across the
/// `64 · SIG_WORDS = 512` positions so dense rank ranges don't collide.
#[inline]
fn signature_position(rank: u32) -> usize {
    ((rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 55) as usize
}

/// What the bitmap prune reads of one set, stored contiguously: the
/// [`SIG_WORDS`]-word signature, the total weight and the smallest element
/// weight (80 bytes). The collection's own storage — one record per set —
/// so no run copies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SetRecord {
    sig: [u64; SIG_WORDS],
    total: Weight,
    min_weight: Weight,
}

impl SetRecord {
    /// Number of set bits in the signature. Executors compute it once per
    /// set per run, beside the set's required overlap, so a prune pays
    /// only for the popcounts of `sig_r & sig_s`.
    pub(crate) fn popcount(&self) -> u32 {
        self.sig.iter().map(|w| w.count_ones()).sum()
    }

    /// [`SetRef::wide_overlap_bound`] by the popcount identity: with
    /// `common = popcount(sig_r & sig_s)`, `popcount(sig_r & !sig_s)` is
    /// `pop_r − common`, so the bound costs [`SIG_WORDS`] popcounts instead
    /// of `2 · SIG_WORDS`. `pop` and `other_pop` are the two records'
    /// [`SetRecord::popcount`]s.
    #[inline]
    pub(crate) fn overlap_bound(&self, pop: u32, other: &SetRecord, other_pop: u32) -> Weight {
        let mut common = 0u32;
        for (&x, &y) in self.sig.iter().zip(&other.sig) {
            common += (x & y).count_ones();
        }
        let bound_r = self.total.saturating_sub(Weight::from_raw(
            self.min_weight
                .raw()
                .saturating_mul(u64::from(pop - common)),
        ));
        let bound_s = other.total.saturating_sub(Weight::from_raw(
            other
                .min_weight
                .raw()
                .saturating_mul(u64::from(other_pop - common)),
        ));
        bound_r.min(bound_s)
    }
}

/// A borrowed view of one weighted set inside a [`SetCollection`] arena.
///
/// Cheap to copy (a few slices and scalars); all read paths — prefix
/// extraction, index builds, overlap merges, signature pruning — go through
/// this view.
#[derive(Debug, Clone, Copy)]
pub struct SetRef<'a> {
    /// Element ranks, ascending, no duplicates.
    ranks: &'a [u32],
    /// Element weights, parallel to `ranks`.
    weights: &'a [Weight],
    /// Suffix cumulative weights: `suffix[i] = Σ weights[i..]`.
    suffix: &'a [Weight],
    norm: f64,
    /// Signature, total and minimum weight.
    record: &'a SetRecord,
}

impl PartialEq for SetRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        // Derived state is a function of (ranks, weights), so comparing the
        // primary columns plus the norm is full structural equality.
        self.ranks == other.ranks && self.weights == other.weights && self.norm == other.norm
    }
}

impl<'a> SetRef<'a> {
    /// Element ranks, ascending by the global order, no duplicates.
    pub fn ranks(self) -> &'a [u32] {
        self.ranks
    }

    /// Element weights, parallel to [`SetRef::ranks`].
    pub fn weights(self) -> &'a [Weight] {
        self.weights
    }

    /// Precomputed suffix cumulative weights: `suffix_weights()[i]` is the
    /// total weight of elements `i..`. Same length as the set.
    pub fn suffix_weights(self) -> &'a [Weight] {
        self.suffix
    }

    /// Total weight of elements `i..` (`Weight::ZERO` at `i == len`).
    ///
    /// # Panics
    /// Panics if `i > len`.
    #[inline]
    pub fn suffix_weight(self, i: usize) -> Weight {
        if i == self.suffix.len() {
            Weight::ZERO
        } else {
            self.suffix[i]
        }
    }

    /// Number of elements.
    pub fn len(self) -> usize {
        self.ranks.len()
    }

    /// True if the set is empty.
    pub fn is_empty(self) -> bool {
        self.ranks.is_empty()
    }

    /// Total weight `wt(s)`.
    pub fn total_weight(self) -> Weight {
        self.record.total
    }

    /// The norm used by normalized predicates.
    pub fn norm(self) -> f64 {
        self.norm
    }

    /// The bitmap signature: [`SIG_WORDS`] words, stored in the set's
    /// record.
    pub fn signature_words(self) -> &'a [u64] {
        &self.record.sig
    }

    /// Smallest element weight ([`Weight::ZERO`] for the empty set).
    pub fn min_element_weight(self) -> Weight {
        self.record.min_weight
    }

    /// Upper bound on `wt(self ∩ other)` from the two bitmap signatures.
    ///
    /// Every bit set for `r` but not for `s` certifies at least one element
    /// of `r` absent from `s`: an element of `s` hashing to that position
    /// would have set it in `s`'s signature, while some element of `r` does.
    /// Distinct bits certify distinct elements; hence
    /// `wt(r \ s) ≥ popcount(sig_r & !sig_s) · min_weight(r)` and
    /// `overlap ≤ wt(r) − popcount(sig_r & !sig_s) · min_weight(r)`.
    /// The symmetric bound holds for `s`; the minimum of the two is returned.
    /// Exact-overlap computation never exceeds this, so pruning candidates
    /// whose bound falls *strictly below* the required overlap is lossless —
    /// a bound exactly at the threshold is kept and verified.
    ///
    /// This is the reference form. Executors prune through the equal
    /// popcount-identity form, which reuses each set's cached popcount.
    pub fn wide_overlap_bound(self, other: SetRef<'_>) -> Weight {
        let (mut only_r, mut only_s) = (0u32, 0u32);
        for (&x, &y) in self.record.sig.iter().zip(&other.record.sig) {
            only_r += (x & !y).count_ones();
            only_s += (y & !x).count_ones();
        }
        let bound_r = self.record.total.saturating_sub(Weight::from_raw(
            self.record
                .min_weight
                .raw()
                .saturating_mul(u64::from(only_r)),
        ));
        let bound_s = other.record.total.saturating_sub(Weight::from_raw(
            other
                .record
                .min_weight
                .raw()
                .saturating_mul(u64::from(only_s)),
        ));
        bound_r.min(bound_s)
    }

    /// The β-prefix of Lemma 1: the shortest prefix (under the global order)
    /// whose weights sum to *strictly more than* `beta`. Returns the number
    /// of elements in the prefix (possibly the whole set if the total does
    /// not exceed `beta`; callers that need "can never match" detection
    /// compare thresholds with [`SetRef::total_weight`] first).
    pub fn prefix_len(self, beta: Weight) -> usize {
        // suffix[0] = total, so the prefix exceeds β exactly when the weight
        // *behind* position i drops below total − β: total − suffix[i+1] > β.
        let mut acc = Weight::ZERO;
        for (i, &w) in self.weights.iter().enumerate() {
            acc += w;
            if acc > beta {
                return i + 1;
            }
        }
        self.weights.len()
    }

    /// Weighted overlap `wt(self ∩ other)` by a full merge of the two
    /// rank-sorted element lists — the correctness oracle of the
    /// threshold-aware [`crate::kernel::verify_overlap`], without counters.
    pub fn overlap(self, other: SetRef<'_>) -> Weight {
        crate::kernel::merge_full(self, other, &mut 0)
    }
}

/// One side (R or S) of an SSJoin: a CSR arena of weighted sets. The index
/// of a set in the collection is its group id.
#[derive(Debug, Clone)]
pub struct SetCollection {
    /// Set boundaries: set `i` occupies arena positions
    /// `offsets[i]..offsets[i+1]`. Length `len + 1`, starts at 0.
    offsets: Vec<u32>,
    /// All element ranks, set-major, ascending within each set.
    ranks: Vec<u32>,
    /// All element weights, parallel to `ranks`.
    weights: Vec<Weight>,
    /// Suffix cumulative weights, parallel to `ranks`: within a set spanning
    /// `lo..hi`, `suffix[k] = Σ weights[k..hi]`.
    suffix: Vec<Weight>,
    /// Per-set norms.
    norms: Vec<f64>,
    /// Per-set prune records: signature, total weight, minimum weight.
    records: Vec<SetRecord>,
    /// Number of distinct element ranks in the shared universe.
    universe_size: usize,
    /// Identifies the builder run that produced this collection; collections
    /// may only be joined with collections from the same run.
    universe_tag: u64,
    /// Cached smallest/largest norm across groups (`None` when empty).
    norm_range: Option<(f64, f64)>,
    /// Cached: the norms are non-decreasing in id order (true when empty).
    norms_sorted: bool,
}

impl SetCollection {
    /// Build the arena from per-set `(elements, norm)` pairs; sorts and
    /// validates each element list and computes all derived state (suffix
    /// weight tables, the per-set records, the cached norm range) in one
    /// pass, so every construction path gets it consistently.
    ///
    /// # Errors
    /// Returns [`SsJoinError::InvalidInput`] on duplicate ranks within a set
    /// — callers must ordinalize multisets first — and
    /// [`SsJoinError::TooManyElements`] if the total element count overflows
    /// the `u32` offset space.
    pub(crate) fn from_sets(
        sets: Vec<(Vec<(u32, Weight)>, f64)>,
        universe_size: usize,
        universe_tag: u64,
    ) -> SsJoinResult<Self> {
        let tuple_count: usize = sets.iter().map(|(e, _)| e.len()).sum();
        if tuple_count > u32::MAX as usize {
            return Err(SsJoinError::TooManyElements {
                elements: tuple_count,
            });
        }
        let mut c = Self::empty(universe_size, universe_tag);
        c.reserve(sets.len(), tuple_count);
        for (mut elems, norm) in sets {
            sort_and_check(&mut elems)?;
            c.push_sorted(elems.iter().copied(), norm);
        }
        Ok(c)
    }

    /// Append one set to the arena (same universe), computing the same
    /// derived state as [`SetCollection::from_sets`]. Elements may arrive in
    /// any order; they are sorted by rank. Returns the new set's group id.
    ///
    /// Unlike `from_sets` — whose callers (the builder) have already
    /// range-checked every rank — this path takes caller-supplied
    /// elements directly, so it additionally validates `rank <
    /// universe_size` (an out-of-range rank would overrun the inverted
    /// index's per-rank offset table).
    ///
    /// # Errors
    /// [`SsJoinError::InvalidInput`] on duplicate or out-of-range ranks;
    /// [`SsJoinError::TooManyElements`] / [`SsJoinError::TooManyGroups`] on
    /// `u32` arena or group-id overflow.
    pub(crate) fn push_set(&mut self, elements: &[(u32, Weight)], norm: f64) -> SsJoinResult<u32> {
        // Group ids must stay below the stamp sentinel (u32::MAX) the prefix
        // executors use, matching the builder's cap.
        if self.len() >= u32::MAX as usize {
            return Err(SsJoinError::TooManyGroups {
                relation: 0,
                groups: self.len() + 1,
            });
        }
        if self.ranks.len() + elements.len() > u32::MAX as usize {
            return Err(SsJoinError::TooManyElements {
                elements: self.ranks.len() + elements.len(),
            });
        }
        let mut elems = elements.to_vec();
        sort_and_check(&mut elems)?;
        if let Some(&(rank, _)) = elems.last() {
            if rank as usize >= self.universe_size {
                return Err(SsJoinError::InvalidInput(format!(
                    "element rank {rank} is outside the universe of {} ranks",
                    self.universe_size
                )));
            }
        }
        Ok(self.push_sorted(elems.iter().copied(), norm))
    }

    /// Append one set whose elements arrive already ascending by rank,
    /// duplicate-free, and inside the universe — exactly what the spill
    /// driver copies (partition sub-sets keep the parent arena's order under
    /// a monotone rank remap). Skips [`Self::push_set`]'s sort,
    /// validation, and temporary buffer; the preconditions are
    /// debug-asserted. Infallible because partition sub-arenas are subsets
    /// of a collection that already fit the `u32` offset/group space.
    pub(crate) fn push_set_presorted(
        &mut self,
        elem_ranks: &[u32],
        elem_weights: &[Weight],
        norm: f64,
    ) -> u32 {
        debug_assert_eq!(elem_ranks.len(), elem_weights.len());
        debug_assert!(elem_ranks.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(elem_ranks
            .last()
            .is_none_or(|&r| (r as usize) < self.universe_size));
        debug_assert!(self.len() < u32::MAX as usize);
        self.push_sorted(
            elem_ranks.iter().copied().zip(elem_weights.iter().copied()),
            norm,
        )
    }

    /// Append one set from rank-ascending, duplicate-free elements: the arena
    /// slices, the suffix weights, the norm and the set's record. Every
    /// construction path ends here. Returns the new set's group id.
    fn push_sorted(&mut self, elems: impl Iterator<Item = (u32, Weight)>, norm: f64) -> u32 {
        let start = self.ranks.len();
        let mut sig = [0u64; SIG_WORDS];
        let mut min_weight: Option<Weight> = None;
        for (rank, w) in elems {
            self.ranks.push(rank);
            self.weights.push(w);
            let p = signature_position(rank);
            sig[p >> 6] |= 1u64 << (p & 63);
            min_weight = Some(min_weight.map_or(w, |m| m.min(w)));
        }
        // Suffix cumulative weights by a reverse scan; the set total falls
        // out as suffix[start].
        self.suffix.resize(self.ranks.len(), Weight::ZERO);
        let mut acc = Weight::ZERO;
        for k in (start..self.ranks.len()).rev() {
            acc += self.weights[k];
            self.suffix[k] = acc;
        }
        let id = self.len() as u32;
        self.offsets.push(self.ranks.len() as u32);
        self.norms_sorted &= self.norms.last().is_none_or(|&last| last <= norm);
        self.norms.push(norm);
        self.records.push(SetRecord {
            sig,
            total: acc,
            min_weight: min_weight.unwrap_or(Weight::ZERO),
        });
        self.norm_range = Some(match self.norm_range {
            None => (norm, norm),
            Some((lo, hi)) => (lo.min(norm), hi.max(norm)),
        });
        id
    }

    /// Reserve room for `sets` more sets holding `tuples` more elements, so a
    /// builder that knows its sizes appends without regrowing any column.
    pub(crate) fn reserve(&mut self, sets: usize, tuples: usize) {
        self.offsets.reserve(sets);
        self.ranks.reserve(tuples);
        self.weights.reserve(tuples);
        self.suffix.reserve(tuples);
        self.norms.reserve(sets);
        self.records.reserve(sets);
    }

    /// Reset this collection to an empty arena over a (possibly different)
    /// universe, keeping every pool's capacity. The spill path recycles two
    /// such collections across all partitions of a run so a warm spilled
    /// run stops allocating once the largest partition has been seen.
    pub(crate) fn reset_for_universe(&mut self, universe_size: usize, universe_tag: u64) {
        self.offsets.clear();
        self.offsets.push(0);
        self.ranks.clear();
        self.weights.clear();
        self.suffix.clear();
        self.norms.clear();
        self.records.clear();
        self.universe_size = universe_size;
        self.universe_tag = universe_tag;
        self.norm_range = None;
        self.norms_sorted = true;
    }

    /// An empty collection over the universe of `universe_size` ranks
    /// tagged `universe_tag`.
    pub(crate) fn empty(universe_size: usize, universe_tag: u64) -> Self {
        Self {
            offsets: vec![0],
            ranks: Vec::new(),
            weights: Vec::new(),
            suffix: Vec::new(),
            norms: Vec::new(),
            records: Vec::new(),
            universe_size,
            universe_tag,
            norm_range: None,
            norms_sorted: true,
        }
    }

    /// An empty collection sharing this one's element universe (size and
    /// tag), so sets appended with [`Self::push_set`] stay joinable against
    /// collections from the original builder run. Used by epoch compaction.
    pub(crate) fn empty_like(&self) -> Self {
        Self::empty(self.universe_size, self.universe_tag)
    }

    /// Append every set of `other` (same universe), in order: the builder
    /// concatenates its per-chunk arenas with it. An empty `self` takes
    /// `other`'s buffers without copying; otherwise each of `other`'s
    /// columns is freed as soon as it is copied, so the concatenation holds
    /// at most one column twice.
    ///
    /// # Errors
    /// [`SsJoinError::TooManyElements`] / [`SsJoinError::TooManyGroups`] on
    /// `u32` arena or group-id overflow.
    pub(crate) fn append(&mut self, other: SetCollection) -> SsJoinResult<()> {
        debug_assert!(self.shares_universe(&other));
        if self.is_empty() {
            *self = other;
            return Ok(());
        }
        let tuples = self.ranks.len() + other.ranks.len();
        if tuples > u32::MAX as usize {
            return Err(SsJoinError::TooManyElements { elements: tuples });
        }
        if self.len() + other.len() >= u32::MAX as usize {
            return Err(SsJoinError::TooManyGroups {
                relation: 0,
                groups: self.len() + other.len(),
            });
        }
        let SetCollection {
            offsets,
            ranks,
            weights,
            suffix,
            norms,
            records,
            norm_range,
            norms_sorted,
            ..
        } = other;
        let base = self.ranks.len() as u32;
        self.offsets.extend(offsets[1..].iter().map(|&o| base + o));
        drop(offsets);
        self.ranks.extend_from_slice(&ranks);
        drop(ranks);
        self.weights.extend_from_slice(&weights);
        drop(weights);
        self.suffix.extend_from_slice(&suffix);
        drop(suffix);
        self.norms_sorted &= norms_sorted
            && match (self.norms.last(), norms.first()) {
                (Some(&last), Some(&first)) => last <= first,
                _ => true,
            };
        self.norms.extend_from_slice(&norms);
        drop(norms);
        self.records.extend_from_slice(&records);
        self.norm_range = match (self.norm_range, norm_range) {
            (Some((a, b)), Some((c, d))) => Some((a.min(c), b.max(d))),
            (range, None) | (None, range) => range,
        };
        Ok(())
    }

    /// One set by group id, as a borrowed arena view.
    #[inline]
    pub fn set(&self, id: u32) -> SetRef<'_> {
        let i = id as usize;
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        SetRef {
            ranks: &self.ranks[lo..hi],
            weights: &self.weights[lo..hi],
            suffix: &self.suffix[lo..hi],
            norm: self.norms[i],
            record: &self.records[i],
        }
    }

    /// Every set's prune record, in group-id order.
    pub(crate) fn records(&self) -> &[SetRecord] {
        &self.records
    }

    /// Every set's norm, in group-id order.
    pub(crate) fn norms(&self) -> &[f64] {
        &self.norms
    }

    /// Iterate over all sets in group-id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = SetRef<'_>> {
        (0..self.len() as u32).map(|id| self.set(id))
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    /// True if there are no groups.
    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    /// Number of distinct element ranks in the universe this collection was
    /// built against.
    pub fn universe_size(&self) -> usize {
        self.universe_size
    }

    /// Total `(group, element)` tuples — the row count of the normalized
    /// relational representation (the "SSJoin input size" of Table 2).
    /// O(1): it is the arena length.
    pub fn tuple_count(&self) -> usize {
        self.ranks.len()
    }

    /// Smallest and largest norm across groups (used to lower-bound partner
    /// norms during prefix extraction). `None` when empty. Cached at
    /// construction — O(1).
    pub fn norm_range(&self) -> Option<(f64, f64)> {
        self.norm_range
    }

    /// True when the norms are non-decreasing in id order (and when the
    /// collection is empty). Then a norm-ratio predicate's partners of any
    /// probe form one id range ([`crate::OverlapPredicate::partner_window`]).
    /// Cached and kept current by every append — O(1).
    pub fn norms_sorted(&self) -> bool {
        self.norms_sorted
    }

    pub(crate) fn universe_tag(&self) -> u64 {
        self.universe_tag
    }

    /// True when both collections come from the same builder run and thus
    /// share one element universe — the precondition for joining them.
    pub fn shares_universe(&self, other: &SetCollection) -> bool {
        self.universe_tag == other.universe_tag
    }
}

/// Sort a set's elements by rank and reject duplicate ranks.
fn sort_and_check(elems: &mut [(u32, Weight)]) -> SsJoinResult<()> {
    elems.sort_unstable_by_key(|&(rank, _)| rank);
    match elems.windows(2).find(|w| w[0].0 == w[1].0) {
        Some(w) => Err(SsJoinError::InvalidInput(format!(
            "duplicate rank {}; ordinalize multisets first",
            w[0].0
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: f64) -> Weight {
        Weight::from_f64(x)
    }

    fn collection(sets: &[&[(u32, f64)]]) -> SetCollection {
        SetCollection::from_sets(
            sets.iter()
                .map(|elems| (elems.iter().map(|&(r, x)| (r, w(x))).collect(), 0.0))
                .collect(),
            64,
            0,
        )
        .unwrap()
    }

    #[test]
    fn construction_sorts() {
        let c = collection(&[&[(5, 1.0), (2, 1.0), (9, 1.0)]]);
        let s = c.set(0);
        assert_eq!(s.ranks(), &[2, 5, 9]);
        assert_eq!(s.total_weight(), w(3.0));
    }

    #[test]
    fn duplicate_ranks_rejected() {
        let r = SetCollection::from_sets(vec![(vec![(1, w(1.0)), (1, w(1.0))], 0.0)], 64, 0);
        assert!(matches!(r, Err(SsJoinError::InvalidInput(_))), "{r:?}");
    }

    #[test]
    fn suffix_weights_precomputed() {
        let c = collection(&[&[(1, 1.0), (2, 2.0), (5, 0.5)], &[(0, 4.0)]]);
        let s = c.set(0);
        assert_eq!(s.suffix_weights(), &[w(3.5), w(2.5), w(0.5)]);
        assert_eq!(s.suffix_weight(0), s.total_weight());
        assert_eq!(s.suffix_weight(3), Weight::ZERO);
        assert_eq!(c.set(1).suffix_weights(), &[w(4.0)]);
        let e = collection(&[&[]]);
        assert_eq!(e.set(0).suffix_weight(0), Weight::ZERO);
    }

    #[test]
    fn overlap_merge() {
        let c = collection(&[
            &[(1, 1.0), (2, 2.0), (5, 0.5)],
            &[(2, 2.0), (3, 9.0), (5, 0.5)],
        ]);
        let (a, b) = (c.set(0), c.set(1));
        assert_eq!(a.overlap(b), w(2.5));
        assert_eq!(b.overlap(a), w(2.5));
        assert_eq!(a.overlap(a), a.total_weight());
    }

    #[test]
    fn overlap_disjoint_and_empty() {
        let c = collection(&[&[(1, 1.0)], &[(2, 1.0)], &[]]);
        let (a, b, e) = (c.set(0), c.set(1), c.set(2));
        assert_eq!(a.overlap(b), Weight::ZERO);
        assert_eq!(a.overlap(e), Weight::ZERO);
        assert_eq!(e.overlap(e), Weight::ZERO);
    }

    #[test]
    fn prefix_len_unweighted_matches_property8() {
        // Property 8: |s| = h, overlap >= k ⇒ the (h − k + 1)-prefix hits.
        // β = h − k, and with unit weights prefix_len = β + 1 = h − k + 1.
        let c = collection(&[&[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)]]);
        let s = c.set(0);
        let k = 4.0;
        let beta = s
            .total_weight()
            .saturating_sub(Weight::from_f64_threshold(k));
        assert_eq!(s.prefix_len(beta), 2); // h − k + 1 = 5 − 4 + 1
    }

    #[test]
    fn prefix_len_weighted() {
        let c = collection(&[&[(0, 5.0), (1, 1.0), (2, 1.0)]]);
        let s = c.set(0);
        // β = 0: the first element already exceeds it.
        assert_eq!(s.prefix_len(Weight::ZERO), 1);
        // β = 5.5: need first two elements (5 + 1 > 5.5).
        assert_eq!(s.prefix_len(w(5.5)), 2);
        // β beyond the total: whole set.
        assert_eq!(s.prefix_len(w(100.0)), 3);
    }

    #[test]
    fn prefix_len_empty_set() {
        let c = collection(&[&[]]);
        assert_eq!(c.set(0).prefix_len(Weight::ZERO), 0);
    }

    #[test]
    fn collection_accessors() {
        let c = collection(&[&[(0, 1.0), (1, 1.0)], &[(1, 1.0)]]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.tuple_count(), 3);
        assert_eq!(c.universe_size(), 64);
        assert_eq!(c.set(1).len(), 1);
        assert_eq!(c.iter().count(), 2);
        assert_eq!(c.iter().map(SetRef::len).sum::<usize>(), 3);
    }

    #[test]
    fn signature_and_min_weight_cached() {
        let c = collection(&[&[(1, 2.0), (7, 0.5), (40, 1.0)], &[]]);
        let s = c.set(0);
        assert_eq!(s.signature_words().len(), SIG_WORDS);
        let bits: u32 = s.signature_words().iter().map(|w| w.count_ones()).sum();
        assert!(bits > 0 && bits as usize <= s.len());
        assert_eq!(s.min_element_weight(), w(0.5));
        let e = c.set(1);
        assert!(e.signature_words().iter().all(|&w| w == 0));
        assert_eq!(e.min_element_weight(), Weight::ZERO);
    }

    #[test]
    fn bitmap_bound_never_below_overlap() {
        // The bound must dominate the exact overlap for arbitrary set pairs.
        let mk = |seed: u32, n: u32| -> Vec<(u32, Weight)> {
            (0..n)
                .map(|i| {
                    let rank = (seed.wrapping_mul(31).wrapping_add(i * 17)) % 97;
                    (rank, 0.5 + f64::from((rank * 7) % 5))
                })
                .collect::<std::collections::HashMap<u32, f64>>()
                .into_iter()
                .map(|(r, x)| (r, w(x)))
                .collect()
        };
        for a_seed in 0..12u32 {
            for b_seed in 0..12u32 {
                let c = SetCollection::from_sets(
                    vec![
                        (mk(a_seed, 3 + a_seed % 9), 0.0),
                        (mk(b_seed, 3 + b_seed % 9), 0.0),
                    ],
                    97,
                    0,
                )
                .unwrap();
                let (a, b) = (c.set(0), c.set(1));
                let exact = a.overlap(b);
                let bound = a.wide_overlap_bound(b);
                assert!(
                    bound >= exact,
                    "bound {bound} < exact {exact} (seeds {a_seed},{b_seed})"
                );
                assert_eq!(bound, b.wide_overlap_bound(a), "bound is symmetric");
            }
        }
    }

    #[test]
    fn bitmap_bound_empty_sets_is_zero() {
        // An empty side has total weight zero, so the bound collapses to
        // zero — empty sets can never survive a positive threshold.
        let c = collection(&[&[], &[(1, 2.0), (5, 1.0)]]);
        let (e, a) = (c.set(0), c.set(1));
        assert_eq!(e.wide_overlap_bound(e), Weight::ZERO);
        assert_eq!(e.wide_overlap_bound(a), Weight::ZERO);
        assert_eq!(a.wide_overlap_bound(e), Weight::ZERO);
    }

    #[test]
    fn bitmap_bound_single_token_universe() {
        // One rank in the whole universe: every non-empty set is {0}, all
        // signatures coincide, and the bound is exactly the shared weight.
        let c = SetCollection::from_sets(
            vec![
                (vec![(0, w(1.5))], 0.0),
                (vec![(0, w(1.5))], 0.0),
                (vec![], 0.0),
            ],
            1,
            0,
        )
        .unwrap();
        let (a, b, e) = (c.set(0), c.set(1), c.set(2));
        assert_eq!(a.wide_overlap_bound(b), w(1.5));
        assert_eq!(a.wide_overlap_bound(b), a.overlap(b));
        assert_eq!(a.wide_overlap_bound(e), Weight::ZERO);
    }

    #[test]
    fn bitmap_bound_identical_sets_is_total() {
        // Identical sets have identical signatures, so no "only" bits
        // survive and the bound is the full total — the filter never prunes
        // an exact duplicate.
        let c = collection(&[&[(3, 1.5), (9, 2.0), (77, 0.25)]]);
        let a = c.set(0);
        assert_eq!(a.wide_overlap_bound(a), a.total_weight());
    }

    #[test]
    fn bitmap_bound_disjoint_signatures_collapses() {
        // Unit weights and signature-disjoint sets: every element certifies
        // one absence, so the bound drops to zero.
        let c = collection(&[
            &[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
            &[(60, 1.0), (61, 1.0), (62, 1.0), (63, 1.0)],
        ]);
        let (a, b) = (c.set(0), c.set(1));
        let disjoint = a
            .signature_words()
            .iter()
            .zip(b.signature_words())
            .all(|(&x, &y)| x & y == 0);
        assert!(disjoint, "chosen ranks must hash to disjoint positions");
        let per_bit = a
            .signature_words()
            .iter()
            .map(|w| w.count_ones())
            .sum::<u32>() as usize;
        assert_eq!(per_bit, a.len(), "no intra-set collisions expected");
        assert_eq!(a.wide_overlap_bound(b), Weight::ZERO);
        assert_eq!(a.overlap(b), Weight::ZERO);
    }

    #[test]
    fn bitmap_bound_exactly_at_threshold_is_kept() {
        // Executors prune on `bound < required` (strictly below): a bound
        // exactly at the limit must survive the filter, because the exact
        // overlap may equal it. Identical sets make this sharp: bound ==
        // exact overlap == total, so with required == total the filter must
        // keep the pair and verification accepts it at the limit.
        let c = collection(&[&[(2, 0.75), (11, 1.25), (40, 3.0)]]);
        let a = c.set(0);
        let required = a.total_weight();
        let bound = a.wide_overlap_bound(a);
        assert_eq!(bound, required);
        // Written as the executors' prune test: `bound < required` must be
        // false for the at-limit pair.
        let prunes = bound < required;
        assert!(!prunes, "at-limit bound must not be pruned");
        // One raw tick above the total, the prune fires — and is sound,
        // because the exact overlap (== total) also fails the predicate.
        let above = Weight::from_raw(required.raw() + 1);
        assert!(bound < above);
        assert!(a.overlap(a) < above);
    }

    /// The record's bound, through each set's cached popcount.
    fn identity_bound(c: &SetCollection, a: u32, b: u32) -> Weight {
        let (ra, rb) = (&c.records()[a as usize], &c.records()[b as usize]);
        ra.overlap_bound(ra.popcount(), rb, rb.popcount())
    }

    #[test]
    fn popcount_identity_bound_equals_andnot_form() {
        // The adversarial shapes above: an empty set, a single-token
        // universe, identical sets, signature-disjoint sets, an at-limit
        // pair, and seeded random pairs with colliding signature bits.
        let shapes = [
            collection(&[&[], &[(1, 2.0), (5, 1.0)]]),
            SetCollection::from_sets(
                vec![(vec![(0, w(1.5))], 0.0), (vec![(0, w(1.5))], 0.0)],
                1,
                0,
            )
            .unwrap(),
            collection(&[&[(3, 1.5), (9, 2.0), (77, 0.25)]]),
            collection(&[
                &[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)],
                &[(60, 1.0), (61, 1.0), (62, 1.0), (63, 1.0)],
            ]),
            collection(&[&[(2, 0.75), (11, 1.25), (40, 3.0)]]),
        ];
        for c in &shapes {
            for a in 0..c.len() as u32 {
                for b in 0..c.len() as u32 {
                    let andnot = c.set(a).wide_overlap_bound(c.set(b));
                    assert_eq!(identity_bound(c, a, b), andnot, "sets {a},{b}");
                }
            }
        }
        // Seeded pairs over 3 000 ranks: 64-element sets share signature
        // bits by hash collision as well as by common elements.
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let sets: Vec<_> = (0..40)
            .map(|_| {
                let mut elems: Vec<(u32, Weight)> = (0..64)
                    .map(|_| {
                        (
                            (next() % 3000) as u32,
                            Weight::from_raw(1 + next() % 4_000_000),
                        )
                    })
                    .collect();
                elems.sort_unstable_by_key(|e| e.0);
                elems.dedup_by_key(|e| e.0);
                (elems, 0.0)
            })
            .collect();
        let c = SetCollection::from_sets(sets, 3000, 0).unwrap();
        for a in 0..c.len() as u32 {
            for b in 0..c.len() as u32 {
                let andnot = c.set(a).wide_overlap_bound(c.set(b));
                assert_eq!(identity_bound(&c, a, b), andnot, "random sets {a},{b}");
            }
        }
    }

    #[test]
    fn record_holds_total_min_weight_and_signature() {
        let c = collection(&[&[(1, 2.0), (7, 0.5), (40, 1.0)]]);
        let (s, record) = (c.set(0), &c.records()[0]);
        assert_eq!(s.total_weight(), w(3.5));
        assert_eq!(s.min_element_weight(), w(0.5));
        assert_eq!(
            record.popcount(),
            s.signature_words()
                .iter()
                .map(|w| w.count_ones())
                .sum::<u32>()
        );
        assert_eq!(std::mem::size_of::<SetRecord>(), 80);
    }

    #[test]
    fn norm_range_cached() {
        let mk = |n: f64| (vec![(0u32, Weight::ONE)], n);
        let c = SetCollection::from_sets(vec![mk(3.0), mk(1.0), mk(2.0)], 1, 0).unwrap();
        assert_eq!(c.norm_range(), Some((1.0, 3.0)));
        let empty = SetCollection::from_sets(vec![], 0, 0).unwrap();
        assert_eq!(empty.norm_range(), None);
    }

    #[test]
    fn norms_sorted_tracks_every_append() {
        let mk = |norms: &[f64]| {
            let sets = norms.iter().map(|&n| (vec![(0u32, Weight::ONE)], n));
            SetCollection::from_sets(sets.collect(), 1, 0).unwrap()
        };
        assert!(mk(&[]).norms_sorted());
        assert!(mk(&[1.0, 1.0, 2.0]).norms_sorted());
        assert!(!mk(&[1.0, 3.0, 2.0]).norms_sorted());
        // push_set: an equal norm keeps the order, a smaller one breaks it.
        let mut c = mk(&[1.0, 2.0]);
        c.push_set(&[(0, Weight::ONE)], 2.0).unwrap();
        assert!(c.norms_sorted());
        c.push_set(&[(0, Weight::ONE)], 0.5).unwrap();
        assert!(!c.norms_sorted());
        // reset starts over.
        c.reset_for_universe(1, 0);
        assert!(c.norms_sorted());
        c.push_set_presorted(&[0], &[Weight::ONE], 4.0);
        assert!(c.norms_sorted());
        // append: both halves sorted and joined in order, or not.
        for (a, b, sorted) in [
            (&[1.0, 2.0][..], &[2.0, 3.0][..], true),
            (&[1.0, 2.0], &[1.5], false),
            (&[1.0, 2.0], &[3.0, 2.5], false),
            (&[2.0, 1.0], &[3.0], false),
            (&[1.0], &[], true),
            (&[], &[2.0, 1.0], false),
        ] {
            let mut c = mk(a);
            c.append(mk(b)).unwrap();
            assert_eq!(c.norms_sorted(), sorted, "{a:?} ++ {b:?}");
            assert_eq!(c.len(), a.len() + b.len());
        }
    }

    #[test]
    fn set_ref_equality_is_structural() {
        let c1 = collection(&[&[(1, 1.0), (4, 2.0)]]);
        let c2 = collection(&[&[(1, 1.0), (4, 2.0)], &[(1, 1.0), (4, 2.5)]]);
        assert_eq!(c1.set(0), c2.set(0));
        assert_ne!(c1.set(0), c2.set(1));
    }
}
