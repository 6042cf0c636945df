//! Weighted sets and set collections, stored in a flat CSR arena.
//!
//! A set is one group of the SSJoin input: the (ordinalized, weighted) set
//! of `B` values sharing one `A` value. Elements are dense `u32` *ranks* —
//! positions in the global order `O` — so "sorted by `O`" is an integer sort
//! and prefix extraction is a scan.
//!
//! A [`SetCollection`] is one side (R or S) of the join. Instead of boxing
//! one heap allocation per group, the collection holds a single contiguous
//! **compressed-sparse-row arena**: one `ranks` array and an `offsets` array
//! delimiting each set's slice. A rank is the only per-element column, so an
//! element costs 4 bytes ([`SetCollection::bytes_per_element`]).
//!
//! Weights belong to the universe, not to the sets: the paper's overlap is
//! "the weight of the multiset intersection", and an element's weight (a
//! token's IDF, say) is the same in every set that holds it. So each build
//! makes one per-rank weight table, and every collection over that universe
//! shares it (an `Arc`, never a copy): the builder's collections, the
//! [`crate::QueryEncoder`]'s probe batches, a [`crate::CorpusIndex`]'s
//! inserts and compactions, and — through a remapped local table — each
//! spill partition's sub-collections. An unweighted collection holds no
//! table at all: every weight is [`Weight::ONE`], a set's overlap with
//! another is its match count, and its suffix weights are `(len − i)·ONE`.
//!
//! Per set the collection keeps a norm and one 80-byte [`SetRecord`] — the
//! bitmap signature, the total weight and the minimum element weight,
//! contiguous, because the bitmap prune reads exactly those. Index builds
//! and verification merges therefore stream cache-friendly memory with no
//! pointer chasing, and a prune touches one record per side. The overlap
//! kernels' early exit takes each set's remaining weight from its total
//! minus the weight already passed ([`crate::kernel`]), so no suffix column
//! is stored.
//!
//! [`SetRef`] is the borrowed per-set view handed to executors and overlap
//! kernels; it is `Copy` and carries the set's rank slice, the universe's
//! weight table, the norm and the record.

use crate::error::{SsJoinError, SsJoinResult};
use crate::weight::Weight;
use std::sync::Arc;

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

/// One universe's element weights, indexed by rank and shared by every
/// collection over that universe. `None` means unit weights: every element
/// weighs [`Weight::ONE`] and no table exists.
pub(crate) type WeightTable = Option<Arc<Vec<Weight>>>;

/// The weight of `rank` under a universe's table (`None`: unit weights).
#[inline]
pub(crate) fn weight_at(table: Option<&[Weight]>, rank: u32) -> Weight {
    match table {
        None => Weight::ONE,
        Some(t) => t[rank as usize],
    }
}

/// `n · ONE`: the total weight of `n` unit-weight elements.
#[inline]
pub(crate) fn unit_total(n: usize) -> Weight {
    Weight::from_raw(n as u64 * Weight::ONE.raw())
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
/// Cheap to copy (two slices and two scalars); all read paths — prefix
/// extraction, index builds, overlap merges, signature pruning — go through
/// this view.
#[derive(Debug, Clone, Copy)]
pub struct SetRef<'a> {
    /// Element ranks, ascending, no duplicates.
    ranks: &'a [u32],
    /// The universe's weight table, indexed by rank; `None` for unit
    /// weights.
    table: Option<&'a [Weight]>,
    norm: f64,
    /// Signature, total and minimum weight.
    record: &'a SetRecord,
}

impl PartialEq for SetRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        // Derived state is a function of (ranks, weights), so comparing the
        // primary columns plus the norm is full structural equality.
        self.ranks == other.ranks && self.weights() == other.weights() && self.norm == other.norm
    }
}

impl<'a> SetRef<'a> {
    /// Element ranks, ascending by the global order, no duplicates.
    pub fn ranks(self) -> &'a [u32] {
        self.ranks
    }

    /// Element weights, parallel to [`SetRef::ranks`]: a view that reads
    /// each one from the universe's table (or yields [`Weight::ONE`] when
    /// the collection is unweighted).
    pub fn weights(self) -> SetWeights<'a> {
        SetWeights {
            ranks: self.ranks,
            table: self.table,
        }
    }

    /// The universe's per-rank weight table; `None` when every weight is
    /// [`Weight::ONE`].
    #[inline]
    pub(crate) fn table(self) -> Option<&'a [Weight]> {
        self.table
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
    /// compare thresholds with [`SetRef::total_weight`] first). With unit
    /// weights it is arithmetic: `⌊β / ONE⌋ + 1`, capped at the length.
    pub fn prefix_len(self, beta: Weight) -> usize {
        let Some(table) = self.table else {
            let n = beta.raw() / Weight::ONE.raw() + 1;
            return usize::try_from(n).map_or(self.len(), |n| n.min(self.len()));
        };
        let mut acc = Weight::ZERO;
        for (i, &rank) in self.ranks.iter().enumerate() {
            acc += table[rank as usize];
            if acc > beta {
                return i + 1;
            }
        }
        self.len()
    }

    /// Weighted overlap `wt(self ∩ other)` by a full merge of the two
    /// rank-sorted element lists — the correctness oracle of the
    /// threshold-aware [`crate::kernel::verify_overlap`], without counters.
    pub fn overlap(self, other: SetRef<'_>) -> Weight {
        crate::kernel::merge_full(self, other, &mut 0)
    }
}

/// A set's element weights, parallel to its ranks ([`SetRef::weights`]):
/// indexable, iterable and sized like a slice, but read from the universe's
/// per-rank table rather than stored per element.
#[derive(Clone, Copy)]
pub struct SetWeights<'a> {
    ranks: &'a [u32],
    table: Option<&'a [Weight]>,
}

impl<'a> SetWeights<'a> {
    /// Number of weights (the set's length).
    pub fn len(self) -> usize {
        self.ranks.len()
    }

    /// True for the empty set.
    pub fn is_empty(self) -> bool {
        self.ranks.is_empty()
    }

    /// The weights in rank order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = &'a Weight> + 'a {
        let table = self.table;
        self.ranks.iter().map(move |&rank| match table {
            None => &Weight::ONE,
            Some(t) => &t[rank as usize],
        })
    }
}

impl std::ops::Index<usize> for SetWeights<'_> {
    type Output = Weight;

    fn index(&self, i: usize) -> &Weight {
        match self.table {
            None => {
                // Out of range panics, as a slice index would.
                let _ = self.ranks[i];
                &Weight::ONE
            }
            Some(t) => &t[self.ranks[i] as usize],
        }
    }
}

impl PartialEq for SetWeights<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for SetWeights<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One side (R or S) of an SSJoin: a CSR arena of weighted sets. The index
/// of a set in the collection is its group id.
#[derive(Debug, Clone)]
pub struct SetCollection {
    /// Set boundaries: set `i` occupies arena positions
    /// `offsets[i]..offsets[i+1]`. Length `len + 1`, starts at 0.
    offsets: Vec<u32>,
    /// All element ranks, set-major, ascending within each set — the only
    /// per-element column.
    ranks: Vec<u32>,
    /// The universe's per-rank weights, shared with every collection over
    /// it; `None` for unit weights.
    weights: WeightTable,
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
    /// Build the arena from per-set `(ranks, norm)` pairs over a universe
    /// with per-rank `weights` (`None`: unit weights); sorts and validates
    /// each rank list and computes all derived state (the per-set records,
    /// the cached norm range) in one pass, so every construction path gets
    /// it consistently.
    ///
    /// # Errors
    /// Returns [`SsJoinError::InvalidInput`] on duplicate ranks within a set
    /// — callers must ordinalize multisets first — and
    /// [`SsJoinError::TooManyElements`] if the total element count overflows
    /// the `u32` offset space.
    pub(crate) fn from_sets(
        sets: Vec<(Vec<u32>, f64)>,
        universe_size: usize,
        universe_tag: u64,
        weights: WeightTable,
    ) -> SsJoinResult<Self> {
        let tuple_count: usize = sets.iter().map(|(e, _)| e.len()).sum();
        if tuple_count > u32::MAX as usize {
            return Err(SsJoinError::TooManyElements {
                elements: tuple_count,
            });
        }
        let mut c = Self::empty(universe_size, universe_tag, weights);
        c.reserve(sets.len(), tuple_count);
        for (mut ranks, norm) in sets {
            sort_and_check(&mut ranks)?;
            c.push_sorted(&ranks, norm);
        }
        Ok(c)
    }

    /// Append one set to the arena (same universe, so the same weights),
    /// computing the same derived state as [`SetCollection::from_sets`].
    /// Ranks may arrive in any order; they are sorted. Returns the new
    /// set's group id.
    ///
    /// Unlike `from_sets` — whose callers (the builder) have already
    /// range-checked every rank — this path takes caller-supplied
    /// ranks directly, so it additionally validates `rank <
    /// universe_size` (an out-of-range rank would overrun the inverted
    /// index's per-rank offset table and the weight table).
    ///
    /// # Errors
    /// [`SsJoinError::InvalidInput`] on duplicate or out-of-range ranks;
    /// [`SsJoinError::TooManyElements`] / [`SsJoinError::TooManyGroups`] on
    /// `u32` arena or group-id overflow.
    pub(crate) fn push_set(&mut self, ranks: &[u32], norm: f64) -> SsJoinResult<u32> {
        // Group ids must stay below the stamp sentinel (u32::MAX) the prefix
        // executors use, matching the builder's cap.
        if self.len() >= u32::MAX as usize {
            return Err(SsJoinError::TooManyGroups {
                relation: 0,
                groups: self.len() + 1,
            });
        }
        if self.ranks.len() + ranks.len() > u32::MAX as usize {
            return Err(SsJoinError::TooManyElements {
                elements: self.ranks.len() + ranks.len(),
            });
        }
        let mut sorted = ranks.to_vec();
        sort_and_check(&mut sorted)?;
        if let Some(&rank) = sorted.last() {
            if rank as usize >= self.universe_size {
                return Err(SsJoinError::InvalidInput(format!(
                    "element rank {rank} is outside the universe of {} ranks",
                    self.universe_size
                )));
            }
        }
        Ok(self.push_sorted(&sorted, norm))
    }

    /// Append one set whose ranks arrive already ascending, duplicate-free,
    /// and inside the universe — what the builder's remap and the spill
    /// driver produce (partition sub-sets keep the parent arena's order
    /// under a monotone rank remap). Skips [`Self::push_set`]'s sort,
    /// validation, and temporary buffer; the preconditions are
    /// debug-asserted. Infallible because its callers stay inside the
    /// `u32` offset/group space.
    pub(crate) fn push_set_presorted(&mut self, ranks: &[u32], norm: f64) -> u32 {
        debug_assert!(ranks.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(ranks
            .last()
            .is_none_or(|&r| (r as usize) < self.universe_size));
        debug_assert!(self.len() < u32::MAX as usize);
        self.push_sorted(ranks, norm)
    }

    /// Append one set from rank-ascending, duplicate-free ranks: the arena
    /// slice, the norm and the set's record (signature, total and minimum
    /// weight, read from the universe's table). Every construction path
    /// ends here. Returns the new set's group id.
    fn push_sorted(&mut self, ranks: &[u32], norm: f64) -> u32 {
        let mut sig = [0u64; SIG_WORDS];
        for &rank in ranks {
            let p = signature_position(rank);
            sig[p >> 6] |= 1u64 << (p & 63);
        }
        self.ranks.extend_from_slice(ranks);
        let (total, min_weight) = match self.weights.as_deref() {
            None => (
                unit_total(ranks.len()),
                if ranks.is_empty() {
                    Weight::ZERO
                } else {
                    Weight::ONE
                },
            ),
            Some(table) => {
                let (mut total, mut min) = (Weight::ZERO, None);
                for &rank in ranks {
                    let w = table[rank as usize];
                    total += w;
                    min = Some(min.map_or(w, |m: Weight| m.min(w)));
                }
                (total, min.unwrap_or(Weight::ZERO))
            }
        };
        let id = self.len() as u32;
        self.offsets.push(self.ranks.len() as u32);
        self.norms_sorted &= self.norms.last().is_none_or(|&last| last <= norm);
        self.norms.push(norm);
        self.records.push(SetRecord {
            sig,
            total,
            min_weight,
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
        self.norms.reserve(sets);
        self.records.reserve(sets);
    }

    /// Reset this collection to an empty arena over a (possibly different)
    /// universe with per-rank `weights`, keeping every pool's capacity. The
    /// spill path recycles two such collections across all partitions of a
    /// run so a warm spilled run stops allocating once the largest partition
    /// has been seen.
    pub(crate) fn reset_for_universe(
        &mut self,
        universe_size: usize,
        universe_tag: u64,
        weights: WeightTable,
    ) {
        debug_assert!(weights.as_ref().is_none_or(|w| w.len() == universe_size));
        self.offsets.clear();
        self.offsets.push(0);
        self.ranks.clear();
        self.weights = weights;
        self.norms.clear();
        self.records.clear();
        self.universe_size = universe_size;
        self.universe_tag = universe_tag;
        self.norm_range = None;
        self.norms_sorted = true;
    }

    /// An empty collection over the universe of `universe_size` ranks
    /// tagged `universe_tag`, whose elements weigh `weights[rank]` (`None`:
    /// unit weights).
    pub(crate) fn empty(universe_size: usize, universe_tag: u64, weights: WeightTable) -> Self {
        debug_assert!(weights.as_ref().is_none_or(|w| w.len() == universe_size));
        Self {
            offsets: vec![0],
            ranks: Vec::new(),
            weights,
            norms: Vec::new(),
            records: Vec::new(),
            universe_size,
            universe_tag,
            norm_range: None,
            norms_sorted: true,
        }
    }

    /// An empty collection sharing this one's element universe (size, tag
    /// and weight table), so sets appended with [`Self::push_set`] stay
    /// joinable against collections from the original builder run. Used by
    /// epoch compaction.
    pub(crate) fn empty_like(&self) -> Self {
        Self::empty(self.universe_size, self.universe_tag, self.weights.clone())
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
        debug_assert!(self.shares_universe(&other) && self.shares_weights(&other));
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
            table: self.weight_table(),
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

    /// The universe's per-rank weights; `None` when every weight is
    /// [`Weight::ONE`].
    #[inline]
    pub(crate) fn weight_table(&self) -> Option<&[Weight]> {
        self.weights.as_deref().map(Vec::as_slice)
    }

    /// True when both collections read one weight table (the same `Arc`),
    /// or are both unweighted.
    pub(crate) fn shares_weights(&self, other: &SetCollection) -> bool {
        match (&self.weights, &other.weights) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// True when the collection's elements carry weights other than
    /// [`Weight::ONE`] — it holds its universe's weight table.
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Bytes the arena stores per element: the widths of its per-element
    /// columns. The rank is the only one — weights live in the universe's
    /// table and suffix weights are derived — so this is 4, weighted or
    /// not. The spill planner prices a partition's sub-arena with it.
    pub fn bytes_per_element(&self) -> usize {
        std::mem::size_of::<u32>()
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

/// Sort a set's ranks and reject duplicates.
fn sort_and_check(ranks: &mut [u32]) -> SsJoinResult<()> {
    ranks.sort_unstable();
    match ranks.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(SsJoinError::InvalidInput(format!(
            "duplicate rank {}; ordinalize multisets first",
            w[0]
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

    /// A collection over `universe` ranks whose table holds the weights the
    /// `(rank, weight)` pairs give (an unlisted rank weighs 1). A rank
    /// listed twice must carry one weight: weights belong to the universe.
    fn weighted(sets: &[&[(u32, f64)]], universe: usize) -> SetCollection {
        let mut table: Vec<Option<Weight>> = vec![None; universe];
        for &(rank, x) in sets.iter().flat_map(|s| s.iter()) {
            let slot = &mut table[rank as usize];
            assert!(
                slot.is_none_or(|old| old == w(x)),
                "rank {rank} weighs twice"
            );
            *slot = Some(w(x));
        }
        let table = table.into_iter().map(|x| x.unwrap_or(Weight::ONE));
        SetCollection::from_sets(
            sets.iter()
                .map(|elems| (elems.iter().map(|&(r, _)| r).collect(), 0.0))
                .collect(),
            universe,
            0,
            Some(Arc::new(table.collect())),
        )
        .unwrap()
    }

    fn collection(sets: &[&[(u32, f64)]]) -> SetCollection {
        weighted(sets, 64)
    }

    fn unweighted(sets: &[&[u32]]) -> SetCollection {
        let sets = sets.iter().map(|s| (s.to_vec(), 0.0)).collect();
        SetCollection::from_sets(sets, 64, 0, None).unwrap()
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
        let r = SetCollection::from_sets(vec![(vec![1, 1], 0.0)], 64, 0, None);
        assert!(matches!(r, Err(SsJoinError::InvalidInput(_))), "{r:?}");
    }

    #[test]
    fn weights_come_from_the_universe_table() {
        let c = collection(&[&[(1, 1.0), (2, 2.0), (5, 0.5)], &[(0, 4.0), (2, 2.0)]]);
        let s = c.set(0);
        let weights = s.weights();
        assert_eq!(weights.len(), 3);
        assert_eq!(
            (weights[0], weights[1], weights[2]),
            (w(1.0), w(2.0), w(0.5))
        );
        let listed: Vec<Weight> = weights.iter().copied().collect();
        assert_eq!(listed, [w(1.0), w(2.0), w(0.5)]);
        assert_eq!(format!("{weights:?}"), format!("{listed:?}"));
        assert_eq!(
            c.set(1).weights()[1],
            weights[1],
            "rank 2 weighs one amount"
        );
        assert_eq!(s.total_weight(), w(3.5));
        assert!(c.is_weighted());
        assert!(c.empty_like().shares_weights(&c));
        assert!(c.clone().shares_weights(&c));
    }

    #[test]
    fn unit_weights_hold_no_table() {
        // No table: every weight is ONE, the total is len·ONE, and the
        // prefix length is arithmetic — each equal to a table of ones.
        let sets: &[&[u32]] = &[&[3, 7, 9, 20, 41], &[], &[7]];
        let unit = unweighted(sets);
        let ones: Vec<Vec<(u32, f64)>> = sets
            .iter()
            .map(|s| s.iter().map(|&r| (r, 1.0)).collect())
            .collect();
        let ones: Vec<&[(u32, f64)]> = ones.iter().map(Vec::as_slice).collect();
        let table = collection(&ones);
        assert!(!unit.is_weighted() && table.is_weighted());
        for (a, b) in unit.iter().zip(table.iter()) {
            assert_eq!(a, b);
            assert_eq!(a.weights(), b.weights());
            assert!(a.weights().iter().all(|&x| x == Weight::ONE));
            assert_eq!(a.total_weight(), b.total_weight());
            assert_eq!(a.min_element_weight(), b.min_element_weight());
            for beta in [0.0, 0.5, 1.0, 2.999, 3.0, 4.0, 5.0, 100.0] {
                assert_eq!(a.prefix_len(w(beta)), b.prefix_len(w(beta)), "β {beta}");
            }
            assert_eq!(a.prefix_len(Weight::from_raw(u64::MAX)), a.len());
            for (x, y) in unit.iter().zip(table.iter()) {
                assert_eq!(a.overlap(x), b.overlap(y));
            }
        }
        assert!(unit.empty_like().shares_weights(&unit));
        assert!(!unit.shares_weights(&table));
    }

    #[test]
    fn an_element_costs_a_rank() {
        let unit = unweighted(&[&[1, 2, 3], &[]]);
        let idf = collection(&[&[(1, 0.5), (2, 2.0)]]);
        assert_eq!(unit.bytes_per_element(), 4);
        assert_eq!(idf.bytes_per_element(), 4);
        assert_eq!(
            unit.bytes_per_element(),
            std::mem::size_of_val(unit.set(0).ranks()) / unit.set(0).len()
        );
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
        let c = unweighted(&[&[0, 1, 2, 3, 4]]);
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
        assert_eq!(unweighted(&[&[]]).set(0).prefix_len(Weight::ZERO), 0);
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
        let weight = |rank: u32| w(0.5 + f64::from((rank * 7) % 5));
        let table: Vec<Weight> = (0..97).map(weight).collect();
        let mk = |seed: u32, n: u32| -> Vec<u32> {
            (0..n)
                .map(|i| (seed.wrapping_mul(31).wrapping_add(i * 17)) % 97)
                .collect::<std::collections::HashSet<u32>>()
                .into_iter()
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
                    Some(Arc::new(table.clone())),
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
        let c = weighted(&[&[(0, 1.5)], &[(0, 1.5)], &[]], 1);
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
        let c = collection(&[&[(3, 1.5), (9, 2.0), (60, 0.25)]]);
        let a = c.set(0);
        assert_eq!(a.wide_overlap_bound(a), a.total_weight());
    }

    #[test]
    fn bitmap_bound_disjoint_signatures_collapses() {
        // Unit weights and signature-disjoint sets: every element certifies
        // one absence, so the bound drops to zero.
        let c = unweighted(&[&[0, 1, 2, 3], &[60, 61, 62, 63]]);
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
            weighted(&[&[(0, 1.5)], &[(0, 1.5)]], 1),
            collection(&[&[(3, 1.5), (9, 2.0), (13, 0.25)]]),
            unweighted(&[&[0, 1, 2, 3], &[60, 61, 62, 63]]),
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
        let table: Vec<Weight> = (0..3000)
            .map(|_| Weight::from_raw(1 + next() % 4_000_000))
            .collect();
        let sets: Vec<_> = (0..40)
            .map(|_| {
                let mut ranks: Vec<u32> = (0..64).map(|_| (next() % 3000) as u32).collect();
                ranks.sort_unstable();
                ranks.dedup();
                (ranks, 0.0)
            })
            .collect();
        let c = SetCollection::from_sets(sets, 3000, 0, Some(Arc::new(table))).unwrap();
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
        let mk = |n: f64| (vec![0u32], n);
        let c = SetCollection::from_sets(vec![mk(3.0), mk(1.0), mk(2.0)], 1, 0, None).unwrap();
        assert_eq!(c.norm_range(), Some((1.0, 3.0)));
        let empty = SetCollection::from_sets(vec![], 0, 0, None).unwrap();
        assert_eq!(empty.norm_range(), None);
    }

    #[test]
    fn norms_sorted_tracks_every_append() {
        let mk = |norms: &[f64]| {
            let sets = norms.iter().map(|&n| (vec![0u32], n));
            SetCollection::from_sets(sets.collect(), 1, 0, None).unwrap()
        };
        assert!(mk(&[]).norms_sorted());
        assert!(mk(&[1.0, 1.0, 2.0]).norms_sorted());
        assert!(!mk(&[1.0, 3.0, 2.0]).norms_sorted());
        // push_set: an equal norm keeps the order, a smaller one breaks it.
        let mut c = mk(&[1.0, 2.0]);
        c.push_set(&[0], 2.0).unwrap();
        assert!(c.norms_sorted());
        c.push_set(&[0], 0.5).unwrap();
        assert!(!c.norms_sorted());
        // reset starts over.
        c.reset_for_universe(1, 0, None);
        assert!(c.norms_sorted());
        c.push_set_presorted(&[0], 4.0);
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
        let c2 = collection(&[&[(1, 1.0), (4, 2.0)], &[(1, 1.0), (5, 2.0)]]);
        let c3 = collection(&[&[(1, 1.0), (4, 2.5)]]);
        assert_eq!(c1.set(0), c2.set(0));
        assert_ne!(c1.set(0), c2.set(1));
        assert_ne!(
            c1.set(0),
            c3.set(0),
            "same ranks, another universe's weights"
        );
    }
}
