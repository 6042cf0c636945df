//! Reusable execution workspace: every transient buffer the physical
//! executors need, pooled with clear-and-reuse semantics.
//!
//! A cold [`crate::ssjoin`] run allocates inverted indexes, prefix-length
//! tables, stamp arrays, candidate buffers, and the output vector from
//! scratch, then drops them all. For a production operator serving repeated
//! joins that churn is the dominant cost after the join itself — so every
//! one of those buffers lives here instead, owned by a [`JoinWorkspace`]
//! that the caller keeps across runs via [`crate::ssjoin_with`]. Buffers are
//! `clear()`ed (never shrunk) between runs; once the workspace has warmed to
//! the largest input it has seen, a subsequent run performs **zero** heap
//! allocations on the sequential hot path (asserted by a counting-allocator
//! test in `tests/zero_alloc.rs`).
//!
//! The inverted indexes use the same flat CSR layout as the
//! [`SetCollection`] arena itself: one `offsets` array over element ranks
//! and one flat `postings` arena, replacing the `Vec<Vec<u32>>`-of-postings
//! representation (one heap allocation *per universe rank*) that earlier
//! revisions rebuilt on every run.

use super::prune::SetBound;
use super::{JoinPair, MatchPair};
use crate::hash::FxHashMap;
use crate::set::SetCollection;
use crate::stats::SsJoinStats;
use crate::weight::Weight;

/// Inverted index in CSR layout: `postings[offsets[t]..offsets[t + 1]]`
/// holds the ids of the sets whose (prefix-)elements include rank `t`,
/// in ascending id order.
#[derive(Debug, Default, Clone)]
pub(crate) struct CsrIndex {
    /// `universe + 1` exclusive prefix sums over per-rank posting counts.
    offsets: Vec<u32>,
    /// Flat posting arena, grouped by rank, ids ascending within a rank.
    postings: Vec<u32>,
    /// Fill cursors, one per rank — scratch for the build passes.
    cursors: Vec<u32>,
}

impl CsrIndex {
    /// (Re)build the index over the first `lens[id]` elements of every set
    /// (all elements when `lens` is `None`), reusing existing capacity.
    pub(crate) fn build(&mut self, collection: &SetCollection, lens: Option<&[u32]>) {
        let universe = collection.universe_size();
        self.offsets.clear();
        self.offsets.resize(universe + 1, 0);
        for (id, set) in collection.iter().enumerate() {
            let n = lens.map_or(set.len(), |l| l[id] as usize);
            for &rank in &set.ranks()[..n] {
                self.offsets[rank as usize] += 1;
            }
        }
        // Exclusive prefix sum in place; the final slot receives the total.
        let mut running = 0u32;
        for slot in self.offsets.iter_mut() {
            let count = *slot;
            *slot = running;
            running += count;
        }
        self.cursors.clear();
        self.cursors.extend_from_slice(&self.offsets[..universe]);
        self.postings.clear();
        self.postings.resize(running as usize, 0);
        for (id, set) in collection.iter().enumerate() {
            let n = lens.map_or(set.len(), |l| l[id] as usize);
            for &rank in &set.ranks()[..n] {
                let cur = &mut self.cursors[rank as usize];
                self.postings[*cur as usize] = id as u32;
                *cur += 1;
            }
        }
    }

    /// Ids of the sets containing `rank`, ascending.
    #[inline]
    pub(crate) fn postings(&self, rank: u32) -> &[u32] {
        let t = rank as usize;
        &self.postings[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }

    /// Ids of the sets containing `rank` that lie in `window`, ascending:
    /// the probe window of [`super::Prune::window`] (a norm-ratio
    /// predicate's partners over norm-sorted sets, cut to `..rid` on a
    /// symmetric self-join's lower-triangle walk) cut from the id-sorted
    /// list by at most two binary searches.
    #[inline]
    pub(crate) fn postings_in(&self, rank: u32, window: std::ops::Range<u32>) -> &[u32] {
        let ids = self.postings(rank);
        let lo = if window.start == 0 {
            0
        } else {
            ids.partition_point(|&id| id < window.start)
        };
        let hi = if ids.last().is_none_or(|&id| id < window.end) {
            ids.len()
        } else {
            ids.partition_point(|&id| id < window.end)
        };
        &ids[lo..hi]
    }

    pub(crate) fn bytes_reserved(&self) -> u64 {
        vec_bytes(&self.offsets) + vec_bytes(&self.postings) + vec_bytes(&self.cursors)
    }
}

/// Per-worker scratch buffers. One instance per worker thread; the
/// sequential paths use worker 0. Every buffer is cleared (within capacity)
/// by the executor that uses it — nothing carries semantic state across
/// runs.
#[derive(Debug, Default)]
pub(crate) struct WorkerScratch {
    /// Candidate-dedup stamp array over S ids (`u32::MAX` = never seen this
    /// run). Re-filled with the sentinel at the start of every run, so a
    /// stale stamp from run *n* can never alias a probe id of run *n + 1*.
    pub(crate) stamp: Vec<u32>,
    /// Dense overlap accumulator over S ids (basic executor).
    pub(crate) acc: Vec<Weight>,
    /// Touched S ids of the current probe (basic executor).
    pub(crate) touched: Vec<u32>,
    /// Candidate S ids of the current probe (prefix family).
    pub(crate) candidates: Vec<u32>,
    /// Join-back hash table over the current R group (prefix-filtered).
    pub(crate) r_table: FxHashMap<u32, Weight>,
    /// Output pairs produced by this worker.
    pub(crate) out: Pairs,
    /// Counters accumulated by this worker during the current run.
    pub(crate) stats: SsJoinStats,
}

impl WorkerScratch {
    fn bytes_reserved(&self) -> u64 {
        vec_bytes(&self.stamp)
            + vec_bytes(&self.acc)
            + vec_bytes(&self.touched)
            + vec_bytes(&self.candidates)
            + self.out.bytes_reserved()
            // Hash-map entries: key + value + control byte, rounded up.
            + self.r_table.capacity() as u64 * 16
    }
}

/// A pair buffer of each kind ([`super::Sink`]): plain pairs, or the pairs
/// a filter passed. A run fills one of them.
#[derive(Debug, Default)]
pub(crate) struct Pairs {
    pub(crate) plain: Vec<JoinPair>,
    pub(crate) scored: Vec<MatchPair>,
}

impl Pairs {
    pub(crate) fn clear(&mut self) {
        self.plain.clear();
        self.scored.clear();
    }

    fn bytes_reserved(&self) -> u64 {
        vec_bytes(&self.plain) + vec_bytes(&self.scored)
    }
}

/// Reusable buffer pool for [`crate::ssjoin_with`].
///
/// Holds every transient structure an execution needs — the CSR inverted
/// index, prefix-length tables, per-set prune columns, per-worker
/// stamp/candidate/output buffers, and the final output. All state is
/// reset at the start of each run; capacity is retained, so repeated joins
/// over same-scale inputs stop allocating entirely.
///
/// ```
/// use ssjoin_core::{Algorithm, ElementOrder, JoinWorkspace, OverlapPredicate,
///                   SsJoinConfig, SsJoinInputBuilder, WeightScheme, ssjoin_with};
///
/// let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
/// let h = b.add_relation(vec![
///     vec!["a".to_string(), "b".to_string()],
///     vec!["b".to_string(), "a".to_string()],
/// ]);
/// let input = b.build().unwrap();
/// let c = input.collection(h);
///
/// let mut ws = JoinWorkspace::new();
/// let cfg = SsJoinConfig::new(Algorithm::Inline);
/// for theta in [1.0, 2.0] {
///     let run = ssjoin_with(c, c, &OverlapPredicate::absolute(theta), &cfg, &mut ws).unwrap();
///     assert!(!run.pairs.is_empty());
/// }
/// assert_eq!(ws.reuses(), 1);
/// ```
#[derive(Debug, Default)]
pub struct JoinWorkspace {
    pub(crate) s_index: CsrIndex,
    /// Per-set prefix lengths (a prefix is no longer than its set).
    pub(crate) r_lens: Vec<u32>,
    pub(crate) s_lens: Vec<u32>,
    /// Per-set prune columns ([`super::bounds_into`]) of the R and S sides;
    /// a symmetric self-join fills only `s_bounds`.
    pub(crate) r_bounds: Vec<SetBound>,
    pub(crate) s_bounds: Vec<SetBound>,
    pub(crate) workers: Vec<WorkerScratch>,
    /// The half path's row offsets ([`super::run_probes`]).
    pub(crate) row_starts: Vec<usize>,
    /// The run's output, plain or scored.
    pub(crate) out: Pairs,
    /// Out-of-core buffers (`crate::spill`): allocated lazily on the first
    /// spilled run, then pooled like everything else. `None` costs resident
    /// runs nothing.
    pub(crate) spill: Option<Box<crate::spill::SpillScratch>>,
    /// Approximate-mode sketch (`crate::approx`): allocated lazily on the
    /// first approximate run, then pooled like everything else. Exact runs
    /// never touch it, so the `None` default costs them nothing.
    pub(crate) approx: Option<Box<crate::approx::ApproxSketch>>,
    runs: u64,
}

impl JoinWorkspace {
    /// An empty workspace. Nothing is allocated until the first run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Completed runs this workspace has served.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Runs served beyond the first (0 = the workspace is still cold).
    pub fn reuses(&self) -> u64 {
        self.runs.saturating_sub(1)
    }

    /// Total heap bytes currently reserved across all pooled buffers.
    pub fn bytes_reserved(&self) -> u64 {
        self.s_index.bytes_reserved()
            + vec_bytes(&self.r_lens)
            + vec_bytes(&self.s_lens)
            + vec_bytes(&self.r_bounds)
            + vec_bytes(&self.s_bounds)
            + vec_bytes(&self.row_starts)
            + self.out.bytes_reserved()
            + vec_bytes(&self.workers)
            + self
                .workers
                .iter()
                .map(WorkerScratch::bytes_reserved)
                .sum::<u64>()
            + self.spill.as_ref().map_or(0, |s| s.bytes_reserved())
            + self.approx.as_ref().map_or(0, |a| a.bytes_reserved())
    }

    /// Reset logical state for a new run, keeping every buffer's capacity.
    pub(crate) fn begin_run(&mut self) {
        self.out.clear();
        self.runs += 1;
    }
}

#[allow(clippy::ptr_arg)] // capacity, not length, is the reserved footprint
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> u64 {
    (v.capacity() * std::mem::size_of::<T>()) as u64
}

#[cfg(test)]
pub(crate) fn collect<T>(f: impl FnOnce(&mut JoinWorkspace) -> T) -> (Vec<JoinPair>, T) {
    let mut ws = JoinWorkspace::new();
    ws.begin_run();
    let value = f(&mut ws);
    (std::mem::take(&mut ws.out.plain), value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{SsJoinInputBuilder, WeightScheme};
    use crate::order::ElementOrder;

    fn build(groups: Vec<Vec<String>>) -> SetCollection {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = b.add_relation(groups);
        b.build().unwrap().collection(h).clone()
    }

    fn groups(n: usize, vocab: usize) -> Vec<Vec<String>> {
        (0..n)
            .map(|i| {
                (0..(2 + i % 5))
                    .map(|j| format!("v{}", (i * 13 + j * 17) % vocab))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn csr_matches_naive_postings() {
        let c = build(groups(30, 17));
        let mut index = CsrIndex::default();
        index.build(&c, None);
        let mut naive: Vec<Vec<u32>> = vec![Vec::new(); c.universe_size()];
        for (id, set) in c.iter().enumerate() {
            for &rank in set.ranks() {
                naive[rank as usize].push(id as u32);
            }
        }
        for (t, expect) in naive.iter().enumerate() {
            assert_eq!(index.postings(t as u32), expect.as_slice(), "rank {t}");
        }
    }

    #[test]
    fn csr_rebuild_reuses_capacity() {
        let big = build(groups(50, 23));
        let small = build(groups(5, 7));
        let mut index = CsrIndex::default();
        index.build(&big, None);
        let cap = (index.offsets.capacity(), index.postings.capacity());
        index.build(&small, None);
        assert!(index.offsets.capacity() >= cap.0 && index.postings.capacity() >= cap.1);
        // And the contents are those of the small collection alone.
        for t in 0..small.universe_size() {
            for &id in index.postings(t as u32) {
                assert!((id as usize) < small.len());
            }
        }
    }

    #[test]
    fn workspace_counters() {
        let mut ws = JoinWorkspace::new();
        assert_eq!(ws.runs(), 0);
        assert_eq!(ws.reuses(), 0);
        ws.begin_run();
        ws.begin_run();
        assert_eq!(ws.runs(), 2);
        assert_eq!(ws.reuses(), 1);
        ws.out.plain.push(JoinPair {
            r: 0,
            s: 0,
            overlap: Weight::ONE,
        });
        assert!(ws.bytes_reserved() > 0);
    }
}
