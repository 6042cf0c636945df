//! Persistent corpus index: the build-once / probe-many split.
//!
//! Every [`crate::ssjoin`] call rebuilds the S-side inverted index from
//! scratch — the right trade for one-shot joins, and a waste for the
//! data-cleaning *services* the paper motivates (§6): fuzzy match and dedup
//! against a large, mostly-static reference table. [`CorpusIndex`] factors
//! that cost out. Built once from a [`SetCollection`], it owns everything
//! the executors previously derived per call on the S side — the prefix
//! inverted index, per-set prefix lengths, the bitmap prune's per-set column
//! (required overlap and signature popcount), and (inside the arena) the
//! per-set signatures — and answers `R × index` joins through
//! [`CorpusIndex::probe`] with the same output, resident budget and
//! zero-warm-allocation contracts as [`crate::ssjoin_with`].
//!
//! # Why probe output is identical to a fresh join
//!
//! The one quantity a persistent S index cannot know in advance is the
//! *probe batch's* norm range, which a fresh build uses to lower-bound the
//! required overlap when extracting S prefixes (Lemma 1). The index instead
//! extracts them against the widest partner-norm interval, `[0, ∞)`.
//! Interval lower-bounding is inclusion-monotone — a wider
//! partner interval can only lower the bound — so the stored prefixes are
//! supersets of the ones a fresh build would extract, the candidate set is a
//! superset of the fresh candidate set, and exact per-pair verification
//! makes the emitted pairs bit-identical. Only candidate-level *counters*
//! may differ from a fresh [`crate::ssjoin`] run.
//!
//! # Incremental updates
//!
//! [`CorpusIndex::insert`] appends a set to the arena without touching the
//! index: new sets live in a small *epoch* tail that probes scan
//! brute-force, and once the tail outgrows `max(64, indexed/8)` it is merged
//! into the index by a rebuild. [`CorpusIndex::delete`] is an
//! O(1) tombstone; dead sets are filtered from probe output and excluded
//! from the next rebuild. [`CorpusIndex::compact`] rewrites the arena
//! without dead sets and renumbers ids densely. Every probe sees exactly the
//! live sets — the tests prove any insert/delete sequence is equivalent to a
//! fresh rebuild of the surviving collection.

use crate::approx::{probe_built, ApproxSketch};
use crate::error::{SsJoinError, SsJoinResult};
use crate::exec::{
    begin, bounds_into, finish, prefix_lengths_into, probe_prefix_family, run_algorithm, vec_bytes,
    Algorithm, CsrIndex, ExecContext, JoinWorkspace, SetBound, Side, Sink, SsJoinConfig, SsJoinRun,
};
use crate::predicate::OverlapPredicate;
use crate::set::SetCollection;
use crate::stats::SsJoinStats;
use crate::weight::Weight;

/// The partner-norm interval every index serves: stored S prefixes are
/// extracted against it, so a probe batch must keep its norms inside it.
const PARTNER_NORMS: (f64, f64) = (0.0, f64::MAX);

/// A persistent, incrementally maintainable S-side index over one
/// [`SetCollection`] and one [`OverlapPredicate`].
///
/// See the module docs for the design; see
/// [`CorpusIndex::probe`] for the join entry point.
#[derive(Debug)]
pub struct CorpusIndex {
    corpus: SetCollection,
    pred: OverlapPredicate,
    /// Approximate spec fixed at build time (`None` = exact-only index).
    approx_spec: Option<crate::approx::ApproxSpec>,
    /// The LSH sketch backing approximate probes, rebuilt with the index.
    approx: Option<Box<crate::approx::ApproxSketch>>,
    /// Prefix inverted index over sets `0..indexed` (prefix-family probes).
    prefix_index: CsrIndex,
    /// Per-set prefix lengths backing `prefix_index` (0 for dead sets).
    prefix_lens: Vec<u32>,
    /// Cached `Σ prefix_lens`, reported into probe stats.
    prefix_tuples: u64,
    /// The per-set prune column (S side) of sets `0..indexed`, computed at
    /// each (re)build, so a probe computes only its batch's. Epoch-tail sets
    /// are joined brute force, so no prune reads theirs until the next
    /// rebuild covers them.
    bounds: Vec<SetBound>,
    /// Sets `indexed..corpus.len()` are the un-indexed epoch tail.
    indexed: usize,
    alive: Vec<bool>,
    /// Total tombstoned sets (indexed or epoch).
    dead: usize,
    /// Tombstoned sets that still have postings in the current index — only
    /// these force the probe-output retain pass.
    dead_in_index: usize,
}

impl CorpusIndex {
    /// Build an index over `corpus` for probes under `pred`. `exec` is
    /// validated, and an active `exec.approx` is committed to: its seeded
    /// LSH sketch is built with the index, and approximate probes must pass
    /// the same spec. The build (and every rebuild) is the one-shot
    /// executors' sequential index build; the rest of `exec`, threads
    /// included, applies per probe, through the probe's own context.
    ///
    /// # Errors
    /// [`SsJoinError::Config`] when `exec.threads` is 0 or the approximate
    /// spec is invalid.
    pub fn build(
        corpus: SetCollection,
        pred: OverlapPredicate,
        exec: &ExecContext,
    ) -> SsJoinResult<Self> {
        exec.validate()?;
        let alive = vec![true; corpus.len()];
        let mut index = Self {
            corpus,
            pred,
            approx_spec: exec.active_approx(),
            approx: None,
            prefix_index: CsrIndex::default(),
            prefix_lens: Vec::new(),
            prefix_tuples: 0,
            bounds: Vec::new(),
            indexed: 0,
            alive,
            dead: 0,
            dead_in_index: 0,
        };
        index.rebuild();
        Ok(index)
    }

    /// Rebuild the prefix inverted index over the whole arena, excluding dead
    /// sets, and absorb the epoch tail.
    fn rebuild(&mut self) {
        let n = self.corpus.len();
        prefix_lengths_into(
            &self.corpus,
            Side::S,
            &self.pred,
            Some(PARTNER_NORMS),
            &mut self.prefix_lens,
        );
        for (len, &alive) in self.prefix_lens.iter_mut().zip(&self.alive) {
            if !alive {
                *len = 0;
            }
        }
        self.prefix_tuples = self.prefix_lens.iter().map(|&l| l as u64).sum();
        self.prefix_index
            .build(&self.corpus, Some(&self.prefix_lens));
        bounds_into(&self.corpus, &self.pred, Side::S, &mut self.bounds);
        self.indexed = n;
        self.dead_in_index = 0;
        if let Some(spec) = self.approx_spec {
            // The sketch covers the whole arena, tombstones included (a
            // tombstoned set's pairs are filtered from probe output), so a
            // rebuild never has to renumber leaf membership.
            let mut sketch = self.approx.take().unwrap_or_default();
            sketch.build(&self.corpus, &self.pred, &spec);
            self.approx = Some(sketch);
        }
    }

    /// Execute `batch SSJoin_pred index` into a caller-owned workspace.
    ///
    /// Semantics match [`crate::ssjoin_with`] with this index's corpus as
    /// the S side restricted to live sets: same output pairs, the same
    /// resident budget (honored per call through `config.exec.budget`), same
    /// `(r, s)`-sorted zero-copy result. On a warmed workspace a sequential probe performs
    /// zero heap allocations. Candidate-level counters may exceed a fresh
    /// join's (see the module docs); emitted pairs never differ.
    ///
    /// # Errors
    /// [`SsJoinError::UniverseMismatch`] when `batch` comes from a different
    /// builder run; [`SsJoinError::Config`] for zero threads or a batch
    /// with a negative norm (outside the `[0, ∞)` partner interval).
    pub fn probe<'w>(
        &self,
        batch: &SetCollection,
        config: &SsJoinConfig,
        ws: &'w mut JoinWorkspace,
    ) -> SsJoinResult<SsJoinRun<'w>> {
        let stats = self.probe_into(batch, config, ws)?;
        Ok(SsJoinRun {
            pairs: &ws.out.plain,
            stats,
        })
    }

    fn probe_into(
        &self,
        batch: &SetCollection,
        config: &SsJoinConfig,
        ws: &mut JoinWorkspace,
    ) -> SsJoinResult<SsJoinStats> {
        if !batch.shares_universe(&self.corpus) {
            return Err(SsJoinError::UniverseMismatch);
        }
        if let Some((lo, hi)) = batch.norm_range() {
            if lo < PARTNER_NORMS.0 || hi > PARTNER_NORMS.1 {
                return Err(SsJoinError::Config(format!(
                    "batch norms [{lo}, {hi}] escape the partner interval [{}, {}] \
                     every index is built for",
                    PARTNER_NORMS.0, PARTNER_NORMS.1
                )));
            }
        }
        let sketch = self.sketch_for(&config.exec)?;
        // Two probes bypass the persistent index and join the whole corpus
        // arena instead. A probe whose working-set estimate exceeds its
        // resident budget runs through the token-range spill driver: the
        // index cannot be consulted one partition at a time, but the spilled
        // join holds only one partition's sub-index resident. An exact
        // `Basic` probe runs its own executor, which builds the full-set
        // index the persistent one (prefixes only) does not hold. Both emit
        // bit-identical pairs.
        let run = begin(batch, &self.corpus, config, ws)?;
        let (r, s, algorithm, ctx) = (batch, &self.corpus, run.algorithm, run.ctx);
        let (pred, bounds, plain) = (&self.pred, &self.bounds[..], Sink::Plain);
        let spilled = if run.spill {
            crate::spill::run(r, s, pred, algorithm, ctx, plain, ws)
        } else {
            None
        };
        let (mut stats, whole_arena) = match (spilled, sketch) {
            (Some(stats), _) => (stats, true),
            (None, Some(sketch)) => (
                probe_built(r, s, sketch, bounds, pred, ctx, plain, ws),
                false,
            ),
            (None, None) if algorithm == Algorithm::Basic => (
                run_algorithm(algorithm, r, s, pred, ctx, None, plain, ws),
                true,
            ),
            // Only PrefixFiltered and Inline reach the persistent prefix
            // index.
            (None, None) => {
                let (index, tuples) = (&self.prefix_index, self.prefix_tuples);
                let inline = algorithm == Algorithm::Inline;
                let stats = probe_prefix_family(r, s, index, tuples, bounds, pred, ctx, inline, ws);
                (stats, false)
            }
        };
        if whole_arena {
            // The join covered the whole arena — epoch tail included — so
            // only the tombstone filter applies, and it must cover
            // epoch-tail tombstones too.
            if self.dead > 0 {
                ws.out.plain.retain(|p| self.alive[p.s as usize]);
            }
        } else {
            // Tombstones: sets deleted since the last rebuild still have
            // postings, so their pairs are filtered here. Epoch tail: sets
            // inserted since the last rebuild have no postings, so they are
            // joined brute-force below. Both passes are skipped entirely (no
            // work, no allocations) when the index is clean. The approximate
            // sketch keeps *every* arena set in its leaves across rebuilds
            // (tombstones are not zeroed out the way CSR posting lengths
            // are), so approximate probes must filter every tombstone, not
            // only the post-rebuild ones.
            let dead_emitted = if run.approx.is_some() {
                self.dead
            } else {
                self.dead_in_index
            };
            if dead_emitted > 0 {
                ws.out.plain.retain(|p| self.alive[p.s as usize]);
            }
            let epoch_added = self.probe_epoch_tail(r, ws, &mut stats);
            if epoch_added {
                ws.out.plain.sort_unstable_by_key(|p| (p.r, p.s));
            }
        }
        Ok(finish(run, stats, self.bytes_reserved(), ws))
    }

    /// The sketch an approximate probe under `ctx` runs against (`None` for
    /// an exact probe). A persisted sketch serves exactly the recall target
    /// and seed it was built for, so any other active spec is refused.
    fn sketch_for(&self, ctx: &ExecContext) -> SsJoinResult<Option<&ApproxSketch>> {
        let Some(spec) = ctx.active_approx() else {
            return Ok(None);
        };
        let Some(sketch) = self.approx.as_deref() else {
            return Err(SsJoinError::Config(
                "approximate probe against an index built without an approximate spec; build \
                 it under the same ExecContext::approx"
                    .into(),
            ));
        };
        if sketch.seed != spec.seed || sketch.recall_milli != spec.recall_milli() {
            return Err(SsJoinError::Config(format!(
                "approximate spec (recall {:.3}, seed {:#x}) does not match the sketch this \
                 index was built with (recall {:.3}, seed {:#x})",
                spec.target_recall,
                spec.seed,
                f64::from(sketch.recall_milli) / 1000.0,
                sketch.seed
            )));
        }
        Ok(Some(sketch))
    }

    /// Brute-force join of the batch against the un-indexed epoch tail.
    /// Returns true when any pair was appended (the caller must re-sort).
    fn probe_epoch_tail(
        &self,
        r: &SetCollection,
        ws: &mut JoinWorkspace,
        stats: &mut SsJoinStats,
    ) -> bool {
        if self.indexed == self.corpus.len() {
            return false;
        }
        let before = ws.out.plain.len();
        for rid in 0..r.len() as u32 {
            let rset = r.set(rid);
            let mut cand = 0u64;
            for sid in self.indexed as u32..self.corpus.len() as u32 {
                if !self.alive[sid as usize] {
                    continue;
                }
                cand += 1;
                let sset = self.corpus.set(sid);
                let overlap = rset.overlap(sset);
                if overlap > Weight::ZERO && self.pred.check(overlap, rset.norm(), sset.norm()) {
                    ws.out.plain.push(crate::exec::JoinPair {
                        r: rid,
                        s: sid,
                        overlap,
                    });
                }
            }
            stats.candidate_pairs += cand;
            stats.verified_pairs += cand;
        }
        ws.out.plain.len() > before
    }

    /// Append a set (its element ranks in any order, plus the norm used by
    /// normalized predicates) and return its id. Its elements weigh what
    /// the corpus's universe says ([`crate::BuiltInput::element_weight`]):
    /// the set shares the corpus's weight table. The set is
    /// probe-visible immediately; it joins the inverted index at the next
    /// epoch merge, which happens automatically once the epoch tail exceeds
    /// `max(64, indexed/8)` sets.
    ///
    /// # Errors
    /// [`SsJoinError::InvalidInput`] on duplicate or out-of-range ranks;
    /// arena-overflow errors as in the builder.
    pub fn insert(&mut self, ranks: &[u32], norm: f64) -> SsJoinResult<u32> {
        let id = self.corpus.push_set(ranks, norm)?;
        self.alive.push(true);
        if self.pending() > self.epoch_limit() {
            self.rebuild();
        }
        Ok(id)
    }

    /// Tombstone a set: O(1), idempotent, immediately probe-invisible. The
    /// arena slot is reclaimed by the next [`Self::compact`].
    ///
    /// # Errors
    /// [`SsJoinError::InvalidInput`] when `id` is out of range.
    pub fn delete(&mut self, id: u32) -> SsJoinResult<()> {
        let idx = id as usize;
        if idx >= self.corpus.len() {
            return Err(SsJoinError::InvalidInput(format!(
                "group id {id} is outside the corpus of {} sets",
                self.corpus.len()
            )));
        }
        if self.alive[idx] {
            self.alive[idx] = false;
            self.dead += 1;
            if idx < self.indexed {
                self.dead_in_index += 1;
            }
        }
        Ok(())
    }

    /// Merge the epoch tail into the inverted index now (a rebuild over
    /// the whole arena, excluding tombstoned sets). Probe results are
    /// unchanged; probes merely stop paying the brute-force tail scan.
    pub fn merge_epoch(&mut self) {
        self.rebuild();
    }

    /// Rewrite the arena without tombstoned sets, renumbering survivors
    /// densely in id order, and rebuild. Returns the old id of each
    /// surviving set (`result[new_id] = old_id`) so callers can remap
    /// whatever they key by id.
    ///
    /// # Errors
    /// Arena-overflow errors (practically unreachable: the compacted arena
    /// is no larger than the current one).
    pub fn compact(&mut self) -> SsJoinResult<Vec<u32>> {
        let mut survivors = Vec::with_capacity(self.live_len());
        let mut fresh = self.corpus.empty_like();
        for id in 0..self.corpus.len() as u32 {
            if !self.alive[id as usize] {
                continue;
            }
            let set = self.corpus.set(id);
            fresh.push_set(set.ranks(), set.norm())?;
            survivors.push(id);
        }
        self.corpus = fresh;
        self.alive.clear();
        self.alive.resize(self.corpus.len(), true);
        self.dead = 0;
        self.rebuild();
        Ok(survivors)
    }

    /// The indexed corpus (including tombstoned and epoch-tail sets — ids
    /// are stable until [`Self::compact`]).
    pub fn corpus(&self) -> &SetCollection {
        &self.corpus
    }

    /// The predicate probes run under.
    pub fn predicate(&self) -> &OverlapPredicate {
        &self.pred
    }

    /// Total arena slots (live + tombstoned).
    pub fn len(&self) -> usize {
        self.corpus.len()
    }

    /// True when no sets are stored at all.
    pub fn is_empty(&self) -> bool {
        self.corpus.is_empty()
    }

    /// Live (non-tombstoned) sets.
    pub fn live_len(&self) -> usize {
        self.corpus.len() - self.dead
    }

    /// Sets in the un-indexed epoch tail (served brute-force until the next
    /// merge).
    pub fn pending(&self) -> usize {
        self.corpus.len() - self.indexed
    }

    /// True when `id` is in range and not tombstoned.
    pub fn is_alive(&self, id: u32) -> bool {
        self.alive.get(id as usize).copied().unwrap_or(false)
    }

    /// Bytes reserved by the persistent index structures (not counting the
    /// corpus arena itself).
    pub fn bytes_reserved(&self) -> u64 {
        self.prefix_index.bytes_reserved()
            + vec_bytes(&self.prefix_lens)
            + vec_bytes(&self.bounds)
            + vec_bytes(&self.alive)
            + self.approx.as_ref().map_or(0, |a| a.bytes_reserved())
    }

    fn epoch_limit(&self) -> usize {
        (self.indexed / 8).max(64)
    }
}
