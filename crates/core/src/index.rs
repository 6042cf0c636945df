//! Persistent corpus index: the build-once / probe-many split.
//!
//! Every [`crate::ssjoin`] call rebuilds the S-side inverted index from
//! scratch — the right trade for one-shot joins, and a waste for the
//! data-cleaning *services* the paper motivates (§6): fuzzy match and dedup
//! against a large, mostly-static reference table. [`CorpusIndex`] factors
//! that cost out. Built once from a [`SetCollection`], it owns everything
//! the executors previously derived per call on the S side — the prefix
//! inverted index, per-set prefix lengths, the full-set inverted index for
//! [`Algorithm::Basic`], and (inside the arena) the per-set bitmap
//! signatures — and answers `R × index` joins through [`CorpusIndex::probe`]
//! with the same budget, cancellation, and zero-warm-allocation contracts as
//! [`crate::ssjoin_with`].
//!
//! # Why probe output is identical to a fresh join
//!
//! The one quantity a persistent S index cannot know in advance is the
//! *probe batch's* norm range, which a fresh build uses to lower-bound the
//! required overlap when extracting S prefixes (Lemma 1). The index instead
//! fixes a conservative partner-norm interval at build time (by default
//! `[0, ∞)`). Interval lower-bounding is inclusion-monotone — a wider
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
//! into the index by a (parallel) rebuild. [`CorpusIndex::delete`] is an
//! O(1) tombstone; dead sets are filtered from probe output and excluded
//! from the next rebuild. [`CorpusIndex::compact`] rewrites the arena
//! without dead sets and renumbers ids densely. Every probe sees exactly the
//! live sets — the tests prove any insert/delete sequence is equivalent to a
//! fresh rebuild of the surviving collection.

use crate::approx::ApproxSketch;
use crate::budget::BudgetState;
use crate::error::{SsJoinError, SsJoinResult};
use crate::exec::{
    begin, build_csr_parallel, effective_threads, estimate_probe_costs_into, finish,
    prefix_lengths_into, probe_basic, probe_positional, probe_prefix_family, run_planned,
    vec_bytes, Algorithm, CsrIndex, ExecContext, JoinWorkspace, Side, SsJoinConfig, SsJoinRun,
    WorkerScratch,
};
use crate::predicate::OverlapPredicate;
use crate::set::SetCollection;
use crate::stats::SsJoinStats;
use crate::weight::Weight;

/// Build-time options for a [`CorpusIndex`].
#[derive(Debug, Clone)]
pub struct CorpusIndexOptions {
    /// Norm interval the probe batches are promised to stay within. Tighter
    /// intervals yield shorter stored prefixes (fewer candidates per probe);
    /// the default `[0, ∞)` accepts any batch. Probing with a batch whose
    /// norm range escapes the promised interval is a config error — a
    /// silently wrong answer otherwise.
    pub partner_norms: Option<(f64, f64)>,
    /// Worker threads for index (re)builds. Builds are bit-identical at any
    /// thread count. Defaults to 1.
    pub build_threads: usize,
    /// Epoch-tail size that triggers an automatic merge on insert. Defaults
    /// to `max(64, indexed/8)`.
    pub epoch_limit: Option<usize>,
    /// Approximate-mode spec the index commits to at build time. When set
    /// (and active), the seeded LSH sketch of [`crate::ApproxSpec`] is built
    /// once per (re)build, so warm approximate probes run the candidate
    /// loop only. Probes must then pass the *same* spec on their execution
    /// context — a persisted sketch must not silently serve a recall target
    /// or seed it was not built for. Exact probes of an approx-enabled index remain available and
    /// unchanged. Defaults to `None` (exact-only index).
    pub approx: Option<crate::ApproxSpec>,
}

impl Default for CorpusIndexOptions {
    fn default() -> Self {
        Self {
            partner_norms: None,
            build_threads: 1,
            epoch_limit: None,
            approx: None,
        }
    }
}

/// A persistent, incrementally maintainable S-side index over one
/// [`SetCollection`] and one [`OverlapPredicate`].
///
/// See the module docs for the design; see
/// [`CorpusIndex::probe`] for the join entry point.
#[derive(Debug)]
pub struct CorpusIndex {
    corpus: SetCollection,
    pred: OverlapPredicate,
    partner_norms: (f64, f64),
    epoch_limit: Option<usize>,
    build_threads: usize,
    /// Approximate spec fixed at build time (`None` = exact-only index).
    approx_spec: Option<crate::approx::ApproxSpec>,
    /// The LSH sketch backing approximate probes, rebuilt with the indexes.
    approx: Option<Box<crate::approx::ApproxSketch>>,
    /// Prefix inverted index over sets `0..indexed` (prefix-family probes).
    prefix_index: CsrIndex,
    /// Per-set prefix lengths backing `prefix_index` (0 for dead sets).
    prefix_lens: Vec<usize>,
    /// Cached `Σ prefix_lens`, reported into probe stats.
    prefix_tuples: u64,
    /// Per-rank prefix-frequency histogram over the live indexed sets,
    /// frozen at (re)build time — the statistic that lets probe-time
    /// planning estimate the prefix join size in O(probe batch) without
    /// rescanning the corpus. Saturating, like every planner histogram.
    prefix_freq: Vec<u32>,
    /// Full-set inverted index over sets `0..indexed` (basic probes).
    full_index: CsrIndex,
    full_lens: Vec<usize>,
    /// Sets `indexed..corpus.len()` are the un-indexed epoch tail.
    indexed: usize,
    alive: Vec<bool>,
    /// Total tombstoned sets (indexed or epoch).
    dead: usize,
    /// Tombstoned sets that still have postings in the current index — only
    /// these force the probe-output retain pass.
    dead_in_index: usize,
    /// Scratch for parallel rebuilds.
    workers: Vec<WorkerScratch>,
}

impl CorpusIndex {
    /// Build an index over `corpus` for probes under `pred`, with default
    /// options.
    pub fn build(corpus: SetCollection, pred: OverlapPredicate) -> SsJoinResult<Self> {
        Self::build_with(corpus, pred, &CorpusIndexOptions::default())
    }

    /// Build with explicit [`CorpusIndexOptions`].
    ///
    /// # Errors
    /// [`SsJoinError::Config`] when `options.partner_norms` is inverted or
    /// non-finite at the low end, or `build_threads` is 0.
    pub fn build_with(
        corpus: SetCollection,
        pred: OverlapPredicate,
        options: &CorpusIndexOptions,
    ) -> SsJoinResult<Self> {
        let partner_norms = options.partner_norms.unwrap_or((0.0, f64::MAX));
        if partner_norms.0.is_nan() || partner_norms.1.is_nan() || partner_norms.0 > partner_norms.1
        {
            return Err(SsJoinError::Config(format!(
                "partner norm interval [{}, {}] is inverted or NaN",
                partner_norms.0, partner_norms.1
            )));
        }
        if options.build_threads == 0 {
            return Err(SsJoinError::Config(
                "build_threads must be at least 1".into(),
            ));
        }
        if let Some(spec) = &options.approx {
            spec.validate()?;
        }
        let alive = vec![true; corpus.len()];
        let mut index = Self {
            corpus,
            pred,
            partner_norms,
            epoch_limit: options.epoch_limit,
            build_threads: options.build_threads,
            approx_spec: options.approx.filter(crate::approx::ApproxSpec::is_active),
            approx: None,
            prefix_index: CsrIndex::default(),
            prefix_lens: Vec::new(),
            prefix_tuples: 0,
            prefix_freq: Vec::new(),
            full_index: CsrIndex::default(),
            full_lens: Vec::new(),
            indexed: 0,
            alive,
            dead: 0,
            dead_in_index: 0,
            workers: Vec::new(),
        };
        index.rebuild();
        Ok(index)
    }

    /// Rebuild both inverted indexes over the whole arena, excluding dead
    /// sets, and absorb the epoch tail. Bit-identical at any
    /// `build_threads`.
    fn rebuild(&mut self) {
        let n = self.corpus.len();
        prefix_lengths_into(
            &self.corpus,
            Side::S,
            &self.pred,
            Some(self.partner_norms),
            &mut self.prefix_lens,
        );
        for (len, &alive) in self.prefix_lens.iter_mut().zip(&self.alive) {
            if !alive {
                *len = 0;
            }
        }
        self.prefix_tuples = self.prefix_lens.iter().map(|&l| l as u64).sum();
        self.prefix_freq.clear();
        self.prefix_freq.resize(self.corpus.universe_size(), 0);
        for (id, &len) in self.prefix_lens.iter().enumerate() {
            let set = self.corpus.set(id as u32);
            for &rank in &set.ranks()[..len] {
                let slot = &mut self.prefix_freq[rank as usize];
                *slot = slot.saturating_add(1);
            }
        }
        self.full_lens.clear();
        self.full_lens.extend((0..n).map(|i| {
            if self.alive[i] {
                self.corpus.set(i as u32).len()
            } else {
                0
            }
        }));
        let threads = effective_threads(self.build_threads);
        if self.workers.len() < threads {
            self.workers.resize_with(threads, WorkerScratch::default);
        }
        build_csr_parallel(
            &mut self.prefix_index,
            &self.corpus,
            &self.prefix_lens,
            &mut self.workers,
            threads,
        );
        build_csr_parallel(
            &mut self.full_index,
            &self.corpus,
            &self.full_lens,
            &mut self.workers,
            threads,
        );
        self.indexed = n;
        self.dead_in_index = 0;
        if let Some(spec) = self.approx_spec {
            // The sketch covers the whole arena, tombstones included (a
            // tombstoned set's pairs are filtered from probe output), so a
            // rebuild never has to renumber leaf membership.
            let mut sketch = self.approx.take().unwrap_or_default();
            let unlimited = crate::budget::ExecBudget::default();
            let budget = BudgetState::new(&unlimited, None);
            sketch.build(&self.corpus, &self.pred, &spec, &budget);
            self.approx = Some(sketch);
        }
    }

    /// Execute `batch SSJoin_pred index` into a caller-owned workspace.
    ///
    /// Semantics match [`crate::ssjoin_with`] with this index's corpus as
    /// the S side restricted to live sets: same output pairs, same budget
    /// and cancellation behaviour (honored per call through
    /// `config.exec.budget` / `config.exec.cancel`), same `(r, s)`-sorted
    /// zero-copy result. On a warmed workspace a sequential probe performs
    /// zero heap allocations. Candidate-level counters may exceed a fresh
    /// join's (see the module docs); emitted pairs never differ.
    ///
    /// # Errors
    /// [`SsJoinError::UniverseMismatch`] when `batch` comes from a different
    /// builder run; [`SsJoinError::Config`] for zero threads or a batch
    /// whose norms escape the promised partner interval;
    /// [`SsJoinError::BudgetExceeded`] when a limit trips.
    pub fn probe<'w>(
        &self,
        batch: &SetCollection,
        config: &SsJoinConfig,
        ws: &'w mut JoinWorkspace,
    ) -> SsJoinResult<SsJoinRun<'w>> {
        let (stats, used) = self.probe_into(batch, config, ws)?;
        Ok(SsJoinRun {
            pairs: &ws.out,
            stats,
            algorithm_used: used,
        })
    }

    fn probe_into(
        &self,
        batch: &SetCollection,
        config: &SsJoinConfig,
        ws: &mut JoinWorkspace,
    ) -> SsJoinResult<(SsJoinStats, Algorithm)> {
        if !batch.shares_universe(&self.corpus) {
            return Err(SsJoinError::UniverseMismatch);
        }
        if let Some((lo, hi)) = batch.norm_range() {
            if lo < self.partner_norms.0 || hi > self.partner_norms.1 {
                return Err(SsJoinError::Config(format!(
                    "batch norms [{lo}, {hi}] escape the partner interval [{}, {}] \
                     this index was built for",
                    self.partner_norms.0, self.partner_norms.1
                )));
            }
        }
        let sketch = self.sketch_for(&config.exec)?;
        // A probe whose working-set estimate exceeds its resident budget is
        // routed through the token-range spill driver as a budgeted full
        // join against the corpus arena: the persistent index cannot be
        // consulted one partition at a time, but the spilled join holds only
        // one partition's sub-index resident and emits bit-identical pairs.
        let run = begin(batch, &self.corpus, config, ws)?;
        let (r, s, ctx) = (batch, &self.corpus, &*run.ctx);
        let spilled = if run.spill {
            crate::spill::run(r, s, &self.pred, config.algorithm, ctx, &run.budget, ws)?
        } else {
            None
        };
        let from_spill = spilled.is_some();
        let (mut stats, used) = match (spilled, sketch.zip(run.approx)) {
            (Some(result), _) => result,
            (None, Some((sketch, spec))) => crate::approx::probe_built(
                r,
                s,
                sketch,
                &self.pred,
                config.algorithm,
                ctx,
                &spec,
                &run.budget,
                ws,
            ),
            (None, None) => self.probe_resident(r, config.algorithm, ctx, &run.budget, ws),
        };
        if from_spill {
            // The spilled join covered the whole arena — epoch tail
            // included — so only the tombstone filter applies, and it must
            // cover epoch-tail tombstones too.
            if self.dead > 0 {
                ws.out.retain(|p| self.alive[p.s as usize]);
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
                ws.out.retain(|p| self.alive[p.s as usize]);
            }
            let epoch_added = self.probe_epoch_tail(r, &run.budget, ws, &mut stats);
            if epoch_added {
                ws.out.sort_unstable_by_key(|p| (p.r, p.s));
            }
        }
        finish(run, stats, used, self.bytes_reserved(), ws)
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
                "approximate probe against an index built without an approximate spec; set \
                 CorpusIndexOptions::approx at build time"
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

    /// Resident probe through the persistent indexes. [`Algorithm::Auto`]
    /// is first resolved to a [`crate::PlanChoice`] from statistics frozen
    /// at (re)build time — the corpus token- and prefix-frequency
    /// histograms — so the estimate costs O(probe batch), never a corpus
    /// scan; every configuration then reaches the executors through the one
    /// `match` below, which mirrors the one-shot dispatch.
    fn probe_resident(
        &self,
        r: &SetCollection,
        algorithm: Algorithm,
        ctx: &ExecContext,
        budget: &BudgetState,
        ws: &mut JoinWorkspace,
    ) -> (SsJoinStats, Algorithm) {
        let (s, index, tuples, pred) = (
            &self.corpus,
            &self.prefix_index,
            self.prefix_tuples,
            &self.pred,
        );
        run_planned(
            algorithm,
            ctx,
            ws,
            |ws| estimate_probe_costs_into(r, s, &self.prefix_freq, tuples, pred, ws),
            |algorithm, ctx, ws| match algorithm {
                Algorithm::Basic => probe_basic(r, s, &self.full_index, pred, ctx, budget, ws),
                Algorithm::PrefixFiltered => {
                    probe_prefix_family(r, s, index, tuples, pred, ctx, false, budget, ws)
                }
                Algorithm::PositionalInline => {
                    probe_positional(r, s, index, tuples, pred, ctx, budget, ws)
                }
                // `run_planned` resolved Auto to a concrete executor.
                Algorithm::Inline | Algorithm::Auto => {
                    probe_prefix_family(r, s, index, tuples, pred, ctx, true, budget, ws)
                }
            },
        )
    }

    /// Brute-force join of the batch against the un-indexed epoch tail.
    /// Returns true when any pair was appended (the caller must re-sort).
    fn probe_epoch_tail(
        &self,
        r: &SetCollection,
        budget: &BudgetState,
        ws: &mut JoinWorkspace,
        stats: &mut SsJoinStats,
    ) -> bool {
        if self.indexed == self.corpus.len() {
            return false;
        }
        let before = ws.out.len();
        for rid in 0..r.len() as u32 {
            let out_before = ws.out.len();
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
                    ws.out.push(crate::exec::JoinPair {
                        r: rid,
                        s: sid,
                        overlap,
                    });
                }
            }
            stats.candidate_pairs += cand;
            stats.verified_pairs += cand;
            if !budget.checkpoint(cand, (ws.out.len() - out_before) as u64) {
                break;
            }
        }
        ws.out.len() > before
    }

    /// Append a set (element `(rank, weight)` pairs in any order, plus the
    /// norm used by normalized predicates) and return its id. The set is
    /// probe-visible immediately; it joins the inverted index at the next
    /// epoch merge, which happens automatically once the epoch tail exceeds
    /// the configured limit.
    ///
    /// # Errors
    /// [`SsJoinError::InvalidInput`] on duplicate or out-of-range ranks;
    /// arena-overflow errors as in the builder.
    pub fn insert(&mut self, elements: &[(u32, Weight)], norm: f64) -> SsJoinResult<u32> {
        let id = self.corpus.push_set(elements, norm)?;
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

    /// Merge the epoch tail into the inverted indexes now (a rebuild over
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
        let mut elems: Vec<(u32, Weight)> = Vec::new();
        for id in 0..self.corpus.len() as u32 {
            if !self.alive[id as usize] {
                continue;
            }
            let set = self.corpus.set(id);
            elems.clear();
            elems.extend(
                set.ranks()
                    .iter()
                    .copied()
                    .zip(set.weights().iter().copied()),
            );
            fresh.push_set(&elems, set.norm())?;
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
            + self.full_index.bytes_reserved()
            + vec_bytes(&self.prefix_lens)
            + vec_bytes(&self.prefix_freq)
            + vec_bytes(&self.full_lens)
            + vec_bytes(&self.alive)
            + self.approx.as_ref().map_or(0, |a| a.bytes_reserved())
    }

    fn epoch_limit(&self) -> usize {
        self.epoch_limit.unwrap_or(self.indexed / 8).max(64)
    }
}
