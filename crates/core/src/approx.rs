//! Opt-in approximate candidate generation: seeded MinHash/LSH sketches and
//! a recursive CPSJoin-style candidate tree.
//!
//! Everything else in this crate is exact — every executor emits exactly the
//! pairs satisfying the predicate. This module is the deliberate escape
//! hatch (ROADMAP item 3) for corpora where exact joins cannot meet a
//! deadline: it replaces *candidate generation* with a seeded LSH structure
//! in the style of CPSJoin ("Scalable and Robust Set Similarity Join",
//! arXiv 1707.06814) while keeping verification bit-identical — candidates
//! still flow through [`verify_overlap`] under the caller's
//! bitmap filter, so approximate mode changes *which pairs are considered*,
//! never how a pair is scored. Every emitted pair is therefore a true
//! qualifying pair (no false positives); the approximation only loses a
//! bounded, measured fraction of true pairs (recall < 1).
//!
//! # Sketch layout
//!
//! For each repetition ρ, a seeded **base hash** `b_ρ(token)` is drawn from
//! the `ssjoin-prng` generator once per token rank in the universe and
//! cached in a repetition-major table; the per-level families
//! `h_{ρ,k}(token)` are derived from the base by a cheap odd-constant
//! multiply/xor-shift scramble, so the hot argmin loops never re-seed the
//! generator. A set's MinHash coordinate at (ρ, k) is the **argmin token
//! rank** — the rank of the member token minimizing `h_{ρ,k}` — so a
//! coordinate is itself a token *contained in the set*, which is what makes
//! candidates provably share a token (see below). Coordinates are
//! precomputed into one contiguous arena (the PR 7 signature-block
//! discipline): repetition-major blocks of `n × MAX_LEVELS` entries,
//! `sketch[(ρ·n + id)·MAX_LEVELS + k]`, and the build also records each
//! set's leaf per repetition so self-join probes are a table lookup instead
//! of a hash-and-descend.
//!
//! # Recursion
//!
//! Per repetition, the indexed collection is split recursively: the root
//! partitions all non-empty sets by their level-0 coordinate, each child
//! partitions its bucket by the level-1 coordinate, and so on, until a
//! bucket fits [`LEAF_MAX`] or [`MAX_LEVELS`] is reached. The root always
//! splits — even a tiny collection hangs its leaves under at least one edge
//! — so every leaf sits below ≥ 1 edge. Edges are stored exactly, keyed by
//! `(parent node, coordinate)` in a hash map; no rolled-up path hashing that
//! could merge distinct paths. A probe set descends by computing its own
//! coordinates level by level; the leaf it reaches (if any) is its candidate
//! bucket. Two similar sets collide at a level with probability equal to
//! their Jaccard-style resemblance, so a leaf at level d captures a pair
//! with probability ≈ j^d per repetition.
//!
//! # Soundness (candidates ⊆ exact candidates)
//!
//! Every edge key on a root-to-leaf path is the argmin token of *every* set
//! in the subtree — a token each of them contains — and a probe only
//! traverses an edge whose key is its own argmin token. Probe and leaf
//! members therefore share at least one token, so approximate candidates
//! are a subset of the basic executor's candidate set (pairs with ≥ 1
//! shared element), and after exact verification the output is a subset of
//! the exact output with identical overlap values.
//!
//! # Recall model
//!
//! The repetition count adapts to the target: repetition 0 is built first,
//! its mean leaf level d̄ is measured, a margin resemblance j is derived
//! from the predicate threshold, and the number of repetitions L is chosen
//! so `1 − (1 − p)^L ≥ target_recall` (clamped to [`MAX_REPS`]), where p is
//! the expected leaf-collision probability of a matching pair assuming
//! match resemblance uniform on `[j, 1]` — see [`collision_probability`].
//! The model is a heuristic — recall is *measured* against exact ground
//! truth by the `ablation-approx` experiments panel rather than trusted
//! from the formula.
//!
//! # Determinism
//!
//! The tree is a pure function of (collection, seed): hashing is the seeded
//! `ssjoin-prng` PCG stream, ties break on token rank, and the recursion
//! orders buckets by coordinate value. Probing is read-only and the
//! candidate loop runs under [`run_chunked`]'s chunk-order concatenation,
//! so the output is identical across executors (approximate mode bypasses
//! the executor choice entirely) and across thread counts.

use ssjoin_prng::{Rng, StdRng};

use crate::budget::BudgetState;
use crate::error::{SsJoinError, SsJoinResult};
use crate::exec::{
    run_chunked, vec_bytes, Algorithm, ExecContext, JoinPair, JoinWorkspace, PlanChoice,
    WorkerScratch,
};
use crate::hash::FxHashMap;
use crate::kernel::verify_overlap;
use crate::predicate::OverlapPredicate;
use crate::set::{SetCollection, SetRef};
use crate::stats::{timed_phase, Phase, SsJoinStats};

/// Maximum tree depth (edges on a root-to-leaf path). Deeper levels sharpen
/// selectivity (candidates ~ j^depth) but cost recall per repetition.
const MAX_LEVELS: usize = 6;

/// Buckets at or below this size become leaves (candidate buckets). Small
/// leaves keep the junk-candidate factor low — every leaf mate of a probe is
/// verified, so leaf size directly multiplies verification work.
const LEAF_MAX: usize = 16;

/// Upper bound on repetitions the recall model may plan.
const MAX_REPS: usize = 16;

/// Sentinel for "no coordinate" (empty set) and "no root" (empty rep).
const EMPTY: u32 = u32::MAX;

/// Configuration of the opt-in approximate mode: the recall the seeded LSH
/// candidate generator should target, plus the hash-family seed.
///
/// A target of exactly `1.0` is valid and **inactive** — the run degenerates
/// to the exact pipeline, bit for bit. Targets in `(0, 1)` activate the
/// approximate generator; anything else is rejected with
/// [`SsJoinError::Config`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxSpec {
    /// Target recall in `(0, 1]`: the fraction of exact result pairs the
    /// approximate run aims to retain. `1.0` disables approximation.
    pub target_recall: f64,
    /// Seed of the per-(repetition, level) token hash families. Equal seeds
    /// (and equal configs) produce identical output on every platform,
    /// executor, and thread count.
    pub seed: u64,
}

impl ApproxSpec {
    /// Default hash-family seed used by [`ApproxSpec::new`].
    pub const DEFAULT_SEED: u64 = 0xA99C_0DE5_11AB_CD01;

    /// Spec targeting `target_recall` under the default seed.
    pub fn new(target_recall: f64) -> Self {
        Self {
            target_recall,
            seed: Self::DEFAULT_SEED,
        }
    }

    /// Replace the hash-family seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Reject targets outside `(0, 1]` (including NaN).
    pub fn validate(&self) -> SsJoinResult<()> {
        if self.target_recall > 0.0 && self.target_recall <= 1.0 {
            Ok(())
        } else {
            Err(SsJoinError::Config(format!(
                "approximate target recall must be in (0, 1], got {}",
                self.target_recall
            )))
        }
    }

    /// True when the spec actually approximates (`target_recall < 1`); a
    /// target of exactly 1.0 keeps the exact pipeline.
    pub fn is_active(&self) -> bool {
        self.target_recall < 1.0
    }

    /// Target recall in thousandths — the `Eq`-friendly form recorded in
    /// [`PlanChoice::approx_recall_milli`].
    pub fn recall_milli(&self) -> u16 {
        (self.target_recall.clamp(0.0, 1.0) * 1000.0).round() as u16
    }
}

/// Per-level odd multipliers deriving the level hash families from a
/// token's base hash (one entry per tree level).
const LEVEL_MIX: [u64; MAX_LEVELS] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0xFF51_AFD7_ED55_8CCD,
    0xC4CE_B9FE_1A85_EC53,
    0x2545_F491_4F6C_DD1D,
];

/// Seeded base hash of one token under repetition `rep`: the mixed key seeds
/// the workspace PCG (`ssjoin-prng`) and one draw is the hash value.
/// Deterministic across platforms by the generator's contract. Computed once
/// per (repetition, rank) into the sketch's base table; the per-level
/// families are derived from it by [`level_hash`], so the inner argmin loops
/// never touch the generator.
#[inline]
fn base_hash(seed: u64, rep: u32, rank: u32) -> u64 {
    let mix = seed
        ^ u64::from(rep).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ u64::from(rank).wrapping_mul(0x1656_67B1_9E37_79F9);
    StdRng::seed_from_u64(mix).next_u64()
}

/// Hash of family (repetition, level) for a token with base hash `base`:
/// a multiply/xor-shift scramble by the level's odd constant. Bijective in
/// `base`, so distinct tokens never collide within a level.
#[inline]
fn level_hash(base: u64, level: usize) -> u64 {
    let mut h = base.wrapping_mul(LEVEL_MIX[level]);
    h ^= h >> 32;
    h
}

/// The member token rank minimizing the level-`level` family hash, reading
/// base hashes from `bases` (falling back to [`base_hash`] for ranks beyond
/// the table, which cannot happen for sets of the indexed universe). Ties
/// break toward the smaller rank so the coordinate is unique. `EMPTY` for an
/// empty set.
fn argmin_rank(bases: &[u64], seed: u64, rep: u32, level: usize, ranks: &[u32]) -> u32 {
    let mut best = (u64::MAX, EMPTY);
    for &rank in ranks {
        let base = bases
            .get(rank as usize)
            .copied()
            .unwrap_or_else(|| base_hash(seed, rep, rank));
        let h = level_hash(base, level);
        if (h, rank) < best {
            best = (h, rank);
        }
    }
    best.1
}

/// The LSH candidate structure over one indexed collection: the contiguous
/// coordinate arena plus, per repetition, the recursive partition tree.
/// Built once (per [`crate::CorpusIndex`] rebuild, or per run into the
/// workspace pool) and probed read-only; all buffers clear-and-reuse.
#[derive(Debug, Default)]
pub(crate) struct ApproxSketch {
    /// Hash-family seed the sketch was built with.
    pub(crate) seed: u64,
    /// Target recall (thousandths) the repetition count was planned for.
    pub(crate) recall_milli: u16,
    /// Repetitions actually built (≥ 1 after a build).
    pub(crate) reps: usize,
    /// Indexed collection size the sketch was built over.
    n: usize,
    /// Element-universe size of the indexed collection (base-table row
    /// length).
    universe: usize,
    /// Repetition-major coordinate arena:
    /// `sketch[(rep · n + id) · MAX_LEVELS + level]`.
    sketch: Vec<u32>,
    /// Repetition-major per-token base hashes:
    /// `rank_base[rep · universe + rank]`. Probes of indexed-universe sets
    /// read here instead of re-seeding the generator per token.
    rank_base: Vec<u64>,
    /// Repetition-major leaf lookup: `leaf_of[rep · n + id]` is the leaf
    /// node holding indexed set `id` (`EMPTY` for empty sets / empty reps).
    /// Lets a self-join probe skip hashing and tree descent entirely.
    leaf_of: Vec<u32>,
    /// Root node per repetition (`EMPTY` when the rep indexes nothing).
    roots: Vec<u32>,
    /// Node table: a leaf holds `(start, end)` into `leaf_sets`; internal
    /// nodes hold `(EMPTY, 0)`.
    nodes: Vec<(u32, u32)>,
    /// Exact edges: `(parent << 32) | coordinate` → child node.
    edges: FxHashMap<u64, u32>,
    /// Flat arena of leaf membership lists.
    leaf_sets: Vec<u32>,
    /// Mean leaf level of repetition 0 (weighted by bucket size).
    mean_level: f64,
    /// Build scratch: the id permutation the recursion partitions.
    order: Vec<u32>,
}

impl ApproxSketch {
    /// Coordinate of set `id` at (rep, level).
    #[inline]
    fn coord(&self, rep: usize, id: u32, level: usize) -> u32 {
        self.sketch[(rep * self.n + id as usize) * MAX_LEVELS + level]
    }

    fn push_internal(&mut self) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push((EMPTY, 0));
        idx
    }

    fn push_leaf(&mut self, rep: usize, members: &[u32]) -> u32 {
        let start = self.leaf_sets.len() as u32;
        self.leaf_sets.extend_from_slice(members);
        let idx = self.nodes.len() as u32;
        for &id in members {
            self.leaf_of[rep * self.n + id as usize] = idx;
        }
        self.nodes.push((start, self.leaf_sets.len() as u32));
        idx
    }

    /// Fill repetition `rep`'s base-hash row (one generator draw per rank in
    /// the universe).
    fn base_rep(&mut self, rep: u32) {
        self.rank_base.reserve(self.universe);
        for rank in 0..self.universe as u32 {
            self.rank_base.push(base_hash(self.seed, rep, rank));
        }
    }

    /// Append repetition `rep`'s coordinate block to the arena: one pass per
    /// set computing the argmin of every level at once from cached base
    /// hashes.
    fn sketch_rep(&mut self, s: &SetCollection, rep: u32) {
        let bases = &self.rank_base[rep as usize * self.universe..];
        self.sketch.reserve(self.n * MAX_LEVELS);
        for set in s.iter() {
            let mut best = [(u64::MAX, EMPTY); MAX_LEVELS];
            for &rank in set.ranks() {
                let base = bases
                    .get(rank as usize)
                    .copied()
                    .unwrap_or_else(|| base_hash(self.seed, rep, rank));
                for (level, slot) in best.iter_mut().enumerate() {
                    let h = level_hash(base, level);
                    if (h, rank) < *slot {
                        *slot = (h, rank);
                    }
                }
            }
            self.sketch.extend(best.iter().map(|&(_, rank)| rank));
        }
    }

    /// Build repetition `rep`'s tree; returns `(members, Σ member·level)`
    /// over its leaves for the mean-leaf-level measurement.
    fn build_rep(&mut self, rep: usize) -> (u64, u64) {
        self.leaf_of.resize((rep + 1) * self.n, EMPTY);
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend((0..self.n as u32).filter(|&id| self.coord(rep, id, 0) != EMPTY));
        let mut acc = (0u64, 0u64);
        if order.is_empty() {
            self.roots.push(EMPTY);
        } else {
            // The root always splits (never a leaf), so every leaf sits
            // under at least one edge and candidates provably share a token.
            let root = self.push_internal();
            self.roots.push(root);
            self.split(rep, root, 0, &mut order, &mut acc);
        }
        self.order = order;
        acc
    }

    /// Partition `bucket` by its coordinate at `level`, hanging a child —
    /// leaf or recursively split internal node — under `node` per group.
    fn split(
        &mut self,
        rep: usize,
        node: u32,
        level: usize,
        bucket: &mut [u32],
        acc: &mut (u64, u64),
    ) {
        bucket.sort_unstable_by_key(|&id| self.coord(rep, id, level));
        let child_level = level + 1;
        let mut start = 0usize;
        while start < bucket.len() {
            let key = self.coord(rep, bucket[start], level);
            let mut end = start + 1;
            while end < bucket.len() && self.coord(rep, bucket[end], level) == key {
                end += 1;
            }
            let leaf = end - start <= LEAF_MAX || child_level == MAX_LEVELS;
            let child = if leaf {
                acc.0 += (end - start) as u64;
                acc.1 += ((end - start) * child_level) as u64;
                self.push_leaf(rep, &bucket[start..end])
            } else {
                self.push_internal()
            };
            self.edges
                .insert((u64::from(node) << 32) | u64::from(key), child);
            if !leaf {
                self.split(rep, child, child_level, &mut bucket[start..end], acc);
            }
            start = end;
        }
    }

    /// (Re)build the sketch over `s` for `spec`, reusing every buffer's
    /// capacity. Repetition 0 calibrates the repetition count; the budget is
    /// checked between repetitions so a cancelled run stops building.
    pub(crate) fn build(
        &mut self,
        s: &SetCollection,
        pred: &OverlapPredicate,
        spec: &ApproxSpec,
        budget: &BudgetState,
    ) {
        self.seed = spec.seed;
        self.recall_milli = spec.recall_milli();
        self.n = s.len();
        self.universe = s.universe_size();
        self.sketch.clear();
        self.rank_base.clear();
        self.leaf_of.clear();
        self.roots.clear();
        self.nodes.clear();
        self.edges.clear();
        self.leaf_sets.clear();
        self.base_rep(0);
        self.sketch_rep(s, 0);
        let (members, level_sum) = self.build_rep(0);
        self.mean_level = if members == 0 {
            1.0
        } else {
            level_sum as f64 / members as f64
        };
        let reps = planned_reps(
            spec.target_recall,
            self.mean_level,
            resemblance_hint(s, pred),
        );
        for rep in 1..reps {
            if !budget.proceed() {
                break;
            }
            self.base_rep(rep as u32);
            self.sketch_rep(s, rep as u32);
            self.build_rep(rep);
        }
        self.reps = self.roots.len();
    }

    /// Descend the tree of repetition `rep` with `probe`'s own coordinates;
    /// the reached leaf (if any) is the candidate bucket.
    pub(crate) fn probe(&self, probe: SetRef<'_>, rep: usize) -> Option<&[u32]> {
        let mut node = self.roots[rep];
        if node == EMPTY {
            return None;
        }
        let ranks = probe.ranks();
        if ranks.is_empty() {
            return None;
        }
        let bases = &self.rank_base[rep * self.universe..(rep + 1) * self.universe];
        for level in 0..MAX_LEVELS {
            let (start, end) = self.nodes[node as usize];
            if start != EMPTY {
                return Some(&self.leaf_sets[start as usize..end as usize]);
            }
            let key = argmin_rank(bases, self.seed, rep as u32, level, ranks);
            node = *self
                .edges
                .get(&((u64::from(node) << 32) | u64::from(key)))?;
        }
        let (start, end) = self.nodes[node as usize];
        // Nodes at MAX_LEVELS are leaves by construction.
        (start != EMPTY).then(|| &self.leaf_sets[start as usize..end as usize])
    }

    /// The leaf bucket holding indexed set `id` in repetition `rep` — the
    /// self-join fast path. Equivalent to [`ApproxSketch::probe`] with the
    /// set's own `SetRef` (the descent follows the set's own coordinates,
    /// which is exactly the path the build hung it under), but a single
    /// table lookup instead of hashing every token per level.
    pub(crate) fn own_leaf(&self, id: u32, rep: usize) -> Option<&[u32]> {
        let node = self.leaf_of[rep * self.n + id as usize];
        (node != EMPTY).then(|| {
            let (start, end) = self.nodes[node as usize];
            &self.leaf_sets[start as usize..end as usize]
        })
    }

    /// Heap bytes currently reserved by the sketch's pooled buffers.
    pub(crate) fn bytes_reserved(&self) -> u64 {
        vec_bytes(&self.sketch)
            + vec_bytes(&self.rank_base)
            + vec_bytes(&self.leaf_of)
            + vec_bytes(&self.roots)
            + vec_bytes(&self.nodes)
            + vec_bytes(&self.leaf_sets)
            + vec_bytes(&self.order)
            // Hash-map entries: key + value + control byte, rounded up.
            + self.edges.capacity() as u64 * 16
    }
}

/// Per-pair resemblance hint derived from the predicate: the required
/// overlap at the collection's mid norm, as a fraction of that norm, mapped
/// through the two-sided containment→resemblance identity `j = f/(2−f)`.
/// Heuristic by design — it only calibrates the repetition count; recall is
/// measured, not assumed.
fn resemblance_hint(s: &SetCollection, pred: &OverlapPredicate) -> f64 {
    let Some((lo, hi)) = s.norm_range() else {
        return 0.5;
    };
    let mid = 0.5 * (lo + hi);
    if !mid.is_finite() || mid <= 0.0 {
        return 0.5;
    }
    let frac = (pred.required_overlap(mid, mid).to_f64() / mid).clamp(0.05, 0.98);
    (frac / (2.0 - frac)).clamp(0.05, 0.98)
}

/// Expected per-repetition leaf-collision probability of a matching pair.
/// A pair of resemblance x collides at a depth-d leaf with probability
/// ≈ x^d; matching pairs are assumed uniform on `[j, 1]` (from the
/// predicate margin up to exact duplicates), giving
/// `E[x^d] = (1 − j^{d+1}) / ((d + 1)(1 − j))`. A point estimate at the
/// margin alone would be far too pessimistic — at low thresholds it plans
/// the full repetition cap even though most real matches are near-duplicates
/// that collide almost every repetition.
fn collision_probability(j: f64, mean_level: f64) -> f64 {
    let d = mean_level.max(1.0);
    if j >= 1.0 - 1e-9 {
        return 0.95;
    }
    ((1.0 - j.powf(d + 1.0)) / ((d + 1.0) * (1.0 - j))).clamp(0.02, 0.95)
}

/// Repetitions needed for `1 − (1 − p)^L ≥ target` under the
/// [`collision_probability`] estimate `p`, clamped to `[1, MAX_REPS]`.
fn planned_reps(target: f64, mean_level: f64, j: f64) -> usize {
    let p = collision_probability(j, mean_level);
    let l = ((1.0 - target).max(f64::MIN_POSITIVE).ln() / (1.0 - p).ln()).ceil();
    (l as usize).clamp(1, MAX_REPS)
}

/// The candidate-generation + verification loop: per probe set, gather the
/// leaf buckets of every repetition (stamp-deduplicated), then verify each
/// candidate through the unmodified exact tail — the same bitmap prune,
/// [`verify_overlap`] kernel, and budget checkpoints the prefix family runs.
#[allow(clippy::too_many_arguments)]
fn candidate_phase(
    r: &SetCollection,
    s: &SetCollection,
    sketch: &ApproxSketch,
    pred: &OverlapPredicate,
    ctx: &ExecContext,
    budget: &BudgetState,
    workers: &mut Vec<WorkerScratch>,
    out: &mut Vec<JoinPair>,
) -> SsJoinStats {
    // Self-joins (probe collection IS the indexed collection) resolve each
    // probe's leaf by table lookup instead of re-hashing its tokens; the
    // leaves reached are identical, only cheaper to find.
    let same = std::ptr::eq(r, s);
    run_chunked(r.len(), ctx.threads, workers, out, |range, scratch| {
        let mut stats = SsJoinStats::default();
        scratch.stamp.clear();
        scratch.stamp.resize(s.len(), u32::MAX);
        scratch.candidates.clear();
        let stamp = &mut scratch.stamp;
        let candidates = &mut scratch.candidates;
        let pairs = &mut scratch.pairs;
        for rid in range {
            debug_assert_ne!(
                rid as u32,
                u32::MAX,
                "rid collides with the stamp sentinel; collection exceeds the id space"
            );
            let out_before = pairs.len();
            let rset = r.set(rid as u32);
            if rset.is_empty() {
                continue;
            }
            candidates.clear();
            for rep in 0..sketch.reps {
                let leaf = if same {
                    sketch.own_leaf(rid as u32, rep)
                } else {
                    sketch.probe(rset, rep)
                };
                let Some(leaf) = leaf else {
                    continue;
                };
                for &sid in leaf {
                    stats.join_tuples += 1;
                    if stamp[sid as usize] != rid as u32 {
                        stamp[sid as usize] = rid as u32;
                        candidates.push(sid);
                    }
                }
            }
            stats.candidate_pairs += candidates.len() as u64;
            if candidates.is_empty() {
                continue;
            }
            candidates.sort_unstable();
            if !budget.checkpoint(candidates.len() as u64, 0) {
                break;
            }
            for &sid in candidates.iter() {
                let sset = s.set(sid);
                let required = pred.required_overlap(rset.norm(), sset.norm());
                if ctx.bitmap_filter {
                    stats.bitmap_probes += 1;
                    if rset.wide_overlap_bound(sset) < required {
                        stats.bitmap_prunes += 1;
                        continue; // signature proves the merge can't reach the threshold
                    }
                }
                stats.verified_pairs += 1;
                if let Some(overlap) = verify_overlap(rset, sset, required, &mut stats) {
                    pairs.push(JoinPair {
                        r: rid as u32,
                        s: sid,
                        overlap,
                    });
                }
            }
            if !budget.checkpoint(0, (pairs.len() - out_before) as u64) {
                break;
            }
        }
        stats
    })
}

/// The [`PlanChoice`] record of an approximate run: the verification-side
/// knobs come from the context verbatim (approximation replaces candidate
/// generation only), `cost` is 0 because the cost model never priced the
/// run, and the recall target is stamped so the plan is distinguishable
/// from any exact configuration.
fn approx_plan(algorithm: Algorithm, ctx: &ExecContext, spec: &ApproxSpec) -> PlanChoice {
    PlanChoice {
        algorithm,
        bitmap_filter: ctx.bitmap_filter,
        threads: ctx.threads,
        cost: 0,
        partitions: 0,
        approx_recall_milli: Some(spec.recall_milli()),
    }
}

/// Execute an approximate join: build (or rebuild) the sketch over `s` into
/// the workspace pool, then [`probe_built`] it. `algorithm` is the caller's
/// configured algorithm — approximation bypasses the executor choice, so it
/// is echoed back (with [`Algorithm::Auto`] resolving to the inline
/// verification shape this loop actually is).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    algorithm: Algorithm,
    ctx: &ExecContext,
    spec: &ApproxSpec,
    budget: &BudgetState,
    ws: &mut JoinWorkspace,
) -> (SsJoinStats, Algorithm) {
    let mut build = SsJoinStats::default();
    let mut sketch = ws.approx.take().unwrap_or_default();
    if budget.proceed() {
        // Sketch + tree construction is the prefix-filter analog of this
        // pipeline, and is timed as such.
        timed_phase(&mut build, Phase::PrefixFilter, |_| {
            sketch.build(s, pred, spec, budget);
        });
    }
    let (mut stats, used) = probe_built(r, s, &sketch, pred, algorithm, ctx, spec, budget, ws);
    stats.merge(&build);
    ws.approx = Some(sketch);
    (stats, used)
}

/// Generate candidates from an already-built sketch by tree descent and
/// verify them exactly (the [`crate::CorpusIndex`] path: the sketch was
/// built once at index (re)build time, so warm probes run the candidate
/// loop only — allocation-free on a warmed workspace).
#[allow(clippy::too_many_arguments)]
pub(crate) fn probe_built(
    r: &SetCollection,
    s: &SetCollection,
    sketch: &ApproxSketch,
    pred: &OverlapPredicate,
    algorithm: Algorithm,
    ctx: &ExecContext,
    spec: &ApproxSpec,
    budget: &BudgetState,
    ws: &mut JoinWorkspace,
) -> (SsJoinStats, Algorithm) {
    let mut stats = SsJoinStats::default();
    if budget.proceed() {
        let JoinWorkspace { workers, out, .. } = ws;
        let inner = timed_phase(&mut stats, Phase::SsJoin, |_| {
            candidate_phase(r, s, sketch, pred, ctx, budget, workers, out)
        });
        stats.merge(&inner);
    }
    stats.approx_reps = sketch.reps as u64;
    let used = if algorithm == Algorithm::Auto {
        Algorithm::Inline
    } else {
        algorithm
    };
    stats.plan = Some(approx_plan(used, ctx, spec));
    (stats, used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{SsJoinInputBuilder, WeightScheme};
    use crate::order::ElementOrder;

    fn build_collection(groups: Vec<Vec<String>>) -> SetCollection {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = b.add_relation(groups);
        b.build().unwrap().collection(h).clone()
    }

    fn groups(n: usize, vocab: usize) -> Vec<Vec<String>> {
        (0..n)
            .map(|i| {
                (0..(3 + i % 5))
                    .map(|j| format!("t{}", (i * 7 + j * 13) % vocab))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn spec_validation() {
        assert!(ApproxSpec::new(0.9).validate().is_ok());
        assert!(ApproxSpec::new(1.0).validate().is_ok());
        assert!(!ApproxSpec::new(1.0).is_active());
        assert!(ApproxSpec::new(0.999).is_active());
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(ApproxSpec::new(bad).validate().is_err(), "{bad}");
        }
        assert_eq!(ApproxSpec::new(0.9).recall_milli(), 900);
    }

    #[test]
    fn token_hash_is_deterministic_and_family_dependent() {
        assert_eq!(base_hash(1, 2, 4), base_hash(1, 2, 4));
        assert_ne!(base_hash(1, 2, 4), base_hash(2, 2, 4), "seed must matter");
        assert_ne!(base_hash(1, 2, 4), base_hash(1, 3, 4), "rep must matter");
        assert_ne!(base_hash(1, 2, 4), base_hash(1, 2, 5), "rank must matter");
        let b = base_hash(1, 2, 4);
        for k in 1..MAX_LEVELS {
            assert_ne!(level_hash(b, 0), level_hash(b, k), "level must matter");
        }
    }

    #[test]
    fn argmin_is_a_member_token() {
        let ranks = [3u32, 17, 42, 99];
        // Exercise both the cached-base path and the fallback (empty table).
        let bases: Vec<u64> = (0..100).map(|rank| base_hash(7, 0, rank)).collect();
        for level in 0..MAX_LEVELS {
            let m = argmin_rank(&bases, 7, 0, level, &ranks);
            assert!(ranks.contains(&m));
            assert_eq!(m, argmin_rank(&[], 7, 0, level, &ranks));
        }
        assert_eq!(argmin_rank(&bases, 7, 0, 0, &[]), EMPTY);
    }

    #[test]
    fn planned_reps_monotone_in_target() {
        let low = planned_reps(0.5, 2.0, 0.7);
        let high = planned_reps(0.95, 2.0, 0.7);
        assert!(high >= low, "{high} >= {low}");
        assert!(low >= 1 && high <= MAX_REPS);
    }

    #[test]
    fn sketch_leaves_partition_under_shared_tokens() {
        let c = build_collection(groups(120, 23));
        let pred = OverlapPredicate::two_sided(0.7);
        let spec = ApproxSpec::new(0.9);
        let budget_cfg = crate::budget::ExecBudget::default();
        let budget = BudgetState::new(&budget_cfg, None);
        let mut sketch = ApproxSketch::default();
        sketch.build(&c, &pred, &spec, &budget);
        assert!(sketch.reps >= 1);
        // Every set finds its own leaf and the leaf contains the set itself;
        // every leaf-mate shares at least one token with the probe.
        for id in 0..c.len() as u32 {
            let set = c.set(id);
            let leaf = sketch.probe(set, 0).expect("own leaf must be reachable");
            assert!(leaf.contains(&id), "set {id} missing from its own leaf");
            // The self-join fast path must resolve the identical bucket.
            assert_eq!(sketch.own_leaf(id, 0), Some(leaf));
            for &mate in leaf {
                let mset = c.set(mate);
                let shares = set
                    .ranks()
                    .iter()
                    .any(|rank| mset.ranks().binary_search(rank).is_ok());
                assert!(shares, "leaf mates {id}/{mate} share no token");
            }
        }
    }

    #[test]
    fn rebuild_reuses_capacity_and_is_deterministic() {
        let c = build_collection(groups(80, 19));
        let pred = OverlapPredicate::two_sided(0.8);
        let spec = ApproxSpec::new(0.85);
        let budget_cfg = crate::budget::ExecBudget::default();
        let budget = BudgetState::new(&budget_cfg, None);
        let mut a = ApproxSketch::default();
        a.build(&c, &pred, &spec, &budget);
        let first = (a.roots.clone(), a.nodes.clone(), a.leaf_sets.clone());
        a.build(&c, &pred, &spec, &budget);
        assert_eq!(
            first,
            (a.roots.clone(), a.nodes.clone(), a.leaf_sets.clone())
        );
        let mut b = ApproxSketch::default();
        b.build(&c, &pred, &spec, &budget);
        assert_eq!(first, (b.roots, b.nodes, b.leaf_sets));
        assert!(a.bytes_reserved() > 0);
    }

    #[test]
    fn different_seeds_change_the_tree() {
        let c = build_collection(groups(100, 17));
        let pred = OverlapPredicate::two_sided(0.8);
        let budget_cfg = crate::budget::ExecBudget::default();
        let budget = BudgetState::new(&budget_cfg, None);
        let mut a = ApproxSketch::default();
        a.build(&c, &pred, &ApproxSpec::new(0.9), &budget);
        let mut b = ApproxSketch::default();
        b.build(&c, &pred, &ApproxSpec::new(0.9).with_seed(12345), &budget);
        assert_ne!(a.sketch, b.sketch, "seed must steer the hash families");
    }

    #[test]
    fn empty_collection_probes_nothing() {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
        let h = b.add_relation(vec![vec!["x".to_string()]]);
        let empty = b.add_relation(Vec::new());
        let built = b.build().unwrap();
        let probe_c = built.collection(h).clone();
        let c = built.collection(empty).clone();
        let pred = OverlapPredicate::absolute(1.0);
        let budget_cfg = crate::budget::ExecBudget::default();
        let budget = BudgetState::new(&budget_cfg, None);
        let mut sketch = ApproxSketch::default();
        sketch.build(&c, &pred, &ApproxSpec::new(0.9), &budget);
        for rep in 0..sketch.reps {
            assert!(sketch.probe(probe_c.set(0), rep).is_none());
        }
    }
}
