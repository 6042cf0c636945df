//! Out-of-core execution: token-range partitioned joins under a hard
//! resident-memory budget.
//!
//! The paper frames SSJoin as a primitive inside a DBMS operator tree, and
//! physical operators in that setting are expected to degrade gracefully
//! past RAM rather than refuse the input. This module turns the memory cap
//! from a rejection ([`crate::budget::estimate_memory_bytes`] preflight)
//! into an execution strategy: when the resident estimate exceeds
//! [`crate::ExecBudget::max_resident_bytes`], the join is split into
//! token-range partitions sized to fit, each partition's CSR sub-arena is
//! serialized to a checksummed temp-dir spill file
//! ([`crate::io::write_spill_frame`]), and partitions are read back and
//! joined one at a time through the ordinary executors — so only one
//! partition's sub-arena, inverted index, and scratch are resident at any
//! moment.
//!
//! # Decomposition
//!
//! Partition `p` owns the global element-rank range `[cuts[p], cuts[p+1])`.
//! A set belongs to every partition whose range contains at least one of
//! its ranks, and its **full** contents ride along (so per-partition norms,
//! total weights, and suffix bounds are exact and the executors run
//! unmodified). Each partition therefore finds every qualifying pair whose
//! two sets both touch its range; a pair is *emitted* only by the partition
//! whose range contains the pair's first (smallest) shared rank — an
//! exactly-once ownership rule — so the union over partitions is exactly the in-memory result.
//!
//! # Determinism
//!
//! Within a partition, global ranks are remapped to a dense local universe
//! by a monotone map (so universe-sized arrays shrink with the partition).
//! A monotone rank remap preserves set order, prefix order, and the weight
//! of every shared element, so each partition's executor output is the
//! exact pairs-with-overlaps restricted to that partition, sorted by
//! `(r, s)` in *global* id order (local ids are assigned in ascending
//! global id order). The per-partition outputs are pair-disjoint sorted
//! runs; the k-way run merge ([`JoinWorkspace::merge_sorted_runs`]) produces
//! their unique sorted interleaving — bit for bit the output of an
//! unbudgeted in-memory run. The bitmap-signature filter is lossless, so
//! recomputed local signatures change counters, never output.
//!
//! # Choosing the partition count
//!
//! A resident run costs no extra I/O and no replication, so it is taken
//! whenever the estimate fits the budget. Past that, every added partition
//! costs another slice of set replication (a set with ranks in `k` ranges
//! is serialized and re-joined `k` times) plus its share of the two I/O
//! passes, so the spill planner picks the **smallest** partition count
//! (doubling from 2) whose peak per-partition resident estimate fits. The
//! choice is recorded in [`SsJoinStats::spill_partitions`].

use crate::budget::BudgetState;
use crate::error::SsJoinResult;
use crate::exec::{run_algorithm, Algorithm, ExecContext, JoinPair, JoinWorkspace};
use crate::io::{
    bad, read_spill_frame, read_spill_header, write_spill_frame, write_spill_header, TempSpillFile,
};
use crate::predicate::OverlapPredicate;
use crate::set::{SetCollection, SIG_WORDS};
use crate::stats::SsJoinStats;
use crate::weight::Weight;
use std::io::{BufReader, BufWriter, Seek, SeekFrom, Write};

/// Hard ceiling on the partition count: past this, per-partition fixed
/// overheads dominate and the run completes best-effort over the budget
/// rather than splitting further.
pub(crate) const MAX_PARTITIONS: usize = 256;

/// A spill execution plan: where to cut the global rank space, and what the
/// heaviest partition is expected to hold resident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillPlan {
    /// `partitions() + 1` ascending rank cut points; partition `p` owns
    /// `[cuts[p], cuts[p+1])`. `cuts[0] == 0`, last element is the universe
    /// size.
    cuts: Vec<u32>,
    /// Peak per-partition resident estimate (bytes), by the same model as
    /// [`crate::budget::estimate_memory_bytes`].
    peak_resident_bytes: u64,
}

impl SpillPlan {
    /// Number of token-range partitions.
    pub fn partitions(&self) -> usize {
        self.cuts.len().saturating_sub(1)
    }

    /// Peak per-partition resident estimate in bytes.
    pub fn peak_resident_bytes(&self) -> u64 {
        self.peak_resident_bytes
    }
}

/// Reusable buffers for the out-of-core path, pooled on the
/// [`JoinWorkspace`] so repeated spilled runs stop allocating once every
/// buffer has warmed to the largest partition seen.
#[derive(Debug)]
pub(crate) struct SpillScratch {
    /// Workspace the per-partition joins run in (indexes, stamps, output).
    inner: JoinWorkspace,
    /// Recycled sub-collections (reset per partition, capacity retained).
    sub_r: SetCollection,
    sub_s: SetCollection,
    /// Frame payload buffer (encode on write, decode on read).
    frame: Vec<u8>,
    /// Universe-sized rank → local-rank table (`u32::MAX` = absent).
    remap: Vec<u32>,
    /// Global group ids of the current partition's sets, per side, indexed
    /// by local set id.
    r_gids: Vec<u32>,
    s_gids: Vec<u32>,
    /// Per-set decode scratch.
    ranks_buf: Vec<u32>,
    weights_buf: Vec<Weight>,
    /// Member group ids of the partition being written, per side — filled
    /// by one membership scan and reused by the encoder, so each partition
    /// costs one pass over the parent arenas instead of two.
    members_r: Vec<u32>,
    members_s: Vec<u32>,
    /// Planning scratch: per-partition set/tuple tallies.
    tally: PartitionTally,
    /// The active plan's cut points.
    cuts: Vec<u32>,
}

#[derive(Debug, Default)]
struct PartitionTally {
    r_sets: Vec<u64>,
    s_sets: Vec<u64>,
    r_tuples: Vec<u64>,
    s_tuples: Vec<u64>,
}

impl PartitionTally {
    fn reset(&mut self, partitions: usize) {
        for v in [
            &mut self.r_sets,
            &mut self.s_sets,
            &mut self.r_tuples,
            &mut self.s_tuples,
        ] {
            v.clear();
            v.resize(partitions, 0);
        }
    }
}

impl SpillScratch {
    fn new(template: &SetCollection) -> Self {
        Self {
            inner: JoinWorkspace::new(),
            sub_r: template.empty_like(),
            sub_s: template.empty_like(),
            frame: Vec::new(),
            remap: Vec::new(),
            r_gids: Vec::new(),
            s_gids: Vec::new(),
            ranks_buf: Vec::new(),
            weights_buf: Vec::new(),
            members_r: Vec::new(),
            members_s: Vec::new(),
            tally: PartitionTally::default(),
            cuts: Vec::new(),
        }
    }

    pub(crate) fn bytes_reserved(&self) -> u64 {
        use crate::exec::vec_bytes;
        self.inner.bytes_reserved()
            + vec_bytes(&self.frame)
            + vec_bytes(&self.remap)
            + vec_bytes(&self.r_gids)
            + vec_bytes(&self.s_gids)
            + vec_bytes(&self.ranks_buf)
            + vec_bytes(&self.weights_buf)
            + vec_bytes(&self.members_r)
            + vec_bytes(&self.members_s)
            + vec_bytes(&self.cuts)
    }
}

/// Resident estimate (bytes) of joining one partition, mirroring
/// [`crate::budget::estimate_memory_bytes`] over partition-local
/// quantities, plus the frame read-back buffer the spill path itself holds
/// while that partition is live.
fn partition_estimate(
    local_universe: u64,
    r_sets: u64,
    s_sets: u64,
    r_tuples: u64,
    s_tuples: u64,
) -> u64 {
    let tuples = r_tuples + s_tuples;
    let sets = r_sets + s_sets;
    let postings = 2 * (2 * local_universe + 1) * 4 + tuples * 4;
    let scratch = s_sets * 16;
    let prefix_tables = sets * 8;
    let signatures = sets * (SIG_WORDS as u64 * 8);
    let token_freq = 2 * local_universe * 4;
    // Frame buffer: 12 bytes per element (rank + weight) + 16 per set
    // header, held while the partition is decoded and joined.
    let frame = tuples * 12 + sets * 16;
    postings + scratch + prefix_tables + signatures + token_freq + frame
}

/// Token mass of rank `t` across both sides — the quantity the cut points
/// balance. Saturating: the statistics histograms saturate too.
fn mass(r_freq: &[u32], s_freq: &[u32], t: usize) -> u64 {
    let a = r_freq.get(t).copied().unwrap_or(0) as u64;
    let b = s_freq.get(t).copied().unwrap_or(0) as u64;
    a + b
}

/// Place `target` balanced cut points over the token-mass histogram.
/// Produces strictly ascending cuts (duplicates collapse, so fewer actual
/// partitions can result when mass is concentrated on few ranks).
fn balanced_cuts(r: &SetCollection, s: &SetCollection, target: usize, cuts: &mut Vec<u32>) {
    let universe = r.universe_size().max(s.universe_size());
    let r_freq = r.token_freq();
    let s_freq = s.token_freq();
    let mut total = 0u64;
    for t in 0..universe {
        total = total.saturating_add(mass(r_freq, s_freq, t));
    }
    cuts.clear();
    cuts.push(0);
    if total > 0 {
        let mut acc = 0u64;
        let mut next = 1usize;
        for t in 0..universe {
            acc = acc.saturating_add(mass(r_freq, s_freq, t));
            while next < target && acc.saturating_mul(target as u64) >= total * next as u64 {
                cuts.push((t + 1) as u32);
                next += 1;
            }
        }
    }
    cuts.push(universe as u32);
    cuts.dedup();
}

/// Tally per-partition set and tuple counts for one side under `cuts`. A
/// set is charged its **full** length to every partition it intersects —
/// exactly what the spill writer will serialize for it.
fn tally_side(c: &SetCollection, cuts: &[u32], sets: &mut [u64], tuples: &mut [u64]) {
    for set in c.iter() {
        let ranks = set.ranks();
        if ranks.is_empty() {
            continue;
        }
        let mut p = 0usize;
        let mut i = 0usize;
        while i < ranks.len() {
            while p + 1 < cuts.len() && cuts[p + 1] <= ranks[i] {
                p += 1;
            }
            if p + 1 >= cuts.len() {
                break;
            }
            sets[p] += 1;
            tuples[p] += ranks.len() as u64;
            // Skip the rest of this partition's ranks.
            i += ranks[i..].partition_point(|&t| t < cuts[p + 1]);
        }
    }
}

/// Peak per-partition resident estimate under `cuts`, filling `tally`.
fn plan_peak(
    r: &SetCollection,
    s: &SetCollection,
    cuts: &[u32],
    tally: &mut PartitionTally,
) -> u64 {
    let partitions = cuts.len().saturating_sub(1);
    tally.reset(partitions);
    tally_side(r, cuts, &mut tally.r_sets, &mut tally.r_tuples);
    if std::ptr::eq(r, s) {
        tally.s_sets.copy_from_slice(&tally.r_sets);
        tally.s_tuples.copy_from_slice(&tally.r_tuples);
    } else {
        tally_side(s, cuts, &mut tally.s_sets, &mut tally.s_tuples);
    }
    let universe = r.universe_size().max(s.universe_size()) as u64;
    let mut peak = 0u64;
    for p in 0..partitions {
        let tuples = tally.r_tuples[p] + tally.s_tuples[p];
        // Local universe upper bound: a partition cannot see more distinct
        // ranks than it has tuples (nor more than the global universe).
        let local_universe = universe.min(tuples);
        peak = peak.max(partition_estimate(
            local_universe,
            tally.r_sets[p],
            tally.s_sets[p],
            tally.r_tuples[p],
            tally.s_tuples[p],
        ));
    }
    peak
}

/// Plan a spilled execution of `r ⋈ s` under a resident budget: the
/// smallest partition count (doubling from 2, up to 256)
/// whose peak per-partition resident estimate fits `max_resident_bytes`,
/// with cut points balanced over the combined token-frequency histograms.
/// When no candidate fits, the best-effort plan with the smallest peak is
/// returned (the run completes over budget rather than failing). `None`
/// when the input cannot be split (empty side, or the whole mass on one
/// rank) — callers fall back to the resident path.
pub fn plan_spill(
    r: &SetCollection,
    s: &SetCollection,
    max_resident_bytes: u64,
) -> Option<SpillPlan> {
    let mut cuts = Vec::new();
    let mut tally = PartitionTally::default();
    plan_spill_into(r, s, max_resident_bytes, &mut cuts, &mut tally).map(|peak_resident_bytes| {
        SpillPlan {
            cuts,
            peak_resident_bytes,
        }
    })
}

/// Allocation-reusing core of [`plan_spill`]: fills `cuts` and returns the
/// peak per-partition resident estimate.
fn plan_spill_into(
    r: &SetCollection,
    s: &SetCollection,
    max_resident_bytes: u64,
    cuts: &mut Vec<u32>,
    tally: &mut PartitionTally,
) -> Option<u64> {
    if r.is_empty() || s.is_empty() {
        return None;
    }
    let universe = r.universe_size().max(s.universe_size());
    let max_target = MAX_PARTITIONS.min(universe.max(1));
    let mut best: Option<(Vec<u32>, u64)> = None;
    let mut target = 2usize;
    while target <= max_target {
        balanced_cuts(r, s, target, cuts);
        if cuts.len() < 3 {
            // The mass would not split: doubling the target cannot help.
            break;
        }
        let peak = plan_peak(r, s, cuts, tally);
        let better = best.as_ref().is_none_or(|(_, bp)| peak < *bp);
        if better {
            best = Some((cuts.clone(), peak));
        }
        if peak <= max_resident_bytes {
            return Some(peak);
        }
        target *= 2;
    }
    let (best_cuts, peak) = best?;
    *cuts = best_cuts;
    // The tally must describe the *chosen* cuts, not the last candidate
    // tried — the writer serializes per-partition counts from it.
    plan_peak(r, s, cuts, tally);
    Some(peak)
}

/// Cursor over a decoded frame payload; every read is bounds-checked onto
/// the typed `Io` error path (the checksum already passed, so a short read
/// here means a bug, but the library's no-panic contract still holds).
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> SsJoinResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("spill frame truncated"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> SsJoinResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> SsJoinResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> SsJoinResult<u64> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    fn f64(&mut self) -> SsJoinResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// True when the partition owning `[local_lo, local_hi)` owns the pair: the
/// first (smallest) shared local rank of the two sets falls in the range.
/// Two-pointer over the sorted rank slices.
fn owns_pair(a: &[u32], b: &[u32], local_lo: u32, local_hi: u32) -> bool {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return a[i] >= local_lo && a[i] < local_hi,
        }
    }
    false
}

/// Serialize one side's partition members into `frame`, remapping ranks
/// through `remap`. Layout per side: `u64 count`, then per set
/// `u32 global_id | u64 norm_bits | u32 len | len × u32 local_rank |
/// len × u64 weight_raw` — ranks and weights as separate contiguous arrays,
/// so the reader decodes each with one bounds check and a tight conversion
/// loop instead of per-element cursor calls. `members` is the partition's
/// member id list (sets with at least one rank in the partition's range);
/// their full contents are written so partition-local norms and totals stay
/// exact.
fn encode_side(c: &SetCollection, members: &[u32], remap: &[u32], frame: &mut Vec<u8>) {
    push_u64(frame, members.len() as u64);
    for &id in members {
        let set = c.set(id);
        let ranks = set.ranks();
        push_u32(frame, id);
        push_u64(frame, set.norm().to_bits());
        push_u32(frame, ranks.len() as u32);
        for &t in ranks {
            push_u32(frame, remap[t as usize]);
        }
        for &w in set.weights() {
            push_u64(frame, w.raw());
        }
    }
}

/// Decode one side from the cursor into a recycled sub-collection,
/// recording global ids per local id. The rank and weight arrays are taken
/// as whole slices (one bounds check each) and converted in bulk.
fn decode_side(
    cur: &mut Cur<'_>,
    sub: &mut SetCollection,
    gids: &mut Vec<u32>,
    ranks_buf: &mut Vec<u32>,
    weights_buf: &mut Vec<Weight>,
) -> SsJoinResult<()> {
    gids.clear();
    let count = cur.u64()?;
    for _ in 0..count {
        let gid = cur.u32()?;
        let norm = cur.f64()?;
        let len = cur.u32()? as usize;
        let rank_bytes = len
            .checked_mul(4)
            .ok_or_else(|| bad("spill frame truncated"))?;
        let raw_ranks = cur.take(rank_bytes)?;
        ranks_buf.clear();
        ranks_buf.extend(
            raw_ranks
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
        let raw_weights = cur.take(len * 8)?;
        weights_buf.clear();
        weights_buf.extend(raw_weights.chunks_exact(8).map(|b| {
            let mut a = [0u8; 8];
            a.copy_from_slice(b);
            Weight::from_raw(u64::from_le_bytes(a))
        }));
        sub.push_set_presorted(ranks_buf, weights_buf, norm);
        gids.push(gid);
    }
    Ok(())
}

/// Execute `r ⋈ s` out of core under the context's
/// [`max_resident_bytes`](crate::ExecBudget::max_resident_bytes) budget:
/// plan token-range partitions, serialize every partition's sub-arena to a
/// checksummed temp spill file, then read partitions back one at a time,
/// join each through the ordinary executor for `algorithm`, keep only the
/// pairs each partition owns, and k-way merge the per-partition sorted runs
/// into `ws.out`. Returns the merged stats; every partition runs the same
/// executor, `algorithm` after [`Algorithm::resolve`].
///
/// The shared [`BudgetState`] spans the whole run: a deadline or cancel
/// tripping mid-partition aborts between (or inside) partitions, the
/// caller converts the cause into a typed `BudgetExceeded`, and the
/// [`TempSpillFile`] guard removes the spill file on every exit path.
pub(crate) fn run(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    algorithm: Algorithm,
    ctx: &ExecContext,
    budget: &BudgetState,
    ws: &mut JoinWorkspace,
) -> SsJoinResult<Option<SsJoinStats>> {
    let limit = ctx.budget.max_resident_bytes.unwrap_or(u64::MAX);
    let mut scratch = match ws.spill.take() {
        Some(s) => s,
        None => Box::new(SpillScratch::new(r)),
    };
    let result = run_inner(r, s, pred, algorithm, ctx, budget, ws, &mut scratch, limit);
    ws.spill = Some(scratch);
    result
}

#[allow(clippy::too_many_arguments)]
fn run_inner(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    algorithm: Algorithm,
    ctx: &ExecContext,
    budget: &BudgetState,
    ws: &mut JoinWorkspace,
    scratch: &mut SpillScratch,
    limit: u64,
) -> SsJoinResult<Option<SsJoinStats>> {
    // Plan. An unsplittable input falls back to the resident path.
    let Some(peak) = plan_spill_into(r, s, limit, &mut scratch.cuts, &mut scratch.tally) else {
        return Ok(None);
    };
    let partitions = scratch.cuts.len() - 1;
    #[allow(clippy::field_reassign_with_default)] // phase_times is private
    let mut stats = SsJoinStats::default();
    stats.spill_partitions = partitions as u64;
    stats.spill_peak_resident_bytes = peak;
    // The hard-rejection cap applies to what a spilled run actually holds
    // resident — the partition peak — not the full-input estimate.
    if let Some(cap) = ctx.budget.max_memory_bytes {
        if peak > cap {
            budget.trip_memory();
        }
    }
    if !budget.proceed() {
        return Ok(Some(stats));
    }

    let universe = r.universe_size().max(s.universe_size());
    let self_join = std::ptr::eq(r, s);
    let tag = r.universe_tag();

    // Write phase: one frame per partition. The guard removes the file on
    // every exit path, including budget aborts and error propagation.
    let (guard, mut file) = TempSpillFile::create()?;
    let mut spill_bytes = 0u64;
    {
        let mut writer = BufWriter::new(&mut file);
        write_spill_header(&mut writer, partitions as u32)?;
        spill_bytes += 12;
        for p in 0..partitions {
            if !budget.proceed() {
                drop(writer);
                drop(guard);
                return Ok(Some(stats));
            }
            let (lo, hi) = (scratch.cuts[p], scratch.cuts[p + 1]);
            // One pass per side: collect member ids and mark every rank they
            // carry, then assign dense local ids in ascending rank order (a
            // monotone remap). The encoder reuses the member lists, so the
            // parent arenas are scanned once per partition, not twice.
            scratch.remap.clear();
            scratch.remap.resize(universe, u32::MAX);
            let mut collect = |c: &SetCollection, members: &mut Vec<u32>| {
                members.clear();
                for (id, set) in c.iter().enumerate() {
                    let ranks = set.ranks();
                    let at = ranks.partition_point(|&t| t < lo);
                    if at >= ranks.len() || ranks[at] >= hi {
                        continue;
                    }
                    members.push(id as u32);
                    for &t in ranks {
                        scratch.remap[t as usize] = 0;
                    }
                }
            };
            let mut members_r = std::mem::take(&mut scratch.members_r);
            let mut members_s = std::mem::take(&mut scratch.members_s);
            collect(r, &mut members_r);
            if !self_join {
                collect(s, &mut members_s);
            }
            let (mut next, mut local_lo, mut local_hi) = (0u32, 0u32, 0u32);
            for (t, slot) in scratch.remap.iter_mut().enumerate() {
                if t as u32 == lo {
                    local_lo = next;
                }
                if t as u32 == hi {
                    local_hi = next;
                }
                if *slot == 0 {
                    *slot = next;
                    next += 1;
                }
            }
            if hi as usize == universe {
                local_hi = next;
            }
            scratch.frame.clear();
            push_u32(&mut scratch.frame, next);
            push_u32(&mut scratch.frame, local_lo);
            push_u32(&mut scratch.frame, local_hi);
            scratch.frame.push(u8::from(self_join));
            encode_side(r, &members_r, &scratch.remap, &mut scratch.frame);
            if !self_join {
                encode_side(s, &members_s, &scratch.remap, &mut scratch.frame);
            }
            scratch.members_r = members_r;
            scratch.members_s = members_s;
            write_spill_frame(&mut writer, &scratch.frame)?;
            spill_bytes += 16 + scratch.frame.len() as u64;
        }
        writer.flush()?;
    }
    stats.spill_bytes = spill_bytes;

    // Read/join phase: partitions come back in write order, one resident at
    // a time. Output pairs are staged as sorted runs in worker 0 of the
    // *outer* workspace; the inner workspace hosts the partition joins.
    file.seek(SeekFrom::Start(0))?;
    let mut reader = BufReader::new(&mut file);
    let frames = read_spill_header(&mut reader)?;
    if frames as usize != partitions {
        return Err(bad("spill file partition count mismatch"));
    }
    ws.ensure_workers(1);
    {
        let w0 = &mut ws.workers[0];
        w0.pairs.clear();
        w0.runs.clear();
    }
    for _ in 0..partitions {
        if !budget.proceed() {
            break;
        }
        read_spill_frame(&mut reader, &mut scratch.frame)?;
        let mut cur = Cur {
            buf: &scratch.frame,
            pos: 0,
        };
        let local_universe = cur.u32()? as usize;
        let local_lo = cur.u32()?;
        let local_hi = cur.u32()?;
        let frame_self = cur.u8()? != 0;
        scratch.sub_r.reset_for_universe(local_universe, tag);
        decode_side(
            &mut cur,
            &mut scratch.sub_r,
            &mut scratch.r_gids,
            &mut scratch.ranks_buf,
            &mut scratch.weights_buf,
        )?;
        if !frame_self {
            scratch.sub_s.reset_for_universe(local_universe, tag);
            decode_side(
                &mut cur,
                &mut scratch.sub_s,
                &mut scratch.s_gids,
                &mut scratch.ranks_buf,
                &mut scratch.weights_buf,
            )?;
        }
        let sub_r = &scratch.sub_r;
        let sub_s = if frame_self {
            &scratch.sub_r
        } else {
            &scratch.sub_s
        };
        let s_gids = if frame_self {
            &scratch.r_gids
        } else {
            &scratch.s_gids
        };
        scratch.inner.begin_run();
        let pstats = run_algorithm(
            algorithm,
            sub_r,
            sub_s,
            pred,
            ctx,
            budget,
            &mut scratch.inner,
        );
        stats.merge(&pstats);
        // Ownership filter + global-id remap. Local ids ascend with global
        // ids (encode order), so the surviving pairs stay `(r, s)`-sorted
        // in global id space: one sorted run per partition.
        let w0 = &mut ws.workers[0];
        let start = w0.pairs.len();
        for pair in &scratch.inner.out {
            let a = sub_r.set(pair.r).ranks();
            let b = sub_s.set(pair.s).ranks();
            if owns_pair(a, b, local_lo, local_hi) {
                w0.pairs.push(JoinPair {
                    r: scratch.r_gids[pair.r as usize],
                    s: s_gids[pair.s as usize],
                    overlap: pair.overlap,
                });
            }
        }
        if w0.pairs.len() > start {
            w0.runs.push((start, w0.pairs.len()));
        }
        if budget.cause().is_some() {
            break;
        }
    }
    drop(reader);
    drop(guard);

    // Deterministic, sort-free k-way merge of the pair-disjoint
    // per-partition runs.
    ws.merge_sorted_runs();
    // Run-level spill facts survive the per-partition merges (which carry
    // zeros for them); restate them on the final record.
    stats.spill_partitions = partitions as u64;
    stats.spill_bytes = spill_bytes;
    stats.spill_peak_resident_bytes = peak;
    Ok(Some(stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{SsJoinInputBuilder, WeightScheme};
    use crate::order::ElementOrder;

    fn build(groups: Vec<Vec<String>>) -> SetCollection {
        let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
        let h = b.add_relation(groups);
        b.build().unwrap().collection(h).clone()
    }

    fn corpus(n: usize, vocab: usize) -> SetCollection {
        build(
            (0..n)
                .map(|i| {
                    (0..(3 + i % 4))
                        .map(|j| format!("t{}", (i * 7 + j * 5) % vocab))
                        .collect()
                })
                .collect(),
        )
    }

    #[test]
    fn plan_splits_and_fits_generous_budget() {
        let c = corpus(200, 97);
        let est = crate::budget::estimate_memory_bytes(&c, &c);
        let plan = plan_spill(&c, &c, est / 2).expect("splittable corpus");
        assert!(plan.partitions() >= 2, "{plan:?}");
        assert!(plan.peak_resident_bytes() > 0);
        // A tighter budget never plans *fewer* partitions.
        let tight = plan_spill(&c, &c, est / 8).expect("splittable corpus");
        assert!(
            tight.partitions() >= plan.partitions(),
            "{tight:?} vs {plan:?}"
        );
    }

    #[test]
    fn plan_rejects_empty_and_degenerate_inputs() {
        let empty = build(vec![]);
        assert!(plan_spill(&empty, &empty, 1).is_none());
        // One distinct token: all mass on one rank, nothing to split.
        let one = build(vec![vec!["x".into()], vec!["x".into()]]);
        assert!(plan_spill(&one, &one, 1).is_none());
    }

    #[test]
    fn tiny_budget_caps_partitions() {
        let c = corpus(300, 113);
        let plan = plan_spill(&c, &c, 1).expect("splittable corpus");
        assert!(plan.partitions() <= MAX_PARTITIONS);
        assert!(plan.partitions() >= 2);
        // Best effort: the peak exceeds the absurd budget but the plan is
        // still returned so the run completes.
        assert!(plan.peak_resident_bytes() > 1);
    }

    #[test]
    fn owns_pair_picks_first_shared_rank() {
        // First shared rank is 5.
        assert!(owns_pair(&[1, 5, 9], &[2, 5, 9], 3, 7));
        assert!(!owns_pair(&[1, 5, 9], &[2, 5, 9], 6, 10));
        assert!(!owns_pair(&[1, 2], &[3, 4], 0, 10)); // nothing shared
        assert!(owns_pair(&[0], &[0], 0, 1));
    }

    #[test]
    fn tally_charges_full_length_per_intersected_partition() {
        // Set {0, 5} under cuts [0, 3, 8]: intersects both partitions,
        // charged its full length (2) to each.
        let c = build(vec![vec!["a".into(), "b".into()]]);
        // Build a synthetic cuts vector over the 2-rank universe.
        let cuts = [0u32, 1, 2];
        let mut sets = vec![0u64; 2];
        let mut tuples = vec![0u64; 2];
        tally_side(&c, &cuts, &mut sets, &mut tuples);
        assert_eq!(sets, vec![1, 1]);
        assert_eq!(tuples, vec![2, 2]);
    }

    #[test]
    fn frame_cursor_rejects_truncation() {
        let mut cur = Cur {
            buf: &[1, 2],
            pos: 0,
        };
        assert!(cur.u32().is_err());
    }
}
