//! Out-of-core execution: token-range partitioned joins under a hard
//! resident-memory budget.
//!
//! The paper frames SSJoin as a primitive inside a DBMS operator tree, and
//! physical operators in that setting are expected to degrade gracefully
//! past RAM rather than refuse the input. This module makes the memory cap
//! an execution strategy: when the resident estimate
//! ([`crate::budget::estimate_memory_bytes`]) exceeds
//! [`crate::ExecBudget::max_resident_bytes`], the join is split into
//! token-range partitions sized to fit, and partitions are built and joined
//! one at a time through the ordinary executors — so only one partition's
//! sub-arena, inverted index, and scratch are resident at any moment. Each
//! partition's CSR sub-arena is copied straight from the input collections,
//! which stay resident for the whole run: the budget bounds the join's
//! working set, not the process, and no temp file is written.
//!
//! # Decomposition
//!
//! Partition `p` owns the global element-rank range `[cuts[p], cuts[p+1])`.
//! A set is **routed** to every partition whose range holds a rank of its
//! routing prefix: the Lemma-1 prefix the executors themselves probe with,
//! computed against the partner side's global norm range. In a self-join a
//! set plays both the R and the S role, so it routes by the longer of its
//! two prefixes (an asymmetric predicate gives the roles different
//! lengths). A set whose prefix is empty can join nothing and goes nowhere.
//! The routed set's **full** contents ride along, so per-partition norms,
//! total weights, and suffix bounds are exact and the executors run
//! unmodified. A sub-arena copies ranks only; a weighted input's weights go
//! into one pooled local table per partition (local rank → the global
//! rank's weight), which both sub-collections share.
//!
//! A pair is *emitted* only by the partition whose range contains the
//! pair's first (smallest) shared rank — an exactly-once ownership rule.
//! By Lemma 1 that rank lies in both sets' prefixes (were it in either
//! suffix, every shared element would be, and the overlap would fall short
//! of the bound the prefix was cut at), so the owning partition holds both
//! sets and finds the pair: the union over partitions is exactly the
//! in-memory result. A set is thus replicated once per range its prefix
//! touches, not once per range its full contents touch.
//!
//! # Determinism
//!
//! Within a partition, global ranks are remapped to a dense local universe
//! by a monotone map (so universe-sized arrays shrink with the partition).
//! A monotone rank remap preserves set order, prefix order, and the weight
//! of every shared element, so each partition's executor output is the
//! exact pairs-with-overlaps restricted to that partition, sorted by
//! `(r, s)` in *global* id order (local ids are assigned in ascending
//! global id order). The per-partition outputs are pair-disjoint, so one
//! in-place `(r, s)` sort of their concatenation is bit for bit the output
//! of an unbudgeted in-memory run. The bitmap-signature filter is lossless,
//! so recomputed local signatures change counters, never output.
//!
//! A filtered run tests ownership before it calls the caller's filter on
//! the pair's global ids; local ids are monotone in global ids, so each
//! partition hands the filter exactly the owned pairs a resident run would.
//!
//! # Choosing the partition count
//!
//! A resident run costs no replication, so it is taken whenever the
//! estimate fits the budget. Past that, every added partition costs another
//! slice of set replication (a set whose prefix has ranks in `k` ranges is
//! copied and re-joined `k` times) plus its own index build, so the spill
//! planner picks the **smallest** partition count (doubling from 2) whose
//! peak per-partition resident estimate fits. The planner and the driver
//! route through the same function, so the planned per-partition tallies
//! are exactly the sets the driver copies. The choice is recorded in
//! [`SsJoinStats::spill_partitions`], and a plan that cannot fit shows as
//! [`SsJoinStats::spill_peak_resident_bytes`] above the budget.

use crate::exec::{
    prefix_lengths_into, run_algorithm, Algorithm, ExecContext, JoinPair, JoinWorkspace, OutPair,
    Side, Sink,
};
use crate::predicate::OverlapPredicate;
use crate::set::{SetCollection, WeightTable};
use crate::stats::SsJoinStats;
use crate::weight::Weight;
use std::sync::Arc;

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

/// One side's routing: every set's routing-prefix length and, once the cuts
/// are fixed, the member ids of every partition in CSR form —
/// `members[offsets[p]..offsets[p + 1]]`, ascending within each partition.
#[derive(Debug, Default)]
struct Routing {
    lens: Vec<u32>,
    offsets: Vec<usize>,
    members: Vec<u32>,
}

impl Routing {
    /// Member ids of partition `p`.
    fn members(&self, p: usize) -> &[u32] {
        &self.members[self.offsets[p]..self.offsets[p + 1]]
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
    /// The partition's local weight table (local rank → weight), refilled
    /// in place per partition of a weighted input and shared by `sub_r` and
    /// `sub_s`.
    weights: WeightTable,
    /// Universe-sized rank → local-rank table (`u32::MAX` = absent).
    remap: Vec<u32>,
    /// Distinct global ranks of the partition being built.
    touched: Vec<u32>,
    /// One set's remapped ranks, staged for the sub-arena.
    ranks_buf: Vec<u32>,
    /// The active plan: routing, cut points, per-partition tallies.
    planner: Planner,
}

/// The spill planner's pooled state: both sides' routing, the routed-mass
/// histogram the cut points balance, the chosen cuts, and their
/// per-partition tallies.
#[derive(Debug, Default)]
struct Planner {
    route_r: Routing,
    route_s: Routing,
    mass: Vec<u64>,
    cuts: Vec<u32>,
    tally: PartitionTally,
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
    fn new() -> Self {
        Self {
            inner: JoinWorkspace::new(),
            sub_r: SetCollection::empty(0, 0, None),
            sub_s: SetCollection::empty(0, 0, None),
            weights: None,
            remap: Vec::new(),
            touched: Vec::new(),
            ranks_buf: Vec::new(),
            planner: Planner::default(),
        }
    }

    pub(crate) fn bytes_reserved(&self) -> u64 {
        use crate::exec::vec_bytes;
        let route =
            |x: &Routing| vec_bytes(&x.lens) + vec_bytes(&x.offsets) + vec_bytes(&x.members);
        let plan = &self.planner;
        self.inner.bytes_reserved()
            + self.weights.as_deref().map_or(0, vec_bytes)
            + vec_bytes(&self.remap)
            + vec_bytes(&self.touched)
            + vec_bytes(&self.ranks_buf)
            + route(&plan.route_r)
            + route(&plan.route_s)
            + vec_bytes(&plan.mass)
            + vec_bytes(&plan.cuts)
    }
}

/// Resident estimate (bytes) of joining one partition of `input`: the
/// [`crate::budget::estimate_memory_bytes`] model over partition-local
/// quantities, plus the partition's own sub-arena, which that model (built
/// for inputs that are already resident) does not charge:
/// [`SetCollection::bytes_per_element`] per copied element, 16 per set,
/// and, for a weighted input, the local weight table (8 bytes per local
/// rank). Per-set records are left to the model's slack. Dropping the term
/// lets the planner pick fewer, larger partitions, which raises the real
/// peak.
fn partition_estimate(
    input: &SetCollection,
    local_universe: u64,
    r_sets: u64,
    s_sets: u64,
    tuples: u64,
) -> u64 {
    let table = if input.is_weighted() {
        local_universe * std::mem::size_of::<Weight>() as u64
    } else {
        0
    };
    let sub_arena = tuples * input.bytes_per_element() as u64 + (r_sets + s_sets) * 16 + table;
    crate::budget::resident_estimate(local_universe, r_sets, s_sets, tuples) + sub_arena
}

/// Routed mass per rank: every set adds its full length at each rank of
/// its routing prefix — the tuples a partition owning that rank takes on
/// for it. The cut points balance this histogram.
fn routed_mass(
    r: &SetCollection,
    s: &SetCollection,
    r_lens: &[u32],
    s_lens: &[u32],
    mass: &mut Vec<u64>,
) {
    mass.clear();
    mass.resize(r.universe_size().max(s.universe_size()), 0);
    let mut add = |c: &SetCollection, lens: &[u32]| {
        for (set, &plen) in c.iter().zip(lens) {
            let len = set.len() as u64;
            for &t in &set.ranks()[..plen as usize] {
                mass[t as usize] += len;
            }
        }
    };
    add(r, r_lens);
    if !std::ptr::eq(r, s) {
        add(s, s_lens);
    }
}

/// Place `target` balanced cut points over the routed-mass histogram.
/// Produces strictly ascending cuts (duplicates collapse, so fewer actual
/// partitions can result when mass is concentrated on few ranks).
fn balanced_cuts(mass: &[u64], target: usize, cuts: &mut Vec<u32>) {
    let total: u64 = mass.iter().sum();
    cuts.clear();
    cuts.push(0);
    if total > 0 {
        let mut acc = 0u64;
        let mut next = 1usize;
        for (t, &m) in mass.iter().enumerate() {
            acc += m;
            while next < target && acc.saturating_mul(target as u64) >= total * next as u64 {
                cuts.push((t + 1) as u32);
                next += 1;
            }
        }
    }
    cuts.push(mass.len() as u32);
    cuts.dedup();
}

/// Routing-prefix lengths of both sides: each set's Lemma-1 prefix against
/// the partner side's global norm range, as the executors compute it. In a
/// self-join every set plays both roles, so `r_lens` takes the longer of
/// its R- and S-side prefixes (`s_lens` is then scratch).
fn routing_prefixes(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    r_lens: &mut Vec<u32>,
    s_lens: &mut Vec<u32>,
) {
    prefix_lengths_into(r, Side::R, pred, s.norm_range(), r_lens);
    prefix_lengths_into(s, Side::S, pred, r.norm_range(), s_lens);
    if std::ptr::eq(r, s) {
        for (a, &b) in r_lens.iter_mut().zip(s_lens.iter()) {
            *a = (*a).max(b);
        }
    }
}

/// Call `f(p)` once per partition `p` holding a rank of `prefix`, in
/// ascending order — the partitions a set with this routing prefix goes
/// to. The planner's tallies and the driver's member lists both route
/// through here, so they agree by construction.
fn routed_partitions(prefix: &[u32], cuts: &[u32], mut f: impl FnMut(usize)) {
    let mut rest = prefix;
    while let Some(&t) = rest.first() {
        // `cuts[0] == 0`, so the partition holding `t` is the last cut ≤ t.
        let p = cuts.partition_point(|&c| c <= t).saturating_sub(1);
        let Some(&hi) = cuts.get(p + 1) else {
            break; // rank past the universe: no partition owns it
        };
        f(p);
        rest = &rest[rest.partition_point(|&x| x < hi)..];
    }
}

/// Tally per-partition set and tuple counts for one side under `cuts`. A
/// set is charged its **full** length to every partition its routing
/// prefix reaches — exactly what the spill driver will copy for it.
fn tally_side(c: &SetCollection, lens: &[u32], cuts: &[u32], sets: &mut [u64], tuples: &mut [u64]) {
    for (set, &plen) in c.iter().zip(lens) {
        let len = set.len() as u64;
        routed_partitions(&set.ranks()[..plen as usize], cuts, |p| {
            sets[p] += 1;
            tuples[p] += len;
        });
    }
}

/// Bucket one side's set ids by partition in a single pass over the side,
/// into `route.offsets`/`route.members`. `sets` is the planner's tally for
/// this side under the same cuts, so every bucket is sized before the pass
/// and ids land in ascending order within each bucket.
fn bucket_members(c: &SetCollection, cuts: &[u32], sets: &[u64], route: &mut Routing) {
    // offsets[p + 1] starts as bucket p's first slot and advances as the
    // bucket fills, ending as bucket p's end (= bucket p + 1's start).
    route.offsets.clear();
    route.offsets.push(0);
    let mut start = 0usize;
    for &n in sets {
        route.offsets.push(start);
        start += n as usize;
    }
    route.members.clear();
    route.members.resize(start, 0);
    let Routing {
        lens,
        offsets,
        members,
    } = route;
    for (id, (set, &plen)) in c.iter().zip(lens.iter()).enumerate() {
        routed_partitions(&set.ranks()[..plen as usize], cuts, |p| {
            members[offsets[p + 1]] = id as u32;
            offsets[p + 1] += 1;
        });
    }
}

/// Peak per-partition resident estimate under `cuts`, filling `tally`.
fn plan_peak(
    r: &SetCollection,
    s: &SetCollection,
    r_lens: &[u32],
    s_lens: &[u32],
    cuts: &[u32],
    tally: &mut PartitionTally,
) -> u64 {
    let partitions = cuts.len().saturating_sub(1);
    tally.reset(partitions);
    tally_side(r, r_lens, cuts, &mut tally.r_sets, &mut tally.r_tuples);
    if std::ptr::eq(r, s) {
        tally.s_sets.copy_from_slice(&tally.r_sets);
        tally.s_tuples.copy_from_slice(&tally.r_tuples);
    } else {
        tally_side(s, s_lens, cuts, &mut tally.s_sets, &mut tally.s_tuples);
    }
    let universe = r.universe_size().max(s.universe_size()) as u64;
    let mut peak = 0u64;
    for p in 0..partitions {
        let tuples = tally.r_tuples[p] + tally.s_tuples[p];
        // Local universe upper bound: a partition cannot see more distinct
        // ranks than it has tuples (nor more than the global universe).
        let local_universe = universe.min(tuples);
        peak = peak.max(partition_estimate(
            r,
            local_universe,
            tally.r_sets[p],
            tally.s_sets[p],
            tuples,
        ));
    }
    peak
}

/// Plan a spilled execution of `r ⋈ s` under `pred` and a resident budget:
/// the smallest partition count (doubling from 2, up to 256) whose peak
/// per-partition resident estimate fits `max_resident_bytes`, with sets
/// routed by their Lemma-1 prefixes under `pred` and cut points balanced
/// over the routed mass — the plan the spill driver runs for the same
/// inputs. When no candidate fits, the best-effort plan with the smallest
/// peak is returned (the run completes over budget rather than failing;
/// its peak then exceeds `max_resident_bytes`). `None` when the input
/// cannot be split (empty side, or the whole mass on one rank) — callers
/// fall back to the resident path.
pub fn plan_spill(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    max_resident_bytes: u64,
) -> Option<SpillPlan> {
    let mut planner = Planner::default();
    let peak_resident_bytes = planner.plan(r, s, pred, max_resident_bytes)?;
    Some(SpillPlan {
        cuts: planner.cuts,
        peak_resident_bytes,
    })
}

impl Planner {
    /// Allocation-reusing core of [`plan_spill`]: fills the routing
    /// prefixes, cuts and tallies (not the member lists, see
    /// [`bucket_members`]) and returns the peak per-partition estimate.
    fn plan(
        &mut self,
        r: &SetCollection,
        s: &SetCollection,
        pred: &OverlapPredicate,
        max_resident_bytes: u64,
    ) -> Option<u64> {
        if r.is_empty() || s.is_empty() {
            return None;
        }
        let Self {
            route_r,
            route_s,
            mass,
            cuts,
            tally,
        } = self;
        routing_prefixes(r, s, pred, &mut route_r.lens, &mut route_s.lens);
        let (r_lens, s_lens) = (&route_r.lens[..], &route_s.lens[..]);
        routed_mass(r, s, r_lens, s_lens, mass);
        let max_target = MAX_PARTITIONS.min(mass.len().max(1));
        // Best-effort fallback: the target with the smallest peak (its cuts
        // are recomputed rather than cloned, so a warm run allocates nothing
        // here).
        let mut best: Option<(usize, u64)> = None;
        let mut target = 2usize;
        while target <= max_target {
            balanced_cuts(mass, target, cuts);
            if cuts.len() < 3 {
                // The mass would not split: doubling the target cannot help.
                break;
            }
            let peak = plan_peak(r, s, r_lens, s_lens, cuts, tally);
            if peak <= max_resident_bytes {
                return Some(peak);
            }
            if best.is_none_or(|(_, bp)| peak < bp) {
                best = Some((target, peak));
            }
            target *= 2;
        }
        let (best_target, peak) = best?;
        // The cuts and the tally must describe the *chosen* target, not the
        // last one tried — the driver sizes its member buckets from the
        // tally.
        balanced_cuts(mass, best_target, cuts);
        plan_peak(r, s, r_lens, s_lens, cuts, tally);
        Some(peak)
    }
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

/// Append the pairs of one partition's output `part` that `owns` accepts
/// to `out`, under their global ids (`members`, R's and S's).
fn keep_owned<P: OutPair>(
    part: &[P],
    owns: impl Fn(u32, u32) -> bool,
    (members_r, members_s): (&[u32], &[u32]),
    out: &mut Vec<P>,
) {
    for p in part {
        let (r, s) = p.key();
        if owns(r, s) {
            out.push(p.with_key(members_r[r as usize], members_s[s as usize]));
        }
    }
}

/// Copy one side's partition members into the recycled sub-collection
/// `sub`, remapping ranks through `remap`; local set `i` is `members[i]`.
/// Members carry their full contents and norms, and `sub`'s local table
/// their weights, so partition-local norms and totals stay exact. Returns
/// the elements copied.
fn build_side(
    c: &SetCollection,
    members: &[u32],
    remap: &[u32],
    ranks_buf: &mut Vec<u32>,
    sub: &mut SetCollection,
) -> u64 {
    let mut elements = 0u64;
    for &id in members {
        let set = c.set(id);
        ranks_buf.clear();
        ranks_buf.extend(set.ranks().iter().map(|&t| remap[t as usize]));
        sub.push_set_presorted(ranks_buf, set.norm());
        elements += ranks_buf.len() as u64;
    }
    elements
}

/// Execute `r ⋈ s` out of core under the context's
/// [`max_resident_bytes`](crate::ExecBudget::max_resident_bytes) budget:
/// plan token-range partitions, then for each partition in turn build its
/// sub-arena from `r` and `s`, join it through the ordinary executor for
/// `algorithm` into `sink`, and append the pairs it owns to `ws.out`, which
/// is sorted by `(r, s)` once at the end. Returns the merged stats, or
/// `None` when the input cannot be split (the caller then runs resident).
pub(crate) fn run(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    algorithm: Algorithm,
    ctx: &ExecContext,
    sink: Sink<'_>,
    ws: &mut JoinWorkspace,
) -> Option<SsJoinStats> {
    let limit = ctx.budget.max_resident_bytes.unwrap_or(u64::MAX);
    let mut scratch = match ws.spill.take() {
        Some(s) => s,
        None => Box::new(SpillScratch::new()),
    };
    let result = run_inner(r, s, pred, algorithm, ctx, sink, ws, &mut scratch, limit);
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
    sink: Sink<'_>,
    ws: &mut JoinWorkspace,
    scratch: &mut SpillScratch,
    limit: u64,
) -> Option<SsJoinStats> {
    // Plan. An unsplittable input falls back to the resident path.
    let peak = scratch.planner.plan(r, s, pred, limit)?;
    let partitions = scratch.planner.cuts.len() - 1;
    let mut stats = SsJoinStats::default();

    let universe = r.universe_size().max(s.universe_size());
    let self_join = std::ptr::eq(r, s);
    let tag = r.universe_tag();

    // Membership: one pass per side buckets every routed set id by the
    // partitions its prefix reaches, sized by the planner's tally.
    let SpillScratch {
        inner,
        sub_r,
        sub_s,
        weights,
        remap,
        touched,
        ranks_buf,
        planner,
    } = scratch;
    let Planner {
        route_r,
        route_s,
        cuts,
        tally,
        ..
    } = planner;
    bucket_members(r, cuts, &tally.r_sets, route_r);
    let route_s = if self_join {
        &*route_r
    } else {
        bucket_members(s, cuts, &tally.s_sets, route_s);
        &*route_s
    };

    // One partition resident at a time: the inner workspace hosts the
    // partition joins, and owned pairs go straight to the outer output.
    remap.clear();
    remap.resize(universe, u32::MAX);
    let mut elements = 0u64;
    for p in 0..partitions {
        let (lo, hi) = (cuts[p], cuts[p + 1]);
        let (members_r, members_s) = (route_r.members(p), route_s.members(p));
        // Dense local ids in ascending global rank order (a monotone
        // remap) over the distinct ranks the members carry.
        touched.clear();
        let mut mark = |c: &SetCollection, members: &[u32]| {
            for &id in members {
                for &t in c.set(id).ranks() {
                    let slot = &mut remap[t as usize];
                    if *slot == u32::MAX {
                        *slot = 0;
                        touched.push(t);
                    }
                }
            }
        };
        mark(r, members_r);
        if !self_join {
            mark(s, members_s);
        }
        touched.sort_unstable();
        for (local, &t) in touched.iter().enumerate() {
            remap[t as usize] = local as u32;
        }
        // The partition's owned rank range in local ranks.
        let own_lo = touched.partition_point(|&t| t < lo) as u32;
        let own_hi = touched.partition_point(|&t| t < hi) as u32;
        // The sub-collections let go of the last partition's table, so the
        // pooled one is refilled in place.
        sub_r.reset_for_universe(0, tag, None);
        sub_s.reset_for_universe(0, tag, None);
        let local = r.weight_table().map(|global| {
            let table = weights.get_or_insert_with(Arc::default);
            let local = Arc::make_mut(table);
            local.clear();
            local.extend(touched.iter().map(|&t| global[t as usize]));
            Arc::clone(table)
        });
        sub_r.reset_for_universe(touched.len(), tag, local.clone());
        elements += build_side(r, members_r, remap, ranks_buf, sub_r);
        if !self_join {
            sub_s.reset_for_universe(touched.len(), tag, local);
            elements += build_side(s, members_s, remap, ranks_buf, sub_s);
        }
        for &t in touched.iter() {
            remap[t as usize] = u32::MAX;
        }
        let (sub_r, sub_s) = (&*sub_r, if self_join { &*sub_r } else { &*sub_s });
        let owns = |r, s| owns_pair(sub_r.set(r).ranks(), sub_s.set(s).ranks(), own_lo, own_hi);
        // The caller's filter sees global ids; the partition's sink tests
        // ownership first, so the filter runs once per owned pair.
        let global = |p: &JoinPair| match sink {
            Sink::Scored(f, _) => f(&p.with_key(members_r[p.r as usize], members_s[p.s as usize])),
            Sink::Plain => None,
        };
        let sink = match sink {
            Sink::Scored(..) => Sink::Scored(&global, Some(&owns)),
            Sink::Plain => Sink::Plain,
        };
        inner.begin_run();
        let pstats = run_algorithm(algorithm, sub_r, sub_s, pred, ctx, None, sink, inner);
        stats.merge(&pstats);
        // Ownership of the pairs the sink did not test (all plain ones, the
        // half path's diagonal; a filter pass and its mirror are owned, as
        // ownership is symmetric) and the global-id remap.
        let ids = (members_r, members_s);
        keep_owned(&inner.out.plain, owns, ids, &mut ws.out.plain);
        let scored_owns = |r, s| r != s || owns(r, s);
        keep_owned(&inner.out.scored, scored_owns, ids, &mut ws.out.scored);
    }

    // The partitions' pairs are disjoint: one in-place sort (no scratch
    // allocation) restores the resident run's `(r, s)` order.
    ws.out.plain.sort_unstable_by_key(OutPair::key);
    ws.out.scored.sort_unstable_by_key(OutPair::key);
    // Run-level spill facts survive the per-partition merges (which carry
    // zeros for them); restate them on the final record.
    stats.spill_partitions = partitions as u64;
    stats.spill_bytes = elements * r.bytes_per_element() as u64;
    stats.spill_peak_resident_bytes = peak;
    Some(stats)
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

    fn pred() -> OverlapPredicate {
        OverlapPredicate::two_sided(0.7)
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

    /// Every construction path stores ranks only — 4 bytes an element,
    /// weighted or not (a weighted arena may take at most 12) — and reads
    /// the build's one weight table (the same `Arc`, or none when
    /// unweighted): the builder's collections, a query encoder's batch, a
    /// `CorpusIndex` insert and compaction, and a spilled join's
    /// sub-collections, whose pooled local table holds each local rank's
    /// global weight.
    #[test]
    fn every_construction_path_stores_ranks_and_shares_one_table() {
        use crate::builder::NormKind;
        use crate::index::CorpusIndex;
        use crate::ExecBudget;
        let groups: Vec<Vec<String>> = (0..300)
            .map(|i| {
                (0..(3 + i % 4))
                    .map(|j| format!("t{}", (i * 7 + j * 5) % 113))
                    .collect()
            })
            .collect();
        for scheme in [WeightScheme::Unweighted, WeightScheme::Idf] {
            let weighted = scheme != WeightScheme::Unweighted;
            let mut b = SsJoinInputBuilder::new(scheme, ElementOrder::FrequencyAsc).with_threads(3);
            let hr = b.add_relation(groups.clone());
            let hs = b.add_relation(groups[..180].to_vec());
            let built = b.build().unwrap();
            let (r, s) = (built.collection(hr), built.collection(hs));
            let check = |what: &str, c: &SetCollection| {
                assert_eq!(c.bytes_per_element(), 4, "{scheme:?} {what}");
                assert_eq!(c.is_weighted(), weighted, "{scheme:?} {what}");
            };
            let global = |what: &str, c: &SetCollection| {
                check(what, c);
                assert!(c.shares_weights(r), "{scheme:?} {what}: a copied table");
                for set in c.iter() {
                    for (&rank, &w) in set.ranks().iter().zip(set.weights().iter()) {
                        assert_eq!(w, built.element_weight(rank), "{scheme:?} {what}");
                    }
                }
            };
            global("builder R", r);
            global("builder S", s);
            let batch = built
                .query_encoder()
                .encode(&groups[..40], NormKind::TotalWeight);
            global("encoder", &batch.unwrap());
            let mut index = CorpusIndex::build(s.clone(), pred(), &ExecContext::new()).unwrap();
            index.insert(r.set(250).ranks(), r.set(250).norm()).unwrap();
            global("insert", index.corpus());
            index.delete(0).unwrap();
            index.compact().unwrap();
            global("compact", index.corpus());

            // A spilled join of two relations: the last partition's
            // sub-collections share one local table.
            let est = crate::budget::estimate_memory_bytes(r, s);
            let ctx = ExecContext::new()
                .with_threads(1)
                .with_budget(ExecBudget::new().with_max_resident_bytes(est / 8));
            let mut ws = JoinWorkspace::new();
            let stats = run(r, s, &pred(), Algorithm::Inline, &ctx, Sink::Plain, &mut ws).unwrap();
            assert!(stats.spill_partitions >= 2, "{scheme:?}");
            let scratch = ws.spill.as_ref().unwrap();
            let (sub_r, sub_s) = (&scratch.sub_r, &scratch.sub_s);
            check("spill R", sub_r);
            check("spill S", sub_s);
            assert!(sub_r.shares_weights(sub_s), "{scheme:?}");
            let p = stats.spill_partitions as usize - 1;
            let (route_r, route_s) = (&scratch.planner.route_r, &scratch.planner.route_s);
            for (sub, c, members) in [
                (sub_r, r, route_r.members(p)),
                (sub_s, s, route_s.members(p)),
            ] {
                assert_eq!(sub.len(), members.len(), "{scheme:?}");
                for (local, &id) in members.iter().enumerate() {
                    let (x, y) = (sub.set(local as u32), c.set(id));
                    assert_eq!(x.weights(), y.weights(), "{scheme:?} set {id}");
                    assert_eq!(x.total_weight(), y.total_weight(), "{scheme:?} set {id}");
                }
            }
            // Bytes copied: every routed member's elements at 4 bytes.
            let tally = &scratch.planner.tally;
            let tuples: u64 = tally.r_tuples.iter().chain(&tally.s_tuples).sum();
            assert_eq!(stats.spill_bytes, tuples * 4, "{scheme:?}");
        }
    }

    #[test]
    fn plan_splits_and_fits_generous_budget() {
        let c = corpus(200, 97);
        let est = crate::budget::estimate_memory_bytes(&c, &c);
        let plan = plan_spill(&c, &c, &pred(), est / 2).expect("splittable corpus");
        assert!(plan.partitions() >= 2, "{plan:?}");
        assert!(plan.peak_resident_bytes() > 0);
        // A tighter budget never plans *fewer* partitions.
        let tight = plan_spill(&c, &c, &pred(), est / 8).expect("splittable corpus");
        assert!(
            tight.partitions() >= plan.partitions(),
            "{tight:?} vs {plan:?}"
        );
    }

    #[test]
    fn plan_rejects_empty_and_degenerate_inputs() {
        let empty = build(vec![]);
        assert!(plan_spill(&empty, &empty, &pred(), 1).is_none());
        // One distinct token: all mass on one rank, nothing to split.
        let one = build(vec![vec!["x".into()], vec!["x".into()]]);
        assert!(plan_spill(&one, &one, &pred(), 1).is_none());
    }

    #[test]
    fn tiny_budget_caps_partitions() {
        let c = corpus(300, 113);
        let plan = plan_spill(&c, &c, &pred(), 1).expect("splittable corpus");
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
    fn tally_charges_full_length_per_routed_partition() {
        // One set over ranks {0, 1} under cuts [0, 1, 2]: its full length
        // (2) is charged to each partition its routing prefix reaches —
        // only partition 0 for a 1-rank prefix, both for the full set,
        // none for an empty prefix.
        let c = build(vec![vec!["a".into(), "b".into()]]);
        let cuts = [0u32, 1, 2];
        for (plen, want_sets, want_tuples) in [
            (0u32, [0u64, 0], [0u64, 0]),
            (1, [1, 0], [2, 0]),
            (2, [1, 1], [2, 2]),
        ] {
            let mut sets = vec![0u64; 2];
            let mut tuples = vec![0u64; 2];
            tally_side(&c, &[plen], &cuts, &mut sets, &mut tuples);
            assert_eq!(sets, want_sets, "prefix {plen}");
            assert_eq!(tuples, want_tuples, "prefix {plen}");
        }
    }

    #[test]
    fn self_join_routes_by_the_longer_prefix() {
        // `r_normalized` bounds the overlap by the R side's own norm only,
        // so a set's R-role prefix and S-role prefix differ; a self-join
        // set must route by the longer of the two.
        let c = corpus(200, 97);
        let pred = OverlapPredicate::r_normalized(0.6);
        let (mut r_only, mut s_only) = (Vec::new(), Vec::new());
        prefix_lengths_into(&c, Side::R, &pred, c.norm_range(), &mut r_only);
        prefix_lengths_into(&c, Side::S, &pred, c.norm_range(), &mut s_only);
        assert_ne!(r_only, s_only, "the two roles must differ here");
        let (mut lens, mut scratch) = (Vec::new(), Vec::new());
        routing_prefixes(&c, &c, &pred, &mut lens, &mut scratch);
        for (i, &l) in lens.iter().enumerate() {
            assert_eq!(l, r_only[i].max(s_only[i]), "set {i}");
        }
        // R ≠ S: each side keeps its own role's prefix.
        let other = c.clone();
        routing_prefixes(&c, &other, &pred, &mut lens, &mut scratch);
        assert_eq!(lens, r_only);
        assert_eq!(scratch, s_only);
    }

    #[test]
    fn planner_tallies_equal_driver_member_lists() {
        let c = corpus(300, 113);
        let other = corpus(180, 113);
        let est = crate::budget::estimate_memory_bytes(&c, &c);
        for pred in [
            OverlapPredicate::two_sided(0.7),
            OverlapPredicate::r_normalized(0.6),
            OverlapPredicate::absolute(2.0),
        ] {
            for (r, s) in [(&c, &c), (&c, &other)] {
                let mut planner = Planner::default();
                planner
                    .plan(r, s, &pred, est / 8)
                    .expect("splittable corpus");
                let Planner {
                    route_r,
                    route_s,
                    cuts,
                    tally,
                    ..
                } = &mut planner;
                let partitions = cuts.len() - 1;
                assert!(partitions >= 2, "{pred:?}");
                // As the driver does: a self-join copies one side.
                bucket_members(r, cuts, &tally.r_sets, route_r);
                let mut sides = vec![(r, &*route_r, &tally.r_sets, &tally.r_tuples)];
                if !std::ptr::eq(r, s) {
                    bucket_members(s, cuts, &tally.s_sets, route_s);
                    sides.push((s, &*route_s, &tally.s_sets, &tally.s_tuples));
                }
                for (c, route, sets, tuples) in sides {
                    for p in 0..partitions {
                        let members = route.members(p);
                        assert_eq!(members.len() as u64, sets[p], "{pred:?} p{p}");
                        let len: u64 = members.iter().map(|&id| c.set(id).len() as u64).sum();
                        assert_eq!(len, tuples[p], "{pred:?} p{p}");
                        assert!(members.windows(2).all(|w| w[0] < w[1]), "{pred:?} p{p}");
                        // Exactly the sets whose routing prefix holds a rank
                        // of the partition's range.
                        let (lo, hi) = (cuts[p], cuts[p + 1]);
                        let want: Vec<u32> = (0..c.len() as u32)
                            .filter(|&id| {
                                let prefix = &c.set(id).ranks()[..route.lens[id as usize] as usize];
                                prefix.iter().any(|&t| t >= lo && t < hi)
                            })
                            .collect();
                        assert_eq!(members, want.as_slice(), "{pred:?} p{p}");
                    }
                }
            }
        }
    }
}
