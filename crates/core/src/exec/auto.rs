//! Cost-based configuration planning.
//!
//! §5 of the paper observes "there is not always a clear winner between the
//! basic and prefix-filtered implementations", motivating "a cost-based
//! decision for choosing the appropriate implementation" — left as future
//! work there (§7). This module implements that decision over the *whole*
//! execution space the system has grown since: four executors × the bitmap
//! filter on/off × the effective thread count — 14 configurations at a
//! multi-thread budget, 7 at one thread.
//!
//! The model's inputs come from two places:
//!
//! * **Catalog statistics** maintained by every [`SetCollection`]
//!   ([`crate::set::CollectionStats`]): a dense token-frequency histogram, a
//!   log₂ set-length histogram, and a seeded sample of set ids. The
//!   basic plan's element equi-join size `Σ_e freq_R(e) · freq_S(e)` is
//!   computed *exactly* in one pass over the (usually smaller) R side
//!   against S's frozen histogram; the length histograms yield the average
//!   merge length and the probability a candidate pair is skewed enough for
//!   the galloping kernel; the sample estimates prefix selectivity under
//!   the concrete predicate without scanning a large S side.
//! * **The verification kernel's cost shape** from [`crate::kernel`]
//!   (`verify_cost_model`), so the planner's view of early exit and
//!   galloping stays tied to the kernel's actual crossover constant.
//!
//! [`CostEstimate::plan`] enumerates every candidate configuration (pure
//! arithmetic, no allocation) and returns the cheapest as a [`PlanChoice`],
//! which [`Algorithm::Auto`] runs and records in
//! [`SsJoinStats::plan`](crate::SsJoinStats::plan) so every auto run is
//! explainable after the fact. [`CorpusIndex`](crate::CorpusIndex) freezes
//! the S-side statistics at build time, so probe-time planning touches only
//! the probe batch.

use super::prefix::{prefix_lengths_into, Side};
use super::workspace::JoinWorkspace;
use super::{Algorithm, ExecContext};
use crate::kernel::{verify_cost_model, GALLOP_CROSSOVER};
use crate::predicate::{Interval, OverlapPredicate};
use crate::set::{SetCollection, LEN_HIST_BUCKETS, SIG_WORDS};
use std::fmt;

/// Per-side size above which the one-shot estimator stops making exact
/// O(side tuples) passes (prefix frequencies on S, token/prefix walks on R)
/// and extrapolates from the seeded selectivity sample instead. Keeps
/// planning cost negligible next to the join it is planning: below the
/// threshold exact passes are cheap, above it they would grow linearly
/// while the sample stays O(1).
const SAMPLED_S_ABOVE: usize = 4096;

/// Modeled cost (abstract element touches) of spawning and joining one
/// worker thread — scoped-thread setup, scheduling, and cache warmup that a
/// sequential run never pays. Parallel plans win only when the divided work
/// saves more than this.
const SPAWN_COST: f64 = 24_000.0;

/// Baseline load-imbalance penalty of the chunked parallel path (contiguous
/// R-group chunks): even uniform inputs divide unevenly at chunk edges.
const CHUNK_IMBALANCE_BASE: f64 = 1.15;

/// How strongly length skew inflates chunk imbalance: a heavy set (or a
/// heavy token's posting list) lands wholly inside one chunk and serializes
/// that worker.
const CHUNK_IMBALANCE_SKEW: f64 = 0.75;

/// Per-candidate-tuple factor of the prefix-filtered join-back verification
/// (rebuilding and probing a per-candidate hash table), relative to one
/// merge touch.
const JOIN_BACK_FACTOR: f64 = 2.5;

/// Extra candidate-join work of the positional filter (carrying and
/// checking positions). Calibrated against the `ablation-positional`
/// panel: even where the positional bound removes 50–70% of the
/// verifications, the bookkeeping makes the executor 1.2–1.7× slower per
/// candidate tuple, so positional only pays off when verification itself
/// dwarfs the candidate join.
const POSITIONAL_JOIN_FACTOR: f64 = 1.75;

/// Verification work surviving the positional filter's partial-overlap
/// prune, relative to the plain inline verification.
const POSITIONAL_VERIFY_DISCOUNT: f64 = 0.85;

/// Ceiling on the fraction of candidates the bitmap filter can prune for a
/// maximally selective predicate at infinite signature width.
const BITMAP_PRUNE_CEILING: f64 = 0.6;

/// Cost estimates for one `R SSJoin S` input under one predicate: the
/// quantities the configuration planner needs, all derived from catalog
/// statistics plus one pass over the probe side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Element equi-join tuples of the basic plan — exact:
    /// `Σ_e freq_R(e) · freq_S(e)`.
    pub basic_join_tuples: u64,
    /// Prefix equi-join tuples (exact when the S side is small enough for a
    /// full pass, sample-extrapolated otherwise). Upper-bounds the
    /// candidate pairs of every prefix-family plan.
    pub prefix_join_tuples: u64,
    /// Estimated verification element touches of the prefix plan (legacy
    /// aggregate backing [`CostEstimate::prefix_cost`]).
    pub prefix_verify_cost: u64,
    /// S-side tuples a fresh full-set inverted index build must ingest — 0
    /// when probing a prebuilt [`crate::CorpusIndex`].
    pub s_index_tuples: u64,
    /// S-side prefix tuples a fresh prefix index build must ingest — 0 when
    /// probing a prebuilt index.
    pub s_prefix_tuples: u64,
    /// Mean set length across both sides (the expected merge length of a
    /// candidate verification).
    pub avg_len: u64,
    /// Estimated prefix selectivity `Σ prefix_len / Σ len` across both
    /// sides, in thousandths (integer so the estimate stays `Eq`-friendly).
    pub prefix_fraction_milli: u32,
    /// Estimated probability that a candidate pair's length ratio reaches
    /// the galloping crossover, in thousandths; derived from the two
    /// length histograms.
    pub gallop_skew_milli: u32,
}

/// One fully specified execution configuration chosen by the planner:
/// executor, bitmap filter, and thread count, plus the modeled cost that
/// won. Recorded in [`SsJoinStats::plan`](crate::SsJoinStats::plan) on
/// every [`Algorithm::Auto`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanChoice {
    /// The physical executor to run (never [`Algorithm::Auto`]).
    pub algorithm: Algorithm,
    /// Whether the bitmap-signature filter is enabled.
    pub bitmap_filter: bool,
    /// Worker threads the plan uses (≤ the requested thread budget).
    pub threads: usize,
    /// Modeled cost of this configuration, in abstract element touches.
    pub cost: u64,
    /// Token-range spill partitions the run executed out of core (0 = fully
    /// resident). The planner itself always prices resident plans — a
    /// resident run costs no replication and no I/O passes, so it wins
    /// whenever it fits [`crate::ExecBudget::max_resident_bytes`]; when it
    /// does not, the spill driver (`crate::spill`) picks the smallest
    /// partition count that fits and stamps it here.
    pub partitions: u32,
    /// Target recall (in thousandths) of the approximate candidate
    /// generator, `None` on every exact run. The planner never chooses
    /// approximation on its own — it is only eligible when the caller
    /// explicitly enabled it via [`crate::ApproxSpec`], in which case the
    /// approximate driver bypasses plan enumeration entirely and stamps the
    /// recall target here so the run stays explainable.
    pub approx_recall_milli: Option<u16>,
}

impl fmt::Display for PlanChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}/{}/{}t cost={}",
            self.algorithm,
            if self.bitmap_filter { "bitmap" } else { "off" },
            self.threads,
            self.cost
        )?;
        if self.partitions > 0 {
            write!(f, " spill={}p", self.partitions)?;
        }
        if let Some(milli) = self.approx_recall_milli {
            write!(f, " approx={:.2}", f64::from(milli) / 1000.0)?;
        }
        Ok(())
    }
}

impl CostEstimate {
    /// Total cost of the basic plan in abstract "element touches".
    pub fn basic_cost(&self) -> u64 {
        self.basic_join_tuples
    }

    /// Total cost of the prefix (inline) plan.
    pub fn prefix_cost(&self) -> u64 {
        self.prefix_join_tuples + self.prefix_verify_cost
    }

    /// The basic-vs-prefix choice of the original two-way model — still the
    /// decision the relational planner uses, where only those two plan
    /// shapes exist as logical operators.
    pub fn choice(&self) -> Algorithm {
        if self.basic_cost() <= self.prefix_cost() {
            Algorithm::Basic
        } else {
            Algorithm::Inline
        }
    }

    /// Pick the cheapest configuration — executor × bitmap filter × thread
    /// count — at a budget of `threads` workers (already clamped to the
    /// host). Pure arithmetic over the estimate; no allocation,
    /// deterministic, ties broken toward the simpler configuration
    /// (sequential before parallel, filter off before on).
    pub fn plan(&self, threads: usize) -> PlanChoice {
        let b = self.basic_join_tuples as f64;
        let p = self.prefix_join_tuples as f64;
        let cand = p;
        let l = (self.avg_len as f64).max(1.0);
        let rho = f64::from(self.prefix_fraction_milli) / 1000.0;
        let sigma = f64::from(self.gallop_skew_milli) / 1000.0;
        let full_build = self.s_index_tuples as f64;
        let prefix_build = self.s_prefix_tuples as f64;
        let merge = verify_cost_model(l, rho, sigma);

        // Candidate verification cost after an optional bitmap filter: the
        // filter pays `SIG_WORDS + 2` touches per candidate (ANDNOT +
        // popcount over the stored words) and prunes a selectivity-dependent
        // fraction before the merge.
        let filtered_verify = |filter: bool, verify: f64| -> f64 {
            if filter {
                let words = SIG_WORDS as f64;
                let prune =
                    (1.0 - rho).max(0.0) * BITMAP_PRUNE_CEILING * (1.0 - 0.5f64.powf(words));
                cand * (words + 2.0) + cand * (1.0 - prune) * verify
            } else {
                cand * verify
            }
        };
        let seq_cost = |alg: Algorithm, filter: bool| match alg {
            Algorithm::Basic => full_build + b,
            Algorithm::PrefixFiltered => {
                prefix_build + p + filtered_verify(filter, JOIN_BACK_FACTOR * l)
            }
            Algorithm::PositionalInline => {
                prefix_build
                    + p * POSITIONAL_JOIN_FACTOR
                    + filtered_verify(filter, POSITIONAL_VERIFY_DISCOUNT * merge)
            }
            Algorithm::Inline | Algorithm::Auto => {
                prefix_build + p + filtered_verify(filter, merge)
            }
        };

        let mut best = PlanChoice {
            algorithm: Algorithm::Basic,
            bitmap_filter: false,
            threads: 1,
            cost: u64::MAX,
            partitions: 0,
            approx_recall_milli: None,
        };
        let mut best_cost = f64::INFINITY;
        for (alg, filter, t) in configurations(threads) {
            let seq = seq_cost(alg, filter);
            let cost = if t <= 1 {
                seq
            } else {
                let imbalance = CHUNK_IMBALANCE_BASE + CHUNK_IMBALANCE_SKEW * sigma;
                seq / t as f64 * imbalance + SPAWN_COST * t as f64
            };
            if cost < best_cost {
                best_cost = cost;
                best = PlanChoice {
                    algorithm: alg,
                    bitmap_filter: filter,
                    threads: t,
                    cost: cost.min(u64::MAX as f64) as u64,
                    partitions: 0,
                    approx_recall_milli: None,
                };
            }
        }
        best
    }
}

/// Every configuration the planner prices at a budget of `threads` workers:
/// each executor with the bitmap filter off and on, at one thread and (when
/// the budget allows) at the whole budget. The basic plan accumulates
/// overlaps instead of verifying candidates, so the filter cannot save it
/// work and it is priced unfiltered only — 7 configurations per thread
/// level.
fn configurations(threads: usize) -> impl Iterator<Item = (Algorithm, bool, usize)> {
    let hi = threads.max(1);
    let levels = if hi > 1 { 2 } else { 1 };
    [1, hi].into_iter().take(levels).flat_map(|t| {
        [
            (Algorithm::Basic, false),
            (Algorithm::PrefixFiltered, false),
            (Algorithm::PrefixFiltered, true),
            (Algorithm::Inline, false),
            (Algorithm::Inline, true),
            (Algorithm::PositionalInline, false),
            (Algorithm::PositionalInline, true),
        ]
        .into_iter()
        .map(move |(alg, filter)| (alg, filter, t))
    })
}

/// Clamp a requested worker count to what the host can actually run in
/// parallel. A request above `available_parallelism` cannot speed anything
/// up — it only adds scheduling noise and makes "speedup" claims on small
/// hosts dishonest — so the effective count is recorded in
/// [`SsJoinStats::effective_threads`](crate::stats::SsJoinStats).
pub(crate) fn effective_threads(requested: usize) -> usize {
    // `available_parallelism` probes cgroup files on Linux (and allocates
    // doing so); cache it once so the per-run clamp stays allocation-free.
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let cores = *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    requested.min(cores).max(1)
}

/// Estimated prefix selectivity (`Σ prefix_len / Σ len`) of a collection
/// under a concrete predicate, evaluated on the seeded sample of set ids —
/// O(sample) regardless of collection size.
pub(crate) fn sampled_prefix_fraction(
    c: &SetCollection,
    side: Side,
    pred: &OverlapPredicate,
    partner_norms: Option<(f64, f64)>,
) -> f64 {
    let Some((lo, hi)) = partner_norms else {
        return 0.0;
    };
    let range = Interval::new(lo, hi);
    let (mut pre, mut tot) = (0u64, 0u64);
    for &id in c.stats().sample_ids() {
        let set = c.set(id);
        tot += set.len() as u64;
        if set.is_empty() {
            continue;
        }
        let lb = match side {
            Side::R => pred.required_lower_bound_r(set.norm(), range),
            Side::S => pred.required_lower_bound_s(set.norm(), range),
        };
        let total = set.total_weight();
        if total < lb {
            continue;
        }
        pre += set.prefix_len(total.saturating_sub(lb)) as u64;
    }
    if tot == 0 {
        1.0
    } else {
        pre as f64 / tot as f64
    }
}

/// Probability that a pair drawn from the two length histograms is skewed
/// enough for the galloping kernel: bucket exponents at least
/// `log₂(GALLOP_CROSSOVER)` apart. Empty sets never gallop and are
/// excluded.
fn gallop_skew(rh: &[u64; LEN_HIST_BUCKETS], sh: &[u64; LEN_HIST_BUCKETS]) -> f64 {
    let gap = GALLOP_CROSSOVER.ilog2() as usize;
    let (mut skewed, mut total) = (0u128, 0u128);
    for (i, &a) in rh.iter().enumerate().skip(1) {
        if a == 0 {
            continue;
        }
        for (j, &b) in sh.iter().enumerate().skip(1) {
            if b == 0 {
                continue;
            }
            let w = u128::from(a) * u128::from(b);
            total += w;
            if i.abs_diff(j) >= gap {
                skewed += w;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        skewed as f64 / total as f64
    }
}

/// Assemble a [`CostEstimate`] from the per-side aggregates every
/// estimation path ends with.
fn finish_estimate(
    r: &SetCollection,
    s: &SetCollection,
    r_prefix_tuples: u64,
    s_prefix_tuples: u64,
    basic_join_tuples: u64,
    prefix_join_tuples: u64,
) -> CostEstimate {
    let groups = (r.len() + s.len()).max(1);
    let tuples = (r.tuple_count() + s.tuple_count()) as u64;
    let avg_len = tuples / groups as u64;
    let rho = if tuples == 0 {
        0.0
    } else {
        (r_prefix_tuples + s_prefix_tuples) as f64 / tuples as f64
    };
    let sigma = gallop_skew(r.stats().len_histogram(), s.stats().len_histogram());
    CostEstimate {
        basic_join_tuples,
        prefix_join_tuples,
        prefix_verify_cost: prefix_join_tuples.saturating_mul(avg_len.max(1)),
        s_index_tuples: s.tuple_count() as u64,
        s_prefix_tuples,
        avg_len,
        prefix_fraction_milli: (rho.clamp(0.0, 1.0) * 1000.0).round() as u32,
        gallop_skew_milli: (sigma.clamp(0.0, 1.0) * 1000.0).round() as u32,
    }
}

/// Estimate plan costs for a one-shot join from S's frozen token-frequency
/// histogram plus per-side passes that are exact below [`SAMPLED_S_ABOVE`]
/// and extrapolated from the seeded selectivity sample above it, so
/// planning stays negligible next to the join being planned. The only
/// transient buffers are the workspace's prefix-length and
/// prefix-frequency pools, so a reused workspace estimates without
/// allocating.
pub(crate) fn estimate_costs_into(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    ws: &mut JoinWorkspace,
) -> CostEstimate {
    let sfreq = s.stats().token_freq();
    let JoinWorkspace {
        r_lens,
        s_lens,
        pfreq_s,
        ..
    } = ws;

    // S side: exact prefix-frequency histogram when S is small, seeded
    // sample selectivity otherwise.
    let s_exact = s.len() <= SAMPLED_S_ABOVE;
    let (s_prefix_tuples, rho_s) = if s_exact {
        prefix_lengths_into(s, Side::S, pred, r.norm_range(), s_lens);
        let tuples: u64 = s_lens.iter().map(|&l| l as u64).sum();
        pfreq_s.clear();
        pfreq_s.resize(s.universe_size(), 0);
        for (set, &len) in s.iter().zip(&*s_lens) {
            for &rank in &set.ranks()[..len] {
                let slot = &mut pfreq_s[rank as usize];
                *slot = slot.saturating_add(1);
            }
        }
        (tuples, 0.0)
    } else {
        let rho = sampled_prefix_fraction(s, Side::S, pred, r.norm_range());
        ((rho * s.tuple_count() as f64) as u64, rho)
    };
    // Expected S-side prefix partners of one R prefix occurrence: the exact
    // histogram count, or the full token frequency thinned by S's sampled
    // prefix selectivity.
    let prefix_weight = |rank: u32| -> f64 {
        if s_exact {
            f64::from(pfreq_s[rank as usize])
        } else {
            f64::from(sfreq[rank as usize]) * rho_s
        }
    };

    let (basic_join_tuples, r_prefix_tuples, prefix_join_tuples) = if r.len() <= SAMPLED_S_ABOVE {
        // Exact R passes: `Σ_e freq_R(e) · freq_S(e)` for the basic join
        // and `Σ_e pfreq_R(e) · pfreq_S(e)` for the prefix join, without
        // materializing the R histograms.
        let mut basic = 0u64;
        for set in r.iter() {
            for &rank in set.ranks() {
                basic = basic.saturating_add(u64::from(sfreq[rank as usize]));
            }
        }
        prefix_lengths_into(r, Side::R, pred, s.norm_range(), r_lens);
        let rp: u64 = r_lens.iter().map(|&l| l as u64).sum();
        let mut p = 0.0f64;
        for (set, &len) in r.iter().zip(&*r_lens) {
            for &rank in &set.ranks()[..len] {
                p += prefix_weight(rank);
            }
        }
        (basic, rp, p as u64)
    } else {
        // Sampled R: one walk over the seeded sample accumulates every
        // R-side aggregate at once, extrapolated by the tuple ratio. An
        // empty S admits no partners, so prefixes contribute nothing.
        let range = s.norm_range().map(|(lo, hi)| Interval::new(lo, hi));
        let (mut sample_tuples, mut sample_prefix) = (0u64, 0u64);
        let (mut sample_basic, mut sample_join) = (0.0f64, 0.0f64);
        for &id in r.stats().sample_ids() {
            let set = r.set(id);
            sample_tuples += set.len() as u64;
            for &rank in set.ranks() {
                sample_basic += f64::from(sfreq[rank as usize]);
            }
            let (Some(range), false) = (range, set.is_empty()) else {
                continue;
            };
            let lb = pred.required_lower_bound_r(set.norm(), range);
            let total = set.total_weight();
            if total < lb {
                continue;
            }
            let plen = set.prefix_len(total.saturating_sub(lb));
            sample_prefix += plen as u64;
            for &rank in &set.ranks()[..plen] {
                sample_join += prefix_weight(rank);
            }
        }
        let scale = if sample_tuples == 0 {
            0.0
        } else {
            r.tuple_count() as f64 / sample_tuples as f64
        };
        (
            (sample_basic * scale) as u64,
            (sample_prefix as f64 * scale) as u64,
            (sample_join * scale) as u64,
        )
    };

    finish_estimate(
        r,
        s,
        r_prefix_tuples,
        s_prefix_tuples,
        basic_join_tuples,
        prefix_join_tuples,
    )
}

/// Estimate plan costs for a [`crate::CorpusIndex`] probe from statistics
/// frozen at index (re)build time: the corpus token-frequency histogram and
/// the per-rank prefix-frequency histogram. O(probe batch) — the corpus is
/// never scanned — and the prebuilt indexes zero out both build-cost terms.
pub(crate) fn estimate_probe_costs_into(
    r: &SetCollection,
    corpus: &SetCollection,
    prefix_freq: &[u32],
    corpus_prefix_tuples: u64,
    pred: &OverlapPredicate,
    ws: &mut JoinWorkspace,
) -> CostEstimate {
    let sfreq = corpus.stats().token_freq();
    let mut basic_join_tuples = 0u64;
    for set in r.iter() {
        for &rank in set.ranks() {
            basic_join_tuples = basic_join_tuples.saturating_add(u64::from(sfreq[rank as usize]));
        }
    }
    let r_lens = &mut ws.r_lens;
    prefix_lengths_into(r, Side::R, pred, corpus.norm_range(), r_lens);
    let r_prefix_tuples: u64 = r_lens.iter().map(|&l| l as u64).sum();
    let mut prefix_join_tuples = 0u64;
    for (set, &len) in r.iter().zip(&*r_lens) {
        for &rank in &set.ranks()[..len] {
            prefix_join_tuples =
                prefix_join_tuples.saturating_add(u64::from(prefix_freq[rank as usize]));
        }
    }
    let mut est = finish_estimate(
        r,
        corpus,
        r_prefix_tuples,
        corpus_prefix_tuples,
        basic_join_tuples,
        prefix_join_tuples,
    );
    // Probes run against prebuilt indexes: no S-side build cost.
    est.s_index_tuples = 0;
    est.s_prefix_tuples = 0;
    est
}

/// Estimate plan costs from catalog statistics and one pass over each side.
pub fn estimate_costs(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
) -> CostEstimate {
    let mut ws = JoinWorkspace::new();
    estimate_costs_into(r, s, pred, &mut ws)
}

/// Materialize a plan choice onto a base context: the planner's knobs
/// (bitmap filter, threads) override the caller's; operational settings
/// (stats level, budget, cancellation, approximation) are preserved.
pub(crate) fn apply_plan(ctx: &ExecContext, choice: &PlanChoice) -> ExecContext {
    let mut out = ctx.clone();
    out.bitmap_filter = choice.bitmap_filter;
    out.threads = choice.threads;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::BudgetState;
    use crate::builder::{SsJoinInputBuilder, WeightScheme};
    use crate::exec::workspace::collect;
    use crate::order::ElementOrder;

    fn build(groups: Vec<Vec<String>>, scheme: WeightScheme) -> SetCollection {
        let mut b = SsJoinInputBuilder::new(scheme, ElementOrder::FrequencyAsc);
        let h = b.add_relation(groups);
        b.build().unwrap().collection(h).clone()
    }

    #[test]
    fn effective_threads_clamps_to_host() {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert_eq!(effective_threads(1), 1);
        assert_eq!(effective_threads(usize::MAX), cores);
        assert_eq!(effective_threads(0), 1);
    }

    #[test]
    fn basic_join_estimate_is_exact() {
        let groups: Vec<Vec<String>> = (0..30)
            .map(|i| (0..4).map(|j| format!("x{}", (i + j * 3) % 11)).collect())
            .collect();
        let c = build(groups, WeightScheme::Unweighted);
        let pred = OverlapPredicate::absolute(2.0);
        let est = estimate_costs(&c, &c, &pred);
        let (_, stats) = collect(|ws| {
            super::super::basic::run(
                &c,
                &c,
                &pred,
                &ExecContext::new(),
                &BudgetState::unlimited(),
                ws,
            )
        });
        assert_eq!(est.basic_join_tuples, stats.join_tuples);
    }

    #[test]
    fn prefix_join_estimate_is_exact() {
        let groups: Vec<Vec<String>> = (0..30)
            .map(|i| (0..5).map(|j| format!("x{}", (i * 7 + j) % 23)).collect())
            .collect();
        let c = build(groups, WeightScheme::Idf);
        let pred = OverlapPredicate::two_sided(0.8);
        let est = estimate_costs(&c, &c, &pred);
        let (_, stats) = collect(|ws| {
            super::super::prefix::run(
                &c,
                &c,
                &pred,
                &ExecContext::new(),
                &BudgetState::unlimited(),
                ws,
            )
        });
        assert_eq!(est.prefix_join_tuples, stats.join_tuples);
    }

    #[test]
    fn reused_workspace_estimates_identically() {
        let groups: Vec<Vec<String>> = (0..40)
            .map(|i| (0..5).map(|j| format!("y{}", (i * 3 + j) % 17)).collect())
            .collect();
        let c = build(groups, WeightScheme::Idf);
        let mut ws = JoinWorkspace::new();
        for pred in [
            OverlapPredicate::absolute(2.0),
            OverlapPredicate::two_sided(0.7),
        ] {
            let fresh = estimate_costs(&c, &c, &pred);
            let reused = estimate_costs_into(&c, &c, &pred, &mut ws);
            assert_eq!(fresh, reused, "pred {pred:?}");
        }
    }

    #[test]
    fn high_threshold_picks_prefix() {
        // High selectivity with a frequent token: prefix filtering avoids
        // almost the whole join.
        let groups: Vec<Vec<String>> = (0..80)
            .map(|i| {
                vec![
                    "common".to_string(),
                    format!("u{i}"),
                    format!("v{i}"),
                    format!("w{i}"),
                ]
            })
            .collect();
        let c = build(groups, WeightScheme::Idf);
        let pred = OverlapPredicate::two_sided(0.95);
        let est = estimate_costs(&c, &c, &pred);
        assert_eq!(est.choice(), Algorithm::Inline, "{est:?}");
    }

    #[test]
    fn low_threshold_can_pick_basic() {
        // At very low thresholds prefixes approach whole sets, so the
        // prefix plan pays the join AND the verification: basic wins.
        let groups: Vec<Vec<String>> = (0..40)
            .map(|i| (0..6).map(|j| format!("t{}", (i + j) % 10)).collect())
            .collect();
        let c = build(groups, WeightScheme::Unweighted);
        let pred = OverlapPredicate::absolute(1.0);
        let est = estimate_costs(&c, &c, &pred);
        assert_eq!(est.choice(), Algorithm::Basic, "{est:?}");
    }

    #[test]
    fn auto_output_matches_forced_algorithms() {
        let groups: Vec<Vec<String>> = (0..50)
            .map(|i| {
                (0..5)
                    .map(|j| format!("g{}", (i * 3 + j * 5) % 29))
                    .collect()
            })
            .collect();
        let c = build(groups, WeightScheme::Idf);
        let pred = OverlapPredicate::two_sided(0.6);
        let (mut auto_pairs, auto_stats) = collect(|ws| {
            super::super::run_algorithm(
                Algorithm::Auto,
                &c,
                &c,
                &pred,
                &ExecContext::new(),
                &BudgetState::unlimited(),
                ws,
            )
        });
        assert!(auto_stats.0.plan.is_some(), "auto must record its plan");
        let (mut basic_pairs, _) = collect(|ws| {
            super::super::basic::run(
                &c,
                &c,
                &pred,
                &ExecContext::new(),
                &BudgetState::unlimited(),
                ws,
            )
        });
        auto_pairs.sort_unstable_by_key(|p| (p.r, p.s));
        basic_pairs.sort_unstable_by_key(|p| (p.r, p.s));
        assert_eq!(auto_pairs, basic_pairs);
    }

    #[test]
    fn planner_prices_fourteen_configurations_at_multiple_threads() {
        assert_eq!(configurations(8).count(), 14);
        assert_eq!(configurations(2).count(), 14);
        assert_eq!(configurations(1).count(), 7);
        assert_eq!(configurations(0).count(), 7);
        // Every configuration is a concrete executor, and each thread level
        // appears with each executor × filter pair exactly once.
        let mut seen: Vec<_> = configurations(8).collect();
        assert!(seen.iter().all(|&(alg, _, _)| alg != Algorithm::Auto));
        seen.sort_by_key(|&(alg, filter, t)| (format!("{alg:?}"), filter, t));
        seen.dedup();
        assert_eq!(seen.len(), 14);
    }

    /// A large, skewed synthetic estimate where parallel execution clearly
    /// pays: the planner must spend the whole thread budget, on the executor
    /// it would pick sequentially (every executor parallelizes the same way,
    /// so threads rescale all their costs alike). Pure model — runs the same
    /// on any host, including single-core CI.
    #[test]
    fn plan_spends_thread_budget_on_large_parallel_work() {
        let est = CostEstimate {
            basic_join_tuples: 50_000_000,
            prefix_join_tuples: 1_000_000,
            prefix_verify_cost: 20_000_000,
            s_index_tuples: 200_000,
            s_prefix_tuples: 60_000,
            avg_len: 20,
            prefix_fraction_milli: 300,
            gallop_skew_milli: 500,
        };
        let (par, seq) = (est.plan(8), est.plan(1));
        assert_eq!(par.threads, 8, "{par:?}");
        assert_eq!(seq.threads, 1, "{seq:?}");
        assert_ne!(par.algorithm, Algorithm::Basic, "{par:?}");
        assert_eq!(
            (par.algorithm, par.bitmap_filter),
            (seq.algorithm, seq.bitmap_filter)
        );
    }

    #[test]
    fn plan_stays_sequential_for_tiny_inputs() {
        let est = CostEstimate {
            basic_join_tuples: 900,
            prefix_join_tuples: 120,
            prefix_verify_cost: 600,
            s_index_tuples: 200,
            s_prefix_tuples: 60,
            avg_len: 5,
            prefix_fraction_milli: 400,
            gallop_skew_milli: 0,
        };
        let choice = est.plan(8);
        assert_eq!(choice.threads, 1, "{choice:?}");
        assert_ne!(choice.algorithm, Algorithm::Auto);
    }

    #[test]
    fn plan_enables_filter_for_long_selective_merges() {
        let est = CostEstimate {
            basic_join_tuples: u64::MAX / 4,
            prefix_join_tuples: 2_000_000,
            prefix_verify_cost: 100_000_000,
            s_index_tuples: 0,
            s_prefix_tuples: 0,
            avg_len: 200,
            prefix_fraction_milli: 50,
            gallop_skew_milli: 0,
        };
        // Long merges and a highly selective predicate: the filter pays for
        // itself.
        let choice = est.plan(1);
        assert!(choice.bitmap_filter, "{choice:?}");
        // Short merges under a loose predicate: the probe costs more than
        // the merges it saves, so the filter stays off.
        let short = CostEstimate {
            avg_len: 4,
            prefix_fraction_milli: 900,
            ..est
        };
        assert!(!short.plan(1).bitmap_filter, "{:?}", short.plan(1));
    }

    #[test]
    fn sampled_estimate_tracks_exact_estimate() {
        // Same corpus shape evaluated exactly; the sampled fraction on the
        // full collection must land near the exact prefix fraction.
        let groups: Vec<Vec<String>> = (0..300)
            .map(|i| (0..6).map(|j| format!("z{}", (i * 5 + j) % 97)).collect())
            .collect();
        let c = build(groups, WeightScheme::Idf);
        let pred = OverlapPredicate::two_sided(0.8);
        let mut lens = Vec::new();
        prefix_lengths_into(&c, Side::S, &pred, c.norm_range(), &mut lens);
        let exact: u64 = lens.iter().map(|&l| l as u64).sum();
        let exact_frac = exact as f64 / c.tuple_count() as f64;
        let sampled = sampled_prefix_fraction(&c, Side::S, &pred, c.norm_range());
        assert!(
            (sampled - exact_frac).abs() < 0.25,
            "sampled {sampled} vs exact {exact_frac}"
        );
    }

    #[test]
    fn plan_displays_compactly() {
        let choice = PlanChoice {
            algorithm: Algorithm::Inline,
            bitmap_filter: true,
            threads: 8,
            cost: 12345,
            partitions: 0,
            approx_recall_milli: None,
        };
        assert_eq!(choice.to_string(), "Inline/bitmap/8t cost=12345");
        let off = PlanChoice {
            bitmap_filter: false,
            ..choice
        };
        assert!(off.to_string().contains("/off/"), "{off}");
        let spilled = PlanChoice {
            partitions: 4,
            ..choice
        };
        assert_eq!(spilled.to_string(), "Inline/bitmap/8t cost=12345 spill=4p");
        let approx = PlanChoice {
            approx_recall_milli: Some(900),
            ..choice
        };
        assert_eq!(
            approx.to_string(),
            "Inline/bitmap/8t cost=12345 approx=0.90"
        );
    }
}
