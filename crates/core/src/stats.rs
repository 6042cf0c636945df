//! Execution statistics: phase timings and counters.
//!
//! The paper's figures are stacked per-phase bars (Prep / Prefix-filter /
//! SSJoin / Filter) and Table 1 counts similarity computations, so
//! instrumentation is part of the operator contract, not an afterthought.

use std::fmt;
use std::time::Duration;

/// The phases of an SSJoin execution, named as in Figures 10–12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Input preparation (set construction, normalization).
    Prep,
    /// Prefix extraction (prefix-filtered and inline algorithms only).
    PrefixFilter,
    /// Candidate generation: the equi-join (and, for the prefix-filtered
    /// algorithm, the joins back to the base relations plus the group-by).
    SsJoin,
    /// Residual predicate / similarity-function verification.
    Filter,
}

impl Phase {
    /// All phases, in execution order.
    pub const ALL: [Phase; 4] = [
        Phase::Prep,
        Phase::PrefixFilter,
        Phase::SsJoin,
        Phase::Filter,
    ];

    /// Paper-style display name.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Prep => "Prep",
            Phase::PrefixFilter => "Prefix-filter",
            Phase::SsJoin => "SSJoin",
            Phase::Filter => "Filter",
        }
    }
}

/// Statistics of one SSJoin execution.
///
/// `PartialEq`/`Eq` compare every field (all counters and durations), so a
/// stats record can ride inside [`crate::SsJoinError::BudgetExceeded`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SsJoinStats {
    /// Wall time per phase.
    phase_times: [Duration; 4],
    /// Tuples flowing through the element equi-join (the B-join size §4.1
    /// worries about).
    pub join_tuples: u64,
    /// Prefix tuples let through on the R side (prefix algorithms only).
    pub prefix_tuples_r: u64,
    /// Prefix tuples let through on the S side.
    pub prefix_tuples_s: u64,
    /// Distinct candidate `(R.A, S.A)` group pairs compared.
    pub candidate_pairs: u64,
    /// Candidate pairs whose full overlap was computed (verification work).
    pub verified_pairs: u64,
    /// Pairs in the final result.
    pub output_pairs: u64,
    /// Candidate pairs probed against the bitmap signature filter.
    pub bitmap_probes: u64,
    /// Candidate pairs rejected by the bitmap signature filter (no
    /// verification merge performed).
    pub bitmap_prunes: u64,
    /// Element-comparison steps taken by verification merge kernels
    /// (two-pointer advances; galloping lookups count probes instead).
    pub merge_steps: u64,
    /// Verification merges abandoned early because the accumulated overlap
    /// plus the remaining suffix weight could not reach the required
    /// threshold.
    pub early_exits: u64,
    /// Rank comparisons performed by the galloping kernel's exponential
    /// probes and binary searches.
    pub gallop_probes: u64,
    /// Budget checkpoints taken (0 when no limit and no cancel token was
    /// set — the inactive fast path skips counting entirely).
    pub budget_checks: u64,
    /// Worker threads the run actually used after clamping the requested
    /// count to the host's `available_parallelism` (0 in per-worker partial
    /// records; set once on the final stats).
    pub effective_threads: u64,
    /// Bytes of buffer capacity held by the [`crate::exec::JoinWorkspace`]
    /// after the run — the memory a reused workspace amortizes.
    pub bytes_reserved: u64,
    /// Completed runs on the same workspace before this one; 0 on a cold
    /// workspace, so any positive value marks an allocation-free warm run.
    pub workspace_reuses: u64,
    /// Token-range partitions the out-of-core spill driver executed (0 when
    /// the run stayed fully resident).
    pub spill_partitions: u64,
    /// Bytes written to the temp-dir spill file (frame payloads plus
    /// per-frame length/checksum overhead and the file header).
    pub spill_bytes: u64,
    /// Peak per-partition resident-memory estimate of the spilled run, by
    /// the same model as [`crate::budget::estimate_memory_bytes`].
    pub spill_peak_resident_bytes: u64,
    /// LSH repetitions built (and probed) by the approximate candidate
    /// generator — 0 on every exact run. A run-level fact like
    /// `effective_threads`, not per-worker work.
    pub approx_reps: u64,
    /// The full configuration the cost-based planner chose, set only when
    /// the run was configured with [`crate::Algorithm::Auto`] — the
    /// explainability record for auto runs.
    pub plan: Option<crate::exec::PlanChoice>,
}

impl SsJoinStats {
    fn idx(phase: Phase) -> usize {
        match phase {
            Phase::Prep => 0,
            Phase::PrefixFilter => 1,
            Phase::SsJoin => 2,
            Phase::Filter => 3,
        }
    }

    /// Add time to a phase.
    pub fn add_time(&mut self, phase: Phase, d: Duration) {
        self.phase_times[Self::idx(phase)] += d;
    }

    /// Time spent in a phase.
    pub fn time(&self, phase: Phase) -> Duration {
        self.phase_times[Self::idx(phase)]
    }

    /// Total time across phases.
    pub fn total_time(&self) -> Duration {
        self.phase_times.iter().sum()
    }

    /// Merge another stats record into this one (summing everything).
    pub fn merge(&mut self, other: &SsJoinStats) {
        for p in Phase::ALL {
            self.add_time(p, other.time(p));
        }
        self.join_tuples += other.join_tuples;
        self.prefix_tuples_r += other.prefix_tuples_r;
        self.prefix_tuples_s += other.prefix_tuples_s;
        self.candidate_pairs += other.candidate_pairs;
        self.verified_pairs += other.verified_pairs;
        self.output_pairs += other.output_pairs;
        self.bitmap_probes += other.bitmap_probes;
        self.bitmap_prunes += other.bitmap_prunes;
        self.merge_steps += other.merge_steps;
        self.early_exits += other.early_exits;
        self.gallop_probes += other.gallop_probes;
        self.budget_checks += other.budget_checks;
        // Run-level facts, not per-worker work: take the max so merging a
        // worker's partial record (all zeros here) never erases them.
        self.effective_threads = self.effective_threads.max(other.effective_threads);
        self.bytes_reserved = self.bytes_reserved.max(other.bytes_reserved);
        self.workspace_reuses = self.workspace_reuses.max(other.workspace_reuses);
        self.spill_partitions = self.spill_partitions.max(other.spill_partitions);
        self.spill_bytes = self.spill_bytes.max(other.spill_bytes);
        self.spill_peak_resident_bytes = self
            .spill_peak_resident_bytes
            .max(other.spill_peak_resident_bytes);
        self.approx_reps = self.approx_reps.max(other.approx_reps);
        // The plan is chosen once per run, never per worker: keep the first.
        self.plan = self.plan.or(other.plan);
    }
}

impl fmt::Display for SsJoinStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in Phase::ALL {
            write!(f, "{}={:?} ", p.label(), self.time(p))?;
        }
        write!(
            f,
            "join_tuples={} prefix_r={} prefix_s={} candidates={} verified={} output={}",
            self.join_tuples,
            self.prefix_tuples_r,
            self.prefix_tuples_s,
            self.candidate_pairs,
            self.verified_pairs,
            self.output_pairs
        )?;
        if self.bitmap_probes > 0 {
            write!(
                f,
                " bitmap_probes={} bitmap_prunes={}",
                self.bitmap_probes, self.bitmap_prunes
            )?;
        }
        if self.merge_steps > 0 || self.early_exits > 0 || self.gallop_probes > 0 {
            write!(
                f,
                " merge_steps={} early_exits={} gallop_probes={}",
                self.merge_steps, self.early_exits, self.gallop_probes
            )?;
        }
        if self.effective_threads > 0 {
            write!(
                f,
                " threads={} reserved={}B reuses={}",
                self.effective_threads, self.bytes_reserved, self.workspace_reuses
            )?;
        }
        if self.spill_partitions > 0 {
            write!(
                f,
                " spill_partitions={} spill_bytes={} spill_peak={}B",
                self.spill_partitions, self.spill_bytes, self.spill_peak_resident_bytes
            )?;
        }
        if self.approx_reps > 0 {
            write!(f, " approx_reps={}", self.approx_reps)?;
        }
        if let Some(plan) = &self.plan {
            write!(f, " plan={plan}")?;
        }
        Ok(())
    }
}

/// Time a closure, attributing its duration to `phase`. Executors call it
/// once per phase per worker, never per pair, so the clock reads stay off
/// the hot path.
pub(crate) fn timed_phase<T>(
    stats: &mut SsJoinStats,
    phase: Phase,
    f: impl FnOnce(&mut SsJoinStats) -> T,
) -> T {
    let start = std::time::Instant::now();
    let out = f(stats);
    stats.add_time(phase, start.elapsed());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_accounting() {
        let mut s = SsJoinStats::default();
        s.add_time(Phase::Prep, Duration::from_millis(3));
        s.add_time(Phase::SsJoin, Duration::from_millis(5));
        s.add_time(Phase::SsJoin, Duration::from_millis(2));
        assert_eq!(s.time(Phase::Prep), Duration::from_millis(3));
        assert_eq!(s.time(Phase::SsJoin), Duration::from_millis(7));
        assert_eq!(s.time(Phase::Filter), Duration::ZERO);
        assert_eq!(s.total_time(), Duration::from_millis(10));
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn merge_sums_everything() {
        let mut a = SsJoinStats::default();
        a.join_tuples = 5;
        a.output_pairs = 1;
        a.add_time(Phase::Filter, Duration::from_millis(1));
        a.effective_threads = 4;
        a.budget_checks = 2;
        let mut b = SsJoinStats::default();
        b.join_tuples = 7;
        b.output_pairs = 2;
        b.add_time(Phase::Filter, Duration::from_millis(4));
        b.effective_threads = 2;
        b.budget_checks = 3;
        a.merge(&b);
        assert_eq!(a.join_tuples, 12);
        assert_eq!(a.output_pairs, 3);
        assert_eq!(a.time(Phase::Filter), Duration::from_millis(5));
        // Run-level facts take the max — every counter sums. Merging the
        // other way around must agree.
        assert_eq!(a.effective_threads, 4);
        assert_eq!(a.budget_checks, 5);
        let mut c = SsJoinStats::default();
        c.effective_threads = 2;
        let mut d = SsJoinStats::default();
        d.effective_threads = 4;
        c.merge(&d);
        assert_eq!(c.effective_threads, 4, "max is order-independent");
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn merge_filter_and_kernel_counters() {
        let mut a = SsJoinStats::default();
        a.bitmap_probes = 10;
        a.bitmap_prunes = 4;
        let mut b = SsJoinStats::default();
        b.bitmap_probes = 5;
        b.merge_steps = 11;
        b.early_exits = 3;
        b.gallop_probes = 7;
        a.merge(&b);
        assert_eq!(a.bitmap_probes, 15);
        assert_eq!(a.merge_steps, 11);
        assert_eq!(a.early_exits, 3);
        assert_eq!(a.gallop_probes, 7);
        assert_eq!(a.bitmap_prunes, 4);
    }

    #[test]
    fn timed_phase_records() {
        let mut s = SsJoinStats::default();
        let out = timed_phase(&mut s, Phase::Prep, |_| 42);
        assert_eq!(out, 42);
        // Duration may round to zero on coarse clocks; just ensure no panic
        // and display renders.
        let _ = s.to_string();
    }

    #[test]
    fn labels() {
        assert_eq!(Phase::PrefixFilter.label(), "Prefix-filter");
        assert_eq!(Phase::ALL.len(), 4);
    }
}
