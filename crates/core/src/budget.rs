//! The resident-memory budget that routes a join out of core.
//!
//! [`ExecBudget`] carries one value, `max_resident_bytes`, on
//! [`crate::ExecContext`]. When [`estimate_memory_bytes`] prices a join above
//! it, the run executes in token-range partitions (`crate::spill`) instead of
//! all at once; output is the same either way. Time limits and cancellation
//! belong to the host engine that schedules the operator, not to it.

use crate::set::SetCollection;

/// The resident-memory budget of one SSJoin execution.
///
/// The default budget is unlimited: every join runs resident.
///
/// ```
/// use ssjoin_core::ExecBudget;
///
/// let budget = ExecBudget::new().with_max_resident_bytes(20 << 20);
/// assert_eq!(budget.max_resident_bytes, Some(20 << 20));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecBudget {
    /// Keep the run's resident working set under this many bytes by
    /// switching to out-of-core execution instead of rejecting it: when the
    /// whole-input estimate exceeds the budget, the join is split into
    /// token-range partitions sized to fit (see [`crate::plan_spill`]), each
    /// built from the inputs and joined one partition at a time, and the
    /// kept pairs are sorted into one output; no temp file is written. Output is
    /// bit-identical to an unbudgeted run. The budget bounds each
    /// partition's working set, not the process (the input collections stay
    /// resident), and it is best effort: when no partition count fits, the
    /// smallest-peak plan runs and reports
    /// `SsJoinStats::spill_peak_resident_bytes` above it.
    pub max_resident_bytes: Option<u64>,
}

impl ExecBudget {
    /// An unlimited budget (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound the resident working set in bytes; oversized joins run in
    /// token-range partitions instead of failing (see
    /// [`ExecBudget::max_resident_bytes`]).
    pub fn with_max_resident_bytes(mut self, bytes: u64) -> Self {
        self.max_resident_bytes = Some(bytes);
        self
    }
}

/// Estimate the index + scratch memory (bytes) an execution over `r` and `s`
/// will allocate. A run whose estimate exceeds
/// [`ExecBudget::max_resident_bytes`] is routed out of core.
///
/// The model covers the dominant allocations shared by the executors: the
/// CSR inverted indexes (per side: `universe + 1` offsets, `universe`
/// cursors, and one `u32` posting per tuple), the dense per-probe scratch
/// arrays over S ids (one copy, though each worker holds its own), the
/// per-set prefix-length tables and the bitmap signatures. It leaves out
/// the sets' suffix weights and per-set records, the output pair buffers
/// and, for a spill partition, the sub-arena (the spill planner adds a
/// fixed per-element and per-set term for that), so it can fall short of
/// what a run holds. It decides whether a run must be split; ROADMAP item
/// 12 is to check it against the bytes a run holds.
pub fn estimate_memory_bytes(r: &SetCollection, s: &SetCollection) -> u64 {
    resident_estimate(
        r.universe_size().max(s.universe_size()) as u64,
        r.len() as u64,
        s.len() as u64,
        (r.tuple_count() + s.tuple_count()) as u64,
    )
}

/// The resident memory model behind [`estimate_memory_bytes`], over raw
/// quantities so the spill planner prices one partition with the same terms.
pub(crate) fn resident_estimate(universe: u64, r_sets: u64, s_sets: u64, tuples: u64) -> u64 {
    // Two CSR indexes, a conservative charge (a run builds one): offsets
    // (universe + 1) + cursors (universe) of 4 bytes each per side, plus the
    // shared posting arenas.
    let postings = 2 * (2 * universe + 1) * 4 + tuples * 4;
    // Dense S-side scratch: weight accumulator (8) + stamp (4), per worker
    // in the worst case is ignored — one copy is charged because chunked
    // workers share the candidate space roughly evenly.
    let scratch = s_sets * 12;
    let prefix_tables = (r_sets + s_sets) * 8;
    // Arena block added after the original model: the 8×u64 bitmap
    // signature per set.
    let signatures = (r_sets + s_sets) * (crate::set::SIG_WORDS as u64 * 8);
    postings + scratch + prefix_tables + signatures
}
