//! Execution budgets and cooperative cancellation.
//!
//! A production operator must be able to bound a join — by candidate volume,
//! by output volume, by wall clock, or by estimated memory — and to abort one
//! that a caller no longer wants. This module supplies the two public knobs
//! ([`ExecBudget`], [`CancelToken`]) carried on [`crate::ExecContext`], the
//! typed abort cause ([`BudgetCause`]) reported through
//! [`crate::SsJoinError::BudgetExceeded`], and the crate-internal
//! [`BudgetState`] the executors consult cooperatively.
//!
//! The contract, shared by every executor:
//!
//! * Limits are checked at **probe-group granularity** — once per probe
//!   group of each worker's chunk, plus once at every phase boundary. A
//!   join never overshoots a limit by more than one unit of work.
//! * The first worker to observe a violation trips a shared flag; every
//!   other worker aborts at its next checkpoint. No thread is killed, no
//!   panic is raised, and no partially-written state escapes: the run
//!   returns [`crate::SsJoinError::BudgetExceeded`] carrying the merged
//!   partial statistics.
//! * When no limit is set and no token is attached, the checkpoint is a
//!   single predictable branch on a plain `bool` — the budget layer costs
//!   nothing measurable on the unbudgeted fast path.

use crate::set::SetCollection;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Optional resource limits for one SSJoin execution.
///
/// The default budget is unlimited. Each limit is independent; the first one
/// exceeded aborts the run with the matching [`BudgetCause`].
///
/// ```
/// use ssjoin_core::ExecBudget;
/// use std::time::Duration;
///
/// let budget = ExecBudget::new()
///     .with_max_candidate_pairs(1_000_000)
///     .with_deadline(Duration::from_millis(250));
/// assert!(!budget.is_unlimited());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecBudget {
    /// Abort once more than this many candidate pairs have been generated
    /// (on a symmetric self-join, unordered pairs: see
    /// [`crate::SsJoinStats`]).
    pub max_candidate_pairs: Option<u64>,
    /// Abort once more than this many output pairs have been emitted —
    /// both orientations of a self-join pair, as the output holds them.
    pub max_output_pairs: Option<u64>,
    /// Abort once this much wall-clock time has elapsed since the run began.
    pub deadline: Option<Duration>,
    /// Reject the run up front when the estimated index + scratch memory
    /// exceeds this many bytes (a preflight check; nothing is allocated
    /// first).
    pub max_memory_bytes: Option<u64>,
    /// Keep the run's resident working set under this many bytes by
    /// switching to out-of-core execution instead of rejecting it: when the
    /// whole-input estimate exceeds the budget, the join is split into
    /// token-range partitions sized to fit (see [`crate::plan_spill`]), each
    /// built from the inputs and joined one partition at a time, and merged
    /// back deterministically; no temp file is written. Output is
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

    /// Limit the number of candidate pairs generated.
    pub fn with_max_candidate_pairs(mut self, n: u64) -> Self {
        self.max_candidate_pairs = Some(n);
        self
    }

    /// Limit the number of output pairs emitted.
    pub fn with_max_output_pairs(mut self, n: u64) -> Self {
        self.max_output_pairs = Some(n);
        self
    }

    /// Bound the wall-clock runtime.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Bound the estimated index + scratch memory in bytes.
    pub fn with_max_memory_bytes(mut self, bytes: u64) -> Self {
        self.max_memory_bytes = Some(bytes);
        self
    }

    /// Bound the resident working set in bytes; oversized joins run in
    /// token-range partitions instead of failing (see
    /// [`ExecBudget::max_resident_bytes`]).
    pub fn with_max_resident_bytes(mut self, bytes: u64) -> Self {
        self.max_resident_bytes = Some(bytes);
        self
    }

    /// True when no limit is set.
    ///
    /// `max_resident_bytes` deliberately does not count: it changes the
    /// execution strategy, not the admissible work, so on its own it must
    /// not activate the per-checkpoint slow path.
    pub fn is_unlimited(&self) -> bool {
        self.max_candidate_pairs.is_none()
            && self.max_output_pairs.is_none()
            && self.deadline.is_none()
            && self.max_memory_bytes.is_none()
    }
}

/// Shared cooperative cancellation flag.
///
/// Clone the token, hand one clone to the execution context and keep the
/// other; calling [`CancelToken::cancel`] from any thread makes every
/// executor abort at its next checkpoint and return
/// [`crate::SsJoinError::BudgetExceeded`] with [`BudgetCause::Cancelled`].
///
/// Equality is identity: two tokens compare equal exactly when they share
/// one flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for CancelToken {}

/// Which limit aborted a budgeted execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetCause {
    /// [`ExecBudget::max_candidate_pairs`] was exceeded.
    CandidatePairs,
    /// [`ExecBudget::max_output_pairs`] was exceeded.
    OutputPairs,
    /// [`ExecBudget::deadline`] passed.
    Deadline,
    /// The preflight memory estimate exceeded
    /// [`ExecBudget::max_memory_bytes`].
    Memory,
    /// The attached [`CancelToken`] was cancelled.
    Cancelled,
}

impl BudgetCause {
    /// Stable lowercase name (used by the experiments harness).
    pub fn name(self) -> &'static str {
        match self {
            BudgetCause::CandidatePairs => "candidate-pairs",
            BudgetCause::OutputPairs => "output-pairs",
            BudgetCause::Deadline => "deadline",
            BudgetCause::Memory => "memory",
            BudgetCause::Cancelled => "cancelled",
        }
    }

    fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(BudgetCause::CandidatePairs),
            2 => Some(BudgetCause::OutputPairs),
            3 => Some(BudgetCause::Deadline),
            4 => Some(BudgetCause::Memory),
            5 => Some(BudgetCause::Cancelled),
            _ => None,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            BudgetCause::CandidatePairs => 1,
            BudgetCause::OutputPairs => 2,
            BudgetCause::Deadline => 3,
            BudgetCause::Memory => 4,
            BudgetCause::Cancelled => 5,
        }
    }
}

impl fmt::Display for BudgetCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Shared per-execution budget state: counters, deadline, and the abort
/// flag every worker thread polls. Created by [`crate::ssjoin`] once per
/// run and threaded through the executors by reference.
pub(crate) struct BudgetState {
    /// False when no limit is set and no token is attached — the checkpoint
    /// fast path.
    active: bool,
    deadline: Option<Instant>,
    max_candidates: u64,
    max_output: u64,
    cancel: Option<CancelToken>,
    candidates: AtomicU64,
    output: AtomicU64,
    /// False while a spill partition joins: its pairs are charged only once
    /// the ownership filter has dropped those another partition owns.
    charge_output: AtomicBool,
    /// 0 = running; otherwise a [`BudgetCause`] discriminant. First writer
    /// wins.
    cause: AtomicU8,
    checks: AtomicU64,
}

impl BudgetState {
    pub(crate) fn new(budget: &ExecBudget, cancel: Option<&CancelToken>) -> Self {
        let active = !budget.is_unlimited() || cancel.is_some();
        Self {
            active,
            deadline: budget.deadline.map(|d| Instant::now() + d),
            max_candidates: budget.max_candidate_pairs.unwrap_or(u64::MAX),
            max_output: budget.max_output_pairs.unwrap_or(u64::MAX),
            cancel: cancel.cloned(),
            candidates: AtomicU64::new(0),
            output: AtomicU64::new(0),
            charge_output: AtomicBool::new(true),
            cause: AtomicU8::new(0),
            checks: AtomicU64::new(0),
        }
    }

    /// An inactive state for direct executor invocations (tests, benches).
    #[cfg(test)]
    pub(crate) fn unlimited() -> Self {
        Self::new(&ExecBudget::default(), None)
    }

    fn trip(&self, cause: BudgetCause) {
        // First violation wins; later ones (possibly different causes on
        // other threads) keep the original.
        let _ = self
            .cause
            .compare_exchange(0, cause.as_u8(), Ordering::AcqRel, Ordering::Acquire);
    }

    /// Charge `cand_delta` candidate pairs and `out_delta` output pairs,
    /// then check every limit. Returns `true` to continue, `false` when the
    /// run must abort (some limit tripped here or on another thread).
    #[inline]
    pub(crate) fn checkpoint(&self, cand_delta: u64, out_delta: u64) -> bool {
        if !self.active {
            return true;
        }
        self.checkpoint_slow(cand_delta, out_delta)
    }

    #[cold]
    fn checkpoint_slow(&self, cand_delta: u64, out_delta: u64) -> bool {
        self.checks.fetch_add(1, Ordering::Relaxed);
        if self.cause.load(Ordering::Acquire) != 0 {
            return false;
        }
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                self.trip(BudgetCause::Cancelled);
                return false;
            }
        }
        let cand = self.candidates.fetch_add(cand_delta, Ordering::Relaxed) + cand_delta;
        if cand > self.max_candidates {
            self.trip(BudgetCause::CandidatePairs);
            return false;
        }
        let out_delta = if self.charge_output.load(Ordering::Relaxed) {
            out_delta
        } else {
            0
        };
        let out = self.output.fetch_add(out_delta, Ordering::Relaxed) + out_delta;
        if out > self.max_output {
            self.trip(BudgetCause::OutputPairs);
            return false;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.trip(BudgetCause::Deadline);
                return false;
            }
        }
        true
    }

    /// Checkpoint with no work to charge — used at phase boundaries so a
    /// passed deadline or a cancel aborts before the next phase starts.
    #[inline]
    pub(crate) fn proceed(&self) -> bool {
        self.checkpoint(0, 0)
    }

    /// Stop (`false`) or resume (`true`) charging the output deltas that
    /// checkpoints report. Call only between executor runs, never while
    /// workers are live.
    pub(crate) fn charge_output(&self, on: bool) {
        self.charge_output.store(on, Ordering::Relaxed);
    }

    /// The cause that aborted the run, if any.
    pub(crate) fn cause(&self) -> Option<BudgetCause> {
        BudgetCause::from_u8(self.cause.load(Ordering::Acquire))
    }

    /// Trip the memory cause directly (preflight rejection).
    pub(crate) fn trip_memory(&self) {
        self.trip(BudgetCause::Memory);
    }

    /// Number of budget checkpoints taken.
    pub(crate) fn checks(&self) -> u64 {
        self.checks.load(Ordering::Relaxed)
    }
}

/// Estimate the index + scratch memory (bytes) an execution over `r` and `s`
/// will allocate, for the preflight check against
/// [`ExecBudget::max_memory_bytes`].
///
/// The model covers the dominant allocations shared by the executors: the
/// CSR inverted indexes (per side: `universe + 1` offsets, `universe`
/// cursors, and one `u32` posting per tuple), the dense per-probe scratch
/// arrays over S ids, and the per-set prefix-length tables. It is
/// deliberately a slight over-estimate — the check exists to refuse runs
/// that would obviously blow a caller's memory envelope, not to account
/// bytes exactly.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited_and_state_inactive() {
        let b = ExecBudget::default();
        assert!(b.is_unlimited());
        let st = BudgetState::new(&b, None);
        assert!(!st.active);
        for _ in 0..100 {
            assert!(st.checkpoint(1_000_000, 1_000_000));
        }
        assert_eq!(st.cause(), None);
        // The fast path never even counts checks.
        assert_eq!(st.checks(), 0);
    }

    #[test]
    fn candidate_limit_trips_once_exceeded() {
        let b = ExecBudget::new().with_max_candidate_pairs(10);
        let st = BudgetState::new(&b, None);
        assert!(st.checkpoint(10, 0)); // exactly at the limit: fine
        assert!(!st.checkpoint(1, 0));
        assert_eq!(st.cause(), Some(BudgetCause::CandidatePairs));
        // Subsequent checkpoints on other "threads" keep failing fast.
        assert!(!st.checkpoint(0, 0));
        assert!(st.checks() >= 3);
    }

    #[test]
    fn output_limit_trips() {
        let b = ExecBudget::new().with_max_output_pairs(2);
        let st = BudgetState::new(&b, None);
        assert!(st.checkpoint(100, 2));
        assert!(!st.checkpoint(0, 1));
        assert_eq!(st.cause(), Some(BudgetCause::OutputPairs));
    }

    #[test]
    fn zero_deadline_aborts_immediately() {
        let b = ExecBudget::new().with_deadline(Duration::ZERO);
        let st = BudgetState::new(&b, None);
        assert!(!st.proceed());
        assert_eq!(st.cause(), Some(BudgetCause::Deadline));
    }

    #[test]
    fn first_cause_wins() {
        let b = ExecBudget::new()
            .with_max_candidate_pairs(1)
            .with_max_output_pairs(1);
        let st = BudgetState::new(&b, None);
        assert!(!st.checkpoint(5, 5));
        assert_eq!(st.cause(), Some(BudgetCause::CandidatePairs));
        assert!(!st.checkpoint(0, 5));
        assert_eq!(st.cause(), Some(BudgetCause::CandidatePairs));
    }

    #[test]
    fn cancel_token_shared_across_clones() {
        let token = CancelToken::new();
        let st = BudgetState::new(&ExecBudget::default(), Some(&token));
        assert!(st.active, "a token alone activates the state");
        assert!(st.proceed());
        token.clone().cancel();
        assert!(!st.proceed());
        assert_eq!(st.cause(), Some(BudgetCause::Cancelled));
        assert!(token.is_cancelled());
    }

    #[test]
    fn token_equality_is_identity() {
        let a = CancelToken::new();
        let b = a.clone();
        let c = CancelToken::new();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn cause_names_roundtrip() {
        for cause in [
            BudgetCause::CandidatePairs,
            BudgetCause::OutputPairs,
            BudgetCause::Deadline,
            BudgetCause::Memory,
            BudgetCause::Cancelled,
        ] {
            assert_eq!(BudgetCause::from_u8(cause.as_u8()), Some(cause));
            assert_eq!(cause.to_string(), cause.name());
        }
        assert_eq!(BudgetCause::from_u8(0), None);
    }
}
