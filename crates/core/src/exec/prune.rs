//! The bitmap prune every executor runs per candidate pair, and the per-set
//! columns it reads.
//!
//! A candidate `(r, s)` is pruned when the signature bound of
//! [`crate::SetRef::wide_overlap_bound`] falls strictly below the pair's
//! required overlap. On the edit join over q-gram sets that test runs for
//! tens of millions of candidates and rejects more than 99% of them, so it
//! is kept to a few loads and word operations:
//!
//! - each side's set record (signature, total, minimum weight) is one
//!   contiguous 80-byte read from the collection ([`crate::set`]);
//! - each set's signature popcount is computed once per run, so the bound
//!   needs only the popcounts of `sig_r & sig_s` (the popcount identity);
//! - when the predicate splits ([`OverlapPredicate::split`]) the required
//!   overlap is `max(req_r, req_s)` over two per-set values computed once
//!   per run, instead of a walk of the predicate's expression tree per pair.
//!   A predicate that does not split (cosine's `c · R.norm · S.norm`)
//!   evaluates per pair, in the same helper.
//!
//! The per-set values ([`SetBound`]) live in buffers pooled by
//! [`super::JoinWorkspace`], or, for a persistent index's corpus, in the
//! [`crate::CorpusIndex`] itself.

use super::prefix::Side;
use crate::predicate::OverlapPredicate;
use crate::set::SetCollection;
use crate::stats::SsJoinStats;
use crate::weight::Weight;

/// One set's per-run prune inputs: its share of the required overlap and its
/// signature popcount. Packed to 10 bytes (fields are only ever copied
/// out), so the column costs a persistent index or a 330K-set join little
/// memory.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, packed)]
pub(crate) struct SetBound {
    /// The split predicate's requirement for this set's side (`ZERO`, and
    /// unread, when the predicate does not split).
    required: Weight,
    /// Set bits in the set's signature (at most `64 · SIG_WORDS`).
    pop: u16,
}

/// Fill `out` with one [`SetBound`] per set of `c` playing `side` under
/// `pred`.
pub(crate) fn bounds_into(
    c: &SetCollection,
    pred: &OverlapPredicate,
    side: Side,
    out: &mut Vec<SetBound>,
) {
    let split = pred.split();
    out.clear();
    out.extend(c.records().iter().zip(c.norms()).map(|(record, &norm)| {
        let required = match (split, side) {
            (None, _) => Weight::ZERO,
            (Some(p), Side::R) => p.required_r(norm),
            (Some(p), Side::S) => p.required_s(norm),
        };
        SetBound {
            required,
            // A signature has 512 bits, so its popcount fits.
            pop: record.popcount() as u16,
        }
    }));
}

/// Fill the prune columns of `r ⋈ s`: `s_out` for the S side, and `r_out`
/// for the R side unless `shared`. A symmetric self-join
/// ([`super::symmetric_self_join`]) passes `shared`, and its one column,
/// `s_out`, serves both roles: a symmetric predicate's conjuncts are each
/// other's mirror images, so the S-side parts of its split are the R-side
/// parts of the mirrored conjuncts, and `required_s(x) == required_r(x)`
/// for every norm `x`.
pub(crate) fn join_bounds_into(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
    shared: bool,
    r_out: &mut Vec<SetBound>,
    s_out: &mut Vec<SetBound>,
) {
    if shared {
        r_out.clear();
    } else {
        bounds_into(r, pred, Side::R, r_out);
    }
    bounds_into(s, pred, Side::S, s_out);
}

/// The per-candidate prune and required overlap of one run of `r ⋈ s`.
#[derive(Clone, Copy)]
pub(crate) struct Prune<'a> {
    r: &'a SetCollection,
    s: &'a SetCollection,
    r_bounds: &'a [SetBound],
    s_bounds: &'a [SetBound],
    /// The predicate, when it does not split and so is evaluated per pair.
    per_pair: Option<&'a OverlapPredicate>,
    /// `ExecContext::bitmap_filter`.
    filter: bool,
}

impl<'a> Prune<'a> {
    /// The prune of `r ⋈ s` under `pred`, over columns that
    /// [`bounds_into`] filled for the same predicate. A persistent index's
    /// S column covers only its indexed sets, the only ones its probes
    /// reach, so `s_bounds` may be shorter than `s`.
    pub(crate) fn new(
        r: &'a SetCollection,
        s: &'a SetCollection,
        r_bounds: &'a [SetBound],
        s_bounds: &'a [SetBound],
        pred: &'a OverlapPredicate,
        filter: bool,
    ) -> Self {
        debug_assert_eq!(r_bounds.len(), r.len());
        debug_assert!(s_bounds.len() <= s.len());
        Self {
            r,
            s,
            r_bounds,
            s_bounds,
            per_pair: pred.split().is_none().then_some(pred),
            filter,
        }
    }

    /// The required overlap of the pair `(rid, sid)`: bit for bit
    /// `pred.required_overlap(r.norm, s.norm)`.
    #[inline]
    pub(crate) fn required(&self, rid: u32, sid: u32) -> Weight {
        match self.per_pair {
            None => {
                let (a, b) = (self.r_bounds[rid as usize], self.s_bounds[sid as usize]);
                let (ra, rb) = (a.required, b.required);
                ra.max(rb)
            }
            Some(pred) => {
                pred.required_overlap(self.r.norms()[rid as usize], self.s.norms()[sid as usize])
            }
        }
    }

    /// True when the bitmap filter is on and the two signatures prove that
    /// `(rid, sid)` cannot reach its required overlap. Counts the probe and
    /// the prune in `stats`.
    #[inline]
    pub(crate) fn prunes(&self, rid: u32, sid: u32, stats: &mut SsJoinStats) -> bool {
        if !self.filter {
            return false;
        }
        stats.bitmap_probes += 1;
        let (a, b) = (self.r_bounds[rid as usize], self.s_bounds[sid as usize]);
        let bound = self.r.records()[rid as usize].overlap_bound(
            u32::from(a.pop),
            &self.s.records()[sid as usize],
            u32::from(b.pop),
        );
        let pruned = bound < self.required(rid, sid);
        stats.bitmap_prunes += u64::from(pruned);
        pruned
    }

    /// Drop the candidates of probe `rid` that [`Self::prunes`] rejects,
    /// keeping the survivors in their order.
    #[inline]
    pub(crate) fn retain(&self, rid: u32, candidates: &mut Vec<u32>, stats: &mut SsJoinStats) {
        if self.filter {
            candidates.retain(|&sid| !self.prunes(rid, sid, stats));
        }
    }
}
