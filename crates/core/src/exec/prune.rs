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
//!
//! The prune also owns each probe's id window ([`Prune::window`]). A
//! predicate with a norm ratio ([`OverlapPredicate::norm_ratio`]) admits,
//! for a probe of norm `n`, only partners of norm about `[ρ·n, n/ρ]`. When
//! the S side's norms are sorted by id ([`SetCollection::norms_sorted`])
//! those partners are one id range, found once per probe by binary search,
//! and every candidate generator draws only from it. Otherwise the window
//! spans all of S and [`Prune::retain`] drops the incompatible candidates
//! one by one, so the output never depends on the id order.

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
    /// The predicate, when it declares a norm ratio and `s` is norm-sorted:
    /// each probe's id window enforces the ratio.
    windowed: Option<&'a OverlapPredicate>,
    /// The predicate, when it declares a norm ratio but `s` is not
    /// norm-sorted: each candidate is checked instead.
    ratio_per_pair: Option<&'a OverlapPredicate>,
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
        let ratio = pred.norm_ratio().map(|_| pred);
        let sorted = s.norms_sorted();
        Self {
            r,
            s,
            r_bounds,
            s_bounds,
            per_pair: pred.split().is_none().then_some(pred),
            windowed: ratio.filter(|_| sorted),
            ratio_per_pair: ratio.filter(|_| !sorted),
            filter,
        }
    }

    /// The S ids probe `rid` may pair with: its partner window
    /// ([`OverlapPredicate::partner_window`]) when the predicate declares a
    /// norm ratio and S is norm-sorted, all of S otherwise, and on a
    /// symmetric self-join's lower-triangle walk (`half`) only ids `< rid`:
    /// that walk leaves the diagonal to [`Self::diagonal`].
    #[inline]
    pub(crate) fn window(&self, rid: u32, half: bool) -> std::ops::Range<u32> {
        let norms = self.s.norms();
        let mut ids = match self.windowed {
            Some(pred) => {
                let w = pred.partner_window(self.r.norms()[rid as usize], norms);
                w.start as u32..w.end as u32
            }
            None => 0..norms.len() as u32,
        };
        if half {
            ids.end = ids.end.min(rid);
        }
        ids.start = ids.start.min(ids.end);
        ids
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

    /// The overlap of the diagonal pair `(rid, rid)` of a symmetric
    /// self-join when it qualifies, decided from the set's record alone: a
    /// set's overlap with itself is its total weight, so the pair
    /// qualifies, with that overlap, exactly when its norm is compatible
    /// with itself and the total reaches the pair's required overlap. No
    /// bitmap probe or merge runs for it.
    #[inline]
    pub(crate) fn diagonal(&self, rid: u32) -> Option<Weight> {
        let norm = self.r.norms()[rid as usize];
        let ratio = self.windowed.or(self.ratio_per_pair);
        let overlap = self.r.set(rid).total_weight();
        (ratio.is_none_or(|pred| pred.norms_compatible(norm, norm))
            && overlap >= self.required(rid, rid))
        .then_some(overlap)
    }

    /// True when `(rid, sid)` fails a norm ratio that the probe's window
    /// could not enforce, or when the bitmap filter is on and the two
    /// signatures prove that the pair cannot reach its required overlap.
    /// Counts the bitmap probe and prune in `stats`.
    #[inline]
    pub(crate) fn prunes(&self, rid: u32, sid: u32, stats: &mut SsJoinStats) -> bool {
        if let Some(pred) = self.ratio_per_pair {
            let (a, b) = (self.r.norms()[rid as usize], self.s.norms()[sid as usize]);
            if !pred.norms_compatible(a, b) {
                return true;
            }
        }
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
        if self.filter || self.ratio_per_pair.is_some() {
            candidates.retain(|&sid| !self.prunes(rid, sid, stats));
        }
    }
}
