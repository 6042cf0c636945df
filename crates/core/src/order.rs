//! Global element orderings for the prefix filter.
//!
//! Lemma 1 of the paper holds for *any* fixed total order `O` on the element
//! universe, but the choice drives performance (§4.3.2): ordering elements
//! by increasing frequency puts rare elements into prefixes, so the prefix
//! equi-join meets far fewer collisions. The paper picks the IDF order
//! (equivalently, ascending frequency). The alternatives here exist for the
//! ordering ablation.

/// How the global element order `O` is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ElementOrder {
    /// Rarest elements first — the paper's choice (§4.3.2). Prefixes carry
    /// the most selective elements.
    #[default]
    FrequencyAsc,
    /// Most frequent elements first — the pathological inverse, for the
    /// ablation.
    FrequencyDesc,
    /// Lexicographic by token text (frequency-oblivious).
    Lexicographic,
    /// Pseudo-random but deterministic (hash of the element id) —
    /// frequency-oblivious baseline.
    Hashed,
}

impl ElementOrder {
    /// Sort key for one element. Lower keys come earlier in `O`.
    ///
    /// `freq` is the element's set frequency, `token` yields its text (read
    /// only by [`ElementOrder::Lexicographic`]), and `uid` a unique
    /// tie-breaking id.
    pub(crate) fn sort_key<'t>(
        &self,
        freq: usize,
        token: impl FnOnce() -> &'t str,
        uid: u64,
    ) -> (u64, u64) {
        match self {
            ElementOrder::FrequencyAsc => (freq as u64, uid),
            ElementOrder::FrequencyDesc => (u64::MAX - freq as u64, uid),
            ElementOrder::Lexicographic => {
                // First 8 bytes of the token as a big-endian key, then uid.
                let mut b = [0u8; 8];
                let bytes = token().as_bytes();
                let n = bytes.len().min(8);
                b[..n].copy_from_slice(&bytes[..n]);
                (u64::from_be_bytes(b), uid)
            }
            ElementOrder::Hashed => {
                use crate::hash::FxHasher;
                use std::hash::{Hash, Hasher};
                let mut h = FxHasher::default();
                uid.hash(&mut h);
                (h.finish(), uid)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_asc_orders_rare_first() {
        let rare = ElementOrder::FrequencyAsc.sort_key(1, || "z", 0);
        let common = ElementOrder::FrequencyAsc.sort_key(1000, || "a", 1);
        assert!(rare < common);
    }

    #[test]
    fn frequency_desc_is_inverse() {
        let rare = ElementOrder::FrequencyDesc.sort_key(1, || "z", 0);
        let common = ElementOrder::FrequencyDesc.sort_key(1000, || "a", 1);
        assert!(common < rare);
    }

    #[test]
    fn lexicographic_uses_token() {
        let a = ElementOrder::Lexicographic.sort_key(5, || "aaa", 7);
        let b = ElementOrder::Lexicographic.sort_key(1, || "bbb", 3);
        assert!(a < b);
    }

    #[test]
    fn hashed_is_deterministic_and_total() {
        let k1 = ElementOrder::Hashed.sort_key(1, || "x", 42);
        let k2 = ElementOrder::Hashed.sort_key(999, || "y", 42);
        assert_eq!(k1, k2); // depends only on uid
        let k3 = ElementOrder::Hashed.sort_key(1, || "x", 43);
        assert_ne!(k1, k3);
    }

    #[test]
    fn ties_broken_by_uid() {
        let a = ElementOrder::FrequencyAsc.sort_key(5, || "t", 1);
        let b = ElementOrder::FrequencyAsc.sort_key(5, || "t", 2);
        assert_ne!(a, b);
    }
}
