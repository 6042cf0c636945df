//! String similarity functions for data cleaning.
//!
//! These are the similarity functions §3 of the SSJoin paper instantiates on
//! top of the set-overlap primitive:
//!
//! * [`levenshtein`] / [`edit_similarity`] — plain edit distance and its
//!   normalized form (Definition 2), with a bit-parallel
//!   [`levenshtein_within`] verifier behind the post-SSJoin filter UDF
//!   [`edit_similarity_within`],
//! * [`jaccard_resemblance`] / [`jaccard_containment`] — weighted Jaccard
//!   (Definition 5),
//! * [`overlap`], [`dice`], [`cosine`] — further set-overlap measures,
//! * [`hamming_distance`] — positional mismatch count,
//! * [`ges`] — generalized edit similarity (Definition 6): token-sequence
//!   edit distance with token-level weights and per-token edit costs.
//!
//! Conventions: similarity values lie in `[0, 1]`; two empty inputs are
//! maximally similar (similarity 1); an empty vs. non-empty input has
//! similarity 0 where normalization would otherwise divide by zero.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod edit;
mod ges;
mod hamming;
mod setsim;

pub use edit::{
    edit_distance_budget, edit_similarity, edit_similarity_at_least, edit_similarity_within,
    levenshtein, levenshtein_within, normalized_edit_distance,
};
pub use ges::{ges, ges_symmetric, GesConfig};
pub use hamming::{hamming_distance, hamming_similarity};
pub use setsim::{
    cosine, dice, jaccard_containment, jaccard_resemblance, multiset_counts, overlap,
    weighted_jaccard_containment, weighted_jaccard_resemblance, weighted_overlap,
};
