//! Similarity joins built on the SSJoin primitive.
//!
//! §3 of the paper shows that similarity joins for a wide range of
//! similarity functions reduce to: *convert strings to sets → invoke SSJoin
//! with a predicate guaranteeing a superset of the answer → verify with the
//! actual similarity function as a cheap UDF* (Figure 2). This crate is that
//! layer:
//!
//! * [`edit`] — edit-similarity join via q-gram overlap (Figure 3,
//!   Property 4), with exact handling of short strings the q-gram bound
//!   cannot cover;
//! * [`jaccard`] — Jaccard containment and resemblance joins (Figure 4);
//! * [`ges`] — generalized edit similarity join via expanded token sets
//!   (§3.3);
//! * [`cooccurrence`] — non-textual similarity from co-occurring values
//!   (Figure 5);
//! * [`soft_fd`] — `k`-of-`h` soft functional dependency agreement
//!   (Figure 6, Definition 7);
//! * [`hamming`] — hamming-distance join over `(position, character)` sets;
//! * [`soundex`] — phonetic join over per-token Soundex codes;
//! * [`cosine`] — cosine similarity over IDF vectors (§6 names cosine
//!   custom joins as SSJoin-expressible);
//! * [`topk`] — top-K matching by composing SSJoin with ranking (§6);
//! * [`cluster`] — connected-components closure of self-join output into
//!   duplicate groups (the fuzzy-duplicate elimination of the paper's ref.\ 1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
mod common;
pub mod cooccurrence;
pub mod cosine;
pub mod dedup;
pub mod edit;
pub mod ges;
pub mod hamming;
pub mod jaccard;
pub mod soft_fd;
pub mod soundex;
pub mod topk;

pub use cluster::{cluster_pairs, cluster_pairs_at, UnionFind};
pub use common::{dedupe_self_pairs, MatchPair, SimilarityJoinOutput};
pub use cooccurrence::{cooccurrence_join, CooccurrenceConfig};
pub use cosine::{cosine_join, cosine_join_tokens, CosineConfig};
pub use dedup::{dedup, Canonicalization, DedupResult, DedupSimilarity, DuplicateGroup};
pub use edit::{edit_similarity_join, EditJoinConfig};
pub use ges::{ges_join, GesJoinConfig};
pub use hamming::{hamming_join, HammingJoinConfig};
pub use jaccard::{jaccard_join, JaccardConfig, JaccardKind};
pub use soft_fd::{soft_fd_join, SoftFdConfig};
pub use soundex::{soundex_join, SoundexConfig};
pub use topk::{top_k_matches, TopKConfig, TopKIndex, TopKMatch};
