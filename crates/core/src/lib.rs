//! The **SSJoin** set-similarity join operator.
//!
//! This crate implements the primitive operator proposed in *"A Primitive
//! Operator for Similarity Joins in Data Cleaning"* (Chaudhuri, Ganti,
//! Kaushik; ICDE 2006). Given two collections of weighted sets — each set is
//! the group of `B` values sharing one `A` value in a relation `R(A, B)` —
//! the operator returns the pairs of groups whose weighted (multi)set
//! overlap satisfies a predicate of the form
//! `⋀ᵢ Overlap_B(a_r, a_s) ≥ eᵢ(R.norm, S.norm)` (Definition 1 of the
//! paper).
//!
//! Three physical implementations are provided, mirroring §4 of the paper:
//!
//! * [`Algorithm::Basic`] — equi-join on elements + group-by + HAVING
//!   (Figure 7), realized as an inverted-index accumulation;
//! * [`Algorithm::PrefixFiltered`] — prefix filter under a global element
//!   order (Lemma 1), candidate equi-join, then a join back to the base
//!   relations to recompute full overlaps (Figure 8);
//! * [`Algorithm::Inline`] — prefix filter where each surviving tuple
//!   carries its full set inline, so verification is a sorted-array merge
//!   and the joins back to base relations disappear (Figure 9), the
//!   default.
//!
//! The [`plan`] module additionally composes the *same* three
//! implementations as literal relational operator trees over the
//! [`ssjoin_relational`] engine — the paper's operator-centric formulation —
//! and the test suite checks both formulations produce identical results.
//!
//! # Example
//!
//! ```
//! use ssjoin_core::{SsJoinInputBuilder, WeightScheme, ElementOrder,
//!                   OverlapPredicate, SsJoinConfig, Algorithm, ssjoin};
//!
//! // Two tiny "relations": each group is a bag of tokens.
//! let r = vec![
//!     vec!["seattle".to_string(), "olympia".to_string(), "tacoma".to_string()],
//!     vec!["madison".to_string(), "milwaukee".to_string()],
//! ];
//! let s = vec![
//!     vec!["seattle".to_string(), "olympia".to_string(), "spokane".to_string()],
//! ];
//!
//! let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
//! let rh = b.add_relation(r);
//! let sh = b.add_relation(s);
//! let input = b.build().unwrap();
//!
//! // Absolute overlap ≥ 2 — "states sharing at least two cities".
//! let pred = OverlapPredicate::absolute(2.0);
//! let out = ssjoin(
//!     input.collection(rh),
//!     input.collection(sh),
//!     &pred,
//!     &SsJoinConfig::new(Algorithm::Basic),
//! ).unwrap();
//! assert_eq!(out.pairs.len(), 1);
//! assert_eq!((out.pairs[0].r, out.pairs[0].s), (0, 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod approx;
mod budget;
mod builder;
mod error;
pub mod exec;
mod hash;
mod index;
pub mod kernel;
mod order;
pub mod plan;
mod predicate;
mod set;
mod spill;
mod stats;
mod weight;

pub use approx::ApproxSpec;
pub use budget::{estimate_memory_bytes, ExecBudget};
pub use builder::{
    BuiltInput, CapRule, NormKind, QueryEncoder, RelationHandle, SsJoinInputBuilder, TokenGroups,
    WeightScheme,
};
pub use error::{SsJoinError, SsJoinResult};
pub use exec::{
    ssjoin, ssjoin_filtered, ssjoin_with, Algorithm, ExecContext, JoinPair, JoinWorkspace,
    MatchPair, PairFilter, SsJoinConfig, SsJoinOutput, SsJoinRun,
};
pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use index::CorpusIndex;
pub use order::ElementOrder;
pub use predicate::{Interval, NormExpr, OverlapPredicate};
pub use set::{SetCollection, SetRef, SetWeights, SIG_WORDS};
pub use spill::{plan_spill, SpillPlan};
pub use stats::{Phase, SsJoinStats};
pub use weight::Weight;
