//! A minimal in-memory relational execution engine.
//!
//! The SSJoin paper implements its operator *compositionally*, as trees of
//! ordinary relational operators (equi-join, group-by with HAVING, and the
//! groupwise-processing operator of Chatziantoniou & Ross) executed by
//! Microsoft SQL Server 2005. This crate is the substrate standing in for
//! that engine: enough of a relational executor to express the operator
//! trees of Figures 7, 8, and 9 of the paper and run them at benchmark
//! scale.
//!
//! Design notes:
//!
//! * **Materialized execution.** Every operator consumes and produces whole
//!   [`Relation`]s. Volcano-style iterators buy nothing at the dataset sizes
//!   of the paper's evaluation (25K–330K rows) and would obscure the
//!   operator trees the tests assert on.
//! * **Named columns, bound once.** Expressions reference columns by name
//!   and are bound to positional indexes once per operator execution, so
//!   per-row evaluation is index arithmetic.
//! * **UDF hooks.** Scalar Rust closures can be registered in expressions —
//!   the paper's post-SSJoin verification filters (edit similarity, Jaccard
//!   resemblance, GES) are exactly such UDFs.
//! * **Execution statistics.** Every plan node reports output cardinality
//!   and wall time through [`ExecContext`], because the paper's figures are
//!   stacked per-phase breakdowns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod expr;
pub mod ops;
mod relation;
mod schema;
mod value;

pub use error::{EngineError, Result};
pub use expr::{AggFunc, BoundExpr, CmpOp, Expr};
pub use ops::{
    AggSpec, Distinct, ExecContext, Filter, GroupBy, Groupwise, HashJoin, OpStats, PlanNode,
    Project, Scan,
};
pub use relation::{Relation, Row};
pub use schema::{Field, Schema};
pub use value::{DataType, Value};
