//! Physical plan operators.
//!
//! Plans are trees of boxed [`PlanNode`]s executing bottom-up with full
//! materialization. Every node reports its own processing time (excluding
//! children) and output cardinality into the [`ExecContext`], which the
//! benchmark harness uses to produce the per-phase breakdowns of the paper's
//! figures.

mod filter;
mod group;
mod groupwise;
mod join;
mod project;
mod setops;

pub use filter::Filter;
pub use group::{AggSpec, GroupBy};
pub use groupwise::Groupwise;
pub use join::HashJoin;
pub use project::Project;
pub use setops::Distinct;

use crate::{Relation, Result, Schema};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Execution statistics for one operator invocation.
#[derive(Debug, Clone)]
pub struct OpStats {
    /// Operator display name.
    pub operator: String,
    /// Rows produced.
    pub output_rows: usize,
    /// Time spent in this operator (children excluded).
    pub elapsed: Duration,
}

/// Collects per-operator statistics during plan execution.
#[derive(Debug, Default)]
pub struct ExecContext {
    stats: Vec<OpStats>,
}

impl ExecContext {
    /// Fresh context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one operator invocation.
    pub fn record(&mut self, operator: &str, output_rows: usize, elapsed: Duration) {
        self.stats.push(OpStats {
            operator: operator.to_string(),
            output_rows,
            elapsed,
        });
    }

    /// All recorded statistics, in completion order (children before
    /// parents).
    pub fn stats(&self) -> &[OpStats] {
        &self.stats
    }

    /// Total rows produced by operators whose name matches `operator`.
    pub fn rows_for(&self, operator: &str) -> usize {
        self.stats
            .iter()
            .filter(|s| s.operator == operator)
            .map(|s| s.output_rows)
            .sum()
    }

    /// Total time spent in operators whose name matches `operator`.
    pub fn time_for(&self, operator: &str) -> Duration {
        self.stats
            .iter()
            .filter(|s| s.operator == operator)
            .map(|s| s.elapsed)
            .sum()
    }
}

/// A physical plan node.
pub trait PlanNode: Send + Sync {
    /// Display name used in statistics.
    fn name(&self) -> &str;

    /// Execute the subtree rooted here, materializing the result.
    fn execute(&self, ctx: &mut ExecContext) -> Result<Relation>;
}

/// Execute a child and then time the parent's own processing closure.
pub(crate) fn timed<F>(ctx: &mut ExecContext, name: &str, f: F) -> Result<Relation>
where
    F: FnOnce(&mut ExecContext) -> Result<Relation>,
{
    // Children run inside `f` before the parent's own work; to attribute
    // time correctly, `f` receives the context and the parent measures only
    // the span not covered by recorded child spans.
    let child_time_before: Duration = ctx.stats.iter().map(|s| s.elapsed).sum();
    let start = Instant::now();
    let out = f(ctx)?;
    let total = start.elapsed();
    let child_time_after: Duration = ctx.stats.iter().map(|s| s.elapsed).sum();
    let self_time = total.saturating_sub(child_time_after.saturating_sub(child_time_before));
    ctx.record(name, out.len(), self_time);
    Ok(out)
}

/// Leaf node wrapping an existing relation (shared, zero-copy).
pub struct Scan {
    relation: Arc<Relation>,
    label: String,
}

impl Scan {
    /// Scan over a shared relation.
    pub fn new(relation: Arc<Relation>) -> Self {
        Self {
            relation,
            label: "scan".to_string(),
        }
    }

    /// Scan with a custom label for statistics.
    pub fn labeled(relation: Arc<Relation>, label: impl Into<String>) -> Self {
        Self {
            relation,
            label: label.into(),
        }
    }

    /// The scanned relation's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        self.relation.schema()
    }
}

impl PlanNode for Scan {
    fn name(&self) -> &str {
        &self.label
    }

    fn execute(&self, ctx: &mut ExecContext) -> Result<Relation> {
        let start = Instant::now();
        let out = (*self.relation).clone();
        ctx.record(&self.label, out.len(), start.elapsed());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, Value};

    #[test]
    fn scan_clones_relation() {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let rel = Arc::new(
            Relation::new(schema, vec![vec![Value::Int(1)], vec![Value::Int(2)]]).unwrap(),
        );
        let scan = Scan::new(rel.clone());
        let mut ctx = ExecContext::new();
        let out = scan.execute(&mut ctx).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(ctx.rows_for("scan"), 2);
    }

    #[test]
    fn context_aggregation() {
        let mut ctx = ExecContext::new();
        ctx.record("a", 3, Duration::from_millis(5));
        ctx.record("a", 2, Duration::from_millis(7));
        ctx.record("b", 1, Duration::from_millis(1));
        assert_eq!(ctx.rows_for("a"), 5);
        assert_eq!(ctx.time_for("a"), Duration::from_millis(12));
        assert_eq!(ctx.stats().len(), 3);
    }
}
