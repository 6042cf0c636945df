//! Duplicate elimination.

use crate::ops::{timed, ExecContext, PlanNode};
use crate::{Relation, Result};
use std::collections::HashSet;

/// Duplicate elimination (SELECT DISTINCT): keeps the first occurrence of
/// each row, preserving input order.
pub struct Distinct {
    input: Box<dyn PlanNode>,
}

impl Distinct {
    /// Deduplicate `input`.
    pub fn new(input: Box<dyn PlanNode>) -> Self {
        Self { input }
    }
}

impl PlanNode for Distinct {
    fn name(&self) -> &str {
        "distinct"
    }

    fn execute(&self, ctx: &mut ExecContext) -> Result<Relation> {
        timed(ctx, self.name(), |ctx| {
            let input = self.input.execute(ctx)?;
            let schema = input.schema().clone();
            let mut seen = HashSet::with_capacity(input.len());
            let mut rows = Vec::new();
            for row in input.into_rows() {
                if seen.insert(row.clone()) {
                    rows.push(row);
                }
            }
            Ok(Relation::from_trusted_rows(schema, rows))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Scan;
    use crate::{DataType, Schema, Value};
    use std::sync::Arc;

    fn rel(vals: &[i64]) -> Box<dyn PlanNode> {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let rows = vals.iter().map(|&v| vec![Value::Int(v)]).collect();
        Box::new(Scan::new(Arc::new(Relation::new(schema, rows).unwrap())))
    }

    #[test]
    fn distinct_preserves_first_occurrence_order() {
        let d = Distinct::new(rel(&[3, 1, 3, 2, 1]));
        let out = d.execute(&mut ExecContext::new()).unwrap();
        let xs: Vec<_> = out.rows().iter().map(|r| r[0].clone()).collect();
        assert_eq!(xs, vec![Value::Int(3), Value::Int(1), Value::Int(2)]);
    }
}
