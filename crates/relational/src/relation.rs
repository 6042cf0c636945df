//! Materialized relations (tables).

use crate::{EngineError, Result, Schema, Value};
use std::fmt;
use std::sync::Arc;

/// A row: one value per schema column.
pub type Row = Vec<Value>;

/// A materialized relation: a schema and a vector of rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    schema: Arc<Schema>,
    rows: Vec<Row>,
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Self {
        Self {
            schema,
            rows: Vec::new(),
        }
    }

    /// Build a relation from rows, validating arity against the schema.
    pub fn new(schema: Arc<Schema>, rows: Vec<Row>) -> Result<Self> {
        for (i, row) in rows.iter().enumerate() {
            if row.len() != schema.len() {
                return Err(EngineError::SchemaMismatch {
                    context: format!(
                        "row {i} has {} values, schema {} has {} columns",
                        row.len(),
                        schema,
                        schema.len()
                    ),
                });
            }
        }
        Ok(Self { schema, rows })
    }

    /// Build a relation without per-row validation (rows are trusted to
    /// match — used by operators that construct rows themselves).
    pub fn from_trusted_rows(schema: Arc<Schema>, rows: Vec<Row>) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == schema.len()));
        Self { schema, rows }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The rows.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Consume into rows.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row, validating arity.
    pub fn push(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(EngineError::SchemaMismatch {
                context: format!(
                    "pushed row has {} values, schema has {}",
                    row.len(),
                    self.schema.len()
                ),
            });
        }
        self.rows.push(row);
        Ok(())
    }

    /// The values of one column, cloned.
    pub fn column(&self, name: &str) -> Result<Vec<Value>> {
        let idx = self.schema.index_of(name)?;
        Ok(self.rows.iter().map(|r| r[idx].clone()).collect())
    }

    /// Rows as a set-like sorted vector — convenience for order-insensitive
    /// test assertions.
    pub fn sorted_rows(&self) -> Vec<Row> {
        let mut rows = self.rows.clone();
        rows.sort();
        rows
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for row in self.rows.iter().take(20) {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "  [{}]", cells.join(", "))?;
        }
        if self.rows.len() > 20 {
            writeln!(f, "  … {} more rows", self.rows.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataType;

    fn sample() -> Relation {
        let schema = Schema::of(&[("id", DataType::Int), ("name", DataType::Str)]);
        Relation::new(
            schema,
            vec![
                vec![Value::Int(2), Value::str("b")],
                vec![Value::Int(1), Value::str("a")],
            ],
        )
        .unwrap()
    }

    #[test]
    fn arity_validated() {
        let schema = Schema::of(&[("id", DataType::Int)]);
        let bad = Relation::new(schema.clone(), vec![vec![Value::Int(1), Value::Int(2)]]);
        assert!(matches!(bad, Err(EngineError::SchemaMismatch { .. })));
        let mut rel = Relation::empty(schema);
        assert!(rel.push(vec![Value::Int(1), Value::Int(2)]).is_err());
        assert!(rel.push(vec![Value::Int(1)]).is_ok());
        assert_eq!(rel.len(), 1);
    }

    #[test]
    fn column_extraction() {
        let rel = sample();
        assert_eq!(
            rel.column("id").unwrap(),
            vec![Value::Int(2), Value::Int(1)]
        );
        assert!(rel.column("nope").is_err());
    }

    #[test]
    fn display_truncates() {
        let schema = Schema::of(&[("x", DataType::Int)]);
        let rows: Vec<Row> = (0..25).map(|i| vec![Value::Int(i)]).collect();
        let rel = Relation::new(schema, rows).unwrap();
        let s = rel.to_string();
        assert!(s.contains("… 5 more rows"));
    }
}
