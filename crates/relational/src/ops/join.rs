//! Equi-join: hash join.
//!
//! §5 of the paper notes the optimizer's plans "only involved hash and merge
//! joins"; the operator trees of Figs 7–9 need only one of them, so this
//! engine keeps the hash join.

use crate::ops::{timed, ExecContext, PlanNode};
use crate::{EngineError, Relation, Result, Row, Schema, Value};
use std::collections::HashMap;

/// Key column pairs `(left name, right name)` for an equi-join.
pub type KeyPairs = Vec<(String, String)>;

fn key_indexes(keys: &KeyPairs, left: &Schema, right: &Schema) -> Result<(Vec<usize>, Vec<usize>)> {
    if keys.is_empty() {
        return Err(EngineError::Plan(
            "equi-join requires at least one key pair".into(),
        ));
    }
    let l = keys
        .iter()
        .map(|(a, _)| left.index_of(a))
        .collect::<Result<Vec<_>>>()?;
    let r = keys
        .iter()
        .map(|(_, b)| right.index_of(b))
        .collect::<Result<Vec<_>>>()?;
    Ok((l, r))
}

fn extract_key(row: &Row, idxs: &[usize]) -> Vec<Value> {
    idxs.iter().map(|&i| row[i].clone()).collect()
}

fn concat_rows(left: &Row, right: &Row) -> Row {
    let mut out = Vec::with_capacity(left.len() + right.len());
    out.extend_from_slice(left);
    out.extend_from_slice(right);
    out
}

/// Inner hash equi-join.
///
/// Builds a hash table on the right input and probes with the left. Output
/// schema is the left schema followed by the right schema; clashing right
/// column names get the configured prefix (default `s_`, after the paper's
/// `S` relation).
pub struct HashJoin {
    left: Box<dyn PlanNode>,
    right: Box<dyn PlanNode>,
    keys: KeyPairs,
    right_prefix: String,
    label: String,
}

impl HashJoin {
    /// Join `left` and `right` on the given key column pairs.
    pub fn new(left: Box<dyn PlanNode>, right: Box<dyn PlanNode>, keys: KeyPairs) -> Self {
        Self {
            left,
            right,
            keys,
            right_prefix: "s_".to_string(),
            label: "hash_join".to_string(),
        }
    }

    /// Convenience for string key names.
    pub fn on(left: Box<dyn PlanNode>, right: Box<dyn PlanNode>, keys: &[(&str, &str)]) -> Self {
        Self::new(
            left,
            right,
            keys.iter()
                .map(|(a, b)| (a.to_string(), b.to_string()))
                .collect(),
        )
    }

    /// Override the prefix applied to clashing right-side column names.
    pub fn with_right_prefix(mut self, prefix: impl Into<String>) -> Self {
        self.right_prefix = prefix.into();
        self
    }

    /// Override the statistics label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

impl PlanNode for HashJoin {
    fn name(&self) -> &str {
        &self.label
    }

    fn execute(&self, ctx: &mut ExecContext) -> Result<Relation> {
        timed(ctx, self.name(), |ctx| {
            let left = self.left.execute(ctx)?;
            let right = self.right.execute(ctx)?;
            let (lk, rk) = key_indexes(&self.keys, left.schema(), right.schema())?;
            let schema = left.schema().join(right.schema(), &self.right_prefix);

            let mut table: HashMap<Vec<Value>, Vec<&Row>> = HashMap::with_capacity(right.len());
            for row in right.rows() {
                table.entry(extract_key(row, &rk)).or_default().push(row);
            }
            let mut rows = Vec::new();
            for lrow in left.rows() {
                if let Some(matches) = table.get(&extract_key(lrow, &lk)) {
                    for rrow in matches {
                        rows.push(concat_rows(lrow, rrow));
                    }
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
    use crate::DataType;
    use std::sync::Arc;

    fn rel(name_vals: Vec<(i64, &str)>) -> Arc<Relation> {
        let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Str)]);
        let rows = name_vals
            .into_iter()
            .map(|(k, v)| vec![Value::Int(k), Value::str(v)])
            .collect();
        Arc::new(Relation::new(schema, rows).unwrap())
    }

    fn scan(r: Arc<Relation>) -> Box<dyn PlanNode> {
        Box::new(Scan::new(r))
    }

    #[test]
    fn hash_join_basic() {
        let l = rel(vec![(1, "a"), (2, "b"), (3, "c")]);
        let r = rel(vec![(2, "x"), (3, "y"), (3, "z"), (4, "w")]);
        let j = HashJoin::on(scan(l), scan(r), &[("k", "k")]);
        let out = j.execute(&mut ExecContext::new()).unwrap();
        assert_eq!(out.schema().names(), vec!["k", "v", "s_k", "s_v"]);
        assert_eq!(out.len(), 3); // (2,x), (3,y), (3,z)
    }

    #[test]
    fn multi_key_join() {
        let schema = Schema::of(&[("a", DataType::Int), ("b", DataType::Str)]);
        let l = Arc::new(
            Relation::new(
                schema.clone(),
                vec![
                    vec![Value::Int(1), Value::str("x")],
                    vec![Value::Int(1), Value::str("y")],
                ],
            )
            .unwrap(),
        );
        let r = Arc::new(
            Relation::new(
                schema,
                vec![
                    vec![Value::Int(1), Value::str("x")],
                    vec![Value::Int(2), Value::str("x")],
                ],
            )
            .unwrap(),
        );
        let j = HashJoin::on(scan(l), scan(r), &[("a", "a"), ("b", "b")]);
        let out = j.execute(&mut ExecContext::new()).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn disjoint_keys_empty() {
        let l = rel(vec![(1, "a")]);
        let r = rel(vec![(2, "b")]);
        let out = HashJoin::on(scan(l), scan(r), &[("k", "k")])
            .execute(&mut ExecContext::new())
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn empty_keys_rejected() {
        let l = rel(vec![(1, "a")]);
        let r = rel(vec![(1, "b")]);
        let j = HashJoin::new(scan(l), scan(r), vec![]);
        assert!(j.execute(&mut ExecContext::new()).is_err());
    }

    #[test]
    fn duplicate_heavy_join_counts() {
        // 3 copies of k=7 on each side -> 9 output rows.
        let l = rel(vec![(7, "a"), (7, "b"), (7, "c")]);
        let r = rel(vec![(7, "x"), (7, "y"), (7, "z")]);
        let h = HashJoin::on(scan(l), scan(r), &[("k", "k")])
            .execute(&mut ExecContext::new())
            .unwrap();
        assert_eq!(h.len(), 9);
    }

    #[test]
    fn custom_prefix() {
        let l = rel(vec![(1, "a")]);
        let r = rel(vec![(1, "b")]);
        let j = HashJoin::on(scan(l), scan(r), &[("k", "k")]).with_right_prefix("rhs_");
        let out = j.execute(&mut ExecContext::new()).unwrap();
        assert_eq!(out.schema().names(), vec!["k", "v", "rhs_k", "rhs_v"]);
    }
}
