//! SSJoin as relational operator trees.
//!
//! The paper's central systems claim is that SSJoin is implementable *with
//! the existing relational operators* of a database engine. This module
//! composes the three physical implementations as literal operator trees —
//! Figure 7 (basic), Figure 8 (prefix-filtered with joins back to the base
//! relations), Figure 9 (prefix filter with the inline set representation)
//! — over the [`ssjoin_relational`] engine. The fused executors in
//! [`crate::exec`] are the fast path; these plans are the fidelity path, and
//! the test suite checks they produce identical results.
//!
//! The normalized representation follows Figure 1: one row per set element,
//! schema `(a, b, w, norm)` where `a` is the group id, `b` the element rank
//! under the global order, `w` the element's fixed-point weight (an integer,
//! so SUM is exact), and `norm` the group norm.

use crate::exec::JoinPair;
use crate::predicate::{Interval, OverlapPredicate};
use crate::set::SetCollection;
use crate::weight::Weight;
use ssjoin_relational::{
    AggFunc, AggSpec, DataType, Distinct, EngineError, ExecContext, Expr, Filter, GroupBy,
    Groupwise, HashJoin, PlanNode, Project, Relation, Scan, Schema, Value,
};
use std::sync::Arc;

/// Convert a set collection to its normalized relational representation
/// `(a: int, b: int, w: int, norm: float)`.
pub fn collection_to_relation(c: &SetCollection) -> Relation {
    let schema = Schema::of(&[
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("w", DataType::Int),
        ("norm", DataType::Float),
    ]);
    let mut rows = Vec::with_capacity(c.tuple_count());
    for (id, set) in c.iter().enumerate() {
        for (&rank, &w) in set.ranks().iter().zip(set.weights().iter()) {
            rows.push(vec![
                Value::Int(id as i64),
                Value::Int(rank as i64),
                Value::Int(w.raw() as i64),
                Value::Float(set.norm()),
            ]);
        }
    }
    Relation::from_trusted_rows(schema, rows)
}

/// HAVING/filter predicate: `pred.check(overlap, norm, s_norm)` as a UDF
/// over columns `(ov, norm, s_norm)`.
fn predicate_check_expr(pred: &Arc<OverlapPredicate>, ov: &str, rn: &str, sn: &str) -> Expr {
    let pred = pred.clone();
    Expr::udf(
        "ssjoin_pred",
        vec![Expr::col(ov), Expr::col(rn), Expr::col(sn)],
        move |args| {
            let ov = args[0].as_i64().ok_or_else(|| EngineError::TypeMismatch {
                context: "overlap must be an integer raw weight".into(),
            })?;
            let rn = args[1].as_f64().ok_or_else(|| EngineError::TypeMismatch {
                context: "R norm must be numeric".into(),
            })?;
            let sn = args[2].as_f64().ok_or_else(|| EngineError::TypeMismatch {
                context: "S norm must be numeric".into(),
            })?;
            Ok(Value::Bool(pred.check(Weight::from_raw(ov as u64), rn, sn)))
        },
    )
}

/// Figure 7: equi-join on `b`, group by the `(R.A, S.A)` pair (norms ride
/// along), HAVING the overlap predicate.
pub fn basic_plan(
    r: Arc<Relation>,
    s: Arc<Relation>,
    pred: &OverlapPredicate,
) -> Box<dyn PlanNode> {
    let pred = Arc::new(pred.clone());
    let join = HashJoin::on(
        Box::new(Scan::labeled(r, "scan_r")),
        Box::new(Scan::labeled(s, "scan_s")),
        &[("b", "b")],
    );
    let group = GroupBy::new(
        Box::new(join),
        &["a", "norm", "s_a", "s_norm"],
        vec![AggSpec::new(AggFunc::Sum, Expr::col("w"), "ov")],
    )
    .with_having(predicate_check_expr(&pred, "ov", "norm", "s_norm"))
    .with_label("group_having");
    Box::new(Project::columns(Box::new(group), &["a", "s_a", "ov"]))
}

/// The prefix filter of §4.3.3 as a groupwise-processing operator: per
/// group, scan elements in global order and keep the shortest prefix whose
/// weight exceeds `wt(set) − α_lb`.
fn prefix_filter_node(
    input: Box<dyn PlanNode>,
    pred: Arc<OverlapPredicate>,
    is_r_side: bool,
    other_norms: Option<(f64, f64)>,
) -> Box<dyn PlanNode> {
    let node = Groupwise::new(input, &["a"], move |group| {
        let Some((lo, hi)) = other_norms else {
            return Ok(Relation::empty(group.schema().clone()));
        };
        if group.is_empty() {
            return Ok(Relation::empty(group.schema().clone()));
        }
        let b_idx = group.schema().index_of("b")?;
        let w_idx = group.schema().index_of("w")?;
        let norm_idx = group.schema().index_of("norm")?;
        let norm = group.rows()[0][norm_idx]
            .as_f64()
            .ok_or_else(|| EngineError::TypeMismatch {
                context: "norm must be numeric".into(),
            })?;
        let total: u64 = group
            .rows()
            .iter()
            .map(|row| row[w_idx].as_i64().unwrap_or(0) as u64)
            .sum();
        let range = Interval::new(lo, hi);
        let lb = if is_r_side {
            pred.required_lower_bound_r(norm, range)
        } else {
            pred.required_lower_bound_s(norm, range)
        };
        if Weight::from_raw(total) < lb {
            return Ok(Relation::empty(group.schema().clone()));
        }
        let beta = Weight::from_raw(total).saturating_sub(lb);
        let mut rows = group.rows().to_vec();
        rows.sort_by(|x, y| x[b_idx].cmp(&y[b_idx]));
        let mut acc = 0u64;
        let mut keep = rows.len();
        for (i, row) in rows.iter().enumerate() {
            acc += row[w_idx].as_i64().unwrap_or(0) as u64;
            if Weight::from_raw(acc) > beta {
                keep = i + 1;
                break;
            }
        }
        rows.truncate(keep);
        Ok(Relation::from_trusted_rows(group.schema().clone(), rows))
    })
    .with_label("prefix_filter");
    Box::new(node)
}

/// Figure 8: prefix-filter both sides, equi-join the prefixes for candidate
/// pairs, join the candidates back with both base relations to regroup, then
/// group-by + HAVING.
pub fn prefix_plan(
    r: Arc<Relation>,
    s: Arc<Relation>,
    pred: &OverlapPredicate,
    r_norm_range: Option<(f64, f64)>,
    s_norm_range: Option<(f64, f64)>,
) -> Box<dyn PlanNode> {
    let pred = Arc::new(pred.clone());
    let pr = prefix_filter_node(
        Box::new(Scan::labeled(r.clone(), "scan_r")),
        pred.clone(),
        true,
        s_norm_range,
    );
    let ps = prefix_filter_node(
        Box::new(Scan::labeled(s.clone(), "scan_s")),
        pred.clone(),
        false,
        r_norm_range,
    );
    // Candidate pairs T(ra, sa).
    let cand_join = HashJoin::on(pr, ps, &[("b", "b")]).with_label("prefix_join");
    let cand = Distinct::new(Box::new(Project::new(
        Box::new(cand_join),
        vec![
            ("ra".into(), Expr::col("a")),
            ("sa".into(), Expr::col("s_a")),
        ],
    )));
    // Join back with R on ra = a …
    let back_r = HashJoin::on(
        Box::new(cand),
        Box::new(Scan::labeled(r, "scan_r_base")),
        &[("ra", "a")],
    )
    .with_label("join_back_r");
    // … and with S on sa = a ∧ b = b (only matching elements contribute).
    let back_s = HashJoin::on(
        Box::new(back_r),
        Box::new(Scan::labeled(s, "scan_s_base")),
        &[("sa", "a"), ("b", "b")],
    )
    .with_label("join_back_s");
    let group = GroupBy::new(
        Box::new(back_s),
        &["ra", "norm", "sa", "s_norm"],
        vec![AggSpec::new(AggFunc::Sum, Expr::col("w"), "ov")],
    )
    .with_having(predicate_check_expr(&pred, "ov", "norm", "s_norm"))
    .with_label("group_having");
    Box::new(Project::new(
        Box::new(group),
        vec![
            ("a".into(), Expr::col("ra")),
            ("s_a".into(), Expr::col("sa")),
            ("ov".into(), Expr::col("ov")),
        ],
    ))
}

/// Encode a group's full element list as the inline string representation of
/// §4.3.4 ("concatenating all elements together separating them by a special
/// marker"): `rank:raw_weight,rank:raw_weight,…` in rank order. Takes the
/// set's `(rank, weight)` elements — its ranks zipped with
/// [`crate::SetRef::weights`], which reads the universe's table.
pub fn encode_inline_set(elements: impl IntoIterator<Item = (u32, Weight)>) -> String {
    let mut out = String::new();
    for (i, (rank, w)) in elements.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&rank.to_string());
        out.push(':');
        out.push_str(&w.raw().to_string());
    }
    out
}

/// Decode the inline representation back to `(rank, raw_weight)` pairs.
pub fn decode_inline_set(s: &str) -> Result<Vec<(u32, u64)>, EngineError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|item| {
            let (rank, w) = item
                .split_once(':')
                .ok_or_else(|| EngineError::TypeMismatch {
                    context: format!("malformed inline set item {item:?}"),
                })?;
            let rank = rank.parse::<u32>().map_err(|e| EngineError::TypeMismatch {
                context: format!("bad rank in inline set: {e}"),
            })?;
            let w = w.parse::<u64>().map_err(|e| EngineError::TypeMismatch {
                context: format!("bad weight in inline set: {e}"),
            })?;
            Ok((rank, w))
        })
        .collect()
}

/// The overlap UDF over two inline-encoded sets (the "simple unary operator"
/// §4.3.4 describes): merges the two rank-sorted lists.
fn inline_overlap(a: &str, b: &str) -> Result<u64, EngineError> {
    let xs = decode_inline_set(a)?;
    let ys = decode_inline_set(b)?;
    let (mut i, mut j) = (0usize, 0usize);
    let mut acc = 0u64;
    while i < xs.len() && j < ys.len() {
        match xs[i].0.cmp(&ys[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                acc += xs[i].1;
                i += 1;
                j += 1;
            }
        }
    }
    Ok(acc)
}

/// Inline base relation: prefix rows only, each carrying the group's full
/// set inline — `(a, b, norm, set)`.
fn inline_relation(
    c: &SetCollection,
    pred: &OverlapPredicate,
    is_r_side: bool,
    other_norms: Option<(f64, f64)>,
) -> Relation {
    let schema = Schema::of(&[
        ("a", DataType::Int),
        ("b", DataType::Int),
        ("norm", DataType::Float),
        ("set", DataType::Str),
    ]);
    let mut rows = Vec::new();
    let Some((lo, hi)) = other_norms else {
        return Relation::empty(schema);
    };
    let range = Interval::new(lo, hi);
    for (id, set) in c.iter().enumerate() {
        if set.is_empty() {
            continue;
        }
        let lb = if is_r_side {
            pred.required_lower_bound_r(set.norm(), range)
        } else {
            pred.required_lower_bound_s(set.norm(), range)
        };
        if set.total_weight() < lb {
            continue;
        }
        let plen = set.prefix_len(set.total_weight().saturating_sub(lb));
        let elements = set
            .ranks()
            .iter()
            .copied()
            .zip(set.weights().iter().copied());
        let encoded = Value::str(encode_inline_set(elements));
        for &rank in &set.ranks()[..plen] {
            rows.push(vec![
                Value::Int(id as i64),
                Value::Int(rank as i64),
                Value::Float(set.norm()),
                encoded.clone(),
            ]);
        }
    }
    Relation::from_trusted_rows(schema, rows)
}

/// Figure 9: join the inline prefix relations on `b`, deduplicate candidate
/// pairs, compute the overlap with the inline-set UDF, and filter.
pub fn inline_plan(
    r: &SetCollection,
    s: &SetCollection,
    pred: &OverlapPredicate,
) -> Box<dyn PlanNode> {
    let pred_arc = Arc::new(pred.clone());
    let r_rel = Arc::new(inline_relation(r, pred, true, s.norm_range()));
    let s_rel = Arc::new(inline_relation(s, pred, false, r.norm_range()));
    let join = HashJoin::on(
        Box::new(Scan::labeled(r_rel, "scan_r_inline")),
        Box::new(Scan::labeled(s_rel, "scan_s_inline")),
        &[("b", "b")],
    )
    .with_label("prefix_join");
    let cand = Distinct::new(Box::new(Project::columns(
        Box::new(join),
        &["a", "norm", "set", "s_a", "s_norm", "s_set"],
    )));
    let overlap_udf = Expr::udf(
        "inline_overlap",
        vec![Expr::col("set"), Expr::col("s_set")],
        |args| {
            let a = args[0].as_str().ok_or_else(|| EngineError::TypeMismatch {
                context: "inline set must be a string".into(),
            })?;
            let b = args[1].as_str().ok_or_else(|| EngineError::TypeMismatch {
                context: "inline set must be a string".into(),
            })?;
            Ok(Value::Int(inline_overlap(a, b)? as i64))
        },
    );
    let with_overlap = Project::new(
        Box::new(cand),
        vec![
            ("a".into(), Expr::col("a")),
            ("s_a".into(), Expr::col("s_a")),
            ("ov".into(), overlap_udf),
            ("norm".into(), Expr::col("norm")),
            ("s_norm".into(), Expr::col("s_norm")),
        ],
    );
    let filtered = Filter::labeled(
        Box::new(with_overlap),
        predicate_check_expr(&pred_arc, "ov", "norm", "s_norm"),
        "overlap_filter",
    );
    Box::new(Project::columns(Box::new(filtered), &["a", "s_a", "ov"]))
}

/// Execute a plan produced by this module and convert its `(a, s_a, ov)`
/// output to [`JoinPair`]s sorted by `(r, s)`.
pub fn run_plan(plan: &dyn PlanNode) -> Result<(Vec<JoinPair>, ExecContext), EngineError> {
    let mut ctx = ExecContext::new();
    let rel = plan.execute(&mut ctx)?;
    let a = rel.schema().index_of("a")?;
    let sa = rel.schema().index_of("s_a")?;
    let ov = rel.schema().index_of("ov")?;
    let mut pairs: Vec<JoinPair> = rel
        .rows()
        .iter()
        .map(|row| {
            Ok(JoinPair {
                r: row[a].as_i64().ok_or_else(|| EngineError::TypeMismatch {
                    context: "group id must be an integer".into(),
                })? as u32,
                s: row[sa].as_i64().ok_or_else(|| EngineError::TypeMismatch {
                    context: "group id must be an integer".into(),
                })? as u32,
                overlap: Weight::from_raw(row[ov].as_i64().unwrap_or(0) as u64),
            })
        })
        .collect::<Result<_, EngineError>>()?;
    pairs.sort_unstable_by_key(|p| (p.r, p.s));
    Ok((pairs, ctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{SsJoinInputBuilder, WeightScheme};
    use crate::exec::{ssjoin, Algorithm, SsJoinConfig};
    use crate::order::ElementOrder;

    fn build(groups: Vec<Vec<String>>, scheme: WeightScheme) -> SetCollection {
        let mut b = SsJoinInputBuilder::new(scheme, ElementOrder::FrequencyAsc);
        let h = b.add_relation(groups);
        b.build().unwrap().collection(h).clone()
    }

    fn random_groups(n: usize, vocab: usize) -> Vec<Vec<String>> {
        (0..n)
            .map(|i| {
                (0..(2 + (i * i) % 5))
                    .map(|j| format!("v{}", (i * 13 + j * 7) % vocab))
                    .collect()
            })
            .collect()
    }

    fn fast_pairs(c: &SetCollection, pred: &OverlapPredicate) -> Vec<JoinPair> {
        ssjoin(c, c, pred, &SsJoinConfig::new(Algorithm::Basic))
            .unwrap()
            .pairs
    }

    #[test]
    fn collection_roundtrip_shape() {
        let c = build(random_groups(10, 13), WeightScheme::Idf);
        let rel = collection_to_relation(&c);
        assert_eq!(rel.len(), c.tuple_count());
        assert_eq!(rel.schema().names(), vec!["a", "b", "w", "norm"]);
    }

    #[test]
    fn basic_plan_matches_fast_path() {
        let c = build(random_groups(30, 17), WeightScheme::Idf);
        for pred in [
            OverlapPredicate::absolute(1.2),
            OverlapPredicate::r_normalized(0.6),
            OverlapPredicate::two_sided(0.5),
        ] {
            let rel = Arc::new(collection_to_relation(&c));
            let plan = basic_plan(rel.clone(), rel, &pred);
            let (pairs, _) = run_plan(plan.as_ref()).unwrap();
            assert_eq!(pairs, fast_pairs(&c, &pred), "pred {pred:?}");
        }
    }

    #[test]
    fn prefix_plan_matches_fast_path() {
        let c = build(random_groups(30, 17), WeightScheme::Idf);
        for pred in [
            OverlapPredicate::absolute(1.2),
            OverlapPredicate::two_sided(0.5),
        ] {
            let rel = Arc::new(collection_to_relation(&c));
            let plan = prefix_plan(rel.clone(), rel, &pred, c.norm_range(), c.norm_range());
            let (pairs, _) = run_plan(plan.as_ref()).unwrap();
            assert_eq!(pairs, fast_pairs(&c, &pred), "pred {pred:?}");
        }
    }

    #[test]
    fn inline_plan_matches_fast_path() {
        let c = build(random_groups(30, 17), WeightScheme::Idf);
        for pred in [
            OverlapPredicate::absolute(1.2),
            OverlapPredicate::two_sided(0.5),
        ] {
            let plan = inline_plan(&c, &c, &pred);
            let (pairs, _) = run_plan(plan.as_ref()).unwrap();
            assert_eq!(pairs, fast_pairs(&c, &pred), "pred {pred:?}");
        }
    }

    #[test]
    fn inline_encoding_roundtrip() {
        let ranks = [3u32, 9, 100];
        let weights = [Weight::from_f64(1.5), Weight::ONE, Weight::from_f64(0.25)];
        let enc = encode_inline_set(ranks.into_iter().zip(weights));
        let dec = decode_inline_set(&enc).unwrap();
        assert_eq!(
            dec,
            ranks
                .iter()
                .zip(&weights)
                .map(|(&r, &w)| (r, w.raw()))
                .collect::<Vec<_>>()
        );
        assert!(decode_inline_set("").unwrap().is_empty());
        assert!(decode_inline_set("garbage").is_err());
        assert!(decode_inline_set("1:x").is_err());
    }

    #[test]
    fn inline_overlap_udf() {
        let unit = |ranks: [u32; 2]| ranks.map(|r| (r, Weight::ONE));
        let a = encode_inline_set(unit([1, 5]));
        let b = encode_inline_set(unit([5, 9]));
        assert_eq!(inline_overlap(&a, &b).unwrap(), Weight::ONE.raw());
        assert_eq!(inline_overlap(&a, "").unwrap(), 0);
    }

    #[test]
    fn plan_stats_expose_phases() {
        let c = build(random_groups(20, 11), WeightScheme::Unweighted);
        let pred = OverlapPredicate::two_sided(0.5);
        let rel = Arc::new(collection_to_relation(&c));
        let plan = prefix_plan(rel.clone(), rel, &pred, c.norm_range(), c.norm_range());
        let (_, ctx) = run_plan(plan.as_ref()).unwrap();
        assert!(ctx.rows_for("prefix_filter") > 0);
        assert!(ctx.stats().iter().any(|s| s.operator == "join_back_s"));
    }
}
