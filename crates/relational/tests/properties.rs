//! Property-based tests for the relational engine: operators against naive
//! reference implementations on random relations, driven by a seeded PRNG
//! so every failure is reproducible from the iteration's seed.

use ssjoin_prng::{Rng, StdRng};
use ssjoin_relational::{
    AggFunc, AggSpec, DataType, Distinct, ExecContext, Expr, Filter, GroupBy, HashJoin, PlanNode,
    Relation, Scan, Schema, Value,
};
use std::collections::HashMap;
use std::sync::Arc;

fn int_relation(rows: Vec<(i64, i64)>) -> Arc<Relation> {
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let rows = rows
        .into_iter()
        .map(|(k, v)| vec![Value::Int(k), Value::Int(v)])
        .collect();
    Arc::new(Relation::new(schema, rows).unwrap())
}

/// 0–39 rows with keys in 0..8 (collision-heavy) and values in -5..5.
fn random_rows(rng: &mut StdRng) -> Vec<(i64, i64)> {
    let n = rng.gen_range(0usize..40);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0u32..8) as i64,
                rng.gen_range(0u32..10) as i64 - 5,
            )
        })
        .collect()
}

/// Hash join agrees with the nested-loop reference.
#[test]
fn joins_match_nested_loop() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x101 + seed);
        let l = random_rows(&mut rng);
        let r = random_rows(&mut rng);
        let expect: Vec<Vec<Value>> = {
            let mut out = Vec::new();
            for &(lk, lv) in &l {
                for &(rk, rv) in &r {
                    if lk == rk {
                        out.push(vec![
                            Value::Int(lk),
                            Value::Int(lv),
                            Value::Int(rk),
                            Value::Int(rv),
                        ]);
                    }
                }
            }
            out.sort();
            out
        };
        let (lr, rr) = (int_relation(l), int_relation(r));
        let h = HashJoin::on(
            Box::new(Scan::new(lr)),
            Box::new(Scan::new(rr)),
            &[("k", "k")],
        )
        .execute(&mut ExecContext::new())
        .unwrap();
        assert_eq!(h.sorted_rows(), expect, "hash join, seed {seed}");
    }
}

/// GroupBy sums match a HashMap fold; HAVING filters exactly.
#[test]
fn group_by_matches_fold() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x202 + seed);
        let rows = random_rows(&mut rng);
        let cutoff = rng.gen_range(0u32..40) as i64 - 20;
        let mut expect: HashMap<i64, (i64, i64)> = HashMap::new(); // k -> (count, sum)
        for &(k, v) in &rows {
            let e = expect.entry(k).or_insert((0, 0));
            e.0 += 1;
            e.1 += v;
        }
        let g = GroupBy::new(
            Box::new(Scan::new(int_relation(rows))),
            &["k"],
            vec![
                AggSpec::new(AggFunc::Count, Expr::lit(1i64), "n"),
                AggSpec::new(AggFunc::Sum, Expr::col("v"), "sv"),
            ],
        )
        .with_having(Expr::col("sv").ge(Expr::lit(cutoff)));
        let out = g.execute(&mut ExecContext::new()).unwrap();
        for row in out.rows() {
            let k = row[0].as_i64().unwrap();
            let (n, sv) = expect[&k];
            assert_eq!(row[1].as_i64().unwrap(), n, "seed {seed}");
            assert_eq!(row[2].as_i64().unwrap(), sv, "seed {seed}");
            assert!(sv >= cutoff, "seed {seed}");
        }
        let expected_groups = expect.values().filter(|&&(_, sv)| sv >= cutoff).count();
        assert_eq!(out.len(), expected_groups, "seed {seed}");
    }
}

/// Distinct removes exactly the duplicates.
#[test]
fn distinct_is_exact() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x303 + seed);
        let rows = random_rows(&mut rng);
        let rel = int_relation(rows.clone());
        let d = Distinct::new(Box::new(Scan::new(rel)))
            .execute(&mut ExecContext::new())
            .unwrap();
        let unique: std::collections::HashSet<(i64, i64)> = rows.iter().copied().collect();
        assert_eq!(d.len(), unique.len(), "seed {seed}");
    }
}

/// Filter keeps exactly the rows satisfying the predicate.
#[test]
fn filter_is_exact() {
    for seed in 0..256u64 {
        let mut rng = StdRng::seed_from_u64(0x404 + seed);
        let rows = random_rows(&mut rng);
        let cut = rng.gen_range(0u32..10) as i64 - 5;
        let rel = int_relation(rows.clone());
        let out = Filter::new(Box::new(Scan::new(rel)), Expr::col("v").gt(Expr::lit(cut)))
            .execute(&mut ExecContext::new())
            .unwrap();
        let expect = rows.iter().filter(|&&(_, v)| v > cut).count();
        assert_eq!(out.len(), expect, "seed {seed}");
        for row in out.rows() {
            assert!(row[1].as_i64().unwrap() > cut, "seed {seed}");
        }
    }
}
