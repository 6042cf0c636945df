//! Relational-engine operator benchmarks: the hash join and the group-by
//! that the paper's Figs 7–9 plans are built from.

use ssjoin_bench::criterion::{criterion_group, criterion_main, Criterion};
use ssjoin_relational::{
    AggFunc, AggSpec, DataType, ExecContext, Expr, GroupBy, HashJoin, PlanNode, Relation, Scan,
    Schema, Value,
};
use std::sync::Arc;

fn make_relation(rows: usize, key_space: i64, seed: i64) -> Arc<Relation> {
    let schema = Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]);
    let data = (0..rows as i64)
        .map(|i| vec![Value::Int((i * seed) % key_space), Value::Int(i)])
        .collect();
    Arc::new(Relation::new(schema, data).unwrap())
}

fn bench_engine(c: &mut Criterion) {
    let l = make_relation(20_000, 5_000, 7);
    let r = make_relation(20_000, 5_000, 13);

    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.bench_function("hash_join_20k", |b| {
        b.iter(|| {
            HashJoin::on(
                Box::new(Scan::new(l.clone())),
                Box::new(Scan::new(r.clone())),
                &[("k", "k")],
            )
            .execute(&mut ExecContext::new())
            .expect("join")
        })
    });
    g.bench_function("group_by_sum_20k", |b| {
        b.iter(|| {
            GroupBy::new(
                Box::new(Scan::new(l.clone())),
                &["k"],
                vec![AggSpec::new(AggFunc::Sum, Expr::col("v"), "sv")],
            )
            .execute(&mut ExecContext::new())
            .expect("group by")
        })
    });
    g.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
