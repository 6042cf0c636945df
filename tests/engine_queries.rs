//! End-to-end queries through the relational engine, including the literal
//! SSJoin operator trees of Figures 7–9 driven from string data.

use ssjoin::core::plan::{basic_plan, collection_to_relation, inline_plan, prefix_plan, run_plan};
use ssjoin::core::{
    ssjoin, Algorithm, ElementOrder, OverlapPredicate, SsJoinConfig, SsJoinInputBuilder,
    WeightScheme,
};
use ssjoin::relational::{
    AggFunc, AggSpec, DataType, ExecContext, Expr, Filter, GroupBy, HashJoin, PlanNode, Project,
    Relation, Scan, Schema, Value,
};
use ssjoin::text::{Tokenizer, WordTokenizer};
use std::sync::Arc;

/// A small sales-style analytics query: join, aggregate, filter groups.
#[test]
fn analytics_query_composes() {
    let orders = Arc::new(
        Relation::new(
            Schema::of(&[
                ("order_id", DataType::Int),
                ("customer", DataType::Str),
                ("amount", DataType::Float),
            ]),
            vec![
                vec![Value::Int(1), Value::str("acme"), Value::Float(120.0)],
                vec![Value::Int(2), Value::str("acme"), Value::Float(80.0)],
                vec![Value::Int(3), Value::str("globex"), Value::Float(50.0)],
                vec![Value::Int(4), Value::str("initech"), Value::Float(10.0)],
            ],
        )
        .unwrap(),
    );
    let customers = Arc::new(
        Relation::new(
            Schema::of(&[("name", DataType::Str), ("region", DataType::Str)]),
            vec![
                vec![Value::str("acme"), Value::str("west")],
                vec![Value::str("globex"), Value::str("east")],
                vec![Value::str("initech"), Value::str("west")],
            ],
        )
        .unwrap(),
    );

    let join = HashJoin::on(
        Box::new(Scan::new(orders)),
        Box::new(Scan::new(customers)),
        &[("customer", "name")],
    );
    let grouped = GroupBy::new(
        Box::new(join),
        &["region"],
        vec![
            AggSpec::new(AggFunc::Sum, Expr::col("amount"), "revenue"),
            AggSpec::new(AggFunc::Count, Expr::lit(1i64), "orders"),
        ],
    )
    .with_having(Expr::col("revenue").gt(Expr::lit(40.0)));

    let out = grouped.execute(&mut ExecContext::new()).unwrap();
    assert_eq!(
        out.sorted_rows(),
        vec![
            vec![Value::str("east"), Value::Float(50.0), Value::Int(1)],
            vec![Value::str("west"), Value::Float(210.0), Value::Int(3)],
        ]
    );
}

/// Drive the Figure 7/8/9 operator trees from raw strings and confirm they
/// agree with the fused executors.
#[test]
fn figure_plans_from_strings() {
    let addresses = [
        "100 main st springfield",
        "100 main street springfield",
        "42 oak ave rivertown",
        "42 oak avenue rivertown",
        "nothing like the others at all",
    ];
    let tok = WordTokenizer::new();
    let groups: Vec<Vec<String>> = addresses.iter().map(|s| tok.tokenize(s)).collect();
    let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
    let h = b.add_relation(groups);
    let built = b.build().unwrap();
    let c = built.collection(h);
    let pred = OverlapPredicate::two_sided(0.6);

    let fast = ssjoin(c, c, &pred, &SsJoinConfig::new(Algorithm::Basic)).unwrap();

    let rel = Arc::new(collection_to_relation(c));
    let (basic, _) = run_plan(basic_plan(rel.clone(), rel.clone(), &pred).as_ref()).unwrap();
    let (prefix, ctx) =
        run_plan(prefix_plan(rel.clone(), rel, &pred, c.norm_range(), c.norm_range()).as_ref())
            .unwrap();
    let (inline, _) = run_plan(inline_plan(c, c, &pred).as_ref()).unwrap();

    assert_eq!(basic, fast.pairs);
    assert_eq!(prefix, fast.pairs);
    assert_eq!(inline, fast.pairs);

    // The Figure 8 plan must actually contain its structural pieces.
    let ops: Vec<&str> = ctx.stats().iter().map(|s| s.operator.as_str()).collect();
    for expected in [
        "prefix_filter",
        "prefix_join",
        "join_back_r",
        "join_back_s",
        "group_having",
    ] {
        assert!(ops.contains(&expected), "missing {expected} in {ops:?}");
    }
}

/// UDF-in-engine: a similarity filter as the paper's Figure 2 pipeline
/// would run inside a database.
#[test]
fn udf_similarity_filter_in_engine() {
    let schema = Schema::of(&[("a", DataType::Str), ("b", DataType::Str)]);
    let pairs = Arc::new(
        Relation::new(
            schema,
            vec![
                vec![Value::str("microsoft"), Value::str("mcrosoft")],
                vec![Value::str("microsoft"), Value::str("oracle")],
            ],
        )
        .unwrap(),
    );
    let udf = Expr::udf(
        "edit_sim_at_least",
        vec![Expr::col("a"), Expr::col("b")],
        |args| {
            let (a, b) = (
                args[0].as_str().unwrap_or(""),
                args[1].as_str().unwrap_or(""),
            );
            Ok(Value::Bool(ssjoin::sim::edit_similarity_at_least(
                a, b, 0.85,
            )))
        },
    );
    let out = Filter::new(Box::new(Scan::new(pairs)), udf)
        .execute(&mut ExecContext::new())
        .unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(out.rows()[0][1], Value::str("mcrosoft"));
}

/// Projection arithmetic + group-by over engine-computed columns.
#[test]
fn computed_columns_flow_through_aggregation() {
    let schema = Schema::of(&[("x", DataType::Int)]);
    let rel =
        Arc::new(Relation::new(schema, (1..=10).map(|i| vec![Value::Int(i)]).collect()).unwrap());
    let projected = Project::new(
        Box::new(Scan::new(rel)),
        vec![
            (
                "bucket".into(),
                Expr::udf("mod3", vec![Expr::col("x")], |args| {
                    Ok(Value::Int(args[0].as_i64().unwrap_or(0) % 3))
                }),
            ),
            ("x".into(), Expr::col("x")),
        ],
    );
    let grouped = GroupBy::new(
        Box::new(projected),
        &["bucket"],
        vec![AggSpec::new(AggFunc::Sum, Expr::col("x"), "sum_x")],
    );
    let out = grouped.execute(&mut ExecContext::new()).unwrap();
    assert_eq!(out.len(), 3);
    let total: i64 = out.rows().iter().map(|r| r[1].as_i64().unwrap()).sum();
    assert_eq!(total, 55);
}
