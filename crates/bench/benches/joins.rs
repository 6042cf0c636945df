//! End-to-end similarity joins (the §3 instantiations) on a fixed corpus.

use ssjoin_baselines::{GravanoConfig, GravanoJoin};
use ssjoin_bench::criterion::{criterion_group, criterion_main, Criterion};
use ssjoin_bench::evaluation_corpus;
use ssjoin_joins::{
    cosine_join, edit_similarity_join, ges_join, jaccard_join, CosineConfig, EditJoinConfig,
    GesJoinConfig, JaccardConfig, TopKConfig, TopKIndex,
};

fn bench_joins(c: &mut Criterion) {
    let data = evaluation_corpus(0.06).records; // 1,500 rows
    let mut g = c.benchmark_group("joins");
    g.sample_size(10);

    g.bench_function("edit_0.90_inline", |b| {
        b.iter(|| edit_similarity_join(&data, &data, &EditJoinConfig::new(0.9)).expect("join"))
    });
    g.bench_function("edit_0.90_gravano", |b| {
        b.iter(|| GravanoJoin::new(GravanoConfig::new(3, 0.9)).run(&data, &data))
    });
    g.bench_function("jaccard_0.85_inline", |b| {
        b.iter(|| jaccard_join(&data, &data, &JaccardConfig::resemblance(0.85)).expect("join"))
    });
    g.bench_function("ges_0.90_inline", |b| {
        b.iter(|| ges_join(&data, &data, &GesJoinConfig::new(0.9)).expect("join"))
    });
    g.bench_function("cosine_0.80_inline", |b| {
        b.iter(|| cosine_join(&data, &data, &CosineConfig::new(0.8)).expect("join"))
    });

    // Per-query fuzzy matching over a prebuilt index.
    let config = TopKConfig::new(3, 0.8).expect("config");
    let mut index = TopKIndex::build(&data, config).expect("index");
    let query = &data[data.len() / 2];
    g.bench_function("topk_index_top3_0.8", |b| {
        b.iter(|| index.top_k(query).expect("lookup"))
    });
    g.finish();
}

criterion_group!(benches, bench_joins);
criterion_main!(benches);
