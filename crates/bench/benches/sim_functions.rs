//! Micro-benchmarks of the similarity functions (the verification UDFs).

use ssjoin_bench::criterion::{black_box, criterion_group, criterion_main, Criterion};
use ssjoin_sim::{
    edit_similarity, ges, jaccard_resemblance, levenshtein, levenshtein_within, GesConfig,
};
use ssjoin_text::{QGramTokenizer, Tokenizer, WordTokenizer};

const A: &str = "4821 Chestnut Avenue Apartment 12 Lakewood Washington 98431";
const B: &str = "4821 Chestnut Ave Apt 12 Lakewood WA 98431";

fn bench_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim");

    g.bench_function("levenshtein_full", |b| {
        b.iter(|| levenshtein(black_box(A), black_box(B)))
    });
    g.bench_function("levenshtein_within_k5", |b| {
        b.iter(|| levenshtein_within(black_box(A), black_box(B), 5))
    });
    g.bench_function("edit_similarity", |b| {
        b.iter(|| edit_similarity(black_box(A), black_box(B)))
    });

    let tok = WordTokenizer::new().lowercased();
    let (ta, tb) = (tok.tokenize(A), tok.tokenize(B));
    g.bench_function("jaccard_resemblance_tokens", |b| {
        b.iter(|| jaccard_resemblance(black_box(&ta), black_box(&tb)))
    });
    g.bench_function("ges_tokens", |b| {
        b.iter(|| {
            ges(
                black_box(&ta),
                black_box(&tb),
                &|_| 1.0,
                GesConfig::default(),
            )
        })
    });

    let qtok = QGramTokenizer::new(3);
    g.bench_function("qgram_tokenize", |b| b.iter(|| qtok.tokenize(black_box(A))));
    g.finish();
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
