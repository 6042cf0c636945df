//! Ablation of §4.3.4: candidate verification by joining back to the base
//! relations (prefix-filtered) vs merging inline-carried sets. Same
//! candidates, different verification machinery — plus a micro-benchmark of
//! the overlap kernels themselves on synthetic skew profiles.

use ssjoin_bench::criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ssjoin_bench::evaluation_corpus;
use ssjoin_core::kernel::verify_overlap;
use ssjoin_core::{
    ssjoin, Algorithm, ElementOrder, OverlapPredicate, SsJoinConfig, SsJoinInputBuilder,
    SsJoinStats, WeightScheme,
};
use ssjoin_text::{Tokenizer, WordTokenizer};

fn bench_verify(c: &mut Criterion) {
    let corpus = evaluation_corpus(0.08);
    let tok = WordTokenizer::new().lowercased();
    let groups: Vec<Vec<String>> = corpus.records.iter().map(|s| tok.tokenize(s)).collect();
    let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
    let h = b.add_relation(groups);
    let collection = b.build().unwrap().collection(h).clone();

    let mut g = c.benchmark_group("verification");
    g.sample_size(10);
    for theta in [0.7, 0.85] {
        let pred = OverlapPredicate::two_sided(theta);
        g.bench_with_input(
            BenchmarkId::new("join_back", theta),
            &pred,
            |bench, pred| {
                bench.iter(|| {
                    ssjoin(
                        &collection,
                        &collection,
                        pred,
                        &SsJoinConfig::new(Algorithm::PrefixFiltered),
                    )
                    .expect("join")
                })
            },
        );
        g.bench_with_input(BenchmarkId::new("inline", theta), &pred, |bench, pred| {
            bench.iter(|| {
                ssjoin(
                    &collection,
                    &collection,
                    pred,
                    &SsJoinConfig::new(Algorithm::Inline),
                )
                .expect("join")
            })
        });
    }
    g.finish();
}

fn bench_kernels(c: &mut Criterion) {
    // Synthetic skew: per bucket, one long set and many short sets that
    // share a few of its head tokens — the profile where the threshold
    // bound rejects most pairs early and galloping skips the long tail.
    // Zero-padded tokens + lexicographic order keep element ranks aligned
    // with the generation order.
    let mut groups: Vec<Vec<String>> = Vec::new();
    for b in 0..4 {
        groups.push((0..256).map(|i| format!("b{b}t{i:04}")).collect());
        for s in 0..32 {
            groups.push((0..4).map(|i| format!("b{b}t{:04}", s * 3 + i)).collect());
        }
    }
    let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::Lexicographic);
    let h = b.add_relation(groups);
    let collection = b.build().unwrap().collection(h).clone();
    let pred = OverlapPredicate::two_sided(0.85);

    // The linear-merge oracle (`SetRef::overlap`, then the threshold
    // comparison) against the production kernel on the same pairs.
    let mut g = c.benchmark_group("kernels");
    g.sample_size(10);
    g.bench_function("oracle", |bench| {
        bench.iter(|| {
            let mut accepted = 0u64;
            for a in collection.iter() {
                for other in collection.iter() {
                    let required = pred.required_overlap(a.norm(), other.norm());
                    accepted += u64::from(a.overlap(other) >= required);
                }
            }
            black_box(accepted)
        })
    });
    g.bench_function("adaptive", |bench| {
        bench.iter(|| {
            let mut stats = SsJoinStats::default();
            let mut accepted = 0u64;
            for a in collection.iter() {
                for other in collection.iter() {
                    let required = pred.required_overlap(a.norm(), other.norm());
                    if verify_overlap(a, other, required, &mut stats).is_some() {
                        accepted += 1;
                    }
                }
            }
            black_box((accepted, stats.merge_steps))
        })
    });
    g.finish();
}

fn bench_signature(c: &mut Criterion) {
    // The signature bound in isolation: every ordered pair of the seeded
    // PRNG evaluation corpus against the stored 8×u64 signatures. What this
    // measures is the cost of the AND-NOT + popcount sweep itself — the work
    // a candidate pays *before* any merge; pruning power is the experiments
    // harness's `ablation-bitmap` panel.
    let corpus = evaluation_corpus(0.04);
    let tok = WordTokenizer::new().lowercased();
    let groups: Vec<Vec<String>> = corpus.records.iter().map(|s| tok.tokenize(s)).collect();
    let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
    let h = b.add_relation(groups);
    let collection = b.build().unwrap().collection(h).clone();
    let pred = OverlapPredicate::two_sided(0.85);

    let mut g = c.benchmark_group("kernels/signature");
    g.sample_size(10);
    g.bench_function("w8", |bench| {
        bench.iter(|| {
            let mut pruned = 0u64;
            for a in collection.iter() {
                for other in collection.iter() {
                    let required = pred.required_overlap(a.norm(), other.norm());
                    pruned += u64::from(a.wide_overlap_bound(other) < required);
                }
            }
            black_box(pruned)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_verify, bench_kernels, bench_signature);
criterion_main!(benches);
