//! Cross-crate integration: generated corpora through the full join stack,
//! with cross-algorithm and baseline agreement at realistic (small) scale.

use ssjoin::baselines::{GravanoConfig, GravanoJoin};
use ssjoin::core::{Algorithm, ExecContext};
use ssjoin::datagen::{AddressCorpus, AddressCorpusConfig};
use ssjoin::joins::{
    dedupe_self_pairs, edit_similarity_join, jaccard_join, EditJoinConfig, JaccardConfig,
};
use std::collections::HashSet;

fn corpus(rows: usize) -> AddressCorpus {
    AddressCorpus::generate(&AddressCorpusConfig::paper_like(rows))
}

#[test]
fn edit_join_agrees_with_gravano_baseline_on_corpus() {
    let data = corpus(400).records;
    for alpha in [0.85, 0.9] {
        let ours = edit_similarity_join(&data, &data, &EditJoinConfig::new(alpha)).unwrap();
        let (theirs, _) = GravanoJoin::new(GravanoConfig::new(3, alpha)).run(&data, &data);
        let our_keys: HashSet<(u32, u32)> = ours.keys().into_iter().collect();
        let their_keys: HashSet<(u32, u32)> = theirs.iter().map(|p| (p.r, p.s)).collect();
        // The SSJoin-based join is exact (short strings handled); the
        // Gravano baseline can only miss pairs outside its positional bound,
        // which does not happen on address-length strings — so the outputs
        // must be identical here.
        assert_eq!(our_keys, their_keys, "alpha={alpha}");
    }
}

#[test]
fn all_algorithms_identical_on_corpus_edit_join() {
    let data = corpus(500).records;
    let alpha = 0.88;
    let mut outputs = Vec::new();
    for alg in [
        Algorithm::Basic,
        Algorithm::PrefixFiltered,
        Algorithm::Inline,
    ] {
        let out = edit_similarity_join(
            &data,
            &data,
            &EditJoinConfig::new(alpha).with_algorithm(alg),
        )
        .unwrap();
        outputs.push((alg, out.keys()));
    }
    for w in outputs.windows(2) {
        assert_eq!(w[0].1, w[1].1, "{:?} vs {:?}", w[0].0, w[1].0);
    }
}

#[test]
fn jaccard_join_finds_injected_duplicates() {
    let corpus = corpus(1500);
    let truth: HashSet<(u32, u32)> = corpus.true_duplicate_pairs().into_iter().collect();
    let out = jaccard_join(
        &corpus.records,
        &corpus.records,
        &JaccardConfig::resemblance(0.55),
    )
    .unwrap();
    let found: HashSet<(u32, u32)> = dedupe_self_pairs(&out.pairs)
        .iter()
        .map(|p| (p.r, p.s))
        .collect();
    let tp = found.intersection(&truth).count();
    let recall = tp as f64 / truth.len().max(1) as f64;
    let precision = tp as f64 / found.len().max(1) as f64;
    assert!(recall > 0.5, "recall {recall}");
    assert!(precision > 0.5, "precision {precision}");
}

#[test]
fn multithreaded_join_matches_single_threaded() {
    let data = corpus(600).records;
    let base = JaccardConfig::resemblance(0.7);
    let seq = jaccard_join(&data, &data, &base).unwrap();
    let par = jaccard_join(
        &data,
        &data,
        &base.clone().with_exec(ExecContext::new().with_threads(4)),
    )
    .unwrap();
    assert_eq!(seq.keys(), par.keys());
}

#[test]
fn prefix_filter_beats_basic_on_join_tuples_at_high_threshold() {
    let data = corpus(1000).records;
    let cfg = JaccardConfig::resemblance(0.9);
    let basic = jaccard_join(&data, &data, &cfg.clone().with_algorithm(Algorithm::Basic)).unwrap();
    let inline =
        jaccard_join(&data, &data, &cfg.clone().with_algorithm(Algorithm::Inline)).unwrap();
    assert_eq!(basic.keys(), inline.keys());
    assert!(
        inline.stats.join_tuples * 2 < basic.stats.join_tuples,
        "prefix join tuples {} vs basic {}",
        inline.stats.join_tuples,
        basic.stats.join_tuples
    );
}

/// The edit join at the q its threshold chooses is exact against the
/// naive cross product at every threshold from 0.6 to 0.95, including on
/// strings shorter than the q-gram cutoff (handled by the short-string
/// route), while verifying a small share of the pairs at 0.85.
#[test]
fn naive_baseline_agrees_but_compares_everything() {
    let mut data = corpus(150).records;
    data.extend(
        [
            "",
            "a",
            "ab",
            "ac",
            "abc",
            "abd",
            "1 Main",
            "1 Mian",
            "12 Oak St",
            "12 Oak Sq",
        ]
        .map(String::from),
    );
    let n = data.len() as u64;
    for alpha in [0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95] {
        let ours = edit_similarity_join(&data, &data, &EditJoinConfig::new(alpha)).unwrap();
        let (naive_pairs, naive_stats) =
            ssjoin::baselines::naive_join(&data, &data, alpha, |a, b| {
                ssjoin::sim::edit_similarity(a, b)
            });
        let naive_keys: Vec<(u32, u32)> = naive_pairs.iter().map(|&(i, j, _)| (i, j)).collect();
        assert_eq!(ours.keys(), naive_keys, "alpha {alpha}");
        assert_eq!(naive_stats.comparisons, n * n);
        if alpha == 0.85 {
            assert!(ours.udf_verifications < naive_stats.comparisons / 10);
        }
    }
}
