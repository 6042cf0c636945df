//! Every packaged join rejects an out-of-range configuration with a typed
//! [`SsJoinError::Config`] naming the offending field — never a panic. The
//! hamming join is absent: every `max_distance` is a valid configuration.

use ssjoin_core::{SsJoinError, SsJoinResult};
use ssjoin_joins::{
    cooccurrence_join, cosine_join, dedup, edit_similarity_join, ges_join, jaccard_join,
    soft_fd_join, soundex_join, top_k_matches, Canonicalization, CooccurrenceConfig, CosineConfig,
    DedupSimilarity, EditJoinConfig, GesJoinConfig, JaccardConfig, SoftFdConfig, SoundexConfig,
    TopKConfig, TopKIndex,
};

/// Runs one join over `data` with the named field set to a value.
type Case = fn(&[String], f64) -> SsJoinResult<()>;

/// Values a constructor accepts but the join must refuse.
const BAD_UNIT: [f64; 4] = [0.0, -0.5, 1.5, f64::NAN];

fn strings() -> Vec<String> {
    ["100 main st", "100 main street", "ab"]
        .iter()
        .map(|s| s.to_string())
        .collect()
}

fn topk(min_similarity: f64) -> TopKConfig {
    TopKConfig {
        min_similarity,
        ..TopKConfig::new(3, 0.8).expect("valid")
    }
}

/// `(join, the field its message must name, the join at a value of it)`.
const CASES: [(&str, &str, Case); 14] = [
    ("jaccard resemblance", "threshold", |d, t| {
        jaccard_join(d, d, &JaccardConfig::resemblance(t)).map(drop)
    }),
    ("jaccard containment", "threshold", |d, t| {
        jaccard_join(d, d, &JaccardConfig::containment(t)).map(drop)
    }),
    ("cosine", "threshold", |d, t| {
        cosine_join(d, d, &CosineConfig::new(t)).map(drop)
    }),
    ("edit", "threshold", |d, t| {
        edit_similarity_join(d, d, &EditJoinConfig::new(t)).map(drop)
    }),
    ("ges", "threshold", |d, t| {
        ges_join(d, d, &GesJoinConfig::new(t)).map(drop)
    }),
    ("ges exhaustive", "threshold", |d, t| {
        ges_join(d, d, &GesJoinConfig::new(t).exhaustive()).map(drop)
    }),
    ("ges", "beta", |d, b| {
        ges_join(d, d, &GesJoinConfig::new(0.9).with_beta(b)).map(drop)
    }),
    ("soundex", "threshold", |d, t| {
        soundex_join(d, d, &SoundexConfig::new(t)).map(drop)
    }),
    // Builds its `JaccardConfig` as a struct literal, so only the join-time
    // check can catch the threshold.
    ("cooccurrence", "threshold", |d, t| {
        let obs: Vec<(String, String)> = d.iter().map(|x| (x.clone(), x.clone())).collect();
        cooccurrence_join(&obs, &obs, &CooccurrenceConfig::new(t)).map(drop)
    }),
    ("dedup edit", "threshold", |d, threshold| {
        let similarity = DedupSimilarity::Edit { threshold };
        dedup(d, &similarity, Canonicalization::First).map(drop)
    }),
    ("dedup jaccard", "threshold", |d, threshold| {
        let similarity = DedupSimilarity::Jaccard { threshold };
        dedup(d, &similarity, Canonicalization::First).map(drop)
    }),
    ("top_k_matches", "min_similarity", |d, m| {
        top_k_matches("100 main", d, &topk(m)).map(drop)
    }),
    ("TopKIndex::build", "min_similarity", |d, m| {
        TopKIndex::build(d, topk(m)).map(drop)
    }),
    ("TopKConfig::new", "min_similarity", |_, m| {
        TopKConfig::new(3, m).map(drop)
    }),
];

#[test]
fn out_of_range_thresholds_are_config_errors() {
    let data = strings();
    for (join, field, run) in CASES {
        assert!(run(&data, 0.9).is_ok(), "{join}: a valid {field} must run");
        for bad in BAD_UNIT {
            match run(&data, bad) {
                Err(SsJoinError::Config(msg)) => {
                    assert!(msg.contains(field), "{join} {field}={bad}: {msg:?}")
                }
                other => panic!("{join} {field}={bad}: expected a Config error, got {other:?}"),
            }
        }
    }
}

#[test]
fn out_of_range_counts_are_config_errors() {
    let data = strings();
    let tuples: Vec<Vec<String>> = vec![vec!["a".into(), "b".into()]];
    let cases: Vec<(&str, &str, SsJoinResult<()>)> = vec![
        (
            "edit q = 0",
            "q",
            edit_similarity_join(&data, &data, &EditJoinConfig::new(0.8).with_q(0)).map(drop),
        ),
        ("top-k k = 0", "k", TopKConfig::new(0, 0.8).map(drop)),
        (
            "soft-fd k = 0",
            "k",
            soft_fd_join(&tuples, &tuples, &SoftFdConfig::new(0)).map(drop),
        ),
        (
            "soft-fd k > h",
            "k",
            soft_fd_join(&tuples, &tuples, &SoftFdConfig::new(3)).map(drop),
        ),
    ];
    for (case, field, out) in cases {
        match out {
            Err(SsJoinError::Config(msg)) => assert!(msg.contains(field), "{case}: {msg:?}"),
            other => panic!("{case}: expected a Config error, got {other:?}"),
        }
    }
}
