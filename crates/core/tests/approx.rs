//! Acceptance tests for the opt-in approximate mode (seeded, reproducible).
//!
//! The contract under test: approximate candidate generation changes *which
//! pairs are considered*, never how a pair is scored. Every approximate
//! output must be a subset of the exact output with bit-identical overlaps;
//! a target recall of exactly 1.0 must degenerate to the exact pipeline;
//! the same seed and configuration must reproduce the same output across
//! executors and thread counts; and spilling and index pinning must fail
//! with typed errors, never silently wrong answers.

use ssjoin_core::{
    ssjoin, Algorithm, ApproxSpec, CorpusIndex, ElementOrder, ExecBudget, ExecContext, JoinPair,
    JoinWorkspace, OverlapPredicate, SetCollection, SsJoinConfig, SsJoinError, SsJoinInputBuilder,
    Weight, WeightScheme,
};
use ssjoin_prng::{Rng, StdRng};

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::Basic,
    Algorithm::PrefixFiltered,
    Algorithm::Inline,
];

fn build_self(groups: Vec<Vec<String>>, order: ElementOrder) -> SetCollection {
    let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, order);
    let h = b.add_relation(groups);
    b.build().unwrap().collection(h).clone()
}

/// Duplicate-rich random groups: clusters of a base record plus light
/// token-level perturbations, the workload approximate mode targets.
fn clustered_groups(rng: &mut StdRng) -> Vec<Vec<String>> {
    let clusters = rng.gen_range(3usize..12);
    let mut out = Vec::new();
    for c in 0..clusters {
        let len = rng.gen_range(2usize..7);
        let base: Vec<String> = (0..len)
            .map(|_| format!("t{}", rng.gen_range(0u32..40)))
            .collect();
        let copies = rng.gen_range(1usize..4);
        for _ in 0..copies {
            let mut g = base.clone();
            if rng.gen_bool(0.5) {
                g.push(format!("x{c}-{}", rng.gen_range(0u32..8)));
            }
            out.push(g);
        }
    }
    out
}

fn exact_pairs(c: &SetCollection, pred: &OverlapPredicate) -> Vec<JoinPair> {
    ssjoin(c, c, pred, &SsJoinConfig::new(Algorithm::Basic))
        .unwrap()
        .pairs
}

/// Property: for random clustered inputs, orders, thresholds, and recall
/// targets, the approximate output is a subset of the exact output and every
/// retained pair carries the identical exact overlap.
#[test]
fn approx_output_is_subset_with_exact_scores() {
    for seed in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0xA990_u64.wrapping_add(seed));
        let order = match rng.gen_range(0u32..3) {
            0 => ElementOrder::FrequencyAsc,
            1 => ElementOrder::Lexicographic,
            _ => ElementOrder::Hashed,
        };
        let theta = 0.3 + 0.6 * rng.gen_f64();
        let target = 0.5 + 0.45 * rng.gen_f64();
        let c = build_self(clustered_groups(&mut rng), order);
        let pred = OverlapPredicate::two_sided(theta);
        let truth: std::collections::HashMap<(u32, u32), Weight> = exact_pairs(&c, &pred)
            .iter()
            .map(|p| ((p.r, p.s), p.overlap))
            .collect();
        let cfg = SsJoinConfig::new(Algorithm::Inline)
            .with_exec(ExecContext::new().with_approximate(target));
        let out = ssjoin(&c, &c, &pred, &cfg).unwrap();
        assert!(out.stats.approx_reps >= 1, "seed {seed}: no repetitions");
        for p in &out.pairs {
            match truth.get(&(p.r, p.s)) {
                Some(&w) => assert_eq!(
                    w, p.overlap,
                    "seed {seed}: pair ({},{}) rescored by approximate mode",
                    p.r, p.s
                ),
                None => panic!(
                    "seed {seed}: approximate pair ({},{}) absent from the exact output",
                    p.r, p.s
                ),
            }
        }
    }
}

/// Seeded determinism: the same spec produces bit-identical output whatever
/// executor is configured (approximation bypasses the executor choice) and
/// whatever the thread count; a different seed is allowed to differ but must
/// stay subset-sound (covered above).
#[test]
fn approx_is_deterministic_across_executors_and_threads() {
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0xDE7E_u64.wrapping_add(seed));
        let c = build_self(clustered_groups(&mut rng), ElementOrder::FrequencyAsc);
        let pred = OverlapPredicate::two_sided(0.4);
        let spec = ApproxSpec::new(0.9).with_seed(0xFEED_u64.wrapping_add(seed));
        let baseline = ssjoin(
            &c,
            &c,
            &pred,
            &SsJoinConfig::new(Algorithm::Inline).with_exec(ExecContext {
                approx: Some(spec),
                ..ExecContext::new()
            }),
        )
        .unwrap();
        for alg in ALGORITHMS {
            for threads in [1usize, 2, 8] {
                let ctx = ExecContext {
                    approx: Some(spec),
                    ..ExecContext::new().with_threads(threads)
                };
                let out = ssjoin(&c, &c, &pred, &SsJoinConfig::new(alg).with_exec(ctx)).unwrap();
                assert_eq!(
                    baseline.pairs, out.pairs,
                    "seed {seed}: approximate output diverged under {alg:?}/{threads}t"
                );
            }
        }
    }
}

/// A target recall of exactly 1.0 is a valid spec that keeps the exact
/// pipeline: output bit-identical to a plain run and no repetitions built.
#[test]
fn recall_one_degenerates_to_exact() {
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x1000_u64.wrapping_add(seed));
        let c = build_self(clustered_groups(&mut rng), ElementOrder::FrequencyAsc);
        let pred = OverlapPredicate::two_sided(0.5);
        let exact = ssjoin(&c, &c, &pred, &SsJoinConfig::new(Algorithm::Inline)).unwrap();
        let degenerate = ssjoin(
            &c,
            &c,
            &pred,
            &SsJoinConfig::new(Algorithm::Inline)
                .with_exec(ExecContext::new().with_approximate(1.0)),
        )
        .unwrap();
        assert_eq!(exact.pairs, degenerate.pairs, "seed {seed}");
        assert_eq!(degenerate.stats.approx_reps, 0, "seed {seed}");
    }
}

/// Invalid recall targets are rejected up front with a typed config error —
/// zero, negative, above one, and NaN.
#[test]
fn invalid_targets_are_config_errors() {
    let c = build_self(
        vec![vec!["a".into(), "b".into()]],
        ElementOrder::FrequencyAsc,
    );
    let pred = OverlapPredicate::two_sided(0.5);
    for bad in [0.0, -0.25, 1.5, f64::NAN] {
        let cfg = SsJoinConfig::new(Algorithm::Inline)
            .with_exec(ExecContext::new().with_approximate(bad));
        match ssjoin(&c, &c, &pred, &cfg) {
            Err(SsJoinError::Config(msg)) => {
                assert!(msg.contains("recall"), "target {bad}: {msg}")
            }
            other => panic!("target {bad}: expected Config error, got {other:?}"),
        }
    }
}

/// Approximate mode refuses to run out of core: a resident budget small
/// enough to force spilling combines with an active spec into a typed
/// config error, not a silently resident (or silently exact) run.
#[test]
fn approx_plus_spill_is_a_config_error() {
    let mut rng = StdRng::seed_from_u64(0x5B1A);
    let c = build_self(clustered_groups(&mut rng), ElementOrder::FrequencyAsc);
    let pred = OverlapPredicate::two_sided(0.5);
    let cfg = SsJoinConfig::new(Algorithm::Inline).with_exec(
        ExecContext::new()
            .with_approximate(0.9)
            .with_budget(ExecBudget::new().with_max_resident_bytes(1)),
    );
    match ssjoin(&c, &c, &pred, &cfg) {
        Err(SsJoinError::Config(msg)) => {
            assert!(msg.contains("out of core"), "{msg}")
        }
        other => panic!("expected Config error, got {other:?}"),
    }
}

/// Index pinning: probing approximately requires a sketch built at index
/// time with the *same* spec — an exact-built index rejects approximate
/// probes, and a mismatched seed or recall target is rejected too, while
/// the matching spec probes fine and stays subset-sound across an
/// insert/delete churn.
#[test]
fn index_pins_the_approx_spec_and_survives_churn() {
    let mut rng = StdRng::seed_from_u64(0x1DE8);
    let c = build_self(clustered_groups(&mut rng), ElementOrder::FrequencyAsc);
    let pred = OverlapPredicate::two_sided(0.4);
    let spec = ApproxSpec::new(0.9);
    let mut ws = JoinWorkspace::new();

    // Exact-built index rejects approximate probes.
    let exact_index = CorpusIndex::build(c.clone(), pred.clone(), &ExecContext::new()).unwrap();
    let approx_cfg = SsJoinConfig::new(Algorithm::Inline).with_exec(ExecContext {
        approx: Some(spec),
        ..ExecContext::new()
    });
    match exact_index.probe(&c, &approx_cfg, &mut ws) {
        Err(SsJoinError::Config(msg)) => assert!(msg.contains("built without"), "{msg}"),
        other => panic!(
            "expected Config error, got {:?}",
            other.map(|o| o.pairs.len())
        ),
    }

    // Approx-built index rejects a different seed and a different target.
    let mut index = CorpusIndex::build(c.clone(), pred.clone(), &approx_cfg.exec).unwrap();
    for wrong in [spec.with_seed(123), ApproxSpec::new(0.8)] {
        let cfg = SsJoinConfig::new(Algorithm::Inline).with_exec(ExecContext {
            approx: Some(wrong),
            ..ExecContext::new()
        });
        match index.probe(&c, &cfg, &mut ws) {
            Err(SsJoinError::Config(msg)) => assert!(msg.contains("does not match"), "{msg}"),
            other => panic!(
                "expected Config error, got {:?}",
                other.map(|o| o.pairs.len())
            ),
        }
    }

    // The matching spec probes, is subset-sound against the exact probe,
    // and an exact probe of the approx-built index still works.
    let subset_sound = |index: &mut CorpusIndex, ws: &mut JoinWorkspace| {
        let exact: std::collections::HashMap<(u32, u32), Weight> = index
            .probe(&c, &SsJoinConfig::new(Algorithm::Inline), ws)
            .unwrap()
            .pairs
            .iter()
            .map(|p| ((p.r, p.s), p.overlap))
            .collect();
        let out = index.probe(&c, &approx_cfg, ws).unwrap();
        assert!(out.stats.approx_reps >= 1);
        for p in out.pairs.iter() {
            assert_eq!(
                exact.get(&(p.r, p.s)),
                Some(&p.overlap),
                "approximate probe pair ({},{}) not exact-scored",
                p.r,
                p.s
            );
        }
    };
    subset_sound(&mut index, &mut ws);

    // Churn: delete a set, insert a new one (rebuilding the sketch), and
    // re-check soundness against the post-churn exact probe.
    index.delete(0).unwrap();
    let donor = c.set(1);
    index.insert(donor.ranks(), donor.norm()).unwrap();
    subset_sound(&mut index, &mut ws);
}

/// An approximate self-probe (the corpus joined with itself, as `serve`'s
/// `dedup` runs it) after an insert: the inserted set has no leaf in the
/// sketch built before it, so it descends the trees like a foreign probe.
/// The output stays a subset of the exact self-probe, with exact overlaps.
#[test]
fn approximate_self_probe_after_insert_is_subset_of_exact() {
    let mut rng = StdRng::seed_from_u64(0x5E1F);
    let c = build_self(clustered_groups(&mut rng), ElementOrder::FrequencyAsc);
    let pred = OverlapPredicate::two_sided(0.4);
    let approx = ExecContext::new().with_approximate(0.9);
    let mut index = CorpusIndex::build(c.clone(), pred, &approx).unwrap();
    for id in [0, 1, 1] {
        let set = c.set(id);
        index.insert(set.ranks(), set.norm()).unwrap();
    }
    assert_eq!(
        index.pending(),
        3,
        "the inserts must stay outside the sketch"
    );
    let mut ws = JoinWorkspace::new();
    let exact_cfg = SsJoinConfig::new(Algorithm::Inline);
    let exact: std::collections::HashMap<(u32, u32), Weight> = index
        .probe(index.corpus(), &exact_cfg, &mut ws)
        .unwrap()
        .pairs
        .iter()
        .map(|p| ((p.r, p.s), p.overlap))
        .collect();
    let approx_cfg = SsJoinConfig::new(Algorithm::Inline).with_exec(approx);
    let out = index.probe(index.corpus(), &approx_cfg, &mut ws).unwrap();
    assert!(out.stats.approx_reps >= 1);
    for p in out.pairs.iter() {
        assert_eq!(exact.get(&(p.r, p.s)), Some(&p.overlap), "pair {p:?}");
    }
    // Each inserted copy finds itself and its donor: identical sets collide
    // in every repetition.
    let n = c.len() as u32;
    for (inserted, donor) in [(n, 0), (n + 1, 1), (n + 2, 1)] {
        for pair in [(inserted, inserted), (inserted, donor)] {
            assert!(
                out.pairs.iter().any(|p| (p.r, p.s) == pair),
                "missing {pair:?}"
            );
        }
    }
}
