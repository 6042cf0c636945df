//! Out-of-core acceptance suite: a join run with
//! [`ExecBudget::max_resident_bytes`] set below the memory estimate must
//! complete via token-range spill with output **bit-identical** to the
//! unbudgeted in-memory run — across partition counts (driven by the
//! budget), executors, bitmap filter settings, and thread counts — and
//! budget interruptions (deadline, cancel) mid-spill must abort with the
//! typed `BudgetExceeded` error, never a stray temp file.

use ssjoin_core::{
    estimate_memory_bytes, plan_spill, ssjoin, Algorithm, CancelToken, CorpusIndex, ElementOrder,
    ExecBudget, ExecContext, JoinPair, JoinWorkspace, OverlapPredicate, SetCollection,
    SsJoinConfig, SsJoinError, SsJoinInputBuilder, Weight, WeightScheme,
};
use ssjoin_prng::{Rng, StdRng};
use std::sync::Mutex;

/// Serializes the tests that create spill files, so the stray-file scan at
/// the end of each cannot race another test's live spill file (same pid,
/// same temp-dir prefix).
static SPILL_DIR: Mutex<()> = Mutex::new(());

fn spill_files_for_this_process() -> Vec<std::path::PathBuf> {
    let prefix = format!("ssjoin-spill-{}-", std::process::id());
    let Ok(entries) = std::fs::read_dir(std::env::temp_dir()) else {
        return Vec::new();
    };
    entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix))
        })
        .collect()
}

fn corpus(seed: u64, groups: usize, vocab: u32) -> SetCollection {
    let mut rng = StdRng::seed_from_u64(seed);
    let groups: Vec<Vec<String>> = (0..groups)
        .map(|_| {
            let len = rng.gen_range(3usize..9);
            (0..len)
                .map(|_| format!("t{}", rng.gen_range(0u32..vocab)))
                .collect()
        })
        .collect();
    let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
    let h = b.add_relation(groups);
    b.build().unwrap().collection(h).clone()
}

fn keyed(pairs: &[JoinPair]) -> Vec<(u32, u32, u64)> {
    pairs.iter().map(|p| (p.r, p.s, p.overlap.raw())).collect()
}

/// Budgets that force progressively more partitions, derived from the
/// spill planner itself so each really does plan a distinct partition
/// count where the corpus allows it.
fn partition_forcing_budgets(c: &SetCollection) -> Vec<(usize, u64)> {
    let est = estimate_memory_bytes(c, c);
    let mut out = Vec::new();
    for div in [2u64, 4, 8, 32] {
        let budget = (est / div).max(1);
        if let Some(plan) = plan_spill(c, c, budget) {
            out.push((plan.partitions(), budget));
        }
    }
    out.dedup_by_key(|&mut (p, _)| p);
    out
}

/// The tentpole property: spilled ≡ resident, bit for bit, across
/// partition counts × executors × bitmap filter × threads.
#[test]
fn spilled_output_bit_identical_to_resident() {
    let _guard = SPILL_DIR.lock().unwrap();
    let c = corpus(0x59111, 260, 151);
    let pred = OverlapPredicate::two_sided(0.7);
    let budgets = partition_forcing_budgets(&c);
    assert!(
        budgets.len() >= 2,
        "corpus too small to exercise multiple partition counts: {budgets:?}"
    );
    for alg in [
        Algorithm::Basic,
        Algorithm::PrefixFiltered,
        Algorithm::Inline,
        Algorithm::PositionalInline,
        Algorithm::Auto,
    ] {
        for threads in [1usize, 3] {
            for filter in [false, true] {
                let cfg = SsJoinConfig::new(alg).with_exec(
                    ExecContext::new()
                        .with_threads(threads)
                        .with_bitmap_filter(filter),
                );
                let base = ssjoin(&c, &c, &pred, &cfg).unwrap();
                assert_eq!(base.stats.spill_partitions, 0, "unbudgeted run spilled");
                for &(partitions, budget) in &budgets {
                    let bcfg = cfg.clone().with_exec(
                        cfg.exec
                            .clone()
                            .with_budget(ExecBudget::new().with_max_resident_bytes(budget)),
                    );
                    let out = ssjoin(&c, &c, &pred, &bcfg).unwrap();
                    assert_eq!(
                        keyed(&base.pairs),
                        keyed(&out.pairs),
                        "alg {alg:?} threads {threads} filter {filter} \
                         partitions {partitions}: spilled output diverged"
                    );
                    assert_eq!(
                        out.stats.spill_partitions, partitions as u64,
                        "alg {alg:?} budget {budget}: unexpected partition count"
                    );
                    assert!(out.stats.spill_bytes > 0, "spilled run wrote no frames");
                    assert!(out.stats.spill_peak_resident_bytes > 0);
                    if alg == Algorithm::Auto {
                        let plan = out.stats.plan.expect("auto run without a plan");
                        assert_eq!(
                            plan.partitions, partitions as u32,
                            "spill choice not recorded in the plan"
                        );
                    }
                }
            }
        }
    }
    assert!(
        spill_files_for_this_process().is_empty(),
        "stray spill files left behind"
    );
}

/// A budget ABOVE the estimate must not spill: `max_resident_bytes` is a
/// strategy knob, not a cap, and at-or-over-estimate budgets stay resident.
#[test]
fn generous_resident_budget_stays_in_memory() {
    let c = corpus(0x59112, 80, 67);
    let pred = OverlapPredicate::two_sided(0.75);
    let est = estimate_memory_bytes(&c, &c);
    let cfg = SsJoinConfig::new(Algorithm::Inline)
        .with_exec(ExecContext::new().with_budget(ExecBudget::new().with_max_resident_bytes(est)));
    let out = ssjoin(&c, &c, &pred, &cfg).unwrap();
    assert_eq!(out.stats.spill_partitions, 0);
    assert_eq!(out.stats.spill_bytes, 0);
}

/// An asymmetric (non-self) join spills correctly too: both sides are
/// serialized per partition and the result matches the resident run.
#[test]
fn asymmetric_spilled_join_matches_resident() {
    let _guard = SPILL_DIR.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(0x59113);
    let mut gen_side = |n: usize| -> Vec<Vec<String>> {
        (0..n)
            .map(|_| {
                let len = rng.gen_range(2usize..7);
                (0..len)
                    .map(|_| format!("w{}", rng.gen_range(0u32..89)))
                    .collect()
            })
            .collect()
    };
    let r_groups = gen_side(140);
    let s_groups = gen_side(200);
    let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
    let rh = b.add_relation(r_groups);
    let sh = b.add_relation(s_groups);
    let built = b.build().unwrap();
    let (r, s) = (built.collection(rh), built.collection(sh));
    let pred = OverlapPredicate::two_sided(0.65);
    let base = ssjoin(r, s, &pred, &SsJoinConfig::default()).unwrap();
    let est = estimate_memory_bytes(r, s);
    for div in [3u64, 10] {
        let cfg = SsJoinConfig::default().with_exec(
            ExecContext::new()
                .with_budget(ExecBudget::new().with_max_resident_bytes((est / div).max(1))),
        );
        let out = ssjoin(r, s, &pred, &cfg).unwrap();
        assert_eq!(keyed(&base.pairs), keyed(&out.pairs), "div {div}");
        assert!(out.stats.spill_partitions >= 2, "div {div} did not spill");
    }
    assert!(spill_files_for_this_process().is_empty());
}

/// Deadline already passed: the spilled run aborts with the typed error
/// before or during partition work, and the guard removes the temp file.
#[test]
fn zero_deadline_aborts_spilled_run_cleanly() {
    let _guard = SPILL_DIR.lock().unwrap();
    let c = corpus(0x59114, 200, 127);
    let pred = OverlapPredicate::two_sided(0.7);
    let est = estimate_memory_bytes(&c, &c);
    let cfg = SsJoinConfig::new(Algorithm::Inline).with_exec(
        ExecContext::new().with_budget(
            ExecBudget::new()
                .with_max_resident_bytes(est / 4)
                .with_deadline(std::time::Duration::ZERO),
        ),
    );
    match ssjoin(&c, &c, &pred, &cfg) {
        Err(SsJoinError::BudgetExceeded { which, .. }) => {
            assert_eq!(which.name(), "deadline");
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    assert!(
        spill_files_for_this_process().is_empty(),
        "deadline abort leaked a spill file"
    );
}

/// Pre-cancelled token: same clean-abort contract as the deadline.
#[test]
fn cancelled_spilled_run_aborts_cleanly() {
    let _guard = SPILL_DIR.lock().unwrap();
    let c = corpus(0x59115, 200, 127);
    let pred = OverlapPredicate::two_sided(0.7);
    let est = estimate_memory_bytes(&c, &c);
    let token = CancelToken::new();
    token.cancel();
    let cfg = SsJoinConfig::new(Algorithm::Inline).with_exec(
        ExecContext::new()
            .with_budget(ExecBudget::new().with_max_resident_bytes(est / 4))
            .with_cancel_token(token),
    );
    match ssjoin(&c, &c, &pred, &cfg) {
        Err(SsJoinError::BudgetExceeded { which, .. }) => {
            assert_eq!(which.name(), "cancelled");
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    assert!(
        spill_files_for_this_process().is_empty(),
        "cancel abort leaked a spill file"
    );
}

/// `max_memory_bytes` (the hard rejection cap) applies to the spilled
/// run's per-partition peak, not the full-input estimate: a cap between
/// the two lets the spilled run proceed, while a cap below the peak still
/// rejects.
#[test]
fn memory_cap_prices_the_partition_peak_when_spilling() {
    let _guard = SPILL_DIR.lock().unwrap();
    let c = corpus(0x59116, 220, 131);
    let pred = OverlapPredicate::two_sided(0.7);
    let est = estimate_memory_bytes(&c, &c);
    let resident_budget = est / 4;
    let plan = plan_spill(&c, &c, resident_budget).expect("splittable corpus");
    let peak = plan.peak_resident_bytes();
    assert!(peak < est, "partitioning should shrink the resident peak");
    // Cap between peak and full estimate: resident would be rejected, the
    // spilled run fits.
    let ok_cfg = SsJoinConfig::default().with_exec(
        ExecContext::new().with_budget(
            ExecBudget::new()
                .with_max_resident_bytes(resident_budget)
                .with_max_memory_bytes(peak),
        ),
    );
    let out = ssjoin(&c, &c, &pred, &ok_cfg).unwrap();
    assert!(out.stats.spill_partitions >= 2);
    // Cap below the peak: even the spilled run is over the hard cap.
    let reject_cfg = SsJoinConfig::default().with_exec(
        ExecContext::new().with_budget(
            ExecBudget::new()
                .with_max_resident_bytes(resident_budget)
                .with_max_memory_bytes(peak - 1),
        ),
    );
    match ssjoin(&c, &c, &pred, &reject_cfg) {
        Err(SsJoinError::BudgetExceeded { which, .. }) => {
            assert_eq!(which.name(), "memory");
        }
        other => panic!("expected memory BudgetExceeded, got {other:?}"),
    }
    assert!(spill_files_for_this_process().is_empty());
}

/// Workspace reuse across spilled runs: the same workspace serves spilled
/// and resident runs interchangeably with identical output.
#[test]
fn workspace_survives_spilled_and_resident_interleaving() {
    let _guard = SPILL_DIR.lock().unwrap();
    let c = corpus(0x59117, 180, 101);
    let pred = OverlapPredicate::two_sided(0.7);
    let est = estimate_memory_bytes(&c, &c);
    let mut ws = ssjoin_core::JoinWorkspace::new();
    let resident_cfg = SsJoinConfig::default();
    let spill_cfg = SsJoinConfig::default().with_exec(
        ExecContext::new().with_budget(ExecBudget::new().with_max_resident_bytes(est / 4)),
    );
    let base = keyed(
        ssjoin_core::ssjoin_with(&c, &c, &pred, &resident_cfg, &mut ws)
            .unwrap()
            .pairs,
    );
    for round in 0..3 {
        let spilled = keyed(
            ssjoin_core::ssjoin_with(&c, &c, &pred, &spill_cfg, &mut ws)
                .unwrap()
                .pairs,
        );
        assert_eq!(base, spilled, "round {round} spilled diverged");
        let resident = keyed(
            ssjoin_core::ssjoin_with(&c, &c, &pred, &resident_cfg, &mut ws)
                .unwrap()
                .pairs,
        );
        assert_eq!(base, resident, "round {round} resident diverged");
    }
    assert!(spill_files_for_this_process().is_empty());
}

/// A probe whose own context carries a resident budget below its estimate
/// is served out of core, exactly as a one-shot join spills — bit-identical
/// pairs, tombstones filtered, epoch-tail inserts visible.
#[test]
fn index_probe_spills_under_memory_budget() {
    let _guard = SPILL_DIR.lock().unwrap();
    let c = corpus(0x59118, 200, 127);
    let pred = OverlapPredicate::two_sided(0.7);
    let est = estimate_memory_bytes(&c, &c);
    let mut index = CorpusIndex::build(c.clone(), pred).unwrap();
    let mut ws = JoinWorkspace::new();
    let resident = SsJoinConfig::default();
    let budgeted = SsJoinConfig::default().with_exec(
        ExecContext::new().with_budget(ExecBudget::new().with_max_resident_bytes(est / 4)),
    );
    let mut check = |index: &CorpusIndex, what: &str| {
        let base = {
            let run = index.probe(&c, &resident, &mut ws).unwrap();
            assert_eq!(run.stats.spill_partitions, 0, "{what}");
            keyed(run.pairs)
        };
        let run = index.probe(&c, &budgeted, &mut ws).unwrap();
        assert!(
            run.stats.spill_partitions >= 2,
            "{what}: budgeted probe stayed resident"
        );
        assert_eq!(base, keyed(run.pairs), "{what}: spilled probe diverged");
    };
    check(&index, "fresh");
    // Tombstones plus an epoch-tail insert (a copy of set 0, which certainly
    // matches itself).
    let elems: Vec<(u32, Weight)> = {
        let src = c.set(0);
        src.ranks()
            .iter()
            .copied()
            .zip(src.weights().iter().copied())
            .collect()
    };
    for idx in [3u32, 17, 42] {
        index.delete(idx).unwrap();
    }
    index.insert(&elems, c.set(0).norm()).unwrap();
    assert!(
        index.pending() > 0,
        "the insert must stay in the epoch tail"
    );
    check(&index, "mutated");
    assert!(spill_files_for_this_process().is_empty());
}
