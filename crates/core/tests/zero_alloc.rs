//! Proof of the zero-allocation hot path: after a [`JoinWorkspace`] has
//! warmed on a query, repeating the query performs **zero** heap
//! allocations. A counting global allocator wraps [`System`] and a flag
//! turns the counter on only around the measured call.
//!
//! A warm *spilled* probe is not allocation-free: each run opens a fresh
//! temp spill file (its path is formatted) and wraps it in a `BufWriter`
//! and a `BufReader`. What it does promise is a **constant** count — every
//! partition buffer is pooled, so the count does not grow with the corpus
//! or the partition count.
//!
//! This lives in its own integration-test crate because the library forbids
//! `unsafe` (a `GlobalAlloc` impl requires it). The counter is
//! process-global, so every test here holds [`SERIAL`] for its whole run
//! and no concurrent test can pollute another's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use ssjoin_core::{
    estimate_memory_bytes, ssjoin_with, Algorithm, CorpusIndex, ElementOrder, ExecBudget,
    ExecContext, JoinWorkspace, OverlapPredicate, SetCollection, SsJoinConfig, SsJoinInputBuilder,
    WeightScheme,
};

/// Held by every test for its whole run: the allocation counter is global.
static SERIAL: Mutex<()> = Mutex::new(());

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Count heap allocations performed by `f`.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

fn build_self(groups: Vec<Vec<String>>) -> SetCollection {
    let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
    let h = b.add_relation(groups);
    b.build().unwrap().collection(h).clone()
}

#[test]
fn warm_workspace_runs_allocation_free() {
    let _serial = SERIAL.lock().unwrap();
    // A moderately collision-heavy self-join so every executor does real
    // work (posting lists, candidates, verifications, output pairs).
    let groups: Vec<Vec<String>> = (0..120)
        .map(|i| {
            (0..(3 + i % 5))
                .map(|j| format!("t{}", (i * 7 + j * 13) % 53))
                .collect()
        })
        .collect();
    let c = build_self(groups);
    let preds = [
        OverlapPredicate::absolute(2.0),
        OverlapPredicate::two_sided(0.6),
    ];

    for algorithm in [
        Algorithm::Basic,
        Algorithm::PrefixFiltered,
        Algorithm::Inline,
    ] {
        for filter in [false, true] {
            // The strict zero-allocation contract covers the sequential hot
            // path: spawning scoped threads inherently allocates stacks, so
            // parallel runs are exercised for reuse-correctness elsewhere.
            let config = SsJoinConfig::new(algorithm).with_exec(
                ExecContext::new()
                    .with_bitmap_filter(filter)
                    .with_threads(1),
            );
            let mut ws = JoinWorkspace::new();
            // Warm the pools: one cold run per predicate.
            let mut expected = Vec::new();
            for pred in &preds {
                let run = ssjoin_with(&c, &c, pred, &config, &mut ws).unwrap();
                expected.push(run.pairs.to_vec());
            }
            // Measured runs: repeat each query on the warm workspace.
            for (pred, expect) in preds.iter().zip(&expected) {
                let mut got = usize::MAX;
                let allocs = count_allocs(|| {
                    got = ssjoin_with(&c, &c, pred, &config, &mut ws)
                        .unwrap()
                        .pairs
                        .len();
                });
                assert_eq!(
                    allocs, 0,
                    "warm run allocated: alg {algorithm:?} filter {filter} pred {pred:?}"
                );
                assert_eq!(got, expect.len(), "alg {algorithm:?} filter {filter}");
            }
        }

        // The same contract holds for the persistent-index probe path: once
        // the workspace has warmed on a probe, repeating it allocates
        // nothing — the index side was paid for at build time.
        for pred in &preds {
            let index = CorpusIndex::build(c.clone(), pred.clone()).unwrap();
            let config = SsJoinConfig::new(algorithm).with_exec(ExecContext::new().with_threads(1));
            let mut ws = JoinWorkspace::new();
            let expect = index.probe(&c, &config, &mut ws).unwrap().pairs.len();
            let mut got = usize::MAX;
            let allocs = count_allocs(|| {
                got = index.probe(&c, &config, &mut ws).unwrap().pairs.len();
            });
            assert_eq!(
                allocs, 0,
                "warm probe allocated: alg {algorithm:?} pred {pred:?}"
            );
            assert_eq!(got, expect, "alg {algorithm:?} pred {pred:?}");
        }
    }
}

/// A warm spilled probe through [`CorpusIndex`] allocates a fixed number of
/// times — the spill file's path and its two I/O buffers — however large
/// the corpus and however many partitions the budget forces.
#[test]
fn warm_spilled_probe_allocates_a_constant_count() {
    let _serial = SERIAL.lock().unwrap();
    let pred = OverlapPredicate::two_sided(0.6);
    let mut counts = Vec::new();
    for n in [150usize, 600, 2400] {
        let groups: Vec<Vec<String>> = (0..n)
            .map(|i| {
                (0..(3 + i % 5))
                    .map(|j| format!("t{}", (i * 7 + j * 13) % (n / 3)))
                    .collect()
            })
            .collect();
        let c = build_self(groups);
        let est = estimate_memory_bytes(&c, &c);
        let config = SsJoinConfig::new(Algorithm::Inline).with_exec(
            ExecContext::new()
                .with_threads(1)
                .with_budget(ExecBudget::new().with_max_resident_bytes(est / 8)),
        );
        let index = CorpusIndex::build(c.clone(), pred.clone()).unwrap();
        let mut ws = JoinWorkspace::new();
        let cold = index.probe(&c, &config, &mut ws).unwrap();
        let (expect, partitions) = (cold.pairs.len(), cold.stats.spill_partitions);
        assert!(partitions >= 2, "n {n}: the probe did not spill");
        let mut got = usize::MAX;
        let allocs = count_allocs(|| {
            got = index.probe(&c, &config, &mut ws).unwrap().pairs.len();
        });
        assert_eq!(got, expect, "n {n}");
        counts.push((n, partitions, allocs));
    }
    let first = counts[0].2;
    assert!(
        counts.iter().all(|&(_, _, a)| a == first),
        "warm spilled probe allocations grew with the corpus: {counts:?}"
    );
    assert!(
        first <= 8,
        "warm spilled probe allocated more than its file setup: {counts:?}"
    );
    assert!(
        counts.windows(2).any(|w| w[0].1 != w[1].1),
        "the corpora must force different partition counts: {counts:?}"
    );
}
