//! Proof of the zero-allocation hot path: after a [`JoinWorkspace`] has
//! warmed on a query, repeating the query performs **zero** heap
//! allocations. A counting global allocator wraps [`System`] and a flag
//! turns the counter on only around the measured call.
//!
//! This lives in its own integration-test crate because the library forbids
//! `unsafe` (a `GlobalAlloc` impl requires it) and because the counter is
//! process-global: the file contains exactly one `#[test]` so no concurrent
//! test can pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use ssjoin_core::{
    ssjoin_with, Algorithm, CorpusIndex, ElementOrder, ExecContext, JoinWorkspace,
    OverlapPredicate, SetCollection, SsJoinConfig, SsJoinInputBuilder, WeightScheme,
};

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
        Algorithm::PositionalInline,
        Algorithm::Auto,
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
