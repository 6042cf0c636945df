//! Proof of the zero-allocation hot path: after a [`JoinWorkspace`] has
//! warmed on a query, repeating the query performs **zero** heap
//! allocations. A counting global allocator wraps [`System`] and a flag
//! turns the counter on only around the measured call. That holds for a
//! warm *spilled* probe too: every partition buffer is pooled.
//!
//! This lives in its own integration-test crate because the library forbids
//! `unsafe` (a `GlobalAlloc` impl requires it). The counter is per thread —
//! a `const` thread-local the allocator reads without allocating — so it
//! charges only the measured call on the test's own thread: allocations by
//! the test harness, or by a test running concurrently, are not counted.
//! Every measured call runs one worker, on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ssjoin_core::{
    estimate_memory_bytes, ssjoin_with, Algorithm, CorpusIndex, ElementOrder, ExecBudget,
    ExecContext, JoinWorkspace, NormExpr, NormKind, OverlapPredicate, SetCollection, SsJoinConfig,
    SsJoinInputBuilder, WeightScheme,
};

struct CountingAlloc;

thread_local! {
    /// Whether allocations on this thread are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation if this thread is counting. `try_with` keeps the
/// allocator usable while the thread's locals are being torn down.
fn tick() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Count the heap allocations `f` performs on the calling thread.
fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(Cell::get)
}

fn build_self(groups: Vec<Vec<String>>) -> SetCollection {
    let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
    let h = b.add_relation(groups);
    b.build().unwrap().collection(h).clone()
}

fn boxed(e: NormExpr) -> Box<NormExpr> {
    Box::new(e)
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
    let c = build_self(groups.clone());
    // The same sets with cardinality norms, for the norm-dependent shapes:
    // Property 4's `max(R, S)·c − (q − 1)`, whose requirement splits into
    // per-set columns, and a `c · R · S` product, which the prune evaluates
    // per pair.
    let mut b = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
    let h = b.add_relation_with_norm(groups, NormKind::Cardinality);
    let q = b.build().unwrap().collection(h).clone();
    let property4 = OverlapPredicate::new(vec![NormExpr::Sub(
        boxed(NormExpr::Mul(
            boxed(NormExpr::Max(
                boxed(NormExpr::RNorm),
                boxed(NormExpr::SNorm),
            )),
            boxed(NormExpr::Const(0.55)),
        )),
        boxed(NormExpr::Const(2.0)),
    )]);
    let product = OverlapPredicate::new(vec![NormExpr::Mul(
        boxed(NormExpr::Const(0.1)),
        boxed(NormExpr::Mul(
            boxed(NormExpr::RNorm),
            boxed(NormExpr::SNorm),
        )),
    )]);
    let cases = [
        (&c, OverlapPredicate::absolute(2.0)),
        (&c, OverlapPredicate::two_sided(0.6)),
        (&q, property4),
        (&q, product),
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
            // Warm the pools: one cold run per query.
            let mut expected = Vec::new();
            for (sets, pred) in &cases {
                let run = ssjoin_with(sets, sets, pred, &config, &mut ws).unwrap();
                expected.push(run.pairs.to_vec());
            }
            // Measured runs: repeat each query on the warm workspace.
            for ((sets, pred), expect) in cases.iter().zip(&expected) {
                assert!(!expect.is_empty(), "pred {pred} must match some pairs");
                let mut got = usize::MAX;
                let allocs = count_allocs(|| {
                    got = ssjoin_with(sets, sets, pred, &config, &mut ws)
                        .unwrap()
                        .pairs
                        .len();
                });
                assert_eq!(
                    allocs, 0,
                    "warm run allocated: alg {algorithm:?} filter {filter} pred {pred}"
                );
                assert_eq!(got, expect.len(), "alg {algorithm:?} filter {filter}");
            }
        }

        // The same contract holds for the persistent-index probe path: once
        // the workspace has warmed on a probe, repeating it allocates
        // nothing — the index side, its prune column included, was paid for
        // at build time.
        for (sets, pred) in &cases {
            let index =
                CorpusIndex::build((*sets).clone(), pred.clone(), &ExecContext::new()).unwrap();
            let config = SsJoinConfig::new(algorithm).with_exec(ExecContext::new().with_threads(1));
            let mut ws = JoinWorkspace::new();
            let expect = index.probe(sets, &config, &mut ws).unwrap().pairs.len();
            let mut got = usize::MAX;
            let allocs = count_allocs(|| {
                got = index.probe(sets, &config, &mut ws).unwrap().pairs.len();
            });
            assert_eq!(
                allocs, 0,
                "warm probe allocated: alg {algorithm:?} pred {pred}"
            );
            assert_eq!(got, expect, "alg {algorithm:?} pred {pred}");
        }
    }
}

/// A warm spilled probe through [`CorpusIndex`] allocates nothing, however
/// large the corpus and however many partitions the budget forces.
#[test]
fn warm_spilled_probe_runs_allocation_free() {
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
        let index = CorpusIndex::build(c.clone(), pred.clone(), &ExecContext::new()).unwrap();
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
    assert!(
        counts.iter().all(|&(_, _, a)| a == 0),
        "warm spilled probe allocated: {counts:?}"
    );
    assert!(
        counts.windows(2).any(|w| w[0].1 != w[1].1),
        "the corpora must force different partition counts: {counts:?}"
    );
}
