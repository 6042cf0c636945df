//! The run envelope one-shot joins and index probes share: validation, the
//! entry checkpoint, the memory preflight and the approximate-vs-spill
//! refusal must give the same typed result whichever entry point runs them.

use ssjoin_core::{
    estimate_memory_bytes, ssjoin, Algorithm, ApproxSpec, BudgetCause, CancelToken, CorpusIndex,
    CorpusIndexOptions, ElementOrder, ExecBudget, ExecContext, JoinWorkspace, OverlapPredicate,
    SetCollection, SsJoinConfig, SsJoinError, SsJoinInputBuilder, SsJoinResult, WeightScheme,
};
use ssjoin_prng::{Rng, StdRng};
use std::time::Duration;

fn corpus() -> SetCollection {
    let mut rng = StdRng::seed_from_u64(0xE17E);
    let groups: Vec<Vec<String>> = (0..120)
        .map(|_| {
            let len = rng.gen_range(3usize..9);
            (0..len)
                .map(|_| format!("t{}", rng.gen_range(0u32..60)))
                .collect()
        })
        .collect();
    let mut b = SsJoinInputBuilder::new(WeightScheme::Idf, ElementOrder::FrequencyAsc);
    let h = b.add_relation(groups);
    b.build().unwrap().collection(h).clone()
}

/// The typed part of a run's result.
#[derive(Debug, PartialEq)]
enum Outcome {
    Ok,
    Config,
    Budget(BudgetCause),
}

fn outcome<T>(result: SsJoinResult<T>) -> Outcome {
    match result {
        Ok(_) => Outcome::Ok,
        Err(SsJoinError::Config(_)) => Outcome::Config,
        Err(SsJoinError::BudgetExceeded { which, .. }) => Outcome::Budget(which),
        Err(other) => panic!("unexpected error {other}"),
    }
}

#[test]
fn one_shot_and_probe_share_the_run_envelope() {
    let c = corpus();
    let pred = OverlapPredicate::two_sided(0.6);
    let est = estimate_memory_bytes(&c, &c);
    let spec = ApproxSpec::new(0.9);
    // The index carries the approximate sketch, so an approximate probe
    // reaches the envelope instead of failing the sketch check first.
    let options = CorpusIndexOptions {
        approx: Some(spec),
        ..CorpusIndexOptions::default()
    };
    let index = CorpusIndex::build_with(c.clone(), pred.clone(), &options).unwrap();
    let cancelled = CancelToken::new();
    cancelled.cancel();
    let budget = |b: ExecBudget| ExecContext::new().with_budget(b);
    let cases = [
        ("default context", ExecContext::new(), Outcome::Ok),
        (
            "zero threads",
            ExecContext::new().with_threads(0),
            Outcome::Config,
        ),
        (
            "pre-cancelled token",
            ExecContext::new().with_cancel_token(cancelled),
            Outcome::Budget(BudgetCause::Cancelled),
        ),
        (
            "zero deadline",
            budget(ExecBudget::new().with_deadline(Duration::ZERO)),
            Outcome::Budget(BudgetCause::Deadline),
        ),
        (
            "memory cap below the estimate",
            budget(ExecBudget::new().with_max_memory_bytes(est / 2)),
            Outcome::Budget(BudgetCause::Memory),
        ),
        (
            "approximate under a spilling resident budget",
            ExecContext {
                approx: Some(spec),
                ..budget(ExecBudget::new().with_max_resident_bytes(est / 4))
            },
            Outcome::Config,
        ),
    ];
    let mut ws = JoinWorkspace::new();
    for (name, exec, expected) in cases {
        let config = SsJoinConfig::new(Algorithm::Inline).with_exec(exec);
        assert_eq!(
            outcome(ssjoin(&c, &c, &pred, &config)),
            expected,
            "ssjoin: {name}"
        );
        assert_eq!(
            outcome(index.probe(&c, &config, &mut ws)),
            expected,
            "probe: {name}"
        );
    }
}
