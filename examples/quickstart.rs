//! Quickstart: the SSJoin operator and one similarity join, end to end.
//!
//! Run with: `cargo run --release --example quickstart`

use ssjoin::joins::{jaccard_join, JaccardConfig};
use ssjoin::{
    ssjoin, Algorithm, ElementOrder, ExecContext, OverlapPredicate, SsJoinConfig,
    SsJoinInputBuilder, WeightScheme,
};

fn main() {
    // ── 1. The raw operator ────────────────────────────────────────────
    // Figure 1 of the paper: groups are sets of values; the operator joins
    // groups by weighted set overlap.
    let states_r = vec![
        (
            "washington",
            vec!["seattle", "tacoma", "olympia", "spokane"],
        ),
        ("wisconsin", vec!["madison", "milwaukee", "green bay"]),
    ];
    let states_s = vec![
        ("wa", vec!["seattle", "tacoma", "olympia"]),
        ("wi", vec!["madison", "milwaukee"]),
        ("tx", vec!["austin", "houston"]),
    ];

    let to_groups = |rows: &[(&str, Vec<&str>)]| -> Vec<Vec<String>> {
        rows.iter()
            .map(|(_, cities)| cities.iter().map(|c| c.to_string()).collect())
            .collect()
    };

    let mut builder = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
    let rh = builder.add_relation(to_groups(&states_r));
    let sh = builder.add_relation(to_groups(&states_s));
    let built = builder.build().unwrap();

    // "At least 60% of the R group's cities must co-occur" — the 1-sided
    // normalized predicate of Example 2. Threads, the bitmap filter,
    // budgets and approximate mode all live on the one `ExecContext` the
    // config hands over.
    let config = SsJoinConfig::new(Algorithm::Inline).with_exec(ExecContext::new().with_threads(2));
    let pred = OverlapPredicate::r_normalized(0.6);
    let out = ssjoin(built.collection(rh), built.collection(sh), &pred, &config)
        .expect("collections share a universe");

    println!("SSJoin on state/city co-occurrence:");
    for pair in &out.pairs {
        println!(
            "  {:12} ≈ {:4}  (overlap {:.1})",
            states_r[pair.r as usize].0,
            states_s[pair.s as usize].0,
            pair.overlap.to_f64()
        );
    }
    println!(
        "  [{} candidate pairs verified, {} join tuples]\n",
        out.stats.verified_pairs, out.stats.join_tuples
    );

    // ── 2. A packaged similarity join ──────────────────────────────────
    let addresses: Vec<String> = [
        "100 Main St Springfield WA 98100",
        "100 Main Street Springfield WA 98100",
        "100 Main St Apt 4 Springfield WA 98100",
        "742 Evergreen Terrace Springfield OR 97400",
        "742 Evergreen Ter Springfield OR 97400",
        "1 Infinite Loop Cupertino CA 95014",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let config = JaccardConfig::resemblance(0.6);
    let result = jaccard_join(&addresses, &addresses, &config).expect("join succeeds");
    println!("Jaccard resemblance ≥ 0.6 on addresses (IDF-weighted):");
    for p in result.pairs.iter().filter(|p| p.r < p.s) {
        println!(
            "  [{}] ≈ [{}]  similarity {:.3}",
            addresses[p.r as usize], addresses[p.s as usize], p.similarity
        );
    }
}
