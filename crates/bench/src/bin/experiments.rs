//! Reproduces every table and figure of the SSJoin paper's evaluation (§5).
//!
//! ```text
//! cargo run --release -p ssjoin-bench --bin experiments -- [--scale F] [EXPERIMENT...]
//! ```
//!
//! Experiments: `table1 fig10 fig11 fig12 fig13 table2 naive ablation-order
//! ablation-cost ablation-auto ablation-shard ablation-workspace
//! ablation-bitmap ablation-index ablation-spill
//! ablation-approx arena`
//! (default: all; `--all` forces the full set even when experiments are also
//! named; any other name is a usage error). `--scale 1.0` is the paper's
//! 25,000-row corpus; smaller values shrink every dataset proportionally for
//! quick runs. `--json`
//! writes the run to `BENCH_<n>.json` (`--pr n`, default 10) or to an
//! explicit `--out PATH`.
//!
//! Absolute times are *not* expected to match the paper (different hardware,
//! different substrate); the claims under reproduction are the shapes: which
//! implementation wins where, the candidate/comparison reductions, and the
//! crossovers.

use ssjoin_baselines::{naive_join, GravanoConfig, GravanoJoin};
use ssjoin_bench::report::{count, ms, Report, Table};
use ssjoin_bench::{
    corpus_with_rows, dirty_corpus, evaluation_corpus, PAPER_ROWS, PAPER_THRESHOLDS, TABLE2_ROWS,
};
use ssjoin_core::{
    estimate_memory_bytes, plan_spill, ssjoin, Algorithm, ElementOrder, ExecBudget, ExecContext,
    Phase,
};
use ssjoin_joins::{
    dedupe_self_pairs, edit_similarity_join, ges_join, jaccard_join, EditJoinConfig, GesJoinConfig,
    JaccardConfig, SimilarityJoinOutput,
};
use ssjoin_sim::edit_similarity;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: experiments [--scale F] [--json] [--all] [--pr N] [--out PATH] [table1|fig10|fig11|fig12|fig13|table2|naive|ablation-order|ablation-cost|ablation-auto|ablation-shard|ablation-workspace|ablation-bitmap|ablation-index|ablation-spill|ablation-approx|arena|all]...
--all (or the bare word `all`) regenerates every panel in one invocation;
--json additionally writes the run as BENCH_<N>.json (--pr N, default 10),
or to an explicit --out PATH";

/// The parsed command line.
#[derive(Debug)]
struct Options {
    scale: f64,
    emit_json: bool,
    pr: u32,
    out: Option<String>,
    experiments: Vec<String>,
    help: bool,
}

/// Parse the arguments after the program name. A missing or unparsable
/// value for `--scale`, `--pr` or `--out` is an error naming the option.
fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        scale: 1.0,
        emit_json: false,
        pr: 10,
        out: None,
        experiments: Vec::new(),
        help: false,
    };
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value"))
                .cloned()
        };
        match arg.as_str() {
            "--scale" => {
                let v = value("--scale")?;
                opts.scale = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--scale needs a positive number, got {v:?}"))?;
            }
            "--pr" => {
                let v = value("--pr")?;
                opts.pr = v
                    .parse()
                    .map_err(|_| format!("--pr needs an integer, got {v:?}"))?;
            }
            "--out" => opts.out = Some(value("--out")?),
            "--json" => opts.emit_json = true,
            "--all" | "all" => opts.experiments.push("all".to_string()),
            "--help" | "-h" => opts.help = true,
            flag if flag.starts_with('-') => return Err(format!("unknown option {flag}")),
            exp if PANELS.iter().any(|(name, _)| *name == exp) => {
                opts.experiments.push(exp.to_string())
            }
            exp => {
                let names: Vec<&str> = PANELS.iter().map(|(name, _)| *name).collect();
                return Err(format!(
                    "unknown experiment {exp:?} (expected one of: {} all)",
                    names.join(" ")
                ));
            }
        }
    }
    Ok(opts)
}

/// One panel of the harness: it runs at a scale and adds its tables to the
/// report.
type Panel = fn(f64, &mut Report);

/// Every panel, by name, in the order a default run prints them.
const PANELS: &[(&str, Panel)] = &[
    ("table1", table1),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("table2", table2),
    ("naive", naive),
    ("ablation-order", ablation_order),
    ("ablation-cost", ablation_cost),
    ("ablation-auto", ablation_auto),
    ("ablation-shard", ablation_shard),
    ("ablation-workspace", ablation_workspace),
    ("ablation-bitmap", ablation_bitmap),
    ("ablation-index", ablation_index),
    ("ablation-spill", ablation_spill),
    ("ablation-approx", ablation_approx),
    ("arena", arena),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Options {
        scale,
        emit_json,
        pr,
        out,
        mut experiments,
        help,
    } = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("experiments: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if help {
        eprintln!("{USAGE}");
        return;
    }
    let out_path = out.unwrap_or_else(|| format!("BENCH_{pr}.json"));
    let mut report = Report::new(emit_json);
    if experiments.is_empty() || experiments.iter().any(|e| e == "all") {
        // `table1` prints Figure 11 from the same (expensive) baseline
        // sweep, so `fig11` is not repeated in the default set.
        experiments = PANELS
            .iter()
            .map(|(name, _)| name.to_string())
            .filter(|name| name != "fig11")
            .collect();
    }

    println!(
        "# SSJoin experiment harness (scale {scale}, corpus {} rows)",
        ((25_000f64 * scale).round() as usize).max(10)
    );
    for exp in &experiments {
        // `parse_args` admits only names from `PANELS`.
        if let Some((_, panel)) = PANELS.iter().find(|(name, _)| name == exp) {
            panel(scale, &mut report);
        }
    }
    match report.write_json(&out_path, scale) {
        Ok(true) => println!("\nwrote {out_path}"),
        Ok(false) => {}
        Err(e) => eprintln!("failed to write {out_path}: {e}"),
    }
}

/// Table 1: number of edit-similarity computations, SSJoin vs the customized
/// implementation, at θ ∈ {0.80, 0.85, 0.90, 0.95}. Shares the expensive
/// baseline runs with Figure 11 ([`fig11`] prints from the same sweep).
///
/// The one-relation edit join calls its UDF once per unordered off-diagonal
/// pair, while \[9\] run over `(data, data)` compares both orientations and
/// every row with itself. So "Direct pairs" puts \[9\] on SSJoin's footing,
/// `(Direct − rows) / 2`, and the ratio is taken between those two.
fn table1(scale: f64, report: &mut Report) {
    let data = evaluation_corpus(scale).records;
    let mut t = Table::new(
        "Table 1 — edit-similarity computations (SSJoin vs customized [9])",
        &["Threshold", "SSJoin", "Direct", "Direct pairs", "ratio"],
    );
    let mut fig11_table = Table::new(
        "Figure 11 — customized edit similarity join [9]",
        &[
            "Threshold",
            "Prep ms",
            "Candidate-enum ms",
            "EditSim-Filter ms",
            "Total ms",
            "Pairs",
        ],
    );
    for &theta in &PAPER_THRESHOLDS {
        let cfg = EditJoinConfig::new(theta).with_q(3);
        let ours = edit_similarity_join(&data, &data, &cfg).expect("edit join");
        let (pairs, theirs) = GravanoJoin::new(GravanoConfig::new(3, theta)).run(&data, &data);
        let direct_pairs = theirs.edit_comparisons.saturating_sub(data.len() as u64) / 2;
        t.row(vec![
            format!("{theta:.2}"),
            count(ours.udf_verifications),
            count(theirs.edit_comparisons),
            count(direct_pairs),
            format!(
                "{:.1}x",
                direct_pairs as f64 / ours.udf_verifications.max(1) as f64
            ),
        ]);
        fig11_table.row(vec![
            format!("{theta:.2}"),
            ms(theirs.prep),
            ms(theirs.candidate_enumeration),
            ms(theirs.editsim_filter),
            ms(theirs.total()),
            count(pairs.iter().filter(|p| p.r < p.s).count() as u64),
        ]);
    }
    report.table(t);
    report.table(fig11_table);
}

/// Figure 10: edit-similarity join times, per phase, for the basic /
/// prefix-filtered / inline SSJoin implementations.
fn fig10(scale: f64, report: &mut Report) {
    let data = evaluation_corpus(scale).records;
    for (alg, label) in [
        (Algorithm::Basic, "Basic SSJoin"),
        (Algorithm::PrefixFiltered, "Prefix-filtered SSJoin"),
        (Algorithm::Inline, "In-line representation"),
    ] {
        let mut t = Table::new(
            format!("Figure 10 — edit similarity join, {label}"),
            &[
                "Threshold",
                "Prep ms",
                "Prefix-filter ms",
                "SSJoin ms",
                "Filter ms",
                "Total ms",
                "Pairs",
            ],
        );
        for &theta in &PAPER_THRESHOLDS {
            let out = edit_similarity_join(
                &data,
                &data,
                &EditJoinConfig::new(theta).with_q(3).with_algorithm(alg),
            )
            .expect("edit join");
            t.row(vec![
                format!("{theta:.2}"),
                ms(out.stats.time(Phase::Prep)),
                ms(out.stats.time(Phase::PrefixFilter)),
                ms(out.stats.time(Phase::SsJoin)),
                ms(out.stats.time(Phase::Filter)),
                ms(out.stats.total_time()),
                count(dedupe_self_pairs(&out.pairs).len() as u64),
            ]);
        }
        report.table(t);
    }
}

/// Figure 11: the customized edit-similarity join of Gravano et al., with
/// its own phase breakdown. When `table1` also runs, that sweep already
/// prints this table; running `fig11` alone performs its own sweep.
fn fig11(scale: f64, report: &mut Report) {
    let data = evaluation_corpus(scale).records;
    let mut t = Table::new(
        "Figure 11 — customized edit similarity join [9]",
        &[
            "Threshold",
            "Prep ms",
            "Candidate-enum ms",
            "EditSim-Filter ms",
            "Total ms",
            "Pairs",
        ],
    );
    for &theta in &PAPER_THRESHOLDS {
        let (pairs, stats) = GravanoJoin::new(GravanoConfig::new(3, theta)).run(&data, &data);
        t.row(vec![
            format!("{theta:.2}"),
            ms(stats.prep),
            ms(stats.candidate_enumeration),
            ms(stats.editsim_filter),
            ms(stats.total()),
            count(pairs.iter().filter(|p| p.r < p.s).count() as u64),
        ]);
    }
    report.table(t);
}

/// Figure 12: Jaccard resemblance join (IDF weights), per-phase times for
/// the three implementations. The paper's prefix-filtered panel extends the
/// sweep down to 0.4 and 0.6.
fn fig12(scale: f64, report: &mut Report) {
    let data = evaluation_corpus(scale).records;
    for (alg, label, extended) in [
        (Algorithm::Basic, "Basic SSJoin", false),
        (Algorithm::PrefixFiltered, "Prefix-filtered SSJoin", true),
        (Algorithm::Inline, "In-line representation", false),
    ] {
        let mut t = Table::new(
            format!("Figure 12 — Jaccard resemblance join, {label}"),
            &[
                "Threshold",
                "Prep ms",
                "Prefix-filter ms",
                "SSJoin ms",
                "Filter ms",
                "Total ms",
                "Pairs",
            ],
        );
        let mut thresholds: Vec<f64> = Vec::new();
        if extended {
            thresholds.extend([0.4, 0.6]);
        }
        thresholds.extend(PAPER_THRESHOLDS);
        for theta in thresholds {
            let out = jaccard_join(
                &data,
                &data,
                &JaccardConfig::resemblance(theta).with_algorithm(alg),
            )
            .expect("jaccard join");
            t.row(vec![
                format!("{theta:.2}"),
                ms(out.stats.time(Phase::Prep)),
                ms(out.stats.time(Phase::PrefixFilter)),
                ms(out.stats.time(Phase::SsJoin)),
                ms(out.stats.time(Phase::Filter)),
                ms(out.stats.total_time()),
                count(dedupe_self_pairs(&out.pairs).len() as u64),
            ]);
        }
        report.table(t);
    }
}

/// Figure 13: generalized edit similarity join times for the three
/// implementations of the candidate SSJoin.
fn fig13(scale: f64, report: &mut Report) {
    let data = evaluation_corpus(scale).records;
    let mut t = Table::new(
        "Figure 13 — GES join (total ms per implementation)",
        &["Threshold", "Basic", "Prefix-filtered", "In-line", "Pairs"],
    );
    for &theta in &PAPER_THRESHOLDS {
        let mut cells = vec![format!("{theta:.2}")];
        let mut pairs = 0u64;
        for alg in [
            Algorithm::Basic,
            Algorithm::PrefixFiltered,
            Algorithm::Inline,
        ] {
            let start = Instant::now();
            let out = ges_join(&data, &data, &GesJoinConfig::new(theta).with_algorithm(alg))
                .expect("ges join");
            cells.push(ms(start.elapsed()));
            pairs = dedupe_self_pairs(&out.pairs).len() as u64;
        }
        cells.push(count(pairs));
        t.row(cells);
    }
    report.table(t);
}

/// Table 2: scaling the input — SSJoin input tuples, output size, and time
/// for the prefix-filtered Jaccard join at θ = 0.85.
fn table2(scale: f64, report: &mut Report) {
    let mut t = Table::new(
        "Table 2 — varying input data sizes (Jaccard 0.85, prefix-filtered)",
        &["Input rows", "SSJoin input rows", "Output pairs", "Time ms"],
    );
    for &rows in &TABLE2_ROWS {
        let rows = ((rows as f64 * scale).round() as usize).max(10);
        let data = corpus_with_rows(rows).records;
        let start = Instant::now();
        let out = jaccard_join(
            &data,
            &data,
            &JaccardConfig::resemblance(0.85).with_algorithm(Algorithm::PrefixFiltered),
        )
        .expect("jaccard join");
        let elapsed = start.elapsed();
        t.row(vec![
            count(rows as u64),
            count(out.stats.prefix_tuples_r + out.stats.prefix_tuples_s),
            count(dedupe_self_pairs(&out.pairs).len() as u64),
            ms(elapsed),
        ]);
    }
    report.table(t);
}

/// The `naive` panel's rows: the address corpus with a seeded share of its
/// duplicate clusters rewritten, each cluster as a whole so that its near
/// duplicates stay near. Generated rows are ASCII and at most 64 chars, so
/// without this the gate would never reach the edit kernel's char map or
/// its blocked pass. A sixteenth of the clusters swap `e`/`s`/`o` for the
/// 2- and 3-byte `é`/`ß`/`東`, a sixteenth repeat their text 3 times (past
/// 64 chars), a sixteenth 5 times (past 128), and a sixteenth do both the
/// swap and the 3 repeats. The full-DP cross product pays for long rows
/// quadratically, so the share stays small.
fn naive_rows(rows: usize) -> Vec<String> {
    let swap = |row: &str| -> String {
        row.chars()
            .map(|c| match c {
                'e' => 'é',
                's' => 'ß',
                'o' => '東',
                c => c,
            })
            .collect()
    };
    let repeat = |row: &str, times: usize| vec![row; times].join(" ");
    let corpus = corpus_with_rows(rows);
    corpus
        .records
        .iter()
        .zip(&corpus.cluster)
        .map(|(row, &cluster)| {
            // A multiplicative hash of the cluster id, seeded.
            let draw = (u64::from(cluster) ^ 0x5EED).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60;
            match draw {
                0 => swap(row),
                1 => repeat(row, 3),
                2 => repeat(row, 5),
                3 => repeat(&swap(row), 3),
                _ => row.clone(),
            }
        })
        .collect()
}

/// §5 prose: the UDF-over-cross-product gap, on a subset small enough for
/// the cross product to finish. At least 400 rows, so that even a small
/// `--scale` compares hundreds of off-diagonal pairs, not only each row
/// with itself; some rows are non-ASCII or longer than 64 and 128 chars
/// ([`naive_rows`]).
fn naive(scale: f64, report: &mut Report) {
    let rows = ((2_000f64 * scale).round() as usize).max(400);
    let data = naive_rows(rows);
    let theta = 0.85;

    let start = Instant::now();
    let cfg = EditJoinConfig::new(theta).with_q(3);
    let ours = edit_similarity_join(&data, &data, &cfg).expect("join");
    let ssjoin_time = start.elapsed();

    let (naive_pairs, naive_stats) = naive_join(&data, &data, theta, |a, b| edit_similarity(a, b));

    // The SSJoin pairs and similarities must be the cross product's, bit
    // for bit.
    let ours_keyed = ours
        .pairs
        .iter()
        .map(|p| (p.r, p.s, p.similarity.to_bits()));
    let naive_keyed = naive_pairs.iter().map(|&(r, s, sim)| (r, s, sim.to_bits()));
    let equal = ours_keyed.eq(naive_keyed);

    let mut t = Table::new(
        format!("Naive UDF cross product vs SSJoin ({rows} rows, edit 0.85)"),
        &[
            "Strategy",
            "Comparisons",
            "Time ms",
            "Pairs",
            "Output equal",
        ],
    );
    t.row(vec![
        "SSJoin (inline)".into(),
        count(ours.udf_verifications),
        ms(ssjoin_time),
        count(ours.pairs.len() as u64),
        if equal { "yes".into() } else { "NO".into() },
    ]);
    t.row(vec![
        "UDF cross product".into(),
        count(naive_stats.comparisons),
        ms(naive_stats.elapsed),
        count(naive_pairs.len() as u64),
        "-".into(),
    ]);
    report.table(t);
    report.metric_str("naive.output_equal", if equal { "true" } else { "false" });
    let off_diagonal: Vec<(&str, &str)> = naive_pairs
        .iter()
        .filter(|&&(r, s, _)| r != s)
        .map(|&(r, s, _)| (data[r as usize].as_str(), data[s as usize].as_str()))
        .collect();
    report.metric_u64("naive.off_diagonal_pairs", off_diagonal.len() as u64);
    // The kernel paths the compared pairs reach: a char map for a
    // non-ASCII pair, the blocked pass once the shorter side passes 64
    // chars (two blocks) or 128 (three).
    let count = |keep: &dyn Fn(&str, &str) -> bool| {
        off_diagonal.iter().filter(|&&(a, b)| keep(a, b)).count() as u64
    };
    let shorter = |a: &str, b: &str| a.chars().count().min(b.chars().count());
    report.metric_u64(
        "naive.non_ascii_pairs",
        count(&|a, b| !a.is_ascii() || !b.is_ascii()),
    );
    report.metric_u64("naive.over_64_pairs", count(&|a, b| shorter(a, b) > 64));
    report.metric_u64("naive.over_128_pairs", count(&|a, b| shorter(a, b) > 128));
    // The pairs the location caps must survive: a row whose q-gram recurs
    // spans that q-gram's later elements from its first window (the ×3 and
    // ×5 rows repeat their text).
    let repeats = |row: &str| {
        let chars: Vec<char> = row.chars().collect();
        let mut grams: Vec<&[char]> = chars.windows(cfg.q).collect();
        grams.sort_unstable();
        grams.windows(2).any(|w| w[0] == w[1])
    };
    report.metric_u64(
        "naive.repeated_qgram_pairs",
        count(&|a, b| repeats(a) || repeats(b)),
    );
}

/// Ablation (§4.3.2): the global element order drives prefix-join size.
fn ablation_order(scale: f64, report: &mut Report) {
    let data = evaluation_corpus(scale).records;
    let mut t = Table::new(
        "Ablation — global order O (Jaccard 0.85, inline)",
        &["Order", "Prefix join tuples", "Candidates", "Total ms"],
    );
    for (order, label) in [
        (ElementOrder::FrequencyAsc, "frequency asc (paper)"),
        (ElementOrder::FrequencyDesc, "frequency desc"),
        (ElementOrder::Lexicographic, "lexicographic"),
        (ElementOrder::Hashed, "hashed"),
    ] {
        let start = Instant::now();
        let out = jaccard_join(
            &data,
            &data,
            &JaccardConfig::resemblance(0.85).with_order(order),
        )
        .expect("jaccard join");
        t.row(vec![
            label.into(),
            count(out.stats.join_tuples),
            count(out.stats.candidate_pairs),
            ms(start.elapsed()),
        ]);
    }
    report.table(t);
}

/// Ablation (§5, §7): the paper sees "no clear winner" between the basic
/// and prefix-filtered plans and leaves a cost-based choice to future work.
/// Basic and Inline (the default) are timed across thresholds, next to each
/// executor's element equi-join size — the quantity a cost model would have
/// to estimate.
fn ablation_cost(scale: f64, report: &mut Report) {
    let corpus = evaluation_corpus((scale * 0.4).max(0.004));
    let data = corpus.records;
    let mut t = Table::new(
        "Ablation — Basic vs Inline across thresholds (Jaccard resemblance)",
        &[
            "Threshold",
            "Basic ms",
            "Inline ms",
            "Basic join tuples",
            "Inline join tuples",
        ],
    );
    for theta in [0.5, 0.6, 0.7, 0.8, 0.9, 0.95] {
        let time_with = |alg: Algorithm| {
            let start = Instant::now();
            let out = jaccard_join(
                &data,
                &data,
                &JaccardConfig::resemblance(theta).with_algorithm(alg),
            )
            .expect("jaccard join");
            (start.elapsed(), out)
        };
        let (basic_t, basic_out) = time_with(Algorithm::Basic);
        let (inline_t, inline_out) = time_with(Algorithm::Inline);
        t.row(vec![
            format!("{theta:.2}"),
            ms(basic_t),
            ms(inline_t),
            count(basic_out.stats.join_tuples),
            count(inline_out.stats.join_tuples),
        ]);
    }
    report.table(t);
}

/// Ablation: the default configuration (Inline with the bitmap filter on)
/// against the grid of fixed configurations (executor × bitmap filter ×
/// thread count) on the same collection. Regret is the default's slowdown
/// relative to the best configuration of the grid, which includes the
/// default at every thread level; every configuration must reproduce the
/// same output pair-for-pair. Timings take the minimum over several
/// repetitions so the regret figure survives small-scale CI runs.
fn ablation_auto(scale: f64, report: &mut Report) {
    use ssjoin_core::{OverlapPredicate, SsJoinConfig};
    use ssjoin_text::Tokenizer;

    // Floored at 5,000 rows, large enough that per-join noise does not
    // swamp the regret.
    let records = evaluation_corpus((scale * 0.2).max(0.2)).records;
    let groups: Vec<Vec<String>> = records
        .iter()
        .map(|s| ssjoin_text::WordTokenizer::new().lowercased().tokenize(s))
        .collect();
    let mut b = ssjoin_core::SsJoinInputBuilder::new(
        ssjoin_core::WeightScheme::Idf,
        ElementOrder::FrequencyAsc,
    );
    let h = b.add_relation(groups);
    let built = b.build().expect("build collection");
    let c = built.collection(h);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reps = if scale <= 0.1 { 7 } else { 3 };
    let thread_levels: &[usize] = if cores > 1 { &[1, 8] } else { &[1] };

    let mut t = Table::new(
        format!("Ablation — the default's regret vs every fixed configuration (Jaccard resemblance, cores={cores})"),
        &[
            "Threshold",
            "Default ms",
            "Default plan",
            "Best fixed",
            "Best ms",
            "Regret %",
            "Output equal",
        ],
    );

    let mut max_regret = 0.0f64;
    let mut all_equal = true;
    for theta in [0.6, 0.8] {
        let pred = OverlapPredicate::two_sided(theta);

        // Every timed configuration: each executor with the filter off and
        // on (basic accumulates instead of verifying, so it runs unfiltered
        // only), at each thread level.
        let mut configs: Vec<(String, SsJoinConfig)> = Vec::new();
        for &threads in thread_levels {
            for alg in [
                Algorithm::Basic,
                Algorithm::PrefixFiltered,
                Algorithm::Inline,
            ] {
                for filter in [false, true] {
                    if alg == Algorithm::Basic && filter {
                        continue;
                    }
                    configs.push((
                        format!(
                            "{alg:?}/{}/{threads}t",
                            if filter { "bitmap" } else { "off" }
                        ),
                        SsJoinConfig::new(alg).with_exec(
                            ExecContext::new()
                                .with_threads(threads)
                                .with_bitmap_filter(filter),
                        ),
                    ));
                }
            }
        }

        // Warm caches and the allocator so the first timed configuration is
        // not systematically penalized.
        let _ = ssjoin(c, c, &pred, &SsJoinConfig::default()).expect("warmup");

        // Round-robin timing: one repetition of every configuration per
        // round, minimum per configuration across rounds. Interleaving
        // spreads slow drift on busy hosts across all configurations
        // instead of biasing whichever block ran first.
        let mut best_each = vec![Duration::MAX; configs.len()];
        let mut first_pairs: Option<Vec<_>> = None;
        for rep in 0..reps {
            for (i, (_, cfg)) in configs.iter().enumerate() {
                let start = Instant::now();
                let out = ssjoin(c, c, &pred, cfg).expect("ssjoin");
                let elapsed = start.elapsed();
                if elapsed < best_each[i] {
                    best_each[i] = elapsed;
                }
                if rep == 0 {
                    if let Some(prev) = &first_pairs {
                        all_equal &= *prev == out.pairs;
                    } else {
                        first_pairs = Some(out.pairs);
                    }
                }
            }
        }

        let (mut default_t, mut best_t) = (Duration::MAX, Duration::MAX);
        let (mut plan, mut best_desc) = (String::from("-"), String::from("-"));
        for (i, (desc, cfg)) in configs.iter().enumerate() {
            let is_default = cfg.algorithm == Algorithm::Inline && cfg.exec.bitmap_filter;
            if is_default && best_each[i] < default_t {
                default_t = best_each[i];
                plan = desc.clone();
            }
            if best_each[i] < best_t {
                best_t = best_each[i];
                best_desc = desc.clone();
            }
        }

        let regret = (default_t.as_secs_f64() - best_t.as_secs_f64()).max(0.0)
            / best_t.as_secs_f64().max(1e-9);
        max_regret = max_regret.max(regret);
        t.row(vec![
            format!("{theta:.2}"),
            ms(default_t),
            plan,
            best_desc,
            ms(best_t),
            format!("{:.1}", regret * 100.0),
            if all_equal { "yes".into() } else { "NO".into() },
        ]);
    }
    report.table(t);
    assert!(
        all_equal,
        "every fixed configuration must reproduce the same output"
    );
    report.metric_u64("ablation_auto.cores", cores as u64);
    report.metric_f64("ablation_auto.regret", max_regret);
    report.metric_str(
        "ablation_auto.output_equal",
        if all_equal { "true" } else { "false" },
    );
}

/// Ablation: the parallel inline Jaccard join at θ = 0.85 — each worker
/// takes a contiguous chunk of R groups, and every parallel run must
/// reproduce the sequential output exactly, with the bitmap filter on (the
/// default) and off.
fn ablation_shard(scale: f64, report: &mut Report) {
    let data = evaluation_corpus(scale).records;
    let theta = 0.85;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let run_with = |exec: ExecContext| {
        let cfg = JaccardConfig::resemblance(theta)
            .with_algorithm(Algorithm::Inline)
            .with_exec(exec);
        let start = Instant::now();
        let out = jaccard_join(&data, &data, &cfg).expect("jaccard join");
        (out, start.elapsed())
    };

    let (seq, seq_t) = run_with(ExecContext::new());
    let seq_keys = seq.keys();

    let mut t = Table::new(
        format!("Ablation — parallel inline (Jaccard {theta}, cores={cores})"),
        &[
            "Config",
            "Total ms",
            "Bitmap probes",
            "Bitmap prunes",
            "Output equal",
        ],
    );
    t.row(vec![
        "1 thread".into(),
        ms(seq_t),
        count(seq.stats.bitmap_probes),
        count(seq.stats.bitmap_prunes),
        "baseline".into(),
    ]);

    let mut speedup_8t = f64::NAN;
    let mut prunes_8t = 0u64;
    let mut effective_8t = 0u64;
    let mut all_equal = true;
    for (threads, bitmap) in [(2usize, true), (8, true), (8, false)] {
        let exec = ExecContext::new()
            .with_threads(threads)
            .with_bitmap_filter(bitmap);
        let (out, elapsed) = run_with(exec);
        let equal = out.keys() == seq_keys;
        all_equal &= equal;
        if threads == 8 && bitmap {
            speedup_8t = seq_t.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
            effective_8t = out.stats.effective_threads;
            prunes_8t = out.stats.bitmap_prunes;
        }
        t.row(vec![
            format!(
                "{threads} threads{}",
                if bitmap { "" } else { ", filter off" }
            ),
            ms(elapsed),
            count(out.stats.bitmap_probes),
            count(out.stats.bitmap_prunes),
            if equal { "yes".into() } else { "NO".into() },
        ]);
    }
    report.table(t);
    assert!(all_equal, "parallel output must match sequential exactly");

    if cores < 8 {
        println!(
            "warning: host has {cores} core(s); the 8 workers of the 8-thread \
             runs above shared them — speedups reflect the oversubscribed host \
             (the BENCH header records the topology)"
        );
    }
    report.metric_u64("ablation_shard.cores", cores as u64);
    report.metric_u64("ablation_shard.effective_threads_8t", effective_8t);
    report.metric_f64("ablation_shard.seq_ms", seq_t.as_secs_f64() * 1e3);
    report.metric_f64("ablation_shard.speedup_8t", speedup_8t);
    report.metric_u64("ablation_shard.bitmap_prunes_8t", prunes_8t);
    report.metric_str(
        "ablation_shard.output_equal",
        if all_equal { "true" } else { "false" },
    );
}

/// Ablation (tentpole): the reusable [`ssjoin_core::JoinWorkspace`]. A
/// data-cleaning pipeline joins a stream of record batches; reusing one
/// workspace across the stream amortizes every pool — CSR index arenas,
/// prefix-length vectors, stamp arrays, candidate and output buffers — that
/// fresh-workspace runs must re-allocate per batch. The reused path must
/// reproduce the fresh output bit-for-bit (that is the zero-allocation hot
/// path's correctness contract; the counting-allocator test in
/// `crates/core/tests/zero_alloc.rs` proves the "zero" part).
fn ablation_workspace(scale: f64, report: &mut Report) {
    use ssjoin_core::{ssjoin_with, JoinWorkspace, SsJoinConfig};
    use ssjoin_text::Tokenizer;

    let records = evaluation_corpus(scale).records;
    let theta = 0.85;
    // Small batches are the regime workspace reuse targets: a streaming
    // cleaning pipeline joining record micro-batches, where per-batch pool
    // allocation is a large fraction of each join.
    let batch = 4usize;
    // Collection construction is not under test: pre-build one collection
    // per batch, then time only the join sweeps.
    let built: Vec<_> = records
        .chunks(batch)
        .map(|chunk| {
            let groups: Vec<Vec<String>> = chunk
                .iter()
                .map(|s| ssjoin_text::WordTokenizer::new().lowercased().tokenize(s))
                .collect();
            let mut b = ssjoin_core::SsJoinInputBuilder::new(
                ssjoin_core::WeightScheme::Idf,
                ElementOrder::FrequencyAsc,
            );
            let h = b.add_relation(groups);
            (b.build().expect("build batch collection"), h)
        })
        .collect();
    let collections: Vec<_> = built.iter().map(|(b, h)| b.collection(*h)).collect();
    let pred = ssjoin_core::OverlapPredicate::two_sided(theta);
    let cfg = SsJoinConfig::new(Algorithm::Inline);

    // Each timed sweep replays the whole batch stream several times so the
    // measurement is long enough to sit above scheduler noise.
    let rounds = 8usize;
    let cold_sweep = || {
        let start = Instant::now();
        let mut keys: Vec<(u32, u32)> = Vec::new();
        for round in 0..rounds {
            for c in &collections {
                let mut ws = JoinWorkspace::new();
                let run = ssjoin_with(c, c, &pred, &cfg, &mut ws).expect("cold join");
                if round == 0 {
                    keys.extend(run.pairs.iter().map(|p| (p.r, p.s)));
                }
            }
        }
        (keys, start.elapsed())
    };
    let warm_sweep = |ws: &mut JoinWorkspace| {
        let start = Instant::now();
        let mut keys: Vec<(u32, u32)> = Vec::new();
        for round in 0..rounds {
            for c in &collections {
                let run = ssjoin_with(c, c, &pred, &cfg, ws).expect("warm join");
                if round == 0 {
                    keys.extend(run.pairs.iter().map(|p| (p.r, p.s)));
                }
            }
        }
        (keys, start.elapsed())
    };

    // Interleave cold and warm sweeps and compare medians, so slow drift in
    // the host (frequency scaling, co-tenants) hits both sides equally; the
    // reused workspace is pre-warmed with one untimed sweep so the measured
    // runs see only the steady state.
    let mut ws = JoinWorkspace::new();
    let _ = warm_sweep(&mut ws);
    let mut cold_runs = Vec::new();
    let mut warm_runs = Vec::new();
    for _ in 0..7 {
        cold_runs.push(cold_sweep());
        warm_runs.push(warm_sweep(&mut ws));
    }
    cold_runs.sort_by_key(|(_, t)| *t);
    let (cold_keys, cold_t) = cold_runs.swap_remove(3);
    warm_runs.sort_by_key(|(_, t)| *t);
    let (warm_keys, warm_t) = warm_runs.swap_remove(3);

    let equal = cold_keys == warm_keys;
    let reduction = 1.0 - warm_t.as_secs_f64() / cold_t.as_secs_f64().max(1e-9);

    let mut t = Table::new(
        format!(
            "Ablation — workspace reuse (Jaccard {theta}, inline, {} batches of ≤{batch} records)",
            collections.len()
        ),
        &["Config", "Sweep ms", "Pairs", "Output equal"],
    );
    t.row(vec![
        "fresh workspace per batch".into(),
        ms(cold_t),
        count(cold_keys.len() as u64),
        "baseline".into(),
    ]);
    t.row(vec![
        "one reused workspace".into(),
        ms(warm_t),
        count(warm_keys.len() as u64),
        if equal { "yes".into() } else { "NO".into() },
    ]);
    report.table(t);
    assert!(equal, "reused workspace must reproduce fresh output");

    report.metric_u64("ablation_workspace.batches", collections.len() as u64);
    report.metric_f64("ablation_workspace.cold_ms", cold_t.as_secs_f64() * 1e3);
    report.metric_f64("ablation_workspace.warm_ms", warm_t.as_secs_f64() * 1e3);
    report.metric_f64("ablation_workspace.latency_reduction", reduction);
    report.metric_u64("ablation_workspace.bytes_reserved", ws.bytes_reserved());
    report.metric_u64("ablation_workspace.workspace_reuses", ws.reuses());
    report.metric_str(
        "ablation_workspace.output_equal",
        if equal { "true" } else { "false" },
    );
}

/// Ablation: the 8-word bitmap signature filter, off vs on, on the inline
/// join at θ = 0.85. The filter pays an ANDNOT + popcount probe per
/// candidate and prunes the candidates whose signature bound cannot reach
/// the required overlap before any merge; the output must stay
/// bit-identical. Three panels: the Jaccard join on the clean Zipf-weighted
/// corpus and on the "dirty" near-threshold corpus (heavy token-level errors
/// on a duplicate-rich input leave many candidates whose similarity lands
/// just around θ; half the paper's row count keeps that blow-up affordable
/// in CI), and the paper's edit join over q-gram sets on the clean corpus,
/// where the Property-4 bound lets through many candidates that share a few
/// common q-grams and little else.
fn ablation_bitmap(scale: f64, report: &mut Report) {
    let theta = 0.85;
    let clean = evaluation_corpus(scale).records;
    let dirty_rows = ((PAPER_ROWS as f64 * scale * 0.5).round() as usize).max(10);
    let dirty = dirty_corpus(dirty_rows).records;
    report.metric_u64("ablation_bitmap.dirty.rows", dirty_rows as u64);
    let jaccard = |data: &[String], filter: bool| {
        let cfg = JaccardConfig::resemblance(theta)
            .with_algorithm(Algorithm::Inline)
            .with_exec(ExecContext::new().with_bitmap_filter(filter));
        jaccard_join(data, data, &cfg).expect("jaccard join")
    };
    bitmap_panel(
        &format!("Jaccard {theta}, clean corpus"),
        "ablation_bitmap",
        report,
        |filter| jaccard(&clean, filter),
    );
    bitmap_panel(
        &format!("Jaccard {theta}, dirty near-threshold corpus, {dirty_rows} rows"),
        "ablation_bitmap.dirty",
        report,
        |filter| jaccard(&dirty, filter),
    );
    bitmap_panel(
        &format!("edit {theta} on q-grams, clean corpus"),
        "ablation_bitmap.edit",
        report,
        |filter| {
            let cfg = EditJoinConfig::new(theta)
                .with_q(3)
                .with_exec(ExecContext::new().with_bitmap_filter(filter));
            edit_similarity_join(&clean, &clean, &cfg).expect("edit join")
        },
    );
}

/// One panel of [`ablation_bitmap`]: `join(filter)` off and on, timed
/// round-robin as the median of 5 so host drift hits both sides equally.
fn bitmap_panel(
    label: &str,
    prefix: &str,
    report: &mut Report,
    join: impl Fn(bool) -> SimilarityJoinOutput,
) {
    let run_with = |filter: bool| {
        let start = Instant::now();
        let out = join(filter);
        (out, start.elapsed())
    };
    let mut times = [Vec::new(), Vec::new()];
    let mut outs = Vec::new();
    for round in 0..5 {
        for (i, filter) in [false, true].into_iter().enumerate() {
            let (out, elapsed) = run_with(filter);
            times[i].push(elapsed);
            if round == 0 {
                outs.push(out);
            }
        }
    }
    let (off, on) = (&outs[0], &outs[1]);
    let median = |t: &mut Vec<Duration>| {
        t.sort();
        t[t.len() / 2]
    };
    let (off_t, on_t) = (median(&mut times[0]), median(&mut times[1]));
    let equal = on.keys() == off.keys();

    let mut t = Table::new(
        format!("Ablation — bitmap filter ({label}, inline, median of 5)"),
        &[
            "Filter",
            "Total ms",
            "Probes",
            "Pruned",
            "Verified",
            "Merge steps",
            "Pairs",
            "Output equal",
        ],
    );
    for (name, out, elapsed) in [("off", off, off_t), ("on", on, on_t)] {
        let st = &out.stats;
        t.row(vec![
            name.into(),
            ms(elapsed),
            count(st.bitmap_probes),
            count(st.bitmap_prunes),
            count(st.verified_pairs),
            count(st.merge_steps),
            count(dedupe_self_pairs(&out.pairs).len() as u64),
            if name == "off" {
                "baseline".into()
            } else if equal {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
        report.metric_f64(
            format!("{prefix}.{name}.total_ms"),
            elapsed.as_secs_f64() * 1e3,
        );
        report.metric_u64(format!("{prefix}.{name}.bitmap_prunes"), st.bitmap_prunes);
        report.metric_u64(format!("{prefix}.{name}.verified_pairs"), st.verified_pairs);
        report.metric_u64(format!("{prefix}.{name}.merge_steps"), st.merge_steps);
    }
    report.table(t);
    report.metric_f64(
        format!("{prefix}.prune_rate"),
        on.stats.bitmap_prunes as f64 / on.stats.bitmap_probes.max(1) as f64,
    );
    assert!(
        equal,
        "the signature filter must not change the join output ({label})"
    );
    report.metric_str(
        format!("{prefix}.output_equal"),
        if equal { "true" } else { "false" },
    );
}

/// Run `f` three times and return the median-time result with its time —
/// one figure kept out of scheduler noise without a full round-robin.
fn median_of_3<T>(mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut runs: Vec<(T, Duration)> = (0..3)
        .map(|_| {
            let start = Instant::now();
            (f(), start.elapsed())
        })
        .collect();
    runs.sort_by_key(|(_, t)| *t);
    runs.swap_remove(1)
}

/// Ablation (tentpole): the persistent [`ssjoin_core::CorpusIndex`]. A serve
/// loop answers a stream of match requests against one reference corpus;
/// every `ssjoin()` call rebuilds the reference-side index from scratch,
/// while `CorpusIndex::build` pays that cost once and `probe` reuses it.
/// Three claims: (1) amortized over a 100-probe stream, build-once/probe-many
/// beats per-call rebuild by a wide margin (≥5× at full scale); (2) the warm
/// probe itself is far cheaper still; (3) incremental insert/delete sustains
/// high throughput, and a probe after an insert-then-delete churn reproduces
/// the pristine output exactly (the tombstoned rows never leak).
fn ablation_index(scale: f64, report: &mut Report) {
    use ssjoin_core::{CorpusIndex, JoinWorkspace, SsJoinConfig};
    use ssjoin_text::Tokenizer;

    let data = evaluation_corpus(scale).records;
    let theta = 0.85;
    let probes = 100usize;
    let batch_rows = data.len().min(100);

    // One builder for both relations so the query batch shares the corpus
    // universe — the same situation `QueryEncoder` produces in serve mode.
    let tokenize = |recs: &[String]| -> Vec<Vec<String>> {
        recs.iter()
            .map(|s| ssjoin_text::WordTokenizer::new().lowercased().tokenize(s))
            .collect()
    };
    let mut b = ssjoin_core::SsJoinInputBuilder::new(
        ssjoin_core::WeightScheme::Idf,
        ElementOrder::FrequencyAsc,
    );
    let hs = b.add_relation(tokenize(&data));
    let hq = b.add_relation(tokenize(&data[..batch_rows]));
    let built = b.build().expect("build collections");
    let corpus = built.collection(hs);
    let queries = built.collection(hq);
    let pred = ssjoin_core::OverlapPredicate::two_sided(theta);
    let cfg = SsJoinConfig::new(Algorithm::Inline);

    // Baseline: the pre-index API — every call rebuilds the corpus-side
    // index. Median of 5 calls stands in for all 100 (the calls are
    // identical; running the full stream at scale 1.0 would only repeat it).
    let mut rebuild_runs: Vec<(Vec<(u32, u32)>, Duration)> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let out = ssjoin(queries, corpus, &pred, &cfg).expect("per-call join");
            let keys: Vec<(u32, u32)> = out.pairs.iter().map(|p| (p.r, p.s)).collect();
            (keys, start.elapsed())
        })
        .collect();
    rebuild_runs.sort_by_key(|(_, t)| *t);
    let (rebuild_keys, rebuild_t) = rebuild_runs.swap_remove(2);

    // Build once, probe the same batch `probes` times on one workspace.
    let start = Instant::now();
    let mut index =
        CorpusIndex::build(corpus.clone(), pred, &ExecContext::new()).expect("build index");
    let build_t = start.elapsed();
    let mut ws = JoinWorkspace::new();
    let probe_keys: Vec<(u32, u32)> = {
        let run = index.probe(queries, &cfg, &mut ws).expect("warm-up probe");
        run.pairs.iter().map(|p| (p.r, p.s)).collect()
    };
    let mut probe_times: Vec<Duration> = (0..probes)
        .map(|_| {
            let start = Instant::now();
            let run = index.probe(queries, &cfg, &mut ws).expect("probe");
            assert_eq!(run.pairs.len(), probe_keys.len(), "probe output drifted");
            start.elapsed()
        })
        .collect();
    let probe_total: Duration = probe_times.iter().sum();
    probe_times.sort_unstable();
    let warm_probe_t = probe_times[probes / 2];
    let amortized = (build_t + probe_total).as_secs_f64() / probes as f64;
    let speedup = rebuild_t.as_secs_f64() / amortized.max(1e-9);

    let mut equal = probe_keys == rebuild_keys;

    let mut t = Table::new(
        format!(
            "Ablation — persistent index vs per-call rebuild (Jaccard {theta}, inline, \
             {} corpus sets × {batch_rows}-row batch, {probes} probes)",
            corpus.len()
        ),
        &["Strategy", "Per-probe ms", "Build ms", "Output equal"],
    );
    t.row(vec![
        "ssjoin() per call (rebuilds index)".into(),
        ms(rebuild_t),
        "(every call)".into(),
        "baseline".into(),
    ]);
    t.row(vec![
        format!("CorpusIndex, amortized over {probes}"),
        format!("{:.3}", amortized * 1e3),
        ms(build_t),
        if equal { "yes".into() } else { "NO".into() },
    ]);
    t.row(vec![
        "CorpusIndex, warm probe (median)".into(),
        ms(warm_probe_t),
        "-".into(),
        "yes".into(),
    ]);
    report.table(t);

    // Maintenance churn: append every query row to the live index, then
    // tombstone them all again; auto epoch merges are part of the cost. A
    // final probe must reproduce the pristine output.
    let base_len = index.len() as u32;
    let start = Instant::now();
    for rs in queries.iter() {
        index.insert(rs.ranks(), rs.norm()).expect("insert");
    }
    let insert_t = start.elapsed();
    let start = Instant::now();
    for id in base_len..index.len() as u32 {
        index.delete(id).expect("delete");
    }
    let delete_t = start.elapsed();
    let churned = index
        .probe(queries, &cfg, &mut ws)
        .expect("post-churn probe");
    let churned_keys: Vec<(u32, u32)> = churned.pairs.iter().map(|p| (p.r, p.s)).collect();
    equal &= churned_keys == probe_keys;
    let inserts_per_sec = batch_rows as f64 / insert_t.as_secs_f64().max(1e-9);
    let deletes_per_sec = batch_rows as f64 / delete_t.as_secs_f64().max(1e-9);

    let mut m = Table::new(
        format!(
            "Ablation — incremental maintenance ({batch_rows} inserts, then {batch_rows} deletes)"
        ),
        &[
            "Operation",
            "Total ms",
            "Ops/sec",
            "Post-churn output equal",
        ],
    );
    m.row(vec![
        "insert".into(),
        ms(insert_t),
        format!("{inserts_per_sec:.0}"),
        "-".into(),
    ]);
    m.row(vec![
        "delete".into(),
        ms(delete_t),
        format!("{deletes_per_sec:.0}"),
        if churned_keys == probe_keys {
            "yes".into()
        } else {
            "NO".into()
        },
    ]);
    report.table(m);
    assert!(
        equal,
        "indexed probes must match the per-call rebuild output"
    );

    report.metric_u64("ablation_index.corpus_sets", corpus.len() as u64);
    report.metric_f64(
        "ablation_index.rebuild_call_ms",
        rebuild_t.as_secs_f64() * 1e3,
    );
    report.metric_f64("ablation_index.build_ms", build_t.as_secs_f64() * 1e3);
    report.metric_f64(
        "ablation_index.warm_probe_ms",
        warm_probe_t.as_secs_f64() * 1e3,
    );
    report.metric_f64("ablation_index.amortized_probe_ms", amortized * 1e3);
    report.metric_f64("ablation_index.amortized_speedup", speedup);
    report.metric_str(
        "ablation_index.speedup_at_least_5x",
        if speedup >= 5.0 { "true" } else { "false" },
    );
    report.metric_f64("ablation_index.inserts_per_sec", inserts_per_sec);
    report.metric_f64("ablation_index.deletes_per_sec", deletes_per_sec);
    report.metric_str(
        "ablation_index.output_equal",
        if equal { "true" } else { "false" },
    );
}

/// Ablation (tentpole, PR 9): out-of-core token-range partitioned execution.
/// The in-memory inline join is the baseline; then the resident budget is
/// tightened to 1/2, 1/4, and 1/8 of `estimate_memory_bytes`, forcing the
/// spill driver to split the same join into token-range partitions. The
/// partition count is the planner's, not ours (the `Partitions` column
/// reports what actually ran, and must equal `plan_spill`'s count). A set
/// is carried in full by each partition its Lemma-1 prefix reaches, so the
/// `Candidates` column (spilled/resident `candidate_pairs`) measures the
/// replication that costs. Each spilled run must reproduce the resident
/// output bit-for-bit — same pairs, same overlaps, same order — and
/// `budget_met` records whether every planned peak fit its budget. The
/// overhead column is the price of building partition sub-arenas,
/// re-joining replicated sets and merging their runs.
fn ablation_spill(scale: f64, report: &mut Report) {
    use ssjoin_core::{OverlapPredicate, SsJoinConfig};
    use ssjoin_text::Tokenizer;

    let data = evaluation_corpus(scale).records;
    let theta = 0.85;
    let groups: Vec<Vec<String>> = data
        .iter()
        .map(|s| ssjoin_text::WordTokenizer::new().lowercased().tokenize(s))
        .collect();
    let mut b = ssjoin_core::SsJoinInputBuilder::new(
        ssjoin_core::WeightScheme::Idf,
        ElementOrder::FrequencyAsc,
    );
    let h = b.add_relation(groups);
    let built = b.build().expect("build collection");
    let c = built.collection(h);
    let pred = OverlapPredicate::two_sided(theta);
    let est = estimate_memory_bytes(c, c);

    // Median of 3 per configuration: partition builds churn the allocator,
    // so one-shot timings would overstate the spill overhead.
    let median3 = |exec: ExecContext| {
        let cfg = SsJoinConfig {
            algorithm: Algorithm::Inline,
            exec,
        };
        median_of_3(|| ssjoin(c, c, &pred, &cfg).expect("ssjoin"))
    };

    let (base, base_t) = median3(ExecContext::new());
    assert_eq!(
        base.stats.spill_partitions, 0,
        "baseline must stay resident"
    );

    let mut t = Table::new(
        format!(
            "Ablation — out-of-core spilled join vs in-memory (Jaccard {theta}, inline, \
             {} rows, resident estimate {:.1} MiB, median of 3)",
            data.len(),
            est as f64 / (1 << 20) as f64
        ),
        &[
            "Config",
            "Total ms",
            "Partitions",
            "Candidates",
            "Spill MiB",
            "Peak resident MiB",
            "Overhead",
            "Output equal",
        ],
    );
    t.row(vec![
        "in-memory".into(),
        ms(base_t),
        "1".into(),
        "1.00x".into(),
        "-".into(),
        "-".into(),
        "1.00x".into(),
        "baseline".into(),
    ]);
    report.metric_f64("ablation_spill.in_memory_ms", base_t.as_secs_f64() * 1e3);
    report.metric_u64("ablation_spill.estimate_bytes", est);

    let mut all_equal = true;
    let mut budget_met = true;
    let mut overhead_div4 = f64::NAN;
    for div in [2u64, 4, 8] {
        let budget = (est / div).max(1);
        let Some(planned) = plan_spill(c, c, &pred, budget) else {
            println!("warning: input cannot be split at budget est/{div}; skipping");
            continue;
        };
        let exec =
            ExecContext::new().with_budget(ExecBudget::new().with_max_resident_bytes(budget));
        let (out, elapsed) = median3(exec);
        let equal = out.pairs == base.pairs;
        all_equal &= equal;
        budget_met &= out.stats.spill_peak_resident_bytes <= budget;
        let overhead = elapsed.as_secs_f64() / base_t.as_secs_f64().max(1e-9);
        let candidate_ratio =
            out.stats.candidate_pairs as f64 / base.stats.candidate_pairs.max(1) as f64;
        if div == 4 {
            overhead_div4 = overhead;
        }
        t.row(vec![
            format!("spill @ est/{div} budget ({} KiB)", budget >> 10),
            ms(elapsed),
            count(out.stats.spill_partitions),
            format!("{candidate_ratio:.2}x"),
            format!("{:.1}", out.stats.spill_bytes as f64 / (1 << 20) as f64),
            format!(
                "{:.1}",
                out.stats.spill_peak_resident_bytes as f64 / (1 << 20) as f64
            ),
            format!("{overhead:.2}x"),
            if equal { "yes".into() } else { "NO".into() },
        ]);
        assert_eq!(
            out.stats.spill_partitions,
            planned.partitions() as u64,
            "driver must execute the planned partition count"
        );
        report.metric_f64(
            format!("ablation_spill.div{div}.total_ms"),
            elapsed.as_secs_f64() * 1e3,
        );
        report.metric_u64(
            format!("ablation_spill.div{div}.partitions"),
            out.stats.spill_partitions,
        );
        report.metric_u64(
            format!("ablation_spill.div{div}.spill_bytes"),
            out.stats.spill_bytes,
        );
        report.metric_u64(
            format!("ablation_spill.div{div}.peak_resident_bytes"),
            out.stats.spill_peak_resident_bytes,
        );
        report.metric_f64(format!("ablation_spill.div{div}.overhead"), overhead);
        report.metric_f64(
            format!("ablation_spill.div{div}.candidate_ratio"),
            candidate_ratio,
        );
    }
    report.table(t);
    assert!(
        all_equal,
        "every spilled run must reproduce the in-memory output bit-for-bit"
    );
    report.metric_f64("ablation_spill.overhead_div4", overhead_div4);
    report.metric_str(
        "ablation_spill.overhead_div4_under_2_5x",
        if overhead_div4 <= 2.5 {
            "true"
        } else {
            "false"
        },
    );
    report.metric_str(
        "ablation_spill.output_equal",
        if all_equal { "true" } else { "false" },
    );
    report.metric_str(
        "ablation_spill.budget_met",
        if budget_met { "true" } else { "false" },
    );
}

/// The recall floor the approximate frontier is gated on in CI: the best
/// ≥-floor swept point must exist on the clean corpus.
const APPROX_RECALL_FLOOR: f64 = 0.90;

/// One corpus panel of [`ablation_approx`]: exact Inline ground truth, then
/// the recall sweep. Returns `(frontier_recall, frontier_speedup,
/// floor_met, subset_sound)` where the frontier point is the fastest swept
/// point whose measured recall clears [`APPROX_RECALL_FLOOR`] (falling back
/// to the highest-recall point when none does).
fn approx_panel(
    title: &str,
    prefix: &str,
    records: &[String],
    theta: f64,
    recalls: &[f64],
    report: &mut Report,
) -> (f64, f64, bool, bool) {
    use ssjoin_core::{OverlapPredicate, SsJoinConfig};
    use ssjoin_text::Tokenizer;

    let groups: Vec<Vec<String>> = records
        .iter()
        .map(|s| ssjoin_text::WordTokenizer::new().lowercased().tokenize(s))
        .collect();
    let mut b = ssjoin_core::SsJoinInputBuilder::new(
        ssjoin_core::WeightScheme::Idf,
        ElementOrder::FrequencyAsc,
    );
    let h = b.add_relation(groups);
    let built = b.build().expect("build collection");
    let c = built.collection(h);
    let pred = OverlapPredicate::two_sided(theta);

    // Median of 3 per configuration — the sketch is rebuilt inside every
    // timed run (one-shot `ssjoin`), so the speedup figure honestly charges
    // approximate mode for its own preprocessing.
    let median3 = |cfg: &SsJoinConfig| median_of_3(|| ssjoin(c, c, &pred, cfg).expect("ssjoin"));

    let (exact, exact_t) = median3(&SsJoinConfig::new(Algorithm::Inline));
    let truth: std::collections::HashMap<(u32, u32), _> = exact
        .pairs
        .iter()
        .map(|p| ((p.r, p.s), p.overlap))
        .collect();

    let mut t = Table::new(
        title.to_string(),
        &[
            "Target recall",
            "Total ms",
            "Speedup",
            "Reps",
            "Candidates",
            "Measured recall",
            "Subset sound",
        ],
    );
    t.row(vec![
        "exact (Inline)".into(),
        ms(exact_t),
        "1.00x".into(),
        "-".into(),
        count(exact.stats.candidate_pairs),
        "1.000".into(),
        "baseline".into(),
    ]);
    report.metric_f64(format!("{prefix}.exact_ms"), exact_t.as_secs_f64() * 1e3);

    let mut subset_sound = true;
    // (target, measured recall, speedup) per swept point.
    let mut points: Vec<(f64, f64, f64)> = Vec::new();
    for &target in recalls {
        let cfg = SsJoinConfig::new(Algorithm::Inline)
            .with_exec(ExecContext::new().with_approximate(target));
        let (out, elapsed) = median3(&cfg);
        // Subset soundness: every approximate pair must appear in the exact
        // output with an identical overlap — approximation changes which
        // pairs are considered, never how a pair is scored.
        let mut matched = 0usize;
        let mut sound = true;
        for p in &out.pairs {
            match truth.get(&(p.r, p.s)) {
                Some(&w) if w == p.overlap => matched += 1,
                _ => sound = false,
            }
        }
        subset_sound &= sound;
        let measured = if truth.is_empty() {
            1.0
        } else {
            matched as f64 / truth.len() as f64
        };
        let speedup = exact_t.as_secs_f64() / elapsed.as_secs_f64().max(1e-9);
        points.push((target, measured, speedup));
        t.row(vec![
            format!("{target:.2}"),
            ms(elapsed),
            format!("{speedup:.2}x"),
            count(out.stats.approx_reps),
            count(out.stats.candidate_pairs),
            format!("{measured:.3}"),
            if sound { "yes".into() } else { "NO".into() },
        ]);
        let key = (target * 1000.0).round() as u32;
        report.metric_f64(
            format!("{prefix}.r{key}.total_ms"),
            elapsed.as_secs_f64() * 1e3,
        );
        report.metric_f64(format!("{prefix}.r{key}.speedup"), speedup);
        report.metric_f64(format!("{prefix}.r{key}.measured_recall"), measured);
        report.metric_u64(format!("{prefix}.r{key}.reps"), out.stats.approx_reps);
    }
    report.table(t);
    assert!(
        subset_sound,
        "{prefix}: approximate output must be a subset of the exact output \
         with identical overlaps"
    );

    // The frontier point: fastest swept point above the recall floor; when
    // none clears it, the highest-recall point (reported with floor_met =
    // false so the CI gate fails loudly instead of silently shifting).
    let frontier = points
        .iter()
        .filter(|(_, r, _)| *r >= APPROX_RECALL_FLOOR)
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .or_else(|| points.iter().max_by(|a, b| a.1.total_cmp(&b.1)))
        .copied()
        .unwrap_or((0.0, 0.0, 0.0));
    let floor_met = frontier.1 >= APPROX_RECALL_FLOOR;
    (frontier.1, frontier.2, floor_met, subset_sound)
}

/// Ablation (tentpole, PR 10): opt-in approximate mode. Seeded MinHash/LSH
/// sketches replace the exhaustive candidate scan with recursive
/// argmin-bucket lookups; verification runs the unmodified exact kernels, so
/// the only possible failure mode is a *missed* pair — measured here as
/// recall against the exact Inline run's ground truth, alongside the
/// wall-clock speedup, on both the clean evaluation corpus and the PR 9
/// dirty near-threshold corpus. Speedups are host-dependent and reported,
/// not gated; the recall floor and subset-soundness verdicts are gated in
/// CI.
fn ablation_approx(scale: f64, report: &mut Report) {
    // θ = 0.4 is the regime approximate mode exists for: at high thresholds
    // the exact prefix filter is already near-perfect (θ = 0.85 generates
    // ~1.1 candidates per output pair on this corpus, θ = 0.5 ~4.7) and LSH
    // can only lose; at low thresholds the prefix covers most of each set,
    // exact candidates explode (θ = 0.4: ~30 candidates per output pair),
    // while the LSH tree's candidate count is threshold-independent —
    // trading a bounded, measured slice of recall for candidate sparsity.
    let theta = 0.4;
    let recalls = [0.7, 0.8, 0.9, 0.95];

    let clean = evaluation_corpus(scale).records;
    let (recall, speedup, floor_met, sound) = approx_panel(
        &format!(
            "Ablation — approximate mode, clean corpus (Jaccard {theta}, {} rows, median of 3)",
            clean.len()
        ),
        "ablation_approx",
        &clean,
        theta,
        &recalls,
        report,
    );
    report.metric_f64("ablation_approx.measured_recall", recall);
    report.metric_f64("ablation_approx.speedup", speedup);
    report.metric_str(
        "ablation_approx.recall_floor_met",
        if floor_met { "true" } else { "false" },
    );
    report.metric_str(
        "ablation_approx.speedup_at_least_2x",
        if speedup >= 2.0 { "true" } else { "false" },
    );
    report.metric_str(
        "ablation_approx.subset_sound",
        if sound { "true" } else { "false" },
    );

    // The dirty near-threshold corpus (heavy token errors, duplicate-rich)
    // is where candidate generation dominates; half the paper's row count,
    // as in the bitmap ablation, keeps the exact baseline affordable.
    let dirty_rows = ((PAPER_ROWS as f64 * scale * 0.5).round() as usize).max(10);
    let dirty = dirty_corpus(dirty_rows).records;
    let (d_recall, d_speedup, d_floor, d_sound) = approx_panel(
        &format!(
            "Ablation — approximate mode, dirty near-threshold corpus \
             (Jaccard {theta}, {dirty_rows} rows, heavy errors, median of 3)"
        ),
        "ablation_approx.dirty",
        &dirty,
        theta,
        &recalls,
        report,
    );
    report.metric_u64("ablation_approx.dirty.rows", dirty_rows as u64);
    report.metric_f64("ablation_approx.dirty.measured_recall", d_recall);
    report.metric_f64("ablation_approx.dirty.speedup", d_speedup);
    report.metric_str(
        "ablation_approx.dirty.recall_floor_met",
        if d_floor { "true" } else { "false" },
    );
    report.metric_str(
        "ablation_approx.dirty.subset_sound",
        if d_sound { "true" } else { "false" },
    );
}

/// The set arena's layout: bytes per element of an unweighted collection
/// (the edit join's q-gram sets) and of an IDF-weighted one (the Jaccard
/// join's word sets), read from [`ssjoin_core::SetCollection::bytes_per_element`].
/// Weights live in one per-universe table, so both read 4; CI gates the
/// `arena.bytes_per_element.*` keys so the arena cannot grow back.
fn arena(scale: f64, report: &mut Report) {
    use ssjoin_core::{NormKind, SsJoinInputBuilder, TokenGroups, WeightScheme};
    use ssjoin_text::{QGramTokenizer, Tokenizer, WordTokenizer};

    let data = evaluation_corpus(scale).records;
    let mut t = Table::new(
        "Arena — bytes per element (weights are one per-universe table)",
        &[
            "Collection",
            "Weights",
            "Elements",
            "Bytes/element",
            "Element bytes",
            "Table entries",
        ],
    );
    let (qgrams, words) = (QGramTokenizer::new(3), WordTokenizer::new().lowercased());
    let builds: [(&str, &str, &(dyn Tokenizer + Sync), WeightScheme, NormKind); 2] = [
        (
            "unweighted",
            "q-gram sets (edit join)",
            &qgrams,
            WeightScheme::Unweighted,
            NormKind::Cardinality,
        ),
        (
            "weighted",
            "word sets (Jaccard join)",
            &words,
            WeightScheme::Idf,
            NormKind::TotalWeight,
        ),
    ];
    for (key, label, tokenizer, scheme, norm) in builds {
        let mut b = SsJoinInputBuilder::new(scheme, ElementOrder::FrequencyAsc);
        let rows = TokenGroups::Text {
            rows: &data,
            tokenizer,
            order: None,
        };
        let h = b.add_groups(rows, norm);
        let built = b.build().expect("build collection");
        let c = built.collection(h);
        let per = c.bytes_per_element() as u64;
        let table = if c.is_weighted() {
            built.universe_size() as u64
        } else {
            0
        };
        t.row(vec![
            label.into(),
            format!("{scheme:?}"),
            count(c.tuple_count() as u64),
            per.to_string(),
            count(per * c.tuple_count() as u64),
            count(table),
        ]);
        report.metric_u64(format!("arena.bytes_per_element.{key}"), per);
    }
    report.table(t);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&args)
    }

    #[test]
    fn parses_every_option() {
        let opts = parse(&[
            "--scale",
            "0.02",
            "--json",
            "--pr",
            "16",
            "--out",
            "x.json",
            "ablation-auto",
            "--all",
        ])
        .unwrap();
        assert_eq!(opts.scale, 0.02);
        assert!(opts.emit_json && !opts.help);
        assert_eq!(opts.pr, 16);
        assert_eq!(opts.out.as_deref(), Some("x.json"));
        assert_eq!(opts.experiments, ["ablation-auto", "all"]);
        let defaults = parse(&[]).unwrap();
        assert_eq!((defaults.scale, defaults.pr, defaults.out), (1.0, 10, None));
    }

    #[test]
    fn missing_or_bad_values_are_errors_naming_the_option() {
        for (args, option) in [
            (&["--scale"][..], "--scale"),
            (&["--scale", "big"][..], "--scale"),
            (&["--scale", "-1"][..], "--scale"),
            (&["--scale", "NaN"][..], "--scale"),
            (&["--pr"][..], "--pr"),
            (&["--pr", "1.5"][..], "--pr"),
            (&["--json", "--pr", "-3"][..], "--pr"),
            (&["--out"][..], "--out"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(option), "{args:?}: {err}");
        }
    }

    #[test]
    fn unknown_experiments_and_flags_are_errors() {
        for (args, named) in [
            (&["ablation-nope"][..], "ablation-nope"),
            (&["table1", "fig99"][..], "fig99"),
            (&["--bogus"][..], "--bogus"),
            (&["--scale", "0.1", "--verbose"][..], "--verbose"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(named), "{args:?}: {err}");
        }
        // An unknown experiment's error names every valid panel.
        let err = parse(&["ablation-nope"]).unwrap_err();
        for (name, _) in PANELS {
            assert!(err.contains(name), "{err} is missing {name}");
        }
        let opts = parse(&["fig11", "all", "ablation-spill"]).unwrap();
        assert_eq!(opts.experiments, ["fig11", "all", "ablation-spill"]);
    }
}
