//! Metric names, units and bounds (mirrored in `BENCHMARK.json`), the
//! result record of one run, and its JSON rendering.

use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An end-to-end metric: what a user of `ssjoin` sees. Lower is better for
/// each of them.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// Every end-to-end metric, reported on every workload by untraced runs.
/// Each must mean something on a batch join and on `serve` alike, and never
/// read 0, so the per-verb `serve` figures are per-layer metrics instead.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.03,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
];

/// Every per-layer metric (name, unit), reported on every workload by traced
/// runs; a layer the workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("cli.read_s", "s"),
    ("cli.write_s", "s"),
    ("cli.output_rows", "count"),
    ("text.tokenize_s", "s"),
    ("text.tokens", "count"),
    ("builder.build_s", "s"),
    ("builder.sets", "count"),
    ("builder.universe", "count"),
    ("exec.join_s", "s"),
    ("exec.prep_s", "s"),
    ("exec.prefix_filter_s", "s"),
    ("exec.ssjoin_s", "s"),
    ("exec.filter_s", "s"),
    ("exec.join_tuples", "count"),
    ("exec.candidate_pairs", "count"),
    ("exec.verified_pairs", "count"),
    ("exec.output_pairs", "count"),
    ("exec.candidate_yield", "ratio"),
    ("prune.probes", "count"),
    ("prune.prunes", "count"),
    ("prune.rate", "ratio"),
    ("kernel.merge_steps", "count"),
    ("kernel.early_exits", "count"),
    ("kernel.gallop_probes", "count"),
    ("kernel.steps_per_verified", "ratio"),
    ("sim.udf_s", "s"),
    ("sim.udf_calls", "count"),
    ("sim.udf_pass_rate", "ratio"),
    ("spill.partitions", "count"),
    ("spill.bytes", "bytes"),
    ("spill.peak_resident_bytes", "bytes"),
    ("spill.bytes_per_input_byte", "ratio"),
    ("index.build_s", "s"),
    ("index.match_p50_us", "us"),
    ("index.match_p99_us", "us"),
    ("index.probe_candidates_mean", "count"),
    ("index.probe_verified_mean", "count"),
    ("index.probe_ssjoin_us_mean", "us"),
    ("index.insert_p50_us", "us"),
    ("index.insert_p99_us", "us"),
    ("index.delete_p50_us", "us"),
    ("index.path_share", "ratio"),
    ("index.brute_pool_mean", "count"),
    ("serve.protocol_us", "us"),
    ("serve.match_p99_ms", "ms"),
    ("serve.add_p50_ms", "ms"),
    ("serve.add_p99_ms", "ms"),
    ("serve.req_per_s", "1/s"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Unit of a known metric name.
///
/// # Panics
/// On a name in neither table — a typo in this benchmark.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER)
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("unknown metric {name:?}"))
}

/// Correctness bookkeeping of one run: every process launched and every
/// output check counts as one attempt.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one attempt; report and count it as failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
        ok
    }
}

/// Everything one run of one workload measured.
#[derive(Debug, Default)]
pub struct RunResult {
    pub checks: Checks,
    pub metrics: BTreeMap<&'static str, Summary>,
}

impl RunResult {
    /// Record a metric; panics on a name missing from the tables.
    pub fn set(&mut self, name: &'static str, value: Summary) {
        unit_of(name);
        self.metrics.insert(name, value);
    }

    /// The metrics a run with `trace` reports, in table order: every
    /// per-layer metric (0 where the workload has no such layer) when
    /// traced, otherwise every end-to-end metric that was measured.
    pub fn reported(&self, trace: bool) -> Vec<(&'static str, Summary)> {
        if trace {
            PER_LAYER
                .iter()
                .map(|&(n, _)| {
                    (
                        n,
                        self.metrics.get(n).copied().unwrap_or(Summary::single(0.0)),
                    )
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .filter_map(|m| self.metrics.get(m.name).map(|&s| (m.name, s)))
                .collect()
        }
    }
}

/// A finite number as JSON (non-finite values, which no metric should
/// produce, become `null`).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// A string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The one-line result object: `correct`, `attempted`, `failed`, and each
/// metric's value and unit. A non-empty label (`workload`, or
/// `workload#set`) prefixes the metric names of its run, for results of
/// several runs in one object.
pub fn result_line(runs: &[(&str, &RunResult)], trace: bool) -> String {
    let attempted: u64 = runs.iter().map(|(_, r)| r.checks.attempted).sum();
    let failed: u64 = runs.iter().map(|(_, r)| r.checks.failed).sum();
    let mut metrics = Vec::new();
    for (label, run) in runs {
        for (name, s) in run.reported(trace) {
            let key = if label.is_empty() {
                name.to_string()
            } else {
                format!("{label}/{name}")
            };
            metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&key),
                json_num(s.value),
                json_str(unit_of(name))
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
        failed,
        metrics.join(", ")
    )
}

/// One metric per line, with unit, sample count and range.
pub fn print_table(workload: &str, run: &RunResult, trace: bool) {
    for (name, s) in run.reported(trace) {
        println!(
            "{workload:<20} {name:<30} {:>14.6} {:<5} n={:<6} min={:.6} max={:.6}",
            s.value,
            unit_of(name),
            s.n,
            s.min,
            s.max
        );
    }
}

/// Compare the sets of one workload: each end-to-end median must repeat
/// within its bound, and each per-layer count exactly (times may differ).
/// Prints one line per comparison and returns the number that failed.
pub fn stability(workload: &str, sets: &[RunResult], trace: bool) -> u64 {
    let Some((first, rest)) = sets.split_first() else {
        return 0;
    };
    let mut failures = 0;
    for (k, other) in rest.iter().enumerate() {
        let theirs: BTreeMap<_, _> = other.reported(trace).into_iter().collect();
        for (name, a) in first.reported(trace) {
            let b = theirs.get(name).map_or(f64::NAN, |s| s.value);
            let gap = relative_gap(a.value, b);
            let (ok, rule) = if trace {
                if !matches!(unit_of(name), "count" | "bytes") {
                    continue;
                }
                (a.value == b, "must repeat exactly".to_string())
            } else {
                let m = END_TO_END
                    .iter()
                    .find(|m| m.name == name)
                    .expect("untraced runs report only end-to-end metrics");
                (
                    gap <= m.bound,
                    format!("bound {} (lower is better)", m.bound),
                )
            };
            println!(
                "stability {workload:<20} {name:<30} set1={:<14.6} set{}={b:<14.6} gap={gap:.4} {rule}: {}",
                a.value,
                k + 2,
                if ok { "ok" } else { "FAIL" }
            );
            failures += u64::from(!ok);
        }
    }
    failures
}

/// `|b − a| / |a|`, 0 when both are 0.
fn relative_gap(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a).abs() / a.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut run = RunResult::default();
        run.checks.check(true, String::new);
        run.set("latency_p50_ms", Summary::single(1.25));
        run.set("setup_s", Summary::single(0.5));
        let line = result_line(&[("", &run)], false);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        // Traced runs report every per-layer metric, zero-filled.
        let traced = result_line(&[("", &run)], true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
        run.checks.check(false, || "expected failure".into());
        assert!(result_line(&[("w", &run)], false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn names_are_unique_and_units_short() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|&(n, _)| n));
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        for (n, u) in PER_LAYER {
            assert!(n.len() <= 64 && u.len() <= 16, "{n} {u}");
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= setup.bound, "{}", m.name);
        }
        assert!(setup.bound <= 0.25);
    }

    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let json = include_str!("../../../../../BENCHMARK.json");
        let compact: String = json.split_whitespace().collect();
        let run_seconds = format!("\"run_seconds\":{},", crate::RUN_SECONDS);
        assert!(
            compact.contains(&run_seconds),
            "BENCHMARK.json lacks {run_seconds}"
        );
        for m in END_TO_END {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"lower\",\"bound\":{}}}",
                m.name, m.unit, m.bound
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (n, u) in PER_LAYER {
            let entry = format!("{{\"name\":\"{n}\",\"unit\":\"{u}\",\"better\":");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::WORKLOADS {
            assert!(
                compact.contains(&format!("{{\"name\":\"{}\",\"why\":", w.name)),
                "BENCHMARK.json lacks workload {}",
                w.name
            );
        }
    }

    #[test]
    fn stability_flags_gaps_beyond_bounds() {
        let mk = |p50: f64, rss: f64| {
            let mut r = RunResult::default();
            r.set("latency_p50_ms", Summary::single(p50));
            r.set("peak_rss_mb", Summary::single(rss));
            r
        };
        assert_eq!(
            stability("w", &[mk(100.0, 50.0), mk(105.0, 50.5)], false),
            0
        );
        assert_eq!(
            stability("w", &[mk(100.0, 50.0), mk(130.0, 60.0)], false),
            2
        );
        let mut a = RunResult::default();
        a.set("exec.candidate_pairs", Summary::single(10.0));
        a.set("exec.join_s", Summary::single(1.0));
        let mut b = RunResult::default();
        b.set("exec.candidate_pairs", Summary::single(10.0));
        b.set("exec.join_s", Summary::single(2.0));
        assert_eq!(stability("w", &[a, b], true), 0, "times may differ");
        let mut c = RunResult::default();
        c.set("exec.candidate_pairs", Summary::single(11.0));
        let mut d = RunResult::default();
        d.set("exec.candidate_pairs", Summary::single(10.0));
        assert_eq!(stability("w", &[c, d], true), 1, "counts must not");
    }
}
