//! `ssjoin-e2e` — the repository's end-to-end benchmark.
//!
//! Generates every input in-process from `--seed`, runs the real release
//! `ssjoin` binary (found beside this one) on it, times it from outside, and
//! checks its output. With `--trace 1` each workload is also replayed
//! in-process, timing the calls into each layer's public functions, and the
//! per-layer metrics are reported instead of the end-to-end ones. See
//! `README.md` in this directory for the metrics, workloads and layers.
//!
//! ```text
//! ssjoin-e2e [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!            [--repeat-sets N] [--out RESULTS.json]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero when any
//! check fails or, with `--repeat-sets`, any metric does not repeat.

mod batch;
mod process;
mod report;
mod serve;
mod stats;

use batch::JoinSpec;
use process::Program;
use report::{json_num, json_str, RunResult};
use serve::ServeSpec;
use std::path::PathBuf;
use std::process::ExitCode;

/// A named set of inputs the benchmark runs.
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

pub enum Kind {
    Join(JoinSpec),
    Serve(ServeSpec),
}

/// The workloads; `BENCHMARK.json` records why each was chosen.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "edit-25k",
        kind: Kind::Join(JoinSpec {
            rows: 25_000,
            edit: true,
            threshold: 0.85,
            memory_budget: None,
            // Two joins of ~15 s: a third would bring the benchmark's full
            // evaluation (92 runs) too close to its 3,420 s time cap.
            reps: 2,
        }),
    },
    Workload {
        name: "jaccard-330k",
        kind: Kind::Join(JoinSpec {
            rows: 330_000,
            edit: false,
            threshold: 0.85,
            memory_budget: None,
            reps: 5,
        }),
    },
    Workload {
        name: "jaccard-330k-spill",
        kind: Kind::Join(JoinSpec {
            rows: 330_000,
            edit: false,
            threshold: 0.85,
            // A fixed constant, not derived from the library's memory
            // estimate, so the input never depends on the code under test.
            memory_budget: Some(20 << 20),
            // Three joins of ~7 s, for the same reason as `edit-25k`.
            reps: 3,
        }),
    },
    Workload {
        name: "serve-25k",
        kind: Kind::Serve(ServeSpec {
            corpus_rows: 28_571,
            sessions: 3,
            requests: 5_400,
        }),
    },
];

/// The run length the workloads' counts are sized for (`run_seconds` in
/// `BENCHMARK.json`).
pub const RUN_SECONDS: f64 = 20.0;

/// `count` (sized for [`RUN_SECONDS`]) scaled to a run of `seconds`.
pub fn scaled(count: usize, seconds: f64) -> usize {
    (count as f64 * seconds / RUN_SECONDS).round() as usize
}

const USAGE: &str = "usage: ssjoin-e2e [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace 0|1] [--repeat-sets N] [--out RESULTS.json]";

struct Options {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: WORKLOADS.iter().collect(),
        seed: 7,
        seconds: RUN_SECONDS,
        trace: false,
        sets: 1,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            // `--trace` alone means `--trace 1`.
            o.trace = match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    false
                }
                Some("1") => {
                    it.next();
                    true
                }
                _ => true,
            };
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" if value == "all" => o.workloads = WORKLOADS.iter().collect(),
            "--workload" => {
                let w = WORKLOADS
                    .iter()
                    .find(|w| w.name == value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
                o.workloads = vec![w];
            }
            "--seed" => o.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                o.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(o.seconds > 0.0 && o.seconds.is_finite()) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--repeat-sets" => {
                o.sets = value.parse().map_err(|e| bad(&e))?;
                if o.sets == 0 {
                    return Err(bad(&"must be at least 1"));
                }
            }
            "--out" => o.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_options(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Locate `ssjoin`, make a scratch directory beside it, run, clean up.
fn run(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .ok_or("the benchmark binary has no directory")?;
    let bin = dir.join("ssjoin");
    if !bin.is_file() {
        return Err(format!(
            "{} is missing: build it with `cargo build --release --bin ssjoin`",
            bin.display()
        ));
    }
    let work = dir.join(format!("ssjoin-e2e-work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    // Spill partitions of the traced replay go to the scratch directory too.
    std::env::set_var("TMPDIR", &work);
    let prog = Program { bin, work };
    let outcome = run_workloads(opts, &prog);
    let _ = std::fs::remove_dir_all(&prog.work);
    outcome
}

fn run_workloads(opts: &Options, prog: &Program) -> Result<bool, String> {
    let mut results: Vec<(&str, Vec<RunResult>)> = Vec::new();
    let mut unstable = 0;
    for w in &opts.workloads {
        let mut sets = Vec::new();
        for set in 1..=opts.sets {
            eprintln!(
                "== {} seed {} set {set}/{} ({})",
                w.name,
                opts.seed,
                opts.sets,
                if opts.trace { "traced" } else { "untraced" }
            );
            let run = match &w.kind {
                Kind::Join(spec) => batch::run(spec, prog, opts.seed, opts.seconds, opts.trace),
                Kind::Serve(spec) => serve::run(spec, prog, opts.seed, opts.seconds, opts.trace),
            };
            report::print_table(w.name, &run, opts.trace);
            sets.push(run);
        }
        if opts.sets > 1 {
            unstable += report::stability(w.name, &sets, opts.trace);
        }
        results.push((w.name, sets));
    }
    if let Some(path) = &opts.out {
        std::fs::write(path, results_json(opts, prog, &results))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let single = results.len() == 1 && opts.sets == 1;
    let labelled: Vec<(String, &RunResult)> = results
        .iter()
        .flat_map(|(name, sets)| {
            sets.iter().enumerate().map(move |(i, r)| {
                let label = match (single, sets.len()) {
                    (true, _) => String::new(),
                    (false, 1) => name.to_string(),
                    (false, _) => format!("{name}#{}", i + 1),
                };
                (label, r)
            })
        })
        .collect();
    let lines: Vec<(&str, &RunResult)> = labelled.iter().map(|(l, r)| (l.as_str(), *r)).collect();
    println!("{}", report::result_line(&lines, opts.trace));
    let wanted = if opts.trace {
        report::PER_LAYER.len()
    } else {
        report::END_TO_END.len()
    };
    let complete = labelled.iter().all(|(_, r)| {
        r.checks.failed == 0 && r.checks.attempted > 0 && r.reported(opts.trace).len() == wanted
    });
    if unstable > 0 {
        eprintln!("{unstable} metric(s) did not repeat within their bounds");
    }
    Ok(complete && unstable == 0)
}

/// The `--out` results file: every run's metrics with unit, sample count
/// and range, plus the host and build they were measured on.
fn results_json(opts: &Options, prog: &Program, results: &[(&str, Vec<RunResult>)]) -> String {
    let command = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| json_str(String::from_utf8_lossy(&o.stdout).trim()))
            .unwrap_or_else(|| "null".into())
    };
    let mtime = std::fs::metadata(&prog.bin)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or("null".into(), |d| d.as_secs().to_string());
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let workloads: Vec<String> = results
        .iter()
        .map(|(name, sets)| {
            let sets: Vec<String> = sets
                .iter()
                .map(|r| {
                    let metrics: Vec<String> = r
                        .reported(opts.trace)
                        .iter()
                        .map(|(n, s)| {
                            format!(
                                "{}: {{\"value\": {}, \"unit\": {}, \"n\": {}, \"min\": {}, \"max\": {}}}",
                                json_str(n),
                                json_num(s.value),
                                json_str(report::unit_of(n)),
                                s.n,
                                json_num(s.min),
                                json_num(s.max)
                            )
                        })
                        .collect();
                    format!(
                        "{{\"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
                        r.checks.attempted,
                        r.checks.failed,
                        metrics.join(", ")
                    )
                })
                .collect();
            format!("{}: [{}]", json_str(name), sets.join(", "))
        })
        .collect();
    format!(
        "{{\"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {{\"nproc\": {}, \
         \"available_parallelism\": {parallelism}, \"rustc\": {}, \"git_head\": {}, \
         \"ssjoin_mtime\": {mtime}}}, \"workloads\": {{{}}}}}\n",
        opts.seed,
        json_num(opts.seconds),
        opts.trace,
        command("nproc", &[]),
        command("rustc", &["-V"]),
        command("git", &["rev-parse", "HEAD"]),
        workloads.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scratch directory for a test, removed when dropped.
    struct TestDir(PathBuf);

    impl TestDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("ssjoin-e2e-{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }

        fn path(&self) -> &std::path::Path {
            &self.0
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o = parse_options(&sv(&[
            "--workload",
            "serve-25k",
            "--seed",
            "11",
            "--seconds",
            "20",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(o.workloads.len(), 1);
        assert_eq!(o.workloads[0].name, "serve-25k");
        assert_eq!((o.seed, o.seconds, o.trace, o.sets), (11, 20.0, false, 1));
        let o = parse_options(&sv(&["--trace", "--repeat-sets", "2", "--out", "r.json"])).unwrap();
        assert_eq!(o.workloads.len(), WORKLOADS.len());
        assert!(o.trace);
        assert_eq!(o.sets, 2);
        assert!(parse_options(&sv(&["--trace", "1"])).unwrap().trace);
        assert!(parse_options(&sv(&["--workload", "nope"])).is_err());
        assert!(parse_options(&sv(&["--seconds", "0"])).is_err());
        assert!(parse_options(&sv(&["--seed"])).is_err());
        assert!(parse_options(&sv(&["--bogus", "1"])).is_err());
        // The workloads' counts hold at the default run length and scale.
        assert_eq!(scaled(5, RUN_SECONDS), 5);
        assert_eq!(scaled(5_400, RUN_SECONDS / 2.0), 2_700);
    }

    /// The in-process traced pass at 2,000 rows and 500 requests, with every
    /// output checked against brute force.
    #[test]
    fn smoke_traced_pass() {
        let dir = TestDir::new("smoke");
        let input_path = dir.path().join("input.tsv");
        let out_path = dir.path().join("out.tsv");
        let small = |edit, memory_budget| JoinSpec {
            rows: 2_000,
            edit,
            threshold: 0.85,
            memory_budget,
            reps: 1,
        };
        for spec in [
            small(true, None),
            small(false, None),
            small(false, Some(64 << 10)),
        ] {
            let input = batch::write_input(spec.rows, 7, &input_path).unwrap();
            let mut run = RunResult::default();
            let traced = batch::traced_join(&spec, &input_path, &out_path, &mut run).unwrap();
            let out = std::fs::read(&out_path).unwrap();
            assert!(!out.is_empty());
            if spec.memory_budget.is_some() {
                assert!(
                    run.metrics["spill.partitions"].value >= 2.0,
                    "{spec:?} did not spill"
                );
            }
            batch::check_probes(
                &spec,
                &input.rows,
                &out,
                Some(traced.prepared),
                7,
                &mut run.checks,
            );
            assert_eq!(run.checks.failed, 0, "{spec:?}");
            assert!(run.metrics["exec.candidate_pairs"].value > 0.0);
            assert!(run.metrics["trace.coverage"].value > 0.5);
        }

        let spec = ServeSpec {
            corpus_rows: 2_000,
            sessions: 1,
            requests: 500,
        };
        let input = serve::split_corpus(&spec, 7);
        let rows: Vec<Vec<String>> = input.reference.iter().map(|r| vec![r.clone()]).collect();
        let reference = dir.path().join("reference.tsv");
        ssjoin_datagen::write_tsv(&reference, &rows).unwrap();
        let ops = serve::op_stream(7, 0, 500, input.held.len(), input.reference.len());
        let mut run = RunResult::default();
        let traced =
            serve::traced_serve(&input, std::slice::from_ref(&ops), &reference, &mut run).unwrap();
        // Rebuild the replies the CLI would have sent and check all of them.
        let mut next_id = input.reference.len() as u32;
        let replies: Vec<serve::Reply> = ops
            .iter()
            .zip(&traced.replies[0])
            .map(|(op, body)| {
                let status = match op {
                    serve::Op::Match(_) => body.len().to_string(),
                    serve::Op::Add(_) => {
                        next_id += 1;
                        (next_id - 1).to_string()
                    }
                    serve::Op::Del(id) => id.to_string(),
                };
                serve::Reply {
                    body: body.clone(),
                    status: Ok(status),
                }
            })
            .collect();
        serve::check_replies(&input, &ops, &replies, 1, &mut run.checks);
        assert_eq!(run.checks.failed, 0);
        assert!(run.metrics["index.probe_candidates_mean"].value > 0.0);
        assert_eq!(run.metrics["index.path_share"].value, 1.0);
        assert!(run.metrics["kernel.merge_steps"].value > 0.0);
    }
}
