//! `ssjoin` — command-line similarity joins for data cleaning.
//!
//! ```text
//! ssjoin join   --kind jaccard --threshold 0.85 [--algorithm inline] [--memory-budget 64m] [--approx 0.9] [--self-dedupe] R.tsv [S.tsv]
//! ssjoin match  --reference R.tsv --query "some string" [--k 3] [--min-sim 0.6]
//! ssjoin serve  --reference R.tsv [--k 3] [--min-sim 0.6] [--memory-budget 64m] [--approx 0.9]
//! ssjoin dedup  --threshold 0.85 [--kind edit] FILE.tsv
//! ssjoin gen    --rows 10000 --out addresses.tsv [--seed 7]
//! ```
//!
//! Input files are TSV; the first column of each row is the string joined
//! on, and the only one kept: lines stream through one buffer, and column 0
//! is unescaped into one text buffer with a `u32` end per row, which every
//! later step (the build, the UDF, the output rows, `serve`'s index) reads.
//! Join output rows are `r_index  s_index  similarity  r_string  s_string`,
//! streamed to `--out` or stdout with the strings TSV-escaped either way. A
//! `join` given one file is a self-join: the table is read, tokenized and
//! built once and joined with itself.
//!
//! `match` answers one lookup with [`top_k_matches`]: the edit-similarity
//! join of the query against the reference table at `--min-sim` (its q-gram
//! length chosen from `--min-sim`, as every edit join chooses it), ranked by
//! similarity (ties by row index), cut to `--k`; output rows are
//! `similarity  index  reference_string`.
//!
//! `serve` loads the reference table once, builds a persistent
//! [`TopKIndex`], and answers tab-separated requests from stdin until EOF:
//!
//! ```text
//! match <text>   -> m <id> <similarity> <text> ... then ok <count>
//! dedup <theta>  -> g <group> <id> <text> ...    then ok <groups>
//! add <text>     -> ok <new-id>
//! del <id>       -> ok <id>
//! stats          -> ok <stats of the most recent probe>
//! ```
//!
//! Failed requests answer `err <message>` and the server keeps reading.
//!
//! Each subcommand accepts only its own options (see the usage text); any
//! other `--option` is an error naming it, never silently ignored.
//!
//! `join` and `dedup` run on every core the host reports
//! (`std::thread::available_parallelism`) with the lossless 8-word
//! signature filter on, which prunes candidates before verification; the
//! workers also tokenize and intern the input and format `join`'s output
//! rows. Output is the same at any worker count and with the filter off;
//! there is no option for either.
//!
//! `--memory-budget` (plain bytes, or with a `k`/`m`/`g` suffix) bounds the
//! resident working set: joins and serve-mode probe batches whose memory
//! estimate exceeds the budget run out of core via token-range spill
//! partitions, with output identical to the unbudgeted run. In serve mode
//! the per-batch spill activity shows up in the `stats` response.
//!
//! `--approx RECALL` (0 < RECALL ≤ 1) opts in to approximate candidate
//! generation: a seeded LSH sketch replaces the exhaustive candidate scan,
//! targeting the given recall. Every reported pair is still verified
//! exactly — only completeness is traded for speed. `1.0` is exact. Serve
//! mode echoes the recall target in the `stats` response.
//!
//! `--algorithm` picks the executor; `inline` is the default. A spilled or
//! approximate `join` prints the configuration that ran to stderr as
//! `plan: <algorithm>/<bitmap|off>/<threads>t`, followed by
//! ` spill=<partitions>p` for an out-of-core run and ` approx=<recall>` for
//! an approximate one. A spilled join whose heaviest partition cannot fit
//! `--memory-budget` (the planner runs its best effort rather than failing)
//! adds ` over-budget peak=<bytes> budget=<bytes>` after the partition
//! count.

use ssjoin::core::{Algorithm, ApproxSpec, ExecContext, SsJoinStats};
use ssjoin::datagen::{
    read_first_column, write_field, write_tsv, AddressCorpus, AddressCorpusConfig,
};
use ssjoin::joins::{
    cluster_pairs, cosine_join, edit_similarity_join, ges_join, jaccard_join, top_k_matches,
    CosineConfig, EditJoinConfig, GesJoinConfig, JaccardConfig, MatchPair, SimilarityJoinOutput,
    TopKConfig, TopKIndex,
};
use ssjoin::text::{AsRows, Rows};
use std::io::{BufRead, BufWriter, Write};
use std::process::ExitCode;

/// Which similarity function a join uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JoinKind {
    Edit,
    Jaccard,
    Cosine,
    Ges,
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    Join {
        kind: JoinKind,
        threshold: f64,
        algorithm: Algorithm,
        /// Resident budget in bytes; a join whose estimate exceeds it runs
        /// in token-range partitions built from the resident inputs.
        memory_budget: Option<u64>,
        /// `Some(recall)` opts in to approximate candidate generation.
        approx: Option<f64>,
        self_dedupe: bool,
        r_path: String,
        s_path: Option<String>,
        out: Option<String>,
    },
    Match {
        reference: String,
        query: String,
        k: usize,
        min_sim: f64,
    },
    Serve {
        reference: String,
        k: usize,
        min_sim: f64,
        /// Resident budget in bytes; a probe batch whose estimate exceeds it
        /// runs in token-range partitions built from the resident inputs.
        memory_budget: Option<u64>,
        /// `Some(recall)` opts in to approximate candidate generation.
        approx: Option<f64>,
    },
    Dedup {
        kind: JoinKind,
        threshold: f64,
        path: String,
    },
    Gen {
        rows: usize,
        out: String,
        seed: u64,
    },
    Help,
}

const USAGE: &str = "usage:
  ssjoin join  --kind <edit|jaccard|cosine|ges> --threshold F \\
               [--algorithm <basic|prefix|inline>] \\
               [--memory-budget BYTES[k|m|g]] [--approx RECALL] \\
               [--self-dedupe] [--out OUT.tsv] R.tsv [S.tsv]
  ssjoin match --reference R.tsv --query STRING [--k N] [--min-sim F]
  ssjoin serve --reference R.tsv [--k N] [--min-sim F] \\
               [--memory-budget BYTES[k|m|g]] [--approx RECALL]
  ssjoin dedup --threshold F [--kind <edit|jaccard|cosine>] FILE.tsv
  ssjoin gen   --rows N --out FILE.tsv [--seed N]";

/// Parse a byte count: a plain integer, optionally suffixed with `k`, `m`,
/// or `g` (binary multiples, case-insensitive).
fn parse_bytes(s: &str) -> Result<u64, String> {
    let (digits, shift) = match s.trim_end_matches(['k', 'K', 'm', 'M', 'g', 'G']) {
        d if d.len() == s.len() => (d, 0u32),
        d => match s.as_bytes()[s.len() - 1].to_ascii_lowercase() {
            b'k' => (d, 10),
            b'm' => (d, 20),
            _ => (d, 30),
        },
    };
    if digits.len() + 1 < s.len() {
        return Err(format!("invalid byte count {s:?}: at most one unit suffix"));
    }
    let n: u64 = digits
        .parse()
        .map_err(|e| format!("invalid byte count {s:?}: {e}"))?;
    n.checked_shl(shift)
        .filter(|&v| v >> shift == n)
        .ok_or_else(|| format!("byte count {s:?} overflows u64"))
}

fn parse_kind(s: &str) -> Result<JoinKind, String> {
    match s {
        "edit" => Ok(JoinKind::Edit),
        "jaccard" => Ok(JoinKind::Jaccard),
        "cosine" => Ok(JoinKind::Cosine),
        "ges" => Ok(JoinKind::Ges),
        other => Err(format!("unknown join kind {other:?}")),
    }
}

fn parse_algorithm(s: &str) -> Result<Algorithm, String> {
    match s {
        "basic" => Ok(Algorithm::Basic),
        "prefix" => Ok(Algorithm::PrefixFiltered),
        "inline" => Ok(Algorithm::Inline),
        other => Err(format!(
            "unknown algorithm {other:?} (expected basic|prefix|inline)"
        )),
    }
}

/// The options one subcommand accepts: `--key value` options and bare
/// `--flag`s, both without the leading dashes.
struct OptionSpec {
    options: &'static [&'static str],
    flags: &'static [&'static str],
}

/// The option set of each subcommand; `None` for an unknown command.
fn option_spec(cmd: &str) -> Option<OptionSpec> {
    let (options, flags): (&[&str], &[&str]) = match cmd {
        "join" => (
            &[
                "kind",
                "threshold",
                "algorithm",
                "memory-budget",
                "approx",
                "out",
            ],
            &["self-dedupe"],
        ),
        "match" => (&["reference", "query", "k", "min-sim"], &[]),
        "serve" => (
            &["reference", "k", "min-sim", "memory-budget", "approx"],
            &[],
        ),
        "dedup" => (&["threshold", "kind"], &[]),
        "gen" => (&["rows", "out", "seed"], &[]),
        _ => return None,
    };
    Some(OptionSpec { options, flags })
}

/// Parse the argument vector (without the program name).
fn parse_args(args: &[String]) -> Result<Command, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Ok(Command::Help);
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") || rest.iter().any(|a| a == "--help") {
        return Ok(Command::Help);
    }
    let spec = option_spec(cmd).ok_or_else(|| format!("unknown command {cmd:?}\n{USAGE}"))?;
    let mut opts: std::collections::HashMap<&str, String> = std::collections::HashMap::new();
    let mut flags: Vec<&str> = Vec::new();
    let mut positional: Vec<String> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let a = &rest[i];
        if let Some(key) = a.strip_prefix("--") {
            if let Some(&flag) = spec.flags.iter().find(|&&f| f == key) {
                flags.push(flag);
            } else if let Some(&key) = spec.options.iter().find(|&&o| o == key) {
                i += 1;
                let value = rest
                    .get(i)
                    .ok_or_else(|| format!("option --{key} needs a value"))?;
                opts.insert(key, value.clone());
            } else {
                return Err(format!("unknown option --{key} for {cmd}\n{USAGE}"));
            }
        } else {
            positional.push(a.clone());
        }
        i += 1;
    }
    let get_f64 = |key: &str| -> Result<Option<f64>, String> {
        opts.get(key)
            .map(|v| v.parse::<f64>().map_err(|e| format!("--{key}: {e}")))
            .transpose()
    };
    let get_usize = |key: &str| -> Result<Option<usize>, String> {
        opts.get(key)
            .map(|v| v.parse::<usize>().map_err(|e| format!("--{key}: {e}")))
            .transpose()
    };

    match cmd.as_str() {
        "join" => {
            let kind = parse_kind(opts.get("kind").map(String::as_str).unwrap_or("jaccard"))?;
            let threshold = get_f64("threshold")?.ok_or("join requires --threshold".to_string())?;
            let algorithm = parse_algorithm(
                opts.get("algorithm")
                    .map(String::as_str)
                    .unwrap_or("inline"),
            )?;
            let memory_budget = opts
                .get("memory-budget")
                .map(|v| parse_bytes(v))
                .transpose()?;
            let mut paths = positional.into_iter();
            let r_path = paths
                .next()
                .ok_or("join requires an input file".to_string())?;
            Ok(Command::Join {
                kind,
                threshold,
                algorithm,
                memory_budget,
                approx: get_f64("approx")?,
                self_dedupe: flags.contains(&"self-dedupe"),
                r_path,
                s_path: paths.next(),
                out: opts.get("out").cloned(),
            })
        }
        "match" => Ok(Command::Match {
            reference: opts
                .get("reference")
                .cloned()
                .ok_or("match requires --reference".to_string())?,
            query: opts
                .get("query")
                .cloned()
                .ok_or("match requires --query".to_string())?,
            k: get_usize("k")?.unwrap_or(3),
            min_sim: get_f64("min-sim")?.unwrap_or(0.6),
        }),
        "serve" => Ok(Command::Serve {
            reference: opts
                .get("reference")
                .cloned()
                .ok_or("serve requires --reference".to_string())?,
            k: get_usize("k")?.unwrap_or(3),
            min_sim: get_f64("min-sim")?.unwrap_or(0.6),
            memory_budget: opts
                .get("memory-budget")
                .map(|v| parse_bytes(v))
                .transpose()?,
            approx: get_f64("approx")?,
        }),
        "dedup" => Ok(Command::Dedup {
            kind: parse_kind(opts.get("kind").map(String::as_str).unwrap_or("edit"))?,
            threshold: get_f64("threshold")?.ok_or("dedup requires --threshold".to_string())?,
            path: positional
                .into_iter()
                .next()
                .ok_or("dedup requires an input file".to_string())?,
        }),
        "gen" => Ok(Command::Gen {
            rows: get_usize("rows")?.ok_or("gen requires --rows".to_string())?,
            out: opts
                .get("out")
                .cloned()
                .ok_or("gen requires --out".to_string())?,
            seed: get_usize("seed")?.unwrap_or(1) as u64,
        }),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

/// The strings a table joins on: its first column, read by
/// [`read_first_column`] into one [`Rows`] buffer that every later step
/// reads.
fn first_column<P: AsRef<std::path::Path>>(path: P) -> Result<Rows, String> {
    read_first_column(&path).map_err(|e| format!("cannot read {}: {e}", path.as_ref().display()))
}

/// The `match`/`serve` lookup configuration, its errors named by the option
/// at fault.
fn topk_config(k: usize, min_sim: f64) -> Result<TopKConfig, String> {
    let option = if k == 0 { "--k" } else { "--min-sim" };
    TopKConfig::new(k, min_sim).map_err(|e| format!("{option}: {e}"))
}

/// True when a spilled run's heaviest partition was planned above the
/// resident budget (the planner's best effort could not fit it).
fn over_budget(exec: &ExecContext, stats: &SsJoinStats) -> bool {
    exec.budget
        .max_resident_bytes
        .is_some_and(|budget| stats.spill_peak_resident_bytes > budget)
}

/// The `plan:` line of a join: the executor that ran, the filter and
/// effective worker count it ran with, its spill partitions (if it ran out
/// of core, with its peak and budget when the peak missed the budget) and
/// its recall target (if approximate).
fn plan_line(algorithm: Algorithm, exec: &ExecContext, stats: &SsJoinStats) -> String {
    let filter = if exec.bitmap_filter { "bitmap" } else { "off" };
    let mut line = format!("{algorithm:?}/{filter}/{}t", stats.effective_threads);
    if stats.spill_partitions > 0 {
        line.push_str(&format!(" spill={}p", stats.spill_partitions));
    }
    if over_budget(exec, stats) {
        line.push_str(&format!(
            " over-budget peak={} budget={}",
            stats.spill_peak_resident_bytes,
            exec.budget.max_resident_bytes.unwrap_or(0)
        ));
    }
    if let Some(spec) = exec.approx.filter(ApproxSpec::is_active) {
        line.push_str(&format!(" approx={:.2}", spec.target_recall));
    }
    line
}

/// The execution context of `join` and `dedup`: the library default (bitmap
/// filter on) on one worker per core the host reports.
fn join_exec(memory_budget: Option<u64>, approx: Option<f64>) -> ExecContext {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut exec = ExecContext::new().with_threads(threads);
    exec.budget.max_resident_bytes = memory_budget;
    exec.approx = approx.map(ApproxSpec::new);
    exec
}

fn run_join(
    kind: JoinKind,
    threshold: f64,
    algorithm: Algorithm,
    exec: ExecContext,
    r: &(impl AsRows + ?Sized),
    s: &(impl AsRows + ?Sized),
) -> Result<SimilarityJoinOutput, String> {
    let out = match kind {
        JoinKind::Edit => edit_similarity_join(
            r,
            s,
            &EditJoinConfig::new(threshold)
                .with_algorithm(algorithm)
                .with_exec(exec),
        ),
        JoinKind::Jaccard => jaccard_join(
            r,
            s,
            &JaccardConfig::resemblance(threshold)
                .with_algorithm(algorithm)
                .with_exec(exec),
        ),
        JoinKind::Cosine => cosine_join(
            r,
            s,
            &CosineConfig::new(threshold)
                .with_algorithm(algorithm)
                .with_exec(exec),
        ),
        JoinKind::Ges => ges_join(
            r,
            s,
            &GesJoinConfig::new(threshold)
                .with_algorithm(algorithm)
                .with_exec(exec),
        ),
    };
    out.map_err(|e| e.to_string())
}

/// Pairs per block [`write_pairs`] formats on one worker.
const WRITE_BLOCK: usize = 4096;

/// Stream join output rows `r  s  similarity  r_text  s_text` to `w`, the
/// text fields escaped by [`write_field`] straight from `r` and `s`. With
/// `dedupe`, only pairs with `r < s` are written. Returns the rows written.
///
/// Blocks of [`WRITE_BLOCK`] pairs are formatted on `threads` workers,
/// worker `k` taking blocks `k`, `k + threads`, …; each worker holds at most
/// one formatted block until the writer takes it, and blocks are written in
/// order, so the bytes are the same at any worker count and memory stays
/// bounded.
fn write_pairs<W: Write>(
    mut w: W,
    pairs: &[MatchPair],
    r: &(impl AsRows + ?Sized),
    s: &(impl AsRows + ?Sized),
    dedupe: bool,
    threads: usize,
) -> std::io::Result<usize> {
    let (r, s) = (r.as_rows(), s.as_rows());
    let format = |block: &[MatchPair], buf: &mut Vec<u8>| -> std::io::Result<usize> {
        let mut rows = 0;
        for p in block.iter().filter(|p| !dedupe || p.r < p.s) {
            write!(buf, "{}\t{}\t{:.6}\t", p.r, p.s, p.similarity)?;
            write_field(buf, r.get(p.r as usize))?;
            buf.push(b'\t');
            write_field(buf, s.get(p.s as usize))?;
            buf.push(b'\n');
            rows += 1;
        }
        Ok(rows)
    };
    let blocks = pairs.chunks(WRITE_BLOCK);
    let threads = threads.clamp(1, blocks.len().max(1));
    let mut rows = 0;
    std::thread::scope(|scope| -> std::io::Result<()> {
        let format = &format;
        let inboxes: Vec<_> = (0..threads)
            .map(|k| {
                let (tx, rx) = std::sync::mpsc::sync_channel(1);
                let mine = pairs.chunks(WRITE_BLOCK).skip(k).step_by(threads);
                scope.spawn(move || {
                    for block in mine {
                        let mut buf = Vec::new();
                        let formatted = format(block, &mut buf).map(|n| (n, buf));
                        // A closed inbox means the writer stopped early.
                        if tx.send(formatted).is_err() {
                            return;
                        }
                    }
                });
                rx
            })
            .collect();
        for k in (0..blocks.len()).map(|b| b % threads) {
            let (n, buf) = inboxes[k]
                .recv()
                .map_err(|_| std::io::Error::other("an output worker stopped"))??;
            w.write_all(&buf)?;
            rows += n;
        }
        Ok(())
    })?;
    w.flush()?;
    Ok(rows)
}

/// Stream dedup output rows `group  member  text` to `w`, the text escaped
/// by [`write_field`] as in [`write_pairs`].
fn write_groups<W: Write>(mut w: W, groups: &[Vec<u32>], data: &Rows) -> std::io::Result<()> {
    for (gi, group) in groups.iter().enumerate() {
        for &member in group {
            write!(w, "{gi}\t{member}\t")?;
            write_field(&mut w, &data[member as usize])?;
            w.write_all(b"\n")?;
        }
    }
    w.flush()
}

/// Serve-mode request loop: build the [`TopKIndex`] once over `reference`,
/// which it takes over (so each reference text is held once), then answer one tab-separated request per input line until EOF. Request
/// failures are reported as `err` response lines; only I/O failures and a
/// bad initial configuration abort the loop.
fn run_serve<R: BufRead, W: Write>(
    reference: Rows,
    config: TopKConfig,
    input: R,
    mut out: W,
) -> Result<(), String> {
    let approx = config.approx;
    let mut index = TopKIndex::from_rows(reference, config).map_err(|e| e.to_string())?;
    let io_err = |e: std::io::Error| e.to_string();

    for line in input.lines() {
        let line = line.map_err(io_err)?;
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            continue;
        }
        let (verb, arg) = line.split_once('\t').unwrap_or((line, ""));
        let outcome: Result<(), String> = match verb {
            "match" => index.top_k(arg).map_err(|e| e.to_string()).and_then(|ms| {
                for m in &ms {
                    writeln!(
                        out,
                        "m\t{}\t{:.6}\t{}",
                        m.index,
                        m.similarity,
                        index.reference_text(m.index).unwrap_or("")
                    )
                    .map_err(io_err)?;
                }
                writeln!(out, "ok\t{}", ms.len()).map_err(io_err)
            }),
            "dedup" => arg
                .parse::<f64>()
                .map_err(|e| format!("dedup threshold: {e}"))
                .and_then(|theta| index.self_pairs(theta).map_err(|e| e.to_string()))
                .and_then(|pairs| {
                    let groups = cluster_pairs(index.len(), &pairs);
                    for (gi, group) in groups.iter().enumerate() {
                        for &member in group {
                            writeln!(
                                out,
                                "g\t{gi}\t{member}\t{}",
                                index.reference_text(member).unwrap_or("")
                            )
                            .map_err(io_err)?;
                        }
                    }
                    writeln!(out, "ok\t{}", groups.len()).map_err(io_err)
                }),
            "add" => index
                .insert(arg)
                .map_err(|e| e.to_string())
                .and_then(|id| writeln!(out, "ok\t{id}").map_err(io_err)),
            "del" => arg
                .parse::<u32>()
                .map_err(|e| format!("del id: {e}"))
                .and_then(|id| index.delete(id).map_err(|e| e.to_string()).map(|()| id))
                .and_then(|id| writeln!(out, "ok\t{id}").map_err(io_err)),
            // Per-batch execution stats of the most recent probe — under a
            // memory budget this is where spill partitions/bytes surface.
            "stats" => match approx.filter(|&recall| recall < 1.0) {
                Some(recall) => writeln!(out, "ok\t{} approx={recall:.2}", index.last_stats()),
                None => writeln!(out, "ok\t{}", index.last_stats()),
            }
            .map_err(io_err),
            other => Err(format!("unknown request {other:?}")),
        };
        if let Err(msg) = outcome {
            writeln!(out, "err\t{}", msg.replace(['\t', '\n'], " ")).map_err(io_err)?;
        }
        out.flush().map_err(io_err)?;
    }
    Ok(())
}

fn execute(cmd: Command) -> Result<(), String> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Join {
            kind,
            threshold,
            algorithm,
            memory_budget,
            approx,
            self_dedupe,
            r_path,
            s_path,
            out,
        } => {
            let r = first_column(&r_path)?;
            let s_table = s_path.as_ref().map(first_column).transpose()?;
            // One file is a self-join: the same rows on both sides, so the
            // join tokenizes, builds and spills it once.
            let s = s_table.as_ref().unwrap_or(&r);
            let exec = join_exec(memory_budget, approx);
            let threads = exec.threads;
            let output = run_join(kind, threshold, algorithm, exec.clone(), &r, s)?;
            // The configuration a spilled or approximate run used goes to
            // stderr so piped TSV output stays clean.
            if output.stats.spill_partitions > 0 || exec.approx.is_some_and(|a| a.is_active()) {
                eprintln!("plan: {}", plan_line(algorithm, &exec, &output.stats));
            }
            let dedupe = self_dedupe && s_table.is_none();
            match out {
                Some(path) => {
                    let file = std::fs::File::create(&path);
                    let rows = file
                        .and_then(|f| {
                            write_pairs(BufWriter::new(f), &output.pairs, &r, s, dedupe, threads)
                        })
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    eprintln!("{rows} pairs written to {path}");
                }
                None => {
                    let stdout = BufWriter::new(std::io::stdout().lock());
                    write_pairs(stdout, &output.pairs, &r, s, dedupe, threads)
                        .map_err(|e| format!("cannot write the output: {e}"))?;
                }
            }
            Ok(())
        }
        Command::Match {
            reference,
            query,
            k,
            min_sim,
        } => {
            let config = topk_config(k, min_sim)?;
            let refs = first_column(&reference)?;
            let matches = top_k_matches(&query, &refs, &config).map_err(|e| e.to_string())?;
            for m in matches {
                println!(
                    "{:.6}\t{}\t{}",
                    m.similarity,
                    m.index,
                    refs.get(m.index as usize)
                );
            }
            Ok(())
        }
        Command::Serve {
            reference,
            k,
            min_sim,
            memory_budget,
            approx,
        } => {
            let mut config = topk_config(k, min_sim)?;
            config.memory_budget = memory_budget;
            config.approx = approx;
            let refs = first_column(&reference)?;
            eprintln!("serving {} reference rows (EOF to stop)", refs.len());
            let (stdin, stdout) = (std::io::stdin(), std::io::stdout());
            run_serve(refs, config, stdin.lock(), stdout.lock())
        }
        Command::Dedup {
            kind,
            threshold,
            path,
        } => {
            let data = first_column(&path)?;
            let pairs = run_join(
                kind,
                threshold,
                Algorithm::Inline,
                join_exec(None, None),
                &data,
                &data,
            )?
            .pairs;
            let groups = cluster_pairs(data.len(), &pairs);
            let stdout = BufWriter::new(std::io::stdout().lock());
            write_groups(stdout, &groups, &data)
                .map_err(|e| format!("cannot write the output: {e}"))?;
            eprintln!("{} duplicate groups", groups.len());
            Ok(())
        }
        Command::Gen { rows, out, seed } => {
            let corpus =
                AddressCorpus::generate(&AddressCorpusConfig::paper_like(rows).with_seed(seed));
            let rows_out: Vec<Vec<String>> = corpus
                .records
                .iter()
                .zip(&corpus.cluster)
                .map(|(rec, &c)| vec![rec.clone(), c.to_string()])
                .collect();
            write_tsv(&out, &rows_out).map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!("{rows} addresses written to {out}");
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(execute) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssjoin::datagen::read_tsv;

    /// Output bytes equal at every worker count, across block boundaries,
    /// with and without `dedupe`; a failing sink stops the workers and
    /// returns its error.
    #[test]
    fn write_pairs_is_the_same_at_every_worker_count() {
        let texts: Vec<String> = (0..50)
            .map(|i| format!("row {i}\twith tab, back\\slash, caf\u{e9}"))
            .collect();
        let pairs: Vec<MatchPair> = (0..3 * WRITE_BLOCK as u32 + 17)
            .map(|i| MatchPair {
                r: i % 50,
                s: (i * 7) % 50,
                similarity: f64::from(i) / 1e4,
            })
            .collect();
        for dedupe in [false, true] {
            let write = |threads| {
                let mut out = Vec::new();
                let rows = write_pairs(&mut out, &pairs, &texts, &texts, dedupe, threads).unwrap();
                (rows, out)
            };
            let mut expected = Vec::new();
            for p in pairs.iter().filter(|p| !dedupe || p.r < p.s) {
                write!(expected, "{}\t{}\t{:.6}\t", p.r, p.s, p.similarity).unwrap();
                write_field(&mut expected, &texts[p.r as usize]).unwrap();
                expected.push(b'\t');
                write_field(&mut expected, &texts[p.s as usize]).unwrap();
                expected.push(b'\n');
            }
            let one = write(1);
            assert_eq!(one.0, expected.iter().filter(|&&b| b == b'\n').count());
            assert!(one.1 == expected, "1 worker, dedupe {dedupe}");
            for threads in [2, 3, 8] {
                assert!(write(threads) == one, "{threads} workers, dedupe {dedupe}");
            }
        }
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        for threads in [1, 2, 8] {
            let err = write_pairs(Broken, &pairs, &texts, &texts, false, threads).unwrap_err();
            assert_eq!(err.to_string(), "disk full");
        }
    }

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_join() {
        let cmd = parse_args(&sv(&[
            "join",
            "--kind",
            "edit",
            "--threshold",
            "0.9",
            "--algorithm",
            "basic",
            "--self-dedupe",
            "input.tsv",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Join {
                kind: JoinKind::Edit,
                threshold: 0.9,
                algorithm: Algorithm::Basic,
                memory_budget: None,
                approx: None,
                self_dedupe: true,
                r_path: "input.tsv".into(),
                s_path: None,
                out: None,
            }
        );
    }

    #[test]
    fn parses_approx_recall() {
        let cmd = parse_args(&sv(&[
            "join",
            "--threshold",
            "0.8",
            "--approx",
            "0.9",
            "r.tsv",
        ]))
        .unwrap();
        match cmd {
            Command::Join { approx, .. } => assert_eq!(approx, Some(0.9)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_args(&sv(&[
            "join",
            "--threshold",
            "0.8",
            "--approx",
            "fast",
            "r.tsv",
        ]))
        .is_err());
        // The flag is advertised for both join and serve.
        assert_eq!(USAGE.matches("--approx RECALL").count(), 2);
    }

    #[test]
    fn parses_every_algorithm_name() {
        for (name, alg) in [
            ("basic", Algorithm::Basic),
            ("prefix", Algorithm::PrefixFiltered),
            ("inline", Algorithm::Inline),
        ] {
            let cmd = parse_args(&sv(&[
                "join",
                "--threshold",
                "0.8",
                "--algorithm",
                name,
                "r.tsv",
            ]))
            .unwrap();
            match cmd {
                Command::Join { algorithm, .. } => assert_eq!(algorithm, alg, "name {name}"),
                other => panic!("unexpected {other:?}"),
            }
        }
        let err = parse_args(&sv(&[
            "join",
            "--threshold",
            "0.8",
            "--algorithm",
            "bogus",
            "r.tsv",
        ]))
        .unwrap_err();
        assert!(err.contains("unknown algorithm"), "got {err}");
        // Exactly the algorithms the parser accepts are advertised in the
        // usage.
        assert!(USAGE.contains("--algorithm <basic|prefix|inline>"));
        // The removed token-sharded and positional executors' names and the
        // removed `auto` alias are unknown algorithms, and the error names
        // the valid ones.
        for removed in ["partition", "positional", "auto"] {
            let err = parse_args(&sv(&[
                "join",
                "--threshold",
                "0.8",
                "--algorithm",
                removed,
                "r.tsv",
            ]))
            .unwrap_err();
            assert!(
                err.contains(&format!("unknown algorithm {removed:?}"))
                    && err.contains("expected basic|prefix|inline)"),
                "got {err}"
            );
        }
    }

    #[test]
    fn parses_bitmap_filter() {
        // Removed: the filter is always on, so the flag is an unknown option.
        let err = parse_args(&sv(&[
            "join",
            "--threshold",
            "0.8",
            "--bitmap-filter",
            "r.tsv",
        ]))
        .unwrap_err();
        assert!(
            err.contains("unknown option --bitmap-filter for join"),
            "got {err}"
        );
        assert!(!USAGE.contains("bitmap"));
    }

    #[test]
    fn join_runs_filtered_on_every_core() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let exec = join_exec(None, None);
        assert!(exec.bitmap_filter);
        assert_eq!(exec.threads, cores);
        assert!(exec.approx.is_none());
        assert_eq!(exec.budget, ssjoin::core::ExecBudget::default());
        // The budget and approx options ride on the same context.
        let exec = join_exec(Some(64 << 10), Some(0.9));
        assert!(exec.bitmap_filter);
        assert_eq!(exec.threads, cores);
        assert_eq!(exec.budget.max_resident_bytes, Some(64 << 10));
        assert!(exec.approx.is_some());
    }

    /// A budget the planner cannot meet still runs (best effort, same
    /// rows) but says so on the plan line; a met budget adds no marker.
    #[test]
    fn plan_line_marks_a_missed_budget() {
        let rows: Vec<String> = (0..300)
            .map(|i| format!("customer {} record {} main street", i % 40, i % 23))
            .collect();
        let resident = run_join(
            JoinKind::Jaccard,
            0.8,
            Algorithm::Inline,
            join_exec(None, None),
            &rows,
            &rows,
        )
        .unwrap();
        let exec = join_exec(Some(1), None);
        let out = run_join(
            JoinKind::Jaccard,
            0.8,
            Algorithm::Inline,
            exec.clone(),
            &rows,
            &rows,
        )
        .unwrap();
        assert_eq!(out.pairs, resident.pairs, "the best-effort run lost pairs");
        let (partitions, peak) = (
            out.stats.spill_partitions,
            out.stats.spill_peak_resident_bytes,
        );
        assert!(partitions >= 2 && peak > 1, "{:?}", out.stats);
        let line = plan_line(Algorithm::Inline, &exec, &out.stats);
        assert!(
            line.ends_with(&format!(
                " spill={partitions}p over-budget peak={peak} budget=1"
            )),
            "{line}"
        );
        // The same run under a budget equal to its peak met the budget.
        let met = join_exec(Some(peak), None);
        assert!(!over_budget(&met, &out.stats));
        assert!(!plan_line(Algorithm::Inline, &met, &out.stats).contains("over-budget"));
    }

    #[test]
    fn rejects_unknown_options_by_name() {
        for (args, option) in [
            // A typo of an advertised option.
            (&["join", "--treshold", "0.9", "r.tsv"][..], "--treshold"),
            // Never supported by the CLI (it runs one worker per core).
            (
                &["join", "--threshold", "0.9", "--threads", "4", "r.tsv"][..],
                "--threads",
            ),
            // Removed: the filter is on/off, at one signature width.
            (
                &[
                    "join",
                    "--threshold",
                    "0.9",
                    "--signature-width",
                    "4",
                    "r.tsv",
                ][..],
                "--signature-width",
            ),
            // Removed: serve chooses q from --min-sim.
            (&["serve", "--reference", "r.tsv", "--q", "3"][..], "--q"),
            // Valid for another subcommand only.
            (
                &["serve", "--reference", "r.tsv", "--threshold", "0.9"][..],
                "--threshold",
            ),
            (
                &[
                    "match",
                    "--reference",
                    "r.tsv",
                    "--query",
                    "q",
                    "--bitmap-filter",
                ][..],
                "--bitmap-filter",
            ),
            (
                &["gen", "--rows", "10", "--out", "x.tsv", "--k", "3"][..],
                "--k",
            ),
            (
                &["dedup", "--threshold", "0.9", "--out", "x.tsv", "f.tsv"][..],
                "--out",
            ),
        ] {
            let err = parse_args(&sv(args)).unwrap_err();
            assert!(
                err.contains(&format!("unknown option {option} for {}", args[0])),
                "{args:?}: got {err}"
            );
            assert!(err.contains(USAGE), "{args:?}: error lacks the usage");
        }
        assert!(!USAGE.contains("--q "), "usage still advertises --q");
    }

    #[test]
    fn accepts_every_advertised_option() {
        // Every option a subcommand accepts is advertised in the usage, and
        // parses when given alongside the subcommand's required ones.
        for (cmd, required) in [
            ("join", &["--threshold", "0.8"][..]),
            ("match", &["--reference", "r.tsv", "--query", "q"][..]),
            ("serve", &["--reference", "r.tsv"][..]),
            ("dedup", &["--threshold", "0.8"][..]),
            ("gen", &["--rows", "10", "--out", "x.tsv"][..]),
        ] {
            let spec = option_spec(cmd).unwrap();
            let value = |opt: &str| match opt {
                "kind" => "jaccard",
                "algorithm" => "prefix",
                "memory-budget" => "64m",
                "approx" => "0.9",
                "out" | "reference" => "x.tsv",
                "query" => "q",
                _ => "3",
            };
            let with = |extra: &[String]| {
                let mut args = sv(&[cmd]);
                args.extend(sv(required));
                args.extend_from_slice(extra);
                args.push("f.tsv".into());
                args
            };
            for opt in spec.options {
                assert!(USAGE.contains(&format!("--{opt} ")), "usage lacks --{opt}");
                let args = with(&[format!("--{opt}"), value(opt).into()]);
                assert!(parse_args(&args).is_ok(), "{args:?}");
            }
            for flag in spec.flags {
                let advertised = format!("[--{flag}]");
                assert!(USAGE.contains(&advertised), "usage lacks {advertised}");
                let args = with(&[format!("--{flag}")]);
                assert!(parse_args(&args).is_ok(), "{args:?}");
            }
        }
        assert!(option_spec("frobnicate").is_none());
    }

    #[test]
    fn parses_the_benchmark_invocations() {
        // The end-to-end benchmark drives the CLI with exactly these.
        let join = parse_args(&sv(&[
            "join",
            "--kind",
            "edit",
            "--threshold",
            "0.85",
            "--memory-budget",
            "20971520",
            "--out",
            "o.tsv",
            "a.tsv",
        ]))
        .unwrap();
        assert!(matches!(
            join,
            Command::Join {
                memory_budget: Some(20_971_520),
                ..
            }
        ));
        let serve =
            parse_args(&sv(&["serve", "--reference", "r.tsv", "--min-sim", "0.8"])).unwrap();
        assert!(matches!(serve, Command::Serve { min_sim, .. } if min_sim == 0.8));
    }

    #[test]
    fn parses_two_table_join_with_out() {
        let cmd = parse_args(&sv(&[
            "join",
            "--threshold",
            "0.8",
            "--out",
            "pairs.tsv",
            "r.tsv",
            "s.tsv",
        ]))
        .unwrap();
        match cmd {
            Command::Join {
                kind,
                s_path,
                out,
                algorithm,
                ..
            } => {
                assert_eq!(kind, JoinKind::Jaccard); // default
                assert_eq!(algorithm, Algorithm::Inline); // default
                assert_eq!(s_path.as_deref(), Some("s.tsv"));
                assert_eq!(out.as_deref(), Some("pairs.tsv"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_match_and_defaults() {
        let cmd = parse_args(&sv(&["match", "--reference", "r.tsv", "--query", "abc"])).unwrap();
        assert_eq!(
            cmd,
            Command::Match {
                reference: "r.tsv".into(),
                query: "abc".into(),
                k: 3,
                min_sim: 0.6
            }
        );
    }

    #[test]
    fn parses_gen_and_dedup() {
        assert_eq!(
            parse_args(&sv(&["gen", "--rows", "100", "--out", "x.tsv"])).unwrap(),
            Command::Gen {
                rows: 100,
                out: "x.tsv".into(),
                seed: 1
            }
        );
        assert_eq!(
            parse_args(&sv(&["dedup", "--threshold", "0.9", "f.tsv"])).unwrap(),
            Command::Dedup {
                kind: JoinKind::Edit,
                threshold: 0.9,
                path: "f.tsv".into()
            }
        );
    }

    #[test]
    fn parses_serve_and_defaults() {
        assert_eq!(
            parse_args(&sv(&["serve", "--reference", "r.tsv"])).unwrap(),
            Command::Serve {
                reference: "r.tsv".into(),
                k: 3,
                min_sim: 0.6,
                memory_budget: None,
                approx: None,
            }
        );
        assert_eq!(
            parse_args(&sv(&[
                "serve",
                "--reference",
                "r.tsv",
                "--k",
                "5",
                "--min-sim",
                "0.8",
                "--memory-budget",
                "64m",
                "--approx",
                "0.95"
            ]))
            .unwrap(),
            Command::Serve {
                reference: "r.tsv".into(),
                k: 5,
                min_sim: 0.8,
                memory_budget: Some(64 << 20),
                approx: Some(0.95),
            }
        );
        assert!(parse_args(&sv(&["serve"])).is_err()); // missing --reference
    }

    #[test]
    fn parses_memory_budget_sizes() {
        for (arg, bytes) in [
            ("1024", 1024u64),
            ("64k", 64 << 10),
            ("64K", 64 << 10),
            ("32m", 32 << 20),
            ("2g", 2 << 30),
        ] {
            assert_eq!(parse_bytes(arg).unwrap(), bytes, "arg {arg}");
            let cmd = parse_args(&sv(&[
                "join",
                "--threshold",
                "0.8",
                "--memory-budget",
                arg,
                "r.tsv",
            ]))
            .unwrap();
            match cmd {
                Command::Join { memory_budget, .. } => assert_eq!(memory_budget, Some(bytes)),
                other => panic!("unexpected {other:?}"),
            }
        }
        for bad in ["", "x", "12q", "64mm", "99999999999999999999g"] {
            assert!(parse_bytes(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn serve_answers_batched_requests() {
        let refs: Vec<String> = [
            "microsoft corporation",
            "microsoft corp",
            "oracle incorporated",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let input = "match\tmicrosoft corp\n\
                     stats\n\
                     add\tmcrosoft corp\n\
                     match\tmcrosoft corp\n\
                     dedup\t0.8\n\
                     del\t1\n\
                     match\tmicrosoft corp\n\
                     del\tbogus\n\
                     frobnicate\tx\n";
        let mut out = Vec::new();
        let config = topk_config(3, 0.6).unwrap();
        run_serve(
            refs.iter().collect(),
            config,
            std::io::Cursor::new(input),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();

        // stats echoes the first match's probe counters.
        assert!(
            lines
                .iter()
                .any(|l| l.starts_with("ok\t") && l.contains("output=")),
            "no stats response in {lines:?}"
        );

        // match "microsoft corp": row 1 is exact.
        assert_eq!(lines[0], "m\t1\t1.000000\tmicrosoft corp");
        // add returns the next id (3 rows existed).
        assert!(lines.contains(&"ok\t3"));
        // the added row answers its own lookup exactly.
        assert!(lines.contains(&"m\t3\t1.000000\tmcrosoft corp"));
        // dedup at 0.8 groups the near-identical microsoft rows.
        assert!(lines.iter().any(|l| l.starts_with("g\t0\t1\t")));
        // after del 1, the exact row no longer answers.
        let after_del = lines
            .iter()
            .rposition(|l| *l == "ok\t1")
            .expect("del 1 acknowledged");
        assert!(lines[after_del + 1..]
            .iter()
            .all(|l| !l.ends_with("\tmicrosoft corp")));
        // failed requests answer err and the loop keeps going.
        assert_eq!(lines.iter().filter(|l| l.starts_with("err\t")).count(), 2);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_args(&sv(&["join", "input.tsv"])).is_err()); // missing threshold
        assert!(parse_args(&sv(&["join", "--threshold", "x", "f.tsv"])).is_err());
        assert!(parse_args(&sv(&["frobnicate"])).is_err());
        assert!(parse_args(&sv(&[
            "join",
            "--kind",
            "sorcery",
            "--threshold",
            "0.5",
            "f"
        ]))
        .is_err());
        assert!(parse_args(&sv(&["match", "--query", "q"])).is_err());
        assert!(parse_args(&sv(&["join", "--threshold"])).is_err()); // dangling value
    }

    #[test]
    fn empty_args_is_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&sv(&["help"])).unwrap(), Command::Help);
    }

    #[test]
    fn end_to_end_gen_join_dedup() {
        let dir = std::env::temp_dir().join("ssjoin_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("data.tsv");
        let out_path = dir.join("pairs.tsv");
        execute(Command::Gen {
            rows: 200,
            out: data_path.to_string_lossy().into_owned(),
            seed: 42,
        })
        .unwrap();
        execute(Command::Join {
            kind: JoinKind::Jaccard,
            threshold: 0.8,
            algorithm: Algorithm::Inline,
            memory_budget: None,
            approx: None,
            self_dedupe: true,
            r_path: data_path.to_string_lossy().into_owned(),
            s_path: None,
            out: Some(out_path.to_string_lossy().into_owned()),
        })
        .unwrap();
        let pairs = read_tsv(&out_path).unwrap();
        for row in &pairs {
            assert_eq!(row.len(), 5);
            let sim: f64 = row[2].parse().unwrap();
            assert!(sim >= 0.8 - 1e-9);
        }
        // The same join under a tiny memory budget spills out of core and
        // writes byte-identical pairs.
        let spilled_path = dir.join("pairs_spilled.tsv");
        execute(Command::Join {
            kind: JoinKind::Jaccard,
            threshold: 0.8,
            algorithm: Algorithm::Inline,
            memory_budget: Some(64 << 10),
            approx: None,
            self_dedupe: true,
            r_path: data_path.to_string_lossy().into_owned(),
            s_path: None,
            out: Some(spilled_path.to_string_lossy().into_owned()),
        })
        .unwrap();
        assert_eq!(
            std::fs::read(&out_path).unwrap(),
            std::fs::read(&spilled_path).unwrap(),
            "spilled CLI join diverged from the in-memory join"
        );
        // The same join with --approx 0.9 may drop pairs but never invents
        // or rescores one: every approximate row appears verbatim in the
        // exact output.
        let approx_path = dir.join("pairs_approx.tsv");
        execute(Command::Join {
            kind: JoinKind::Jaccard,
            threshold: 0.8,
            algorithm: Algorithm::Inline,
            memory_budget: None,
            approx: Some(0.9),
            self_dedupe: true,
            r_path: data_path.to_string_lossy().into_owned(),
            s_path: None,
            out: Some(approx_path.to_string_lossy().into_owned()),
        })
        .unwrap();
        let exact_rows = read_tsv(&out_path).unwrap();
        let approx_rows = read_tsv(&approx_path).unwrap();
        assert!(!approx_rows.is_empty(), "approx join found nothing");
        for row in &approx_rows {
            assert!(
                exact_rows.contains(row),
                "approx row {row:?} not in the exact output"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_approx_matches_are_exactly_scored_and_plan_surfaces() {
        let refs: Vec<String> = (0..60)
            .map(|i| format!("customer record number {i:04} main street"))
            .chain(["microsoft corporation".to_string()])
            .collect();
        let input = "match\tmicrosoft corporation\nstats\n";
        let mut out = Vec::new();
        let config = topk_config(3, 0.6).unwrap().with_approximate(0.9);
        run_serve(
            refs.iter().collect(),
            config,
            std::io::Cursor::new(input),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        // The exact self-match survives approximate candidate generation
        // (its similarity untouched), and the stats response records the
        // approximate plan.
        assert!(
            text.contains("\t1.000000\tmicrosoft corporation"),
            "missing exact match in {text:?}"
        );
        assert!(
            text.contains("approx=0.90"),
            "stats response lacks the approx plan in {text:?}"
        );
    }
}
