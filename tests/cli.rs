//! End-to-end tests of the `ssjoin` CLI binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ssjoin"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssjoin_cli_e2e_{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn gen_join_match_roundtrip() {
    let dir = temp_dir("roundtrip");
    let data = dir.join("data.tsv");
    let pairs = dir.join("pairs.tsv");

    // gen
    let out = bin()
        .args([
            "gen",
            "--rows",
            "300",
            "--out",
            data.to_str().unwrap(),
            "--seed",
            "9",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(data.exists());

    // join (self, deduped, to file)
    let out = bin()
        .args([
            "join",
            "--kind",
            "jaccard",
            "--threshold",
            "0.8",
            "--self-dedupe",
            "--out",
            pairs.to_str().unwrap(),
            data.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let pair_rows = std::fs::read_to_string(&pairs).unwrap();
    for line in pair_rows.lines() {
        let cols: Vec<&str> = line.split('\t').collect();
        assert_eq!(cols.len(), 5, "line {line:?}");
        let sim: f64 = cols[2].parse().unwrap();
        assert!(sim >= 0.8 - 1e-9);
        let (r, s): (usize, usize) = (cols[0].parse().unwrap(), cols[1].parse().unwrap());
        assert!(r < s, "self-dedupe keeps one orientation");
    }

    // match: querying an exact record must return it first with sim 1.
    let first_record = std::fs::read_to_string(&data)
        .unwrap()
        .lines()
        .next()
        .unwrap()
        .split('\t')
        .next()
        .unwrap()
        .to_string();
    let out = bin()
        .args([
            "match",
            "--reference",
            data.to_str().unwrap(),
            "--query",
            &first_record,
            "--k",
            "1",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let top = stdout.lines().next().expect("one match");
    assert!(top.starts_with("1.000000"), "top match {top:?}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A spilled or approximate `join` prints the configuration that ran on
/// stderr — `Inline`, the default, on the CLI's context (every core, the
/// bitmap filter on) — while a plain join prints none. Every run prints the
/// plain join's rows.
#[test]
fn join_plan_line_reports_what_ran() {
    let dir = temp_dir("plan_line");
    let data = dir.join("data.tsv");
    let out = bin()
        .args(["gen", "--rows", "300", "--seed", "9", "--out"])
        .arg(&data)
        .output()
        .unwrap();
    assert!(out.status.success());
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let join = |extra: &[&str]| {
        let out = bin()
            .args(["join", "--kind", "jaccard", "--threshold", "0.8"])
            .args(extra)
            .arg(&data)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (out.stdout, String::from_utf8(out.stderr).unwrap())
    };

    let (plain_rows, plain_err) = join(&[]);
    assert!(!plain_rows.is_empty(), "the join found no pairs");
    assert_eq!(plain_err, "", "a plain join prints no plan");

    // A budget the planner meets: the spill partitions, no marker.
    let (spilled_rows, spilled_err) = join(&["--memory-budget", "16k"]);
    assert_eq!(
        spilled_rows, plain_rows,
        "a spilled join prints the same rows"
    );
    let partitions: u64 = spilled_err
        .strip_prefix(&format!("plan: Inline/bitmap/{threads}t spill="))
        .and_then(|rest| rest.strip_suffix("p\n"))
        .and_then(|p| p.parse().ok())
        .unwrap_or_else(|| panic!("unexpected plan line {spilled_err:?}"));
    assert!(partitions >= 2, "{spilled_err:?}");

    // A budget no partition count can meet: the best-effort run prints the
    // same rows, and the plan line names the peak it ran at against the
    // budget.
    let (rows, err) = join(&["--memory-budget", "1k"]);
    assert_eq!(rows, plain_rows, "over-budget rows differ");
    let (partitions, peak) = err
        .strip_prefix(&format!("plan: Inline/bitmap/{threads}t spill="))
        .and_then(|rest| rest.strip_suffix(" budget=1024\n"))
        .and_then(|rest| rest.split_once("p over-budget peak="))
        .and_then(|(p, peak)| Some((p.parse::<u64>().ok()?, peak.parse::<u64>().ok()?)))
        .unwrap_or_else(|| panic!("unexpected plan line {err:?}"));
    assert!(partitions >= 2 && peak > 1024, "{err:?}");

    // The seeded sketch finds every pair of this small corpus.
    let (approx_rows, approx_err) = join(&["--approx", "0.9"]);
    assert_eq!(approx_rows, plain_rows, "approximate rows differ");
    assert_eq!(
        approx_err,
        format!("plan: Inline/bitmap/{threads}t approx=0.90\n")
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A spilled join builds its partitions from the resident inputs and writes
/// no temp file: with `TMPDIR` naming a directory that does not exist, the
/// one-file join under a budget still spills and writes the unbudgeted
/// join's bytes.
#[test]
fn spilled_join_needs_no_temp_dir() {
    let dir = temp_dir("spill_no_tmpdir");
    let data = dir.join("data.tsv");
    let missing = dir.join("missing");
    assert!(!missing.exists());
    let out = bin()
        .args(["gen", "--rows", "300", "--seed", "9", "--out"])
        .arg(&data)
        .output()
        .unwrap();
    assert!(out.status.success());
    let join = |name: &str, extra: &[&str]| {
        let rows = dir.join(name);
        let out = bin()
            .env("TMPDIR", &missing)
            .args(["join", "--kind", "jaccard", "--threshold", "0.8"])
            .args(extra)
            .arg("--out")
            .arg(&rows)
            .arg(&data)
            .output()
            .unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(out.status.success(), "{extra:?}: {err}");
        (std::fs::read(&rows).unwrap(), err)
    };
    let (plain, _) = join("plain.tsv", &[]);
    let (spilled, err) = join("spilled.tsv", &["--memory-budget", "16k"]);
    assert!(
        err.starts_with("plan: ") && err.contains(" spill="),
        "{err:?}"
    );
    assert!(!plain.is_empty(), "the join found no pairs");
    assert_eq!(spilled, plain, "a spilled join writes the same bytes");
    std::fs::remove_dir_all(&dir).ok();
}

/// Join output goes through one escaping writer, to a file or to stdout: a
/// field holding a tab, a newline or a backslash (read from its escaped TSV
/// form) comes out escaped on stdout exactly as in the `--out` file.
#[test]
fn join_stdout_escapes_like_the_out_file() {
    let dir = temp_dir("stdout_escapes");
    let data = dir.join("data.tsv");
    let file_out = dir.join("pairs.tsv");
    // Three near-identical rows whose first field holds `\t`, `\n` and `\\`
    // escapes, plus one plain row.
    std::fs::write(
        &data,
        "100 main\\tst\\nseattle \\\\ wa\t1\n\
         100 main\\tst\\nseattle \\\\ wa\t2\n\
         100 main\\tst\\nseattle \\\\ wa usa\t3\n\
         7 oak ave portland\t4\n",
    )
    .unwrap();
    let rows = ssjoin::datagen::read_tsv(&data).unwrap();
    assert_eq!(rows[0][0], "100 main\tst\nseattle \\ wa");
    for extra in [&[][..], &["--self-dedupe"][..]] {
        let join = |out: Option<&std::path::Path>| {
            let mut cmd = bin();
            cmd.args(["join", "--kind", "jaccard", "--threshold", "0.5"])
                .args(extra);
            if let Some(path) = out {
                cmd.arg("--out").arg(path);
            }
            let out = cmd.arg(&data).output().unwrap();
            assert!(
                out.status.success(),
                "{extra:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            out.stdout
        };
        let stdout = join(None);
        assert!(join(Some(&file_out)).is_empty(), "--out wrote to stdout");
        let file = std::fs::read(&file_out).unwrap();
        assert_eq!(stdout, file, "{extra:?}: stdout differs from --out");
        let pairs = ssjoin::datagen::read_tsv(&file_out).unwrap();
        assert!(pairs.len() >= 3, "{extra:?}: {pairs:?}");
        for row in &pairs {
            assert_eq!(row.len(), 5, "{extra:?}: malformed row {row:?}");
            let (r, s): (usize, usize) = (row[0].parse().unwrap(), row[1].parse().unwrap());
            assert_eq!(row[3], rows[r][0]);
            assert_eq!(row[4], rows[s][0]);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dedup_prints_groups() {
    let dir = temp_dir("dedup");
    let data = dir.join("dups.tsv");
    std::fs::write(
        &data,
        "100 Main Street Springfield\n100 Main Stret Springfield\nunrelated record entirely\n",
    )
    .unwrap();
    let out = bin()
        .args(["dedup", "--threshold", "0.85", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // One group with members 0 and 1.
    assert!(stdout.contains("0\t0\t100 Main Street Springfield"));
    assert!(stdout.contains("0\t1\t100 Main Stret Springfield"));
    assert!(!stdout.contains("unrelated record entirely"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dedup_escapes_fields_like_join() {
    let dir = temp_dir("dedup_escapes");
    let data = dir.join("dups.tsv");
    let printed = dir.join("groups.tsv");
    // Two identical rows whose first field holds `\t`, `\n` and `\\`
    // escapes, plus one unrelated row.
    std::fs::write(
        &data,
        "12 main st\\tapt 4\\nseattle \\\\ wa\t1\n\
         12 main st\\tapt 4\\nseattle \\\\ wa\t2\n\
         unrelated record entirely\t3\n",
    )
    .unwrap();
    let rows = ssjoin::datagen::read_tsv(&data).unwrap();
    assert_eq!(rows[0][0], "12 main st\tapt 4\nseattle \\ wa");
    let out = bin()
        .args(["dedup", "--threshold", "0.85", data.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::write(&printed, &out.stdout).unwrap();
    let groups = ssjoin::datagen::read_tsv(&printed).unwrap();
    for row in &groups {
        assert_eq!(row.len(), 3, "malformed row {row:?}");
        let member: usize = row[1].parse().unwrap();
        assert_eq!(row[2], rows[member][0]);
    }
    let members: Vec<&str> = groups.iter().map(|row| row[1].as_str()).collect();
    assert_eq!(members, ["0", "1"], "{groups:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_input_file_reports_error() {
    let out = bin()
        .args(["join", "--threshold", "0.8", "/definitely/not/here.tsv"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

/// Out-of-range or unknown option values exit 1 with an error naming the
/// option or the accepted values — never a panic (exit 101).
#[test]
fn invalid_options_are_errors_not_panics() {
    let dir = temp_dir("invalid_options");
    let data = dir.join("data.tsv");
    std::fs::write(&data, "100 Main Street\n100 Main Stret\n").unwrap();
    let path = data.to_str().unwrap();
    let mut rows: Vec<(Vec<&str>, &str)> = Vec::new();
    for kind in ["jaccard", "edit"] {
        for t in ["0", "1.5", "nan"] {
            rows.push((
                vec!["join", "--kind", kind, "--threshold", t, path],
                "threshold",
            ));
        }
    }
    rows.push((vec!["dedup", "--threshold", "0", path], "threshold"));
    for m in ["0", "1.5"] {
        rows.push((
            vec!["match", "--reference", path, "--query", "x", "--min-sim", m],
            "--min-sim",
        ));
    }
    rows.push((
        vec!["match", "--reference", path, "--query", "x", "--k", "0"],
        "--k",
    ));
    rows.push((
        vec!["join", "--threshold", "0.8", "--algorithm", "auto", path],
        "expected basic|prefix|inline",
    ));
    // Removed: serve chooses q from --min-sim.
    rows.push((
        vec!["serve", "--reference", path, "--q", "3"],
        "unknown option --q for serve",
    ));
    for (args, option) in rows {
        let out = bin().args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(option), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `match` prints exactly the brute-force ranking: every reference with
/// edit similarity ≥ `--min-sim`, by similarity descending then row index
/// ascending, cut to `--k`.
#[test]
fn match_equals_brute_force_ranking() {
    let dir = temp_dir("match_parity");
    let data = dir.join("data.tsv");
    let path = data.to_str().unwrap();
    let out = bin()
        .args(["gen", "--rows", "300", "--out", path, "--seed", "11"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let refs: Vec<String> = ssjoin::datagen::read_tsv(&data)
        .unwrap()
        .into_iter()
        .map(|mut row| row.remove(0))
        .collect();
    // Rows verbatim and with one character dropped.
    let mut queries: Vec<String> = [0, 17, 150, 299].map(|i| refs[i].clone()).to_vec();
    queries.extend([3, 42, 201].map(|i| {
        let mut q = refs[i].clone();
        q.remove(q.len() / 2);
        q
    }));
    for min_sim in [0.6, 0.8, 0.9] {
        for k in [1, 3, 10] {
            for query in &queries {
                let mut ranked: Vec<(f64, usize)> = refs
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (ssjoin::sim::edit_similarity(query, r), i))
                    .filter(|&(sim, _)| sim >= min_sim)
                    .collect();
                ranked.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                let expect: String = ranked
                    .iter()
                    .take(k)
                    .map(|&(sim, i)| format!("{sim:.6}\t{i}\t{}\n", refs[i]))
                    .collect();
                let (m, kk) = (min_sim.to_string(), k.to_string());
                let out = bin()
                    .args(["match", "--reference", path, "--query", query])
                    .args(["--k", &kk, "--min-sim", &m])
                    .output()
                    .unwrap();
                assert!(out.status.success());
                assert_eq!(
                    String::from_utf8_lossy(&out.stdout),
                    expect,
                    "query {query:?} min-sim {min_sim} k {k}"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The rows of `ssjoin gen --rows {rows} --seed {seed}`, column 0.
fn gen_rows(dir: &std::path::Path, rows: usize, seed: u64) -> (PathBuf, Vec<String>) {
    let data = dir.join("data.tsv");
    let (rows, seed) = (rows.to_string(), seed.to_string());
    let out = bin()
        .args(["gen", "--rows", &rows, "--out", data.to_str().unwrap()])
        .args(["--seed", &seed])
        .output()
        .unwrap();
    assert!(out.status.success());
    let refs = ssjoin::datagen::read_first_column(&data).unwrap();
    (data, refs.iter().map(str::to_owned).collect())
}

/// `serve` answers `match` requests from its persistent index exactly as
/// the one-shot `match` subcommand does — similarity, row index and text —
/// at low floors too, where both take a q-gram length below 3 from
/// `--min-sim`.
#[test]
fn serve_matches_equal_match_rows_at_low_min_sim() {
    use std::io::Write;
    let dir = temp_dir("serve_vs_match");
    let (data, refs) = gen_rows(&dir, 2000, 5);
    let path = data.to_str().unwrap();
    // Rows verbatim and with one character dropped.
    let queries: Vec<String> = (0..20)
        .map(|i| {
            let mut q = refs[i * 97 + 3].clone();
            if i % 2 == 1 {
                q.remove(q.len() / 2);
            }
            q
        })
        .collect();
    for min_sim in ["0.6", "0.7"] {
        let mut child = bin()
            .args(["serve", "--reference", path, "--min-sim", min_sim])
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap();
        let requests: String = queries.iter().map(|q| format!("match\t{q}\n")).collect();
        child
            .stdin
            .take()
            .unwrap()
            .write_all(requests.as_bytes())
            .unwrap();
        let served = child.wait_with_output().unwrap();
        assert!(served.status.success(), "serve at {min_sim}");
        let served: String = String::from_utf8(served.stdout)
            .unwrap()
            .lines()
            .filter_map(|l| l.strip_prefix("m\t"))
            .map(|l| {
                let f: Vec<&str> = l.splitn(3, '\t').collect();
                format!("{}\t{}\t{}\n", f[1], f[0], f[2])
            })
            .collect();
        let mut matched = String::new();
        for query in &queries {
            let out = bin()
                .args(["match", "--reference", path, "--query", query])
                .args(["--min-sim", min_sim])
                .output()
                .unwrap();
            assert!(out.status.success(), "match {query:?} at {min_sim}");
            matched.push_str(&String::from_utf8(out.stdout).unwrap());
        }
        assert!(matched.lines().count() >= queries.len(), "{matched}");
        assert_eq!(served, matched, "min-sim {min_sim}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// An approximate `serve` answers `dedup` after an `add`: the inserted rows
/// postdate the LSH sketch, so their self-probes descend the trees instead
/// of reading sketch entries they do not have (this used to panic with an
/// index out of bounds).
#[test]
fn approximate_serve_dedups_after_an_add() {
    use std::io::Write;
    let dir = temp_dir("serve_approx_add_dedup");
    let (data, refs) = gen_rows(&dir, 300, 3);
    let mut child = bin()
        .args(["serve", "--reference", data.to_str().unwrap()])
        .args(["--k", "3", "--min-sim", "0.6", "--approx", "0.9"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let requests = format!("add\t999 New Row St\nadd\t{}\ndedup\t0.8\n", refs[0]);
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(requests.as_bytes()).unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(out.status.success(), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[..2], ["ok\t300", "ok\t301"], "{stdout}");
    // The copy of row 0 joins row 0's group (the epoch tail is joined
    // exactly), and the reply ends in ok.
    let copy = format!("\t301\t{}", refs[0]);
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("g\t") && l.ends_with(&copy)),
        "{stdout}"
    );
    assert!(
        lines.last().is_some_and(|l| l.starts_with("ok\t")),
        "{stdout}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
