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
fn missing_input_file_reports_error() {
    let out = bin()
        .args(["join", "--threshold", "0.8", "/definitely/not/here.tsv"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

/// Out-of-range options exit 1 with an error naming the option — never a
/// panic (exit 101).
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
