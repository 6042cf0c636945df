//! Batch workloads: `ssjoin join` over a generated TSV file, timed from
//! outside, checked against brute force, and replayed in-process layer by
//! layer when traced.

use crate::process::{run_timed, Program, Timed};
use crate::report::{Checks, RunResult};
use crate::stats::{median, pair_digest, SplitMix64, Summary};
use ssjoin_core::{
    ssjoin, Algorithm, BuiltInput, ElementOrder, ExecBudget, ExecContext, NormExpr, NormKind,
    OverlapPredicate, Phase, RelationHandle, SetCollection, SsJoinConfig, SsJoinInputBuilder,
    SsJoinStats, Weight, WeightScheme,
};
use ssjoin_datagen::{read_tsv, write_tsv, AddressCorpus, AddressCorpusConfig};
use ssjoin_sim::{edit_similarity, edit_similarity_at_least};
use ssjoin_text::{QGramTokenizer, Tokenizer, WordTokenizer};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

/// Times the input is generated and written to measure set-up.
const SETUP_REPS: usize = 5;
/// Fewest timed joins in an untraced run: the repeat-digest check needs two.
const MIN_REPS: usize = 2;
/// Rows whose join partners are recomputed by brute force in every run.
const PROBE_ROWS: usize = 64;
/// Pairs whose Jaccard similarity lies this close to the threshold are left
/// out of the brute-force comparison: float rounding may put them either way.
const JACCARD_TIE: f64 = 1e-9;
/// q-gram length of the edit join and of `serve` (the CLI's fixed choice
/// and its default `--q`).
pub const Q: usize = 3;

/// One batch join, as the CLI is asked to run it.
#[derive(Debug, Clone, Copy)]
pub struct JoinSpec {
    pub rows: usize,
    /// Edit similarity on q-grams; otherwise IDF-weighted Jaccard resemblance
    /// on words.
    pub edit: bool,
    pub threshold: f64,
    /// `--memory-budget` in bytes.
    pub memory_budget: Option<u64>,
    /// Timed joins of an untraced run at `--seconds` [`crate::RUN_SECONDS`];
    /// other run lengths scale it, down to [`MIN_REPS`].
    pub reps: usize,
}

impl JoinSpec {
    fn cli_args(&self, input: &Path, out: &Path) -> Vec<String> {
        let mut args = vec![
            "join".to_string(),
            "--kind".into(),
            if self.edit { "edit" } else { "jaccard" }.into(),
            "--threshold".into(),
            self.threshold.to_string(),
        ];
        if let Some(bytes) = self.memory_budget {
            args.extend(["--memory-budget".into(), bytes.to_string()]);
        }
        args.extend([
            "--out".into(),
            out.display().to_string(),
            input.display().to_string(),
        ]);
        args
    }

    fn exec(&self) -> ExecContext {
        match self.memory_budget {
            Some(bytes) => {
                ExecContext::new().with_budget(ExecBudget::new().with_max_resident_bytes(bytes))
            }
            None => ExecContext::new(),
        }
    }
}

/// The generated input: the corpus strings and the TSV `ssjoin gen` writes
/// for them.
pub struct Input {
    pub rows: Vec<String>,
    pub tsv_bytes: u64,
}

/// Generate the corpus for `seed` and write it to `path` in `ssjoin gen`'s
/// format (address, cluster id).
pub fn write_input(rows: usize, seed: u64, path: &Path) -> std::io::Result<Input> {
    let corpus = AddressCorpus::generate(&AddressCorpusConfig::paper_like(rows).with_seed(seed));
    let table: Vec<Vec<String>> = corpus
        .records
        .iter()
        .zip(&corpus.cluster)
        .map(|(rec, c)| vec![rec.clone(), c.to_string()])
        .collect();
    write_tsv(path, &table)?;
    Ok(Input {
        rows: corpus.records,
        tsv_bytes: std::fs::metadata(path)?.len(),
    })
}

/// Run one batch workload for `seed`: set-up, the timed joins, the
/// correctness checks, and with `trace` the in-process replay.
pub fn run(spec: &JoinSpec, prog: &Program, seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut run = RunResult::default();
    let input_path = prog.path("input.tsv");

    // Set-up: generating the input file, several times; every pass must
    // write the same bytes.
    let mut setup = Vec::new();
    let mut input: Option<(Input, Vec<u8>)> = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let written = write_input(spec.rows, seed, &input_path);
        setup.push(start.elapsed().as_secs_f64());
        let written = written.and_then(|i| Ok((i, std::fs::read(&input_path)?)));
        match (written, &input) {
            (Err(e), _) => {
                run.checks
                    .check(false, || format!("cannot write the input: {e}"));
                return run;
            }
            (Ok((_, bytes)), Some((_, first))) => {
                run.checks.check(bytes == *first, || {
                    "the generator wrote a different input for the same seed".into()
                });
            }
            (Ok(fresh), None) => input = Some(fresh),
        }
    }
    let (input, _) = input.expect("SETUP_REPS is at least 1");

    // Timed joins. The first output is kept for the checks; every later one
    // must hold the same pairs. A traced run needs only the CLI's output.
    let reps = if trace {
        1
    } else {
        crate::scaled(spec.reps, seconds).max(MIN_REPS)
    };
    let out_path = prog.path("out.tsv");
    let args = spec.cli_args(&input_path, &out_path);
    let (mut walls, mut rss) = (Vec::new(), Vec::new());
    let mut first: Option<(Vec<u8>, u64)> = None;
    for _ in 0..reps {
        let Some(t) = launch(prog, &args, &mut run.checks) else {
            continue;
        };
        walls.push(t.wall_s);
        rss.push(t.peak_rss_mb);
        let Ok(bytes) = std::fs::read(&out_path) else {
            run.checks.check(false, || "join wrote no output".into());
            continue;
        };
        let digest = pair_digest(&mut output_pairs(&bytes).collect::<Vec<_>>());
        match &first {
            None => first = Some((bytes, digest)),
            Some((_, d0)) => {
                run.checks.check(digest == *d0, || {
                    "join output differs between repetitions".into()
                });
            }
        }
    }
    let _ = std::fs::remove_file(&out_path);
    if !trace {
        run.checks.check(walls.len() >= MIN_REPS, || {
            format!(
                "{} of {reps} joins succeeded; the repeat check needs {MIN_REPS}",
                walls.len()
            )
        });
    }

    if let Some(s) = Summary::median_of(&setup) {
        run.set("setup_s", s);
    }
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    if let (Some(lat), Some(mem)) = (Summary::median_of(&ms), Summary::median_of(&rss)) {
        run.set("latency_p50_ms", lat);
        run.set("peak_rss_mb", mem);
    }
    let Some((cli_out, _)) = first else {
        return run;
    };
    let same_as_cli = |path: &Path| std::fs::read(path).is_ok_and(|b| b == cli_out);

    if spec.memory_budget.is_some() {
        // The spilled join must write exactly what the in-memory join writes.
        let unbudgeted = JoinSpec {
            memory_budget: None,
            ..*spec
        };
        let ref_path = prog.path("unbudgeted.tsv");
        let ref_args = unbudgeted.cli_args(&input_path, &ref_path);
        if launch(prog, &ref_args, &mut run.checks).is_some() {
            run.checks.check(same_as_cli(&ref_path), || {
                "spilled join output is not byte-identical to the in-memory join".into()
            });
        }
        let _ = std::fs::remove_file(&ref_path);
    }

    let traced = if trace {
        let traced_path = prog.path("traced.tsv");
        let traced = traced_join(spec, &input_path, &traced_path, &mut run);
        let same = same_as_cli(&traced_path);
        let _ = std::fs::remove_file(&traced_path);
        match traced {
            Ok(t) => {
                run.checks.check(same, || {
                    "the traced replay's output differs from the CLI's".into()
                });
                let untraced = median(&walls).unwrap_or(f64::NAN);
                run.set("trace.overhead", Summary::single(t.wall_s / untraced));
                let spill_bytes = run.metrics["spill.bytes"].value;
                run.set(
                    "spill.bytes_per_input_byte",
                    Summary::single(spill_bytes / input.tsv_bytes as f64),
                );
                if spec.memory_budget.is_some() {
                    let partitions = run.metrics["spill.partitions"].value;
                    run.checks.check(partitions >= 2.0, || {
                        format!(
                            "the spill workload ran in {partitions} partition(s); it must spill"
                        )
                    });
                }
                Some(t.prepared)
            }
            Err(e) => {
                run.checks
                    .check(false, || format!("traced replay failed: {e}"));
                None
            }
        }
    } else {
        None
    };

    check_probes(spec, &input.rows, &cli_out, traced, seed, &mut run.checks);
    run
}

/// The `(r, s)` ids of each output row `r  s  similarity  r_text  s_text`;
/// unparsable rows come out as `(u32::MAX, u32::MAX)` so they never match
/// an expected pair.
fn output_pairs(out: &[u8]) -> impl Iterator<Item = (u32, u32)> + '_ {
    out.split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .map(|line| {
            let mut fields = line.split(|&b| b == b'\t').map(|f| {
                std::str::from_utf8(f)
                    .ok()
                    .and_then(|f| f.parse::<u32>().ok())
            });
            match (fields.next().flatten(), fields.next().flatten()) {
                (Some(r), Some(s)) => (r, s),
                _ => (u32::MAX, u32::MAX),
            }
        })
}

/// Run `ssjoin args…` to completion, timed; `None` (and a failed check)
/// unless it exits 0.
fn launch(prog: &Program, args: &[String], checks: &mut Checks) -> Option<Timed> {
    match run_timed(prog.command(args), &prog.path("stderr.txt")) {
        Ok(t) => {
            let ok = checks.check(t.status.success(), || {
                format!(
                    "`ssjoin {}` exited {}: {}",
                    args[0],
                    t.status,
                    t.stderr.trim()
                )
            });
            ok.then_some(t)
        }
        Err(e) => {
            checks.check(false, || format!("cannot run `ssjoin {}`: {e}", args[0]));
            None
        }
    }
}

/// The sets the CLI's join builds: the relation read from the file and its
/// copy (the CLI self-joins `R` with a clone of itself).
pub struct Prepared {
    built: BuiltInput,
    r: RelationHandle,
    s: RelationHandle,
    /// String lengths in chars (the edit join's norms); empty for Jaccard.
    r_lens: Vec<f64>,
    s_lens: Vec<f64>,
}

impl Prepared {
    fn collections(&self) -> (&SetCollection, &SetCollection) {
        (self.built.collection(self.r), self.built.collection(self.s))
    }
}

/// What the traced replay reports back beyond its per-layer metrics.
pub struct Traced {
    pub wall_s: f64,
    /// The sets it built, reused by the brute-force check.
    pub prepared: Prepared,
}

/// Wall seconds of `f`, added to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *acc += start.elapsed().as_secs_f64();
    out
}

/// Replay the CLI's join in-process, calling each layer's public functions
/// in the order `ssjoin join` reaches them (`src/bin/ssjoin.rs`, then
/// `crates/joins/src/{edit,jaccard}.rs`), and time each call: read_tsv →
/// tokenizer → `SsJoinInputBuilder::build` → `ssjoin` → similarity filter →
/// format + `write_tsv`. Writes the same TSV the CLI writes to `out`.
pub fn traced_join(
    spec: &JoinSpec,
    input: &Path,
    out: &Path,
    run: &mut RunResult,
) -> Result<Traced, String> {
    let start = Instant::now();
    let (mut read_s, mut tokenize_s, mut build_s, mut join_s, mut udf_s, mut write_s) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);

    let (r, s) = timed(&mut read_s, || -> Result<_, String> {
        let r: Vec<String> = read_tsv(input)
            .map_err(|e| e.to_string())?
            .into_iter()
            .filter_map(|row| row.into_iter().next())
            .collect();
        let s = r.clone();
        Ok((r, s))
    })?;

    let tokenized = timed(&mut tokenize_s, || tokenize(spec.edit, &r, &s));
    let tokens: usize = tokenized
        .r_groups
        .iter()
        .chain(&tokenized.s_groups)
        .map(Vec::len)
        .sum();
    let prepared =
        timed(&mut build_s, || build(spec.edit, tokenized)).map_err(|e| e.to_string())?;

    let (r_col, s_col) = prepared.collections();
    let pred = if spec.edit {
        property4(spec.threshold)
    } else {
        OverlapPredicate::two_sided(spec.threshold)
    };
    let config = SsJoinConfig {
        algorithm: Algorithm::Inline,
        exec: spec.exec(),
    };
    let joined =
        timed(&mut join_s, || ssjoin(r_col, s_col, &pred, &config)).map_err(|e| e.to_string())?;

    let (pairs, udf_calls) = timed(&mut udf_s, || {
        if spec.edit {
            edit_filter(spec.threshold, &r, &s, &prepared, &joined.pairs)
        } else {
            jaccard_filter(spec.threshold, r_col, s_col, &joined.pairs)
        }
    });

    let output_rows = pairs.len();
    timed(&mut write_s, || {
        let rows: Vec<Vec<String>> = pairs
            .iter()
            .map(|&(pr, ps, sim)| {
                vec![
                    pr.to_string(),
                    ps.to_string(),
                    format!("{sim:.6}"),
                    r[pr as usize].clone(),
                    s[ps as usize].clone(),
                ]
            })
            .collect();
        write_tsv(out, &rows)
    })
    .map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();

    let layer_s = read_s + tokenize_s + build_s + join_s + udf_s + write_s;
    for (name, v) in [
        ("cli.read_s", read_s),
        ("cli.write_s", write_s),
        ("cli.output_rows", output_rows as f64),
        ("text.tokenize_s", tokenize_s),
        ("text.tokens", tokens as f64),
        ("builder.build_s", build_s),
        ("builder.sets", (r_col.len() + s_col.len()) as f64),
        ("builder.universe", prepared.built.universe_size() as f64),
        ("exec.join_s", join_s),
        ("sim.udf_s", udf_s),
        ("sim.udf_calls", udf_calls as f64),
        ("sim.udf_pass_rate", ratio(output_rows as u64, udf_calls)),
        ("trace.wall_s", wall_s),
        ("trace.coverage", layer_s / wall_s),
    ] {
        run.set(name, Summary::single(v));
    }
    set_exec_stats(run, &joined.stats);
    Ok(Traced { wall_s, prepared })
}

/// The executor's own phase clocks and counters, as `ssjoin` returned them.
pub fn set_exec_stats(run: &mut RunResult, st: &SsJoinStats) {
    for (name, v) in [
        ("exec.prep_s", st.time(Phase::Prep).as_secs_f64()),
        (
            "exec.prefix_filter_s",
            st.time(Phase::PrefixFilter).as_secs_f64(),
        ),
        ("exec.ssjoin_s", st.time(Phase::SsJoin).as_secs_f64()),
        ("exec.filter_s", st.time(Phase::Filter).as_secs_f64()),
        ("exec.join_tuples", st.join_tuples as f64),
        ("exec.candidate_pairs", st.candidate_pairs as f64),
        ("exec.verified_pairs", st.verified_pairs as f64),
        ("exec.output_pairs", st.output_pairs as f64),
        (
            "exec.candidate_yield",
            ratio(st.output_pairs, st.candidate_pairs),
        ),
        ("prune.probes", st.bitmap_probes as f64),
        ("prune.prunes", st.bitmap_prunes as f64),
        ("prune.rate", ratio(st.bitmap_prunes, st.bitmap_probes)),
        ("kernel.merge_steps", st.merge_steps as f64),
        ("kernel.early_exits", st.early_exits as f64),
        ("kernel.gallop_probes", st.gallop_probes as f64),
        (
            "kernel.steps_per_verified",
            ratio(st.merge_steps, st.verified_pairs),
        ),
        ("spill.partitions", st.spill_partitions as f64),
        ("spill.bytes", st.spill_bytes as f64),
        (
            "spill.peak_resident_bytes",
            st.spill_peak_resident_bytes as f64,
        ),
    ] {
        run.set(name, Summary::single(v));
    }
}

/// `num / den`, 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

struct Tokenized {
    r_groups: Vec<Vec<String>>,
    s_groups: Vec<Vec<String>>,
    /// String lengths in chars (the edit join's norms); empty for Jaccard.
    r_lens: Vec<f64>,
    s_lens: Vec<f64>,
}

fn tokenize(edit: bool, r: &[String], s: &[String]) -> Tokenized {
    if edit {
        let tok = QGramTokenizer::new(Q);
        let lens = |v: &[String]| v.iter().map(|x| x.chars().count() as f64).collect();
        Tokenized {
            r_lens: lens(r),
            s_lens: lens(s),
            r_groups: r.iter().map(|x| tok.tokenize(x)).collect(),
            s_groups: s.iter().map(|x| tok.tokenize(x)).collect(),
        }
    } else {
        let tok = WordTokenizer::new().lowercased();
        Tokenized {
            r_groups: r.iter().map(|x| tok.tokenize(x)).collect(),
            s_groups: s.iter().map(|x| tok.tokenize(x)).collect(),
            r_lens: Vec::new(),
            s_lens: Vec::new(),
        }
    }
}

fn build(edit: bool, t: Tokenized) -> ssjoin_core::SsJoinResult<Prepared> {
    let (scheme, r_norm, s_norm) = if edit {
        (
            WeightScheme::Unweighted,
            Some(NormKind::Custom(t.r_lens.clone())),
            Some(NormKind::Custom(t.s_lens.clone())),
        )
    } else {
        (WeightScheme::Idf, None, None)
    };
    let mut builder = SsJoinInputBuilder::new(scheme, ElementOrder::FrequencyAsc);
    let mut add = |groups, norm: Option<NormKind>| match norm {
        Some(norm) => builder.add_relation_with_norm(groups, norm),
        None => builder.add_relation(groups),
    };
    let r = add(t.r_groups, r_norm);
    let s = add(t.s_groups, s_norm);
    Ok(Prepared {
        built: builder.build()?,
        r,
        s,
        r_lens: t.r_lens,
        s_lens: t.s_lens,
    })
}

/// Property 4 at edit-similarity threshold `alpha`:
/// `Overlap ≥ max(R.norm, S.norm)·(1 − (1−α)q) − (q − 1)`.
fn property4(alpha: f64) -> OverlapPredicate {
    OverlapPredicate::new(vec![NormExpr::Sub(
        Box::new(NormExpr::Mul(
            Box::new(NormExpr::Max(
                Box::new(NormExpr::RNorm),
                Box::new(NormExpr::SNorm),
            )),
            Box::new(NormExpr::Const(edit_coefficient(alpha))),
        )),
        Box::new(NormExpr::Const(Q as f64 - 1.0)),
    )])
}

fn edit_coefficient(alpha: f64) -> f64 {
    1.0 - (1.0 - alpha) * Q as f64
}

/// Strings shorter than this (in chars) fall outside Property 4's reach and
/// are matched by brute force; `usize::MAX` when no length is safe.
pub fn short_cutoff(alpha: f64) -> usize {
    let c = edit_coefficient(alpha);
    if c <= 0.0 {
        usize::MAX
    } else {
        (Q as f64 / c).ceil() as usize
    }
}

type Scored = Vec<(u32, u32, f64)>;

/// Verify q-gram candidates with the edit-distance UDF, then add the short
/// strings Property 4 cannot see. Returns the sorted pairs and UDF calls.
fn edit_filter(
    alpha: f64,
    r: &[String],
    s: &[String],
    prepared: &Prepared,
    candidates: &[ssjoin_core::JoinPair],
) -> (Scored, u64) {
    let mut calls = 0u64;
    let mut pairs = Vec::new();
    let mut emitted = HashSet::new();
    let mut verify = |i: u32, j: u32, pairs: &mut Scored| {
        calls += 1;
        let (a, b) = (&r[i as usize], &s[j as usize]);
        if edit_similarity_at_least(a, b, alpha) {
            pairs.push((i, j, edit_similarity(a, b)));
            true
        } else {
            false
        }
    };
    for p in candidates {
        if verify(p.r, p.s, &mut pairs) {
            emitted.insert((p.r, p.s));
        }
    }
    let cutoff = short_cutoff(alpha);
    let short = |lens: &[f64]| -> Vec<u32> {
        (0..lens.len() as u32)
            .filter(|&i| (lens[i as usize] as usize) < cutoff)
            .collect()
    };
    let short_s = short(&prepared.s_lens);
    for i in short(&prepared.r_lens) {
        for &j in &short_s {
            if !emitted.contains(&(i, j)) {
                verify(i, j, &mut pairs);
            }
        }
    }
    pairs.sort_unstable_by_key(|&(i, j, _)| (i, j));
    (pairs, calls)
}

/// Keep candidates whose weighted resemblance, computed from the overlap
/// and the two set weights, reaches `alpha`. Returns the pairs and UDF calls.
fn jaccard_filter(
    alpha: f64,
    r_col: &SetCollection,
    s_col: &SetCollection,
    candidates: &[ssjoin_core::JoinPair],
) -> (Scored, u64) {
    let pairs = candidates
        .iter()
        .filter_map(|p| {
            let sim = resemblance(
                r_col.set(p.r).total_weight(),
                s_col.set(p.s).total_weight(),
                p.overlap,
            );
            (sim >= alpha - 1e-9).then_some((p.r, p.s, sim))
        })
        .collect();
    (pairs, candidates.len() as u64)
}

fn resemblance(wr: Weight, ws: Weight, overlap: Weight) -> f64 {
    let (wr, ws, ov) = (wr.to_f64(), ws.to_f64(), overlap.to_f64());
    let union = wr + ws - ov;
    if union == 0.0 {
        1.0
    } else {
        ov / union
    }
}

/// Weighted overlap of two sets by a plain merge of their rank-sorted
/// element arrays — independent of the library's kernels.
fn plain_overlap(a: ssjoin_core::SetRef<'_>, b: ssjoin_core::SetRef<'_>) -> Weight {
    let (ar, aw, br) = (a.ranks(), a.weights(), b.ranks());
    let (mut i, mut j, mut sum) = (0, 0, 0u64);
    while i < ar.len() && j < br.len() {
        match ar[i].cmp(&br[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                sum += aw[i].raw();
                i += 1;
                j += 1;
            }
        }
    }
    Weight::from_raw(sum)
}

/// Recompute by brute force the partners of [`PROBE_ROWS`] seeded rows
/// against every row, and compare with the CLI's output rows for them.
/// `prepared` is the traced replay's build, reused when there is one.
pub fn check_probes(
    spec: &JoinSpec,
    rows: &[String],
    cli_out: &[u8],
    prepared: Option<Prepared>,
    seed: u64,
    checks: &mut Checks,
) {
    let probes: Vec<u32> = SplitMix64::new(seed ^ 0x7072_6f62_6573)
        .distinct_below(rows.len(), PROBE_ROWS)
        .into_iter()
        .map(|i| i as u32)
        .collect();
    let wanted: HashSet<u32> = probes.iter().copied().collect();
    let mut got: HashMap<u32, HashSet<u32>> = HashMap::new();
    for (r, s) in output_pairs(cli_out) {
        if wanted.contains(&r) {
            got.entry(r).or_default().insert(s);
        }
    }
    let prepared = match (spec.edit, prepared) {
        (true, _) => None,
        (false, Some(p)) => Some(p),
        (false, None) => {
            let t = tokenize(false, rows, rows);
            match build(false, t) {
                Ok(p) => Some(p),
                Err(e) => {
                    checks.check(false, || format!("cannot build the Jaccard sets: {e}"));
                    return;
                }
            }
        }
    };
    for &i in &probes {
        let mut cli = got.remove(&i).unwrap_or_default();
        let expected: HashSet<u32> = match &prepared {
            None => (0..rows.len() as u32)
                .filter(|&j| {
                    edit_similarity_at_least(&rows[i as usize], &rows[j as usize], spec.threshold)
                })
                .collect(),
            Some(p) => {
                let (r_col, s_col) = p.collections();
                let a = r_col.set(i);
                let mut expected = HashSet::new();
                for j in 0..s_col.len() as u32 {
                    let b = s_col.set(j);
                    let ov = plain_overlap(a, b);
                    if ov == Weight::ZERO {
                        continue;
                    }
                    let sim = resemblance(a.total_weight(), b.total_weight(), ov);
                    if (sim - spec.threshold).abs() <= JACCARD_TIE {
                        cli.remove(&j);
                    } else if sim > spec.threshold {
                        expected.insert(j);
                    }
                }
                expected
            }
        };
        checks.check(cli == expected, || {
            format!(
                "row {i}: the CLI reports {} partners, brute force {}",
                cli.len(),
                expected.len()
            )
        });
    }
}
