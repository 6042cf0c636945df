//! The serve workload: `ssjoin serve` over a persistent index, driven by one
//! closed-loop client with a seeded match/add/del stream, then checked
//! against brute force and replayed in-process when traced.

use crate::batch::{ratio, set_exec_stats, short_cutoff, Q};
use crate::process::{vm_hwm_kb, Program, Reaped};
use crate::report::{Checks, RunResult};
use crate::stats::{median, tail_percentile, SplitMix64, Summary};
use ssjoin_core::{
    ElementOrder, NormKind, Phase, QueryEncoder, SsJoinInputBuilder, SsJoinStats, WeightScheme,
};
use ssjoin_datagen::{read_tsv, write_tsv, AddressCorpus, AddressCorpusConfig};
use ssjoin_joins::{TopKConfig, TopKIndex};
use ssjoin_sim::{edit_similarity, edit_similarity_at_least};
use ssjoin_text::{QGramTokenizer, Tokenizer};
use std::io::{self, BufRead, BufReader, Write};
use std::process::Stdio;
use std::time::Instant;

/// `--min-sim` of the served index. The CLI's default 0.6 makes the
/// Property-4 coefficient `1 − 0.4·3` negative, so every lookup would
/// brute-force the whole reference table and never touch the index.
pub const MIN_SIM: f64 = 0.8;
/// Matches returned per lookup (the CLI's default `--k`).
pub const K: usize = 3;
/// Every `CHECK_EVERY`-th match reply is recomputed by brute force.
const CHECK_EVERY: usize = 250;

/// Shape of the serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Rows generated; every eighth (`i % 8 == 7`) is held out as query and
    /// insert text, the rest form the reference table.
    pub corpus_rows: usize,
    /// Server processes started per run; each builds its index afresh.
    pub sessions: usize,
    /// Requests per session at `--seconds` [`crate::RUN_SECONDS`]; other run
    /// lengths scale it.
    pub requests: usize,
}

/// One request of the op stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Look up held-out row `i`.
    Match(usize),
    /// Insert held-out row `i`.
    Add(usize),
    /// Delete reference id (possibly already deleted: deletes are
    /// idempotent).
    Del(u32),
}

/// The seeded op stream of one session: 80% match, 10% add, 10% del, with
/// texts drawn from `held` held-out rows and del ids from every id the
/// session has handed out so far (`reference` initial rows plus adds).
pub fn op_stream(
    seed: u64,
    session: usize,
    count: usize,
    held: usize,
    reference: usize,
) -> Vec<Op> {
    let mut g = SplitMix64::new(seed ^ (session as u64 + 1).wrapping_mul(0x5e55_1011));
    let mut ids = reference;
    (0..count)
        .map(|_| match g.below(10) {
            0..=7 => Op::Match(g.below(held)),
            8 => {
                ids += 1;
                Op::Add(g.below(held))
            }
            _ => Op::Del(g.below(ids) as u32),
        })
        .collect()
}

fn request_line(op: Op, held: &[String]) -> String {
    match op {
        Op::Match(i) => format!("match\t{}\n", held[i]),
        Op::Add(i) => format!("add\t{}\n", held[i]),
        Op::Del(id) => format!("del\t{id}\n"),
    }
}

/// One reply: the body lines before the status line, and the status
/// (`Ok(payload)` for `ok`, `Err(message)` for `err`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub body: Vec<String>,
    pub status: Result<String, String>,
}

/// Read one reply: lines until an `ok` or `err` status line.
pub fn read_reply(r: &mut impl BufRead) -> io::Result<Reply> {
    let mut body = Vec::new();
    let mut line = String::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed its output mid-reply",
            ));
        }
        let l = line.trim_end_matches(['\n', '\r']);
        let (head, rest) = l.split_once('\t').unwrap_or((l, ""));
        match head {
            "ok" => {
                return Ok(Reply {
                    body,
                    status: Ok(rest.to_string()),
                })
            }
            "err" => {
                return Ok(Reply {
                    body,
                    status: Err(rest.to_string()),
                })
            }
            _ => body.push(l.to_string()),
        }
    }
}

/// Check that `reply` is a well-formed answer to `op`, given the id the next
/// add receives.
pub fn well_formed(op: Op, reply: &Reply, next_id: u32) -> Result<(), String> {
    let payload = reply
        .status
        .as_ref()
        .map_err(|e| format!("err reply: {e}"))?;
    match op {
        Op::Match(_) => {
            let count: usize = payload
                .parse()
                .map_err(|_| format!("bad count {payload:?}"))?;
            if count != reply.body.len() || count > K {
                return Err(format!(
                    "count {count} for {} match lines",
                    reply.body.len()
                ));
            }
            let mut last = f64::INFINITY;
            for line in &reply.body {
                let f: Vec<&str> = line.splitn(4, '\t').collect();
                let sim = match f.as_slice() {
                    ["m", id, sim, _] if id.parse::<u32>().is_ok() => sim.parse::<f64>().ok(),
                    _ => None,
                }
                .ok_or_else(|| format!("bad match line {line:?}"))?;
                if !(MIN_SIM - 1e-6..=1.0).contains(&sim) || sim > last {
                    return Err(format!("similarity {sim} out of order or range"));
                }
                last = sim;
            }
            Ok(())
        }
        Op::Add(_) | Op::Del(_) => {
            let expect = match op {
                Op::Del(id) => id,
                _ => next_id,
            };
            if reply.body.is_empty() && *payload == expect.to_string() {
                Ok(())
            } else {
                Err(format!("expected ok {expect}, got {reply:?}"))
            }
        }
    }
}

/// The reference table and the held-out rows of one seed.
pub struct ServeInput {
    pub reference: Vec<String>,
    pub held: Vec<String>,
}

pub fn split_corpus(spec: &ServeSpec, seed: u64) -> ServeInput {
    let corpus =
        AddressCorpus::generate(&AddressCorpusConfig::paper_like(spec.corpus_rows).with_seed(seed));
    let (mut reference, mut held) = (Vec::new(), Vec::new());
    for (i, rec) in corpus.records.into_iter().enumerate() {
        if i % 8 == 7 {
            held.push(rec);
        } else {
            reference.push(rec);
        }
    }
    ServeInput { reference, held }
}

/// Latencies and replies of one untraced session.
struct Session {
    setup_s: f64,
    loop_s: f64,
    rss_mb: f64,
    match_ms: Vec<f64>,
    add_ms: Vec<f64>,
    replies: Vec<Reply>,
}

fn run_session(prog: &Program, ops: &[Op], held: &[String]) -> io::Result<(Session, bool)> {
    let reference = prog.path("reference.tsv");
    let mut cmd = prog.command(&[
        "serve".to_string(),
        "--reference".into(),
        reference.display().to_string(),
        "--min-sim".into(),
        MIN_SIM.to_string(),
    ]);
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(std::fs::File::create(prog.path("stderr.txt"))?);
    let start = Instant::now();
    let mut child = Reaped(cmd.spawn()?);
    let pid = child.0.id();
    let mut stdin = child.0.stdin.take().expect("stdin is piped");
    let mut stdout = BufReader::new(child.0.stdout.take().expect("stdout is piped"));

    // The server reads no request before its index is built, so the first
    // reply marks the end of set-up.
    stdin.write_all(b"stats\n")?;
    read_reply(&mut stdout)?;
    let setup_s = start.elapsed().as_secs_f64();

    let mut s = Session {
        setup_s,
        loop_s: 0.0,
        rss_mb: 0.0,
        match_ms: Vec::new(),
        add_ms: Vec::new(),
        replies: Vec::with_capacity(ops.len()),
    };
    let loop_start = Instant::now();
    for &op in ops {
        let line = request_line(op, held);
        let t = Instant::now();
        stdin.write_all(line.as_bytes())?;
        let reply = read_reply(&mut stdout)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        // A del is a pipe round trip of ~10 µs; its cost shows in the
        // request rate.
        match op {
            Op::Match(_) => s.match_ms.push(ms),
            Op::Add(_) => s.add_ms.push(ms),
            Op::Del(_) => {}
        }
        s.replies.push(reply);
    }
    s.loop_s = loop_start.elapsed().as_secs_f64();
    s.rss_mb = vm_hwm_kb(pid).unwrap_or(0) as f64 / 1024.0;
    drop(stdin);
    let status = child.0.wait()?;
    Ok((s, status.success()))
}

/// Run the serve workload for `seed`: sessions with set-up and per-verb
/// latencies, the reply checks, and with `trace` the in-process replay.
pub fn run(spec: &ServeSpec, prog: &Program, seed: u64, seconds: f64, trace: bool) -> RunResult {
    let mut run = RunResult::default();
    let input = split_corpus(spec, seed);
    let rows: Vec<Vec<String>> = input.reference.iter().map(|r| vec![r.clone()]).collect();
    if let Err(e) = write_tsv(prog.path("reference.tsv"), &rows) {
        run.checks
            .check(false, || format!("cannot write the reference: {e}"));
        return run;
    }
    let per_session = crate::scaled(spec.requests, seconds).max(1);
    let streams: Vec<Vec<Op>> = (0..spec.sessions)
        .map(|i| {
            op_stream(
                seed,
                i,
                per_session,
                input.held.len(),
                input.reference.len(),
            )
        })
        .collect();

    let mut sessions = Vec::new();
    for ops in &streams {
        match run_session(prog, ops, &input.held) {
            Ok((s, exited_ok)) => {
                run.checks.check(exited_ok, || {
                    let stderr = std::fs::read_to_string(prog.path("stderr.txt"));
                    format!(
                        "`ssjoin serve` failed: {}",
                        stderr.unwrap_or_default().trim()
                    )
                });
                sessions.push(s);
            }
            Err(e) => {
                run.checks
                    .check(false, || format!("serve session failed: {e}"));
                return run;
            }
        }
    }
    for (s, ops) in sessions.iter().zip(&streams) {
        check_replies(&input, ops, &s.replies, CHECK_EVERY, &mut run.checks);
    }

    let pooled = |f: fn(&Session) -> &Vec<f64>| -> Vec<f64> {
        sessions.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let (match_ms, add_ms) = (pooled(|s| &s.match_ms), pooled(|s| &s.add_ms));
    let setup: Vec<f64> = sessions.iter().map(|s| s.setup_s).collect();
    let rss: Vec<f64> = sessions.iter().map(|s| s.rss_mb).collect();
    let requests: usize = sessions.iter().map(|s| s.replies.len()).sum();
    let loop_s: f64 = sessions.iter().map(|s| s.loop_s).sum();
    let per_session_rate: Vec<f64> = sessions
        .iter()
        .map(|s| s.replies.len() as f64 / s.loop_s)
        .collect();
    for (name, value) in [
        ("latency_p50_ms", Summary::median_of(&match_ms)),
        ("peak_rss_mb", Summary::median_of(&rss)),
        ("setup_s", Summary::median_of(&setup)),
    ] {
        if let Some(v) = value {
            run.set(name, v);
        }
    }
    let some = |x: Option<Summary>| x.unwrap_or(Summary::single(0.0));
    let tail =
        |xs: &[f64], p| some(tail_percentile(xs, p).and_then(|v| Summary::with_value(xs, v)));
    run.set("serve.match_p99_ms", tail(&match_ms, 99.0));
    run.set("serve.add_p50_ms", some(Summary::median_of(&add_ms)));
    run.set("serve.add_p99_ms", tail(&add_ms, 99.0));
    run.set(
        "serve.req_per_s",
        some(Summary::with_value(
            &per_session_rate,
            requests as f64 / loop_s,
        )),
    );

    if trace {
        match traced_serve(&input, &streams, &prog.path("reference.tsv"), &mut run) {
            Ok(t) => {
                for (i, (s, traced)) in sessions.iter().zip(&t.replies).enumerate() {
                    let mismatch = s
                        .replies
                        .iter()
                        .zip(traced)
                        .position(|(cli, tr)| cli.body != *tr);
                    run.checks.check(mismatch.is_none(), || {
                        format!("session {i} request {mismatch:?}: traced replay disagrees with the CLI")
                    });
                }
                let untraced: f64 = sessions.iter().map(|s| s.setup_s + s.loop_s).sum();
                let match_us = median(&match_ms).unwrap_or(0.0) * 1e3;
                let traced_us = run.metrics["index.match_p50_us"].value;
                run.set("serve.protocol_us", Summary::single(match_us - traced_us));
                run.set("trace.overhead", Summary::single(t.wall_s / untraced));
                let share = run.metrics["index.path_share"].value;
                let candidates = run.metrics["index.probe_candidates_mean"].value;
                run.checks.check(share >= 0.9 && candidates > 0.0, || {
                    format!(
                        "only {:.1}% of matches took the index path ({candidates:.2} \
                         candidates per probe); the workload no longer exercises the index",
                        share * 100.0
                    )
                });
            }
            Err(e) => {
                run.checks
                    .check(false, || format!("traced replay failed: {e}"));
            }
        }
    }
    run
}

/// Check every reply's form, and every `every`-th match reply against a
/// brute-force top-k over the references live at that moment.
pub fn check_replies(
    input: &ServeInput,
    ops: &[Op],
    replies: &[Reply],
    every: usize,
    checks: &mut Checks,
) {
    let mut live: Vec<Option<&str>> = input.reference.iter().map(|r| Some(r.as_str())).collect();
    let mut matches = 0;
    let mut malformed = 0;
    for (&op, reply) in ops.iter().zip(replies) {
        if let Err(e) = well_formed(op, reply, live.len() as u32) {
            if malformed == 0 {
                eprintln!("malformed reply to {op:?}: {e}");
            }
            malformed += 1;
        }
        match op {
            Op::Match(i) => {
                if matches % every == 0 {
                    let expect = brute_top_k(&input.held[i], &live);
                    checks.check(reply.body == expect, || {
                        format!(
                            "match {:?}: got {:?}, brute force {expect:?}",
                            input.held[i], reply.body
                        )
                    });
                }
                matches += 1;
            }
            Op::Add(i) => live.push(Some(&input.held[i])),
            Op::Del(id) => live[id as usize] = None,
        }
    }
    checks.attempted += replies.len() as u64;
    checks.failed += malformed;
    checks.check(replies.len() == ops.len(), || {
        format!("{} of {} requests answered", replies.len(), ops.len())
    });
}

/// The CLI's match reply lines for `query`, computed by scoring every live
/// reference.
fn brute_top_k(query: &str, live: &[Option<&str>]) -> Vec<String> {
    let mut hits: Vec<(u32, f64, &str)> = live
        .iter()
        .enumerate()
        .filter_map(|(id, text)| {
            let text = (*text)?;
            edit_similarity_at_least(query, text, MIN_SIM)
                .then(|| (id as u32, edit_similarity(query, text), text))
        })
        .collect();
    hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    hits.truncate(K);
    hits.iter()
        .map(|(id, sim, text)| format!("m\t{id}\t{sim:.6}\t{text}"))
        .collect()
}

/// What the traced replay reports back beyond its per-layer metrics.
pub struct TracedServe {
    /// Match reply lines per session and request (empty for adds and dels).
    pub replies: Vec<Vec<Vec<String>>>,
    pub wall_s: f64,
}

/// Replay every session in-process: `read_tsv` → `TopKIndex::build`, then
/// `top_k` / `insert` / `delete` per op, each call timed. The reference's
/// tokenization and set build are also timed on their own (the first two
/// steps `TopKIndex::build` takes); that shadow build is outside the traced
/// wall time and yields the query encoder that tells which inserts the
/// index cannot encode fully. The probes' own stats are summed into the
/// `exec`, `prune` and `kernel` metrics.
pub fn traced_serve(
    input: &ServeInput,
    streams: &[Vec<Op>],
    reference: &std::path::Path,
    run: &mut RunResult,
) -> Result<TracedServe, String> {
    let tok = QGramTokenizer::new(Q);
    let cutoff = short_cutoff(MIN_SIM);
    let (mut read_s, mut wall_s, mut build_s) = (0.0, 0.0, Vec::new());
    let (mut tokenize_s, mut builder_s, mut tokens, mut universe) = (Vec::new(), Vec::new(), 0, 0);
    let (mut match_us, mut insert_us, mut delete_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut probes, mut on_path, mut brute_pool) = (SsJoinStats::default(), 0u64, 0u64);
    let mut replies = Vec::new();

    for ops in streams {
        let t = Instant::now();
        let refs: Vec<String> = read_tsv(reference)
            .map_err(|e| e.to_string())?
            .into_iter()
            .filter_map(|row| row.into_iter().next())
            .collect();
        let read = t.elapsed().as_secs_f64();

        let (encoder, tok_s, bld_s, n_tokens, n_universe) = shadow_build(&refs, &tok)?;
        tokenize_s.push(tok_s);
        builder_s.push(bld_s);
        (tokens, universe) = (n_tokens, n_universe);

        let t = Instant::now();
        let config = TopKConfig::new(K, MIN_SIM).map_err(|e| e.to_string())?;
        let mut index = TopKIndex::build(&refs, config).map_err(|e| e.to_string())?;
        let build = t.elapsed().as_secs_f64();

        // Inserts the index could not encode fully. `TopKIndex` keeps them in
        // its brute pool for good, deleted or not, and every match walks it.
        let mut under_encoded = 0u64;
        let mut session_replies = Vec::with_capacity(ops.len());
        let loop_start = Instant::now();
        for &op in ops {
            let t = Instant::now();
            let mut body = Vec::new();
            match op {
                Op::Match(i) => {
                    let query = &input.held[i];
                    let hits = index.top_k(query).map_err(|e| e.to_string())?;
                    match_us.push(t.elapsed().as_secs_f64() * 1e6);
                    probes.merge(index.last_stats());
                    on_path += u64::from(query.chars().count() >= cutoff);
                    brute_pool += under_encoded;
                    body = hits
                        .iter()
                        .map(|m| {
                            let text = index.reference_text(m.index).unwrap_or("");
                            format!("m\t{}\t{:.6}\t{text}", m.index, m.similarity)
                        })
                        .collect();
                }
                Op::Add(i) => {
                    let text = &input.held[i];
                    index.insert(text).map_err(|e| e.to_string())?;
                    insert_us.push(t.elapsed().as_secs_f64() * 1e6);
                    let group = tok.tokenize(text);
                    if encoder.encode_group(&group).len() < group.len() {
                        under_encoded += 1;
                    }
                }
                Op::Del(id) => {
                    index.delete(id).map_err(|e| e.to_string())?;
                    delete_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
            session_replies.push(body);
        }
        read_s += read;
        build_s.push(build);
        wall_s += read + build + loop_start.elapsed().as_secs_f64();
        replies.push(session_replies);
    }

    let op_s = [&match_us, &insert_us, &delete_us]
        .iter()
        .flat_map(|v| v.iter())
        .sum::<f64>()
        / 1e6;
    let layer_s = read_s + build_s.iter().sum::<f64>() + op_s;
    let matches = match_us.len() as u64;
    let per_match = |x: f64| Summary::single(x / matches.max(1) as f64);
    let some = |x: Option<Summary>| x.unwrap_or(Summary::single(0.0));
    let tail =
        |xs: &[f64], p| some(tail_percentile(xs, p).and_then(|v| Summary::with_value(xs, v)));
    for (name, v) in [
        ("cli.read_s", Summary::single(read_s / streams.len() as f64)),
        ("text.tokenize_s", some(Summary::median_of(&tokenize_s))),
        ("text.tokens", Summary::single(tokens as f64)),
        ("builder.build_s", some(Summary::median_of(&builder_s))),
        (
            "builder.sets",
            Summary::single(input.reference.len() as f64),
        ),
        ("builder.universe", Summary::single(universe as f64)),
        ("index.build_s", some(Summary::median_of(&build_s))),
        ("index.match_p50_us", some(Summary::median_of(&match_us))),
        ("index.match_p99_us", tail(&match_us, 99.0)),
        (
            "index.probe_candidates_mean",
            per_match(probes.candidate_pairs as f64),
        ),
        (
            "index.probe_verified_mean",
            per_match(probes.verified_pairs as f64),
        ),
        (
            "index.probe_ssjoin_us_mean",
            per_match(probes.time(Phase::SsJoin).as_secs_f64() * 1e6),
        ),
        ("index.insert_p50_us", some(Summary::median_of(&insert_us))),
        ("index.insert_p99_us", tail(&insert_us, 99.0)),
        ("index.delete_p50_us", some(Summary::median_of(&delete_us))),
        // Matches whose query is long enough for Property 4, so the index
        // answers them instead of a scan of every short reference.
        ("index.path_share", Summary::single(ratio(on_path, matches))),
        ("index.brute_pool_mean", per_match(brute_pool as f64)),
        ("trace.wall_s", Summary::single(wall_s)),
        ("trace.coverage", Summary::single(layer_s / wall_s)),
    ] {
        run.set(name, v);
    }
    set_exec_stats(run, &probes);
    Ok(TracedServe { replies, wall_s })
}

/// Tokenize and build the reference exactly as `TopKIndex::build` starts
/// out, timing both steps. Returns the query encoder, the two times, the
/// token count and the universe size.
fn shadow_build(
    refs: &[String],
    tok: &QGramTokenizer,
) -> Result<(QueryEncoder, f64, f64, usize, usize), String> {
    let t = Instant::now();
    let norms: Vec<f64> = refs.iter().map(|x| x.chars().count() as f64).collect();
    let groups: Vec<Vec<String>> = refs.iter().map(|x| tok.tokenize(x)).collect();
    let tokenize_s = t.elapsed().as_secs_f64();
    let tokens = groups.iter().map(Vec::len).sum();
    let t = Instant::now();
    let mut builder = SsJoinInputBuilder::new(WeightScheme::Unweighted, ElementOrder::FrequencyAsc);
    builder.add_relation_with_norm(groups, NormKind::Custom(norms));
    let built = builder.build().map_err(|e| e.to_string())?;
    let build_s = t.elapsed().as_secs_f64();
    Ok((
        built.query_encoder(),
        tokenize_s,
        build_s,
        tokens,
        built.universe_size(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_stream_is_deterministic_and_mixed() {
        let a = op_stream(7, 0, 5000, 100, 1000);
        assert_eq!(a, op_stream(7, 0, 5000, 100, 1000));
        assert_ne!(a, op_stream(8, 0, 5000, 100, 1000));
        assert_ne!(a, op_stream(7, 1, 5000, 100, 1000));
        let count = |f: fn(&Op) -> bool| a.iter().filter(|o| f(o)).count();
        let matches = count(|o| matches!(o, Op::Match(_)));
        let adds = count(|o| matches!(o, Op::Add(_)));
        assert!((3800..=4200).contains(&matches), "{matches} matches");
        assert!((400..=600).contains(&adds), "{adds} adds");
        // Del ids never exceed the ids handed out so far.
        let mut ids = 1000u32;
        for op in &a {
            match *op {
                Op::Add(i) => {
                    assert!(i < 100);
                    ids += 1;
                }
                Op::Del(id) => assert!(id < ids),
                Op::Match(i) => assert!(i < 100),
            }
        }
    }

    #[test]
    fn reply_parser_reads_bodies_and_err_lines() {
        let text = "m\t4\t0.900000\tfoo bar\nm\t9\t0.850000\tfoo baz\nok\t2\n\
                    ok\t1001\n\
                    err\tdel id: invalid digit\n\
                    ok\t0\n";
        let mut r = std::io::Cursor::new(text);
        let first = read_reply(&mut r).unwrap();
        assert_eq!(first.body.len(), 2);
        assert_eq!(first.status, Ok("2".into()));
        assert!(well_formed(Op::Match(0), &first, 0).is_ok());
        let add = read_reply(&mut r).unwrap();
        assert!(well_formed(Op::Add(0), &add, 1001).is_ok());
        assert!(well_formed(Op::Add(0), &add, 1002).is_err());
        let err = read_reply(&mut r).unwrap();
        assert_eq!(err.status, Err("del id: invalid digit".into()));
        assert!(well_formed(Op::Del(3), &err, 0).is_err());
        let empty = read_reply(&mut r).unwrap();
        assert!(empty.body.is_empty() && well_formed(Op::Match(1), &empty, 0).is_ok());
        assert_eq!(
            read_reply(&mut r).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
        // A count that disagrees with the body, or similarities out of
        // order, are malformed.
        let bad = Reply {
            body: vec!["m\t1\t0.8\tx".into(), "m\t2\t0.9\ty".into()],
            status: Ok("2".into()),
        };
        assert!(well_formed(Op::Match(0), &bad, 0).is_err());
        let short = Reply {
            body: vec!["m\t1\t0.9\tx".into()],
            status: Ok("2".into()),
        };
        assert!(well_formed(Op::Match(0), &short, 0).is_err());
    }
}
