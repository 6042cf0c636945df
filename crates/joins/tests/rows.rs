//! The joins read their rows through `AsRows`: a `Vec<String>` and the same
//! rows packed into one `Rows` buffer must give identical output — pairs,
//! similarity bits, UDF calls and every SSJoin counter — for the edit,
//! Jaccard, cosine and GES joins, on one relation (the same rows as both
//! sides) and on two. A `TopKIndex` built over either must answer the same
//! `match`, `dedup` and `reference_text` replies through an `add`/`del`
//! churn.

use ssjoin_core::SsJoinResult;
use ssjoin_joins::{
    cosine_join, edit_similarity_join, ges_join, jaccard_join, CosineConfig, EditJoinConfig,
    GesJoinConfig, JaccardConfig, SimilarityJoinOutput, TopKConfig, TopKIndex,
};
use ssjoin_prng::{Rng, StdRng};
use ssjoin_text::{AsRows, Rows};

const WORDS: &[&str] = &[
    "main",
    "st",
    "street",
    "oak",
    "ave",
    "avenue",
    "springfield",
    "seattle",
    "wa",
    "unit",
    "caf\u{e9}",
    "stra\u{df}e",
    "\u{6771}\u{4eac}",
    "north",
    "100",
    "742",
    "evergreen",
];

/// `n` seeded address-like rows: every third row is a near-copy (one word
/// dropped or one char deleted) of an earlier one, so each join has
/// off-diagonal output.
fn seeded_rows(seed: u64, n: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<String> = Vec::with_capacity(n);
    for i in 0..n {
        if i % 3 == 2 {
            let mut copy = rows[rng.gen_index(rows.len())].clone();
            let cut = rng.gen_index(copy.len().max(1));
            if copy.is_char_boundary(cut) && cut < copy.len() && rng.gen_bool(0.5) {
                copy.remove(cut);
            } else if let Some(space) = copy.rfind(' ') {
                copy.truncate(space);
            }
            rows.push(copy);
        } else {
            let words = rng.gen_range(2..7usize);
            let row: Vec<&str> = (0..words)
                .map(|_| WORDS[rng.gen_index(WORDS.len())])
                .collect();
            rows.push(row.join(" "));
        }
    }
    rows
}

/// Pairs with their similarity bits, the UDF calls, and every counter of
/// the run's stats (its phase clocks left out).
fn fingerprint(out: &SimilarityJoinOutput) -> (Vec<(u32, u32, u64)>, Vec<u64>) {
    let s = &out.stats;
    let pairs = out
        .pairs
        .iter()
        .map(|p| (p.r, p.s, p.similarity.to_bits()))
        .collect();
    let counters = vec![
        out.udf_verifications,
        s.join_tuples,
        s.prefix_tuples_r,
        s.prefix_tuples_s,
        s.candidate_pairs,
        s.verified_pairs,
        s.output_pairs,
        s.bitmap_probes,
        s.bitmap_prunes,
        s.filter_calls,
        s.merge_steps,
        s.early_exits,
        s.gallop_probes,
        s.effective_threads,
        s.bytes_reserved,
        s.workspace_reuses,
        s.spill_partitions,
        s.spill_bytes,
        s.spill_peak_resident_bytes,
        s.approx_reps,
    ];
    (pairs, counters)
}

type Join = dyn Fn(&dyn AsRows, &dyn AsRows) -> SsJoinResult<SimilarityJoinOutput>;

#[test]
fn joins_read_packed_rows_like_strings() {
    let strings = seeded_rows(36, 240);
    let packed: Rows = strings.iter().collect();
    let half = strings.len() / 2;
    let (a, b) = (strings[..half].to_vec(), strings[half - 20..].to_vec());
    let (a_packed, b_packed): (Rows, Rows) = (a.iter().collect(), b.iter().collect());
    let joins: [(&str, Box<Join>); 4] = [
        (
            "jaccard",
            Box::new(|r, s| jaccard_join(r, s, &JaccardConfig::resemblance(0.7))),
        ),
        (
            "edit",
            Box::new(|r, s| edit_similarity_join(r, s, &EditJoinConfig::new(0.8))),
        ),
        (
            "cosine",
            Box::new(|r, s| cosine_join(r, s, &CosineConfig::new(0.7))),
        ),
        (
            "ges",
            Box::new(|r, s| ges_join(r, s, &GesJoinConfig::new(0.8))),
        ),
    ];
    for (name, join) in &joins {
        // One relation: the same table as both sides.
        let one = fingerprint(&join(&strings, &strings).unwrap());
        assert_eq!(
            fingerprint(&join(&packed, &packed).unwrap()),
            one,
            "{name}, one relation"
        );
        // Two relations.
        let two = fingerprint(&join(&a, &b).unwrap());
        assert_eq!(
            fingerprint(&join(&a_packed, &b_packed).unwrap()),
            two,
            "{name}, two relations"
        );
        // Packed rows on one side, strings on the other.
        assert_eq!(
            fingerprint(&join(&a_packed, &b).unwrap()),
            two,
            "{name}, mixed"
        );
        assert!(
            one.0.iter().any(|&(r, s, _)| r != s),
            "{name}: no off-diagonal pair"
        );
        assert!(!two.0.is_empty(), "{name}: no pair across relations");
    }
}

/// The same packed rows on both sides are one relation, as the same slice
/// is: the one-relation edit join calls its UDF once per unordered pair,
/// which two equal copies of the rows do not.
#[test]
fn the_same_packed_rows_are_one_relation() {
    let strings = seeded_rows(7, 120);
    let packed: Rows = strings.iter().collect();
    let copy = packed.clone();
    let config = EditJoinConfig::new(0.8);
    let one = edit_similarity_join(&packed, &packed, &config).unwrap();
    let two = edit_similarity_join(&packed, &copy, &config).unwrap();
    let strings_one = edit_similarity_join(&strings, &strings, &config).unwrap();
    assert_eq!(one.pairs, two.pairs);
    assert_eq!(one.udf_verifications, strings_one.udf_verifications);
    assert!(one.udf_verifications < two.udf_verifications);
}

/// Every request's reply, as text.
fn replay(index: &mut TopKIndex, queries: &[String], adds: &[String]) -> Vec<String> {
    let mut replies = Vec::new();
    let mut reply = |index: &mut TopKIndex, query: &str| {
        for m in index.top_k(query).unwrap() {
            let text = index.reference_text(m.index).unwrap_or("");
            replies.push(format!("m {} {:?} {text}", m.index, m.similarity.to_bits()));
        }
    };
    for (i, query) in queries.iter().enumerate() {
        reply(index, query);
        if let Some(text) = adds.get(i) {
            let id = index.insert(text).unwrap();
            reply(index, text);
            if i % 2 == 0 {
                index.delete(id - 1).unwrap();
            }
        }
    }
    for p in index.self_pairs(0.85).unwrap() {
        let (r, s) = (index.reference_text(p.r), index.reference_text(p.s));
        replies.push(format!("g {} {} {r:?} {s:?}", p.r, p.s));
    }
    replies.push(format!("{} {}", index.len(), index.live_len()));
    replies
}

#[test]
fn topk_index_answers_alike_over_packed_rows_and_strings() {
    let strings = seeded_rows(11, 300);
    let (reference, held) = strings.split_at(240);
    let packed: Rows = reference.iter().collect();
    let queries: Vec<String> = strings.iter().step_by(7).cloned().collect();
    let config = TopKConfig::new(3, 0.7).unwrap();
    let mut from_strings = TopKIndex::build(reference, config.clone()).unwrap();
    let expect = replay(&mut from_strings, &queries, held);
    assert!(expect.iter().any(|r| r.starts_with("g ")), "no dedup pair");
    let mut from_packed = TopKIndex::build(&packed, config.clone()).unwrap();
    assert_eq!(replay(&mut from_packed, &queries, held), expect);
    let mut owned = TopKIndex::from_rows(packed, config).unwrap();
    assert_eq!(replay(&mut owned, &queries, held), expect);
}
