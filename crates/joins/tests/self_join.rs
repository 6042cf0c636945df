//! A self-join is one relation. Every packaged join handed the same slice
//! twice — `f(&d, &d)` — tokenizes and builds `d` once and joins the one
//! collection with itself; handed two equal slices — `f(&d, &d.to_vec())` —
//! it builds two. The outputs must agree pair for pair with bit-identical
//! similarities, on every executor, at 1 and 3 threads, and when the join
//! spills. The spilled run also shows the one-relation build reached the
//! core: a same-collection self-join copies one side per partition, so it
//! spills fewer bytes than the two-relation run.
//!
//! The UDF calls agree too, except for the edit, Jaccard-resemblance and
//! hamming joins: their one-relation runs verify each unordered pair once
//! and the diagonal with no call, so their calls are exactly the
//! two-relation run's less the diagonal's, halved. Jaccard containment is
//! asymmetric, so it keeps every orientation (and calls no UDF at all).

use ssjoin_core::{Algorithm, ExecBudget, ExecContext, SsJoinResult};
use ssjoin_joins::{
    cosine_join, edit_similarity_join, ges_join, hamming_join, jaccard_join, soft_fd_join,
    CosineConfig, EditJoinConfig, GesJoinConfig, HammingJoinConfig, JaccardConfig,
    SimilarityJoinOutput, SoftFdConfig,
};
use ssjoin_prng::{Rng, StdRng};

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::Basic,
    Algorithm::PrefixFiltered,
    Algorithm::Inline,
];

/// A resident budget far below any join's estimate: the join must spill.
const SPILL_BUDGET: u64 = 4096;

type Join<T> = dyn Fn(&[T], &[T], Algorithm, ExecContext) -> SsJoinResult<SimilarityJoinOutput>;

/// How a one-relation run's UDF calls relate to the two-relation run's.
#[derive(Clone, Copy)]
enum Calls {
    /// The same count.
    Same,
    /// Each unordered pair once, the diagonal free: `(two − n) / 2` for `n`
    /// rows, since the two-relation run verifies each row with itself once
    /// (as a candidate, or on the short-string route) and every other pair
    /// in both orientations, on either route.
    Halved,
}

/// `r  s  similarity-bits` per output pair.
fn bits(out: &SimilarityJoinOutput) -> Vec<(u32, u32, u64)> {
    out.pairs
        .iter()
        .map(|p| (p.r, p.s, p.similarity.to_bits()))
        .collect()
}

/// Run `join` on `data` as one relation and as two, under `exec`, and check
/// the outputs agree. Returns both runs.
fn one_vs_two<T: Clone>(
    what: &str,
    join: &Join<T>,
    data: &[T],
    calls: Calls,
    algorithm: Algorithm,
    exec: ExecContext,
) -> (SimilarityJoinOutput, SimilarityJoinOutput) {
    let copy = data.to_vec();
    let one = join(data, data, algorithm, exec.clone()).unwrap();
    let two = join(data, &copy, algorithm, exec).unwrap();
    let at = format!("{what} {algorithm:?}");
    assert!(
        one.pairs.len() > data.len(),
        "{at}: only {} pairs, too few off-diagonal pairs to compare",
        one.pairs.len()
    );
    assert_eq!(bits(&one), bits(&two), "{at}: one relation != two");
    let want = match calls {
        Calls::Same => two.udf_verifications,
        Calls::Halved => {
            let off_diagonal = two.udf_verifications - data.len() as u64;
            assert_eq!(
                off_diagonal % 2,
                0,
                "{at}: {off_diagonal} off-diagonal calls"
            );
            off_diagonal / 2
        }
    };
    assert_eq!(one.udf_verifications, want, "{at}: UDF calls");
    (one, two)
}

/// The executor × threads matrix, then one spilled run whose spill bytes
/// show the self-join copied one side.
fn check_with_exec<T: Clone>(what: &str, join: &Join<T>, data: &[T], calls: Calls) {
    for algorithm in ALGORITHMS {
        for threads in [1, 3] {
            let exec = ExecContext::new().with_threads(threads);
            let at = format!("{what} {threads}t");
            one_vs_two(&at, join, data, calls, algorithm, exec);
        }
    }
    let exec =
        ExecContext::new().with_budget(ExecBudget::new().with_max_resident_bytes(SPILL_BUDGET));
    let (one, two) = one_vs_two(
        &format!("{what} spill"),
        join,
        data,
        calls,
        Algorithm::Inline,
        exec,
    );
    assert!(
        one.stats.spill_partitions >= 2 && two.stats.spill_partitions >= 2,
        "{what}: the budgeted join did not spill"
    );
    assert!(
        one.stats.spill_bytes < two.stats.spill_bytes,
        "{what}: the self-join spilled {} bytes, two relations {}",
        one.stats.spill_bytes,
        two.stats.spill_bytes
    );
}

/// 60 address-like records, each followed by two variants one character
/// edit away, so every join has near-duplicate pairs.
fn addresses() -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(0x5E1F);
    let streets = [
        "main st",
        "oak avenue",
        "maple street",
        "cedar lane",
        "birch road",
    ];
    let cities = ["seattle wa", "redmond wa", "springfield il", "portland or"];
    let mut out = Vec::new();
    for _ in 0..60 {
        let base = format!(
            "{} {} {}",
            rng.gen_range(100u32..400),
            streets[rng.gen_index(streets.len())],
            cities[rng.gen_index(cities.len())]
        );
        out.push(base.clone());
        for _ in 0..2 {
            out.push(one_edit(&mut rng, &base));
        }
    }
    out
}

/// `s` with one character replaced by a letter.
fn one_edit(rng: &mut StdRng, s: &str) -> String {
    let mut chars: Vec<char> = s.chars().collect();
    let at = rng.gen_index(chars.len());
    chars[at] = char::from(b'a' + rng.gen_range(0u8..26));
    chars.into_iter().collect()
}

#[test]
fn jaccard_self_join_is_one_relation() {
    // Resemblance is symmetric, so the one-relation run verifies each
    // unordered pair once; containment is not, and calls no UDF.
    for (config, calls) in [
        (JaccardConfig::resemblance(0.6), Calls::Halved),
        (JaccardConfig::containment(0.6), Calls::Same),
    ] {
        let what = format!("jaccard {:?}", config.kind);
        let join = move |r: &[String], s: &[String], algorithm, exec| {
            let cfg = config.clone().with_algorithm(algorithm).with_exec(exec);
            jaccard_join(r, s, &cfg)
        };
        check_with_exec(&what, &join, &addresses(), calls);
    }
}

#[test]
fn edit_self_join_is_one_relation() {
    let join = |r: &[String], s: &[String], algorithm, exec| {
        let cfg = EditJoinConfig::new(0.85)
            .with_algorithm(algorithm)
            .with_exec(exec);
        edit_similarity_join(r, s, &cfg)
    };
    // Strings under the q-gram cutoff (6 chars at 0.85) take the
    // short-string route: the empty ones share no q-gram, so even their
    // diagonal is verified there.
    let mut data = addresses();
    data.extend(["", "", "ab", "ab", "abc", "abd", "main", "mian"].map(String::from));
    check_with_exec("edit", &join, &data, Calls::Halved);
}

#[test]
fn cosine_self_join_is_one_relation() {
    let join = |r: &[String], s: &[String], algorithm, exec| {
        let cfg = CosineConfig::new(0.6)
            .with_algorithm(algorithm)
            .with_exec(exec);
        cosine_join(r, s, &cfg)
    };
    check_with_exec("cosine", &join, &addresses(), Calls::Same);
}

#[test]
fn ges_self_join_is_one_relation() {
    let join = |r: &[String], s: &[String], algorithm, exec| {
        let cfg = GesJoinConfig::new(0.8)
            .with_algorithm(algorithm)
            .with_exec(exec);
        ges_join(r, s, &cfg)
    };
    check_with_exec("ges", &join, &addresses(), Calls::Same);
}

#[test]
fn hamming_self_join_is_one_relation() {
    // Fixed-length codes, each with two one-substitution variants.
    let mut rng = StdRng::seed_from_u64(0x4A77);
    let mut codes = Vec::new();
    for _ in 0..60 {
        let code: String = (0..8)
            .map(|_| char::from(b'a' + rng.gen_range(0u8..6)))
            .collect();
        codes.push(code.clone());
        codes.push(one_edit(&mut rng, &code));
        codes.push(one_edit(&mut rng, &code));
    }
    for algorithm in ALGORITHMS {
        let join = |r: &[String], s: &[String], algorithm, _| {
            hamming_join(r, s, &HammingJoinConfig::new(2).with_algorithm(algorithm))
        };
        one_vs_two(
            "hamming",
            &join,
            &codes,
            Calls::Halved,
            algorithm,
            ExecContext::new(),
        );
    }
}

#[test]
fn soft_fd_self_join_is_one_relation() {
    // [address, email, phone] tuples over small domains, so many agree on
    // two of three attributes. Every fifth tuple has no email: an empty
    // attribute is no element, so such a row agrees with itself on two of
    // three attributes and scores 2/3, not 1.0, against itself.
    let mut rng = StdRng::seed_from_u64(0x50F7);
    let tuples: Vec<Vec<String>> = (0..150)
        .map(|i| {
            let email = format!("user{}@x.com", rng.gen_range(0u32..12));
            vec![
                format!("{} main st", rng.gen_range(0u32..12)),
                if i % 5 == 0 { String::new() } else { email },
                format!("555-01{:02}", rng.gen_range(0u32..12)),
            ]
        })
        .collect();
    let two_thirds = (2.0f64 / 3.0).to_bits();
    let diagonal = |out: &SimilarityJoinOutput, row: u32| {
        let p = out.pairs.iter().find(|p| (p.r, p.s) == (row, row));
        p.map(|p| p.similarity.to_bits())
    };
    for algorithm in ALGORITHMS {
        let join = |r: &[Vec<String>], s: &[Vec<String>], algorithm, _| {
            soft_fd_join(r, s, &SoftFdConfig::new(2).with_algorithm(algorithm))
        };
        let (one, _) = one_vs_two(
            "soft-FD",
            &join,
            &tuples,
            Calls::Same,
            algorithm,
            ExecContext::new(),
        );
        assert_eq!(diagonal(&one, 0), Some(two_thirds), "{algorithm:?}");
    }
}
