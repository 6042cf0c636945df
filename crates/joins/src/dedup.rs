//! End-to-end deduplication pipeline: join → cluster → canonicalize.
//!
//! The complete data-cleaning flow the paper's introduction motivates:
//! similarity-self-join a dirty table, close the match graph into duplicate
//! groups, and elect a canonical record per group. Packaged because every
//! consumer of the join layer otherwise rebuilds exactly this.

use crate::cluster::cluster_pairs;
use crate::common::MatchPair;
use crate::edit::{edit_similarity_join, EditJoinConfig};
use crate::jaccard::{jaccard_join, JaccardConfig};
use ssjoin_core::{Algorithm, SsJoinResult};
use ssjoin_text::{AsRows, RowsRef};

/// Which similarity function drives the dedup join.
#[derive(Debug, Clone)]
pub enum DedupSimilarity {
    /// Edit similarity on whole strings (typo-dominated errors).
    Edit {
        /// Threshold α in (0, 1].
        threshold: f64,
    },
    /// IDF-weighted Jaccard resemblance on word tokens (token-reordering /
    /// token-dropping errors).
    Jaccard {
        /// Threshold α in (0, 1].
        threshold: f64,
    },
}

/// How the canonical record of each duplicate group is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Canonicalization {
    /// The longest record (heuristic: richest version of the entity).
    Longest,
    /// The record with the smallest index (stable / first-seen).
    First,
    /// The medoid: the member with the highest summed similarity to the
    /// rest of its group (computed from the join's own pairs).
    Medoid,
}

/// One deduplicated group.
#[derive(Debug, Clone, PartialEq)]
pub struct DuplicateGroup {
    /// Member record indexes, ascending.
    pub members: Vec<u32>,
    /// The elected canonical member.
    pub canonical: u32,
}

/// Result of [`dedup`].
#[derive(Debug, Clone)]
pub struct DedupResult {
    /// Duplicate groups (size ≥ 2), ordered by smallest member.
    pub groups: Vec<DuplicateGroup>,
    /// The verified match pairs the groups were built from.
    pub pairs: Vec<MatchPair>,
}

impl DedupResult {
    /// Total records covered by duplicate groups.
    pub fn duplicated_records(&self) -> usize {
        self.groups.iter().map(|g| g.members.len()).sum()
    }

    /// Map from record index to its canonical record (identity for records
    /// in no group). `n` is the table size.
    pub fn canonical_map(&self, n: usize) -> Vec<u32> {
        let mut map: Vec<u32> = (0..n as u32).collect();
        for g in &self.groups {
            for &m in &g.members {
                map[m as usize] = g.canonical;
            }
        }
        map
    }
}

/// Deduplicate `records`: self-join at the configured similarity, cluster,
/// and elect canonicals.
pub fn dedup<R: AsRows + ?Sized>(
    records: &R,
    similarity: &DedupSimilarity,
    canonicalization: Canonicalization,
) -> SsJoinResult<DedupResult> {
    let records = records.as_rows();
    let pairs = match similarity {
        DedupSimilarity::Edit { threshold } => {
            edit_similarity_join(
                &records,
                &records,
                &EditJoinConfig::new(*threshold).with_algorithm(Algorithm::Inline),
            )?
            .pairs
        }
        DedupSimilarity::Jaccard { threshold } => {
            jaccard_join(&records, &records, &JaccardConfig::resemblance(*threshold))?.pairs
        }
    };
    let groups = cluster_pairs(records.len(), &pairs)
        .into_iter()
        .map(|members| {
            let canonical = elect(records, &members, &pairs, canonicalization);
            DuplicateGroup { members, canonical }
        })
        .collect();
    Ok(DedupResult { groups, pairs })
}

fn elect(records: RowsRef<'_>, members: &[u32], pairs: &[MatchPair], how: Canonicalization) -> u32 {
    match how {
        Canonicalization::First => members[0],
        Canonicalization::Longest => *members
            .iter()
            .max_by_key(|&&m| {
                (
                    records.get(m as usize).chars().count(),
                    std::cmp::Reverse(m),
                )
            })
            .expect("groups are nonempty"),
        Canonicalization::Medoid => {
            let member_set: std::collections::HashSet<u32> = members.iter().copied().collect();
            let mut score: std::collections::HashMap<u32, f64> =
                members.iter().map(|&m| (m, 0.0)).collect();
            for p in pairs {
                if p.r != p.s && member_set.contains(&p.r) && member_set.contains(&p.s) {
                    *score.get_mut(&p.r).expect("member") += p.similarity;
                }
            }
            // Highest total similarity; ties broken by smallest index.
            let mut best = members[0];
            let mut best_score = f64::NEG_INFINITY;
            for &m in members {
                let s = score[&m];
                if s > best_score + 1e-12 {
                    best = m;
                    best_score = s;
                }
            }
            best
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records() -> Vec<String> {
        [
            "100 Main Street Springfield WA", // 0 ┐
            "100 Main St Springfield WA",     // 1 ├ group
            "100 Main Street Springfeld WA",  // 2 ┘
            "742 Evergreen Terrace",          // 3 ┐ group
            "742 Evergreen Terace",           // 4 ┘
            "1 completely different place",   // 5 singleton
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }

    #[test]
    fn finds_expected_groups() {
        let out = dedup(
            &records(),
            &DedupSimilarity::Edit { threshold: 0.8 },
            Canonicalization::First,
        )
        .unwrap();
        let member_sets: Vec<Vec<u32>> = out.groups.iter().map(|g| g.members.clone()).collect();
        assert_eq!(member_sets, vec![vec![0, 1, 2], vec![3, 4]]);
        assert_eq!(out.duplicated_records(), 5);
    }

    #[test]
    fn canonicalization_strategies() {
        let data = records();
        let first = dedup(
            &data,
            &DedupSimilarity::Edit { threshold: 0.8 },
            Canonicalization::First,
        )
        .unwrap();
        assert_eq!(first.groups[0].canonical, 0);

        let longest = dedup(
            &data,
            &DedupSimilarity::Edit { threshold: 0.8 },
            Canonicalization::Longest,
        )
        .unwrap();
        // "100 Main Street Springfield WA" (30 chars) is the longest member.
        assert_eq!(longest.groups[0].canonical, 0);
        assert_eq!(longest.groups[1].canonical, 3);

        let medoid = dedup(
            &data,
            &DedupSimilarity::Edit { threshold: 0.8 },
            Canonicalization::Medoid,
        )
        .unwrap();
        // Every member of group 0 is in the match graph; the medoid must be
        // one of them and all strategies must point into the group.
        assert!(medoid.groups[0]
            .members
            .contains(&medoid.groups[0].canonical));
    }

    #[test]
    fn canonical_map_covers_table() {
        let data = records();
        let out = dedup(
            &data,
            &DedupSimilarity::Edit { threshold: 0.8 },
            Canonicalization::First,
        )
        .unwrap();
        let map = out.canonical_map(data.len());
        assert_eq!(map, vec![0, 0, 0, 3, 3, 5]);
    }

    #[test]
    fn jaccard_variant_works() {
        let out = dedup(
            &records(),
            &DedupSimilarity::Jaccard { threshold: 0.55 },
            Canonicalization::First,
        )
        .unwrap();
        assert!(!out.groups.is_empty());
        for g in &out.groups {
            assert!(g.members.contains(&g.canonical));
            assert!(g.members.len() >= 2);
        }
    }

    #[test]
    fn clean_table_has_no_groups() {
        let data: Vec<String> = [
            "alpha apple",
            "bravo banana",
            "charlie cherry",
            "delta dates",
            "echo elderberry",
            "foxtrot figs",
            "golf grapes",
            "hotel honeydew",
            "india imbe",
            "juliet jackfruit",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let out = dedup(
            &data,
            &DedupSimilarity::Edit { threshold: 0.9 },
            Canonicalization::First,
        )
        .unwrap();
        assert!(out.groups.is_empty());
        assert_eq!(out.canonical_map(10), (0..10).collect::<Vec<u32>>());
    }
}
