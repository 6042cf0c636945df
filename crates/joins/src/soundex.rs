//! Soundex-based similarity join.
//!
//! §1 of the paper names Soundex as the similarity function of choice for
//! person names. Two names match when the Jaccard containment of their sets
//! of per-token Soundex codes is high — misspellings that preserve
//! pronunciation ("Robert" / "Rupert") produce identical codes, so the join
//! reduces directly to SSJoin over code sets.

use crate::common::{sides, SimilarityJoinOutput};
use crate::jaccard::{jaccard_join_groups, JaccardConfig, JaccardKind};
use ssjoin_core::{Algorithm, SsJoinResult, TokenGroups, WeightScheme};
use ssjoin_text::{soundex_tokens, AsRows};

/// Configuration for [`soundex_join`].
#[derive(Debug, Clone)]
pub struct SoundexConfig {
    /// Jaccard resemblance threshold over the Soundex code sets.
    pub threshold: f64,
    /// SSJoin physical algorithm.
    pub algorithm: Algorithm,
}

impl SoundexConfig {
    /// Resemblance threshold over code sets; 1.0 means every token must have
    /// a phonetic counterpart.
    pub fn new(threshold: f64) -> Self {
        Self {
            threshold,
            algorithm: Algorithm::Inline,
        }
    }
}

/// Soundex join over name strings.
pub fn soundex_join<R: AsRows + ?Sized, S: AsRows + ?Sized>(
    r: &R,
    s: &S,
    config: &SoundexConfig,
) -> SsJoinResult<SimilarityJoinOutput> {
    let (r, s) = (r.as_rows(), s.as_rows());
    let (r_groups, s_groups) = sides(&r, &s, |xs| {
        TokenGroups::Tokenized(xs.iter().map(soundex_tokens).collect())
    });
    let jconfig = JaccardConfig {
        threshold: config.threshold,
        kind: JaccardKind::Resemblance,
        weights: WeightScheme::Unweighted,
        algorithm: config.algorithm,
        exec: Default::default(),
        order: Default::default(),
    };
    jaccard_join_groups(r_groups, s_groups, &jconfig)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn phonetic_variants_match() {
        let data = strings(&["Robert Smith", "Rupert Smyth", "Alice Jones"]);
        let out = soundex_join(&data, &data, &SoundexConfig::new(1.0)).unwrap();
        let keys = out.keys();
        // Robert/Rupert → R163; Smith/Smyth → S530.
        assert!(keys.contains(&(0, 1)));
        assert!(!keys.contains(&(0, 2)));
    }

    #[test]
    fn partial_phonetic_overlap() {
        let data = strings(&["Robert Smith", "Robert Jones"]);
        // One of two codes shared → resemblance 1/3.
        let loose = soundex_join(&data, &data, &SoundexConfig::new(0.3)).unwrap();
        assert!(loose.keys().contains(&(0, 1)));
        let tight = soundex_join(&data, &data, &SoundexConfig::new(0.5)).unwrap();
        assert!(!tight.keys().contains(&(0, 1)));
    }

    #[test]
    fn numeric_tokens_ignored() {
        let data = strings(&["Robert 42", "Rupert"]);
        let out = soundex_join(&data, &data, &SoundexConfig::new(1.0)).unwrap();
        assert!(out.keys().contains(&(0, 1)));
    }
}
