//! q-gram tokenization.
//!
//! A q-gram of a string is a contiguous substring of length `q`. The edit
//! distance join of the paper (§3.1, Property 4) relies on the fact that
//! strings within edit distance ε share at least
//! `max(|σ1|, |σ2|) − q + 1 − ε·q` q-grams.
//!
//! Two conventions are supported:
//!
//! * **Unpadded** — exactly the `len − q + 1` contiguous q-grams (the
//!   convention Property 4 is stated for). Non-empty strings shorter than
//!   `q` produce a single token consisting of the whole string, so no
//!   non-empty input maps to an empty set.
//! * **Padded** — the string is extended with `q − 1` copies of a pad
//!   character on each side, producing `len + q − 1` q-grams. Padding makes
//!   errors at string boundaries count as much as interior errors, the
//!   convention of Gravano et al. (VLDB 2001).
//!
//! Under **both** conventions the empty string tokenizes to the empty
//! multiset: there is no substring content to fingerprint, and an artificial
//! `""` or all-pad token would make every pair of empty strings look like an
//! exact q-gram match while sharing nothing with any non-empty string.

use crate::Tokenizer;

/// Tokenizer producing the multiset of contiguous q-grams of a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QGramTokenizer {
    q: usize,
    pad: bool,
    pad_char: char,
}

impl QGramTokenizer {
    /// Unpadded q-gram tokenizer. `q` must be at least 1.
    ///
    /// # Panics
    /// Panics if `q == 0`.
    pub fn new(q: usize) -> Self {
        assert!(q >= 1, "q must be at least 1");
        Self {
            q,
            pad: false,
            pad_char: '#',
        }
    }

    /// Padded q-gram tokenizer: `q − 1` pad characters are conceptually
    /// appended to both ends of the string before extracting q-grams.
    ///
    /// # Panics
    /// Panics if `q == 0`.
    pub fn padded(q: usize, pad_char: char) -> Self {
        assert!(q >= 1, "q must be at least 1");
        Self {
            q,
            pad: true,
            pad_char,
        }
    }

    /// The q-gram length.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Whether this tokenizer pads string boundaries.
    pub fn is_padded(&self) -> bool {
        self.pad
    }

    /// Number of q-grams produced for a string of `len` characters. Agrees
    /// exactly with `tokenize(..).len()` for every `(len, q, pad)`.
    pub fn count_for_len(&self, len: usize) -> usize {
        if len == 0 {
            // Both conventions: the empty string has no q-grams.
            0
        } else if self.pad {
            len + self.q - 1
        } else {
            qgram_count(len, self.q)
        }
    }
}

impl Tokenizer for QGramTokenizer {
    /// Unpadded q-grams are substrings of `s`; padded ones are windows of
    /// the padded string, assembled once in `scratch`.
    fn for_each_token(&self, s: &str, scratch: &mut String, f: &mut dyn FnMut(&str)) {
        if s.is_empty() {
            // Both conventions: the empty string tokenizes to no q-grams.
            return;
        }
        let text = if self.pad {
            let pad = || (1..self.q).map(|_| self.pad_char);
            scratch.clear();
            scratch.extend(pad());
            scratch.push_str(s);
            scratch.extend(pad());
            scratch.as_str()
        } else {
            s
        };
        // Window k spans chars k..k+q: from the k-th char boundary to the
        // (k+q)-th, or to the end of `text` for the last window. Shorter
        // than q chars (unpadded only), the one window is the whole string.
        let bounds = || text.char_indices().map(|(i, _)| i);
        let ends = bounds().skip(self.q).chain(std::iter::once(text.len()));
        for (start, end) in bounds().zip(ends) {
            f(&text[start..end]);
        }
    }

    fn token_count(&self, s: &str) -> usize {
        self.count_for_len(s.chars().count())
    }
}

/// Number of contiguous (unpadded) q-grams of a string of `len` characters:
/// `max(len − q + 1, 1)` for non-empty strings, `0` for the empty string.
///
/// The floor of 1 reflects the tokenizer's behaviour of emitting the whole
/// string as a single token when it is non-empty but shorter than `q`; the
/// empty string has no substring content and tokenizes to nothing.
pub fn qgram_count(len: usize, q: usize) -> usize {
    if len == 0 {
        0
    } else if len >= q {
        len - q + 1
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpadded_basic() {
        let t = QGramTokenizer::new(3);
        assert_eq!(t.tokenize("abcde"), vec!["abc", "bcd", "cde"]);
    }

    #[test]
    fn unpadded_exact_length() {
        let t = QGramTokenizer::new(3);
        assert_eq!(t.tokenize("abc"), vec!["abc"]);
    }

    #[test]
    fn unpadded_short_string_is_single_token() {
        let t = QGramTokenizer::new(3);
        assert_eq!(t.tokenize("ab"), vec!["ab"]);
    }

    #[test]
    fn empty_string_has_no_qgrams_either_convention() {
        for t in [QGramTokenizer::new(3), QGramTokenizer::padded(3, '#')] {
            assert_eq!(t.tokenize(""), Vec::<String>::new(), "{t:?}");
            assert_eq!(t.token_count(""), 0, "{t:?}");
        }
    }

    #[test]
    fn padded_basic() {
        let t = QGramTokenizer::padded(2, '#');
        assert_eq!(t.tokenize("ab"), vec!["#a", "ab", "b#"]);
    }

    #[test]
    fn padded_counts_match() {
        let t = QGramTokenizer::padded(3, '#');
        for s in ["", "a", "ab", "abc", "abcdef"] {
            assert_eq!(t.tokenize(s).len(), t.token_count(s), "input {s:?}");
        }
    }

    #[test]
    fn unpadded_counts_match() {
        let t = QGramTokenizer::new(3);
        for s in ["", "a", "ab", "abc", "abcdef"] {
            assert_eq!(t.tokenize(s).len(), t.token_count(s), "input {s:?}");
        }
    }

    #[test]
    fn multibyte_chars_respected() {
        let t = QGramTokenizer::new(2);
        assert_eq!(t.tokenize("héllo"), vec!["hé", "él", "ll", "lo"]);
    }

    #[test]
    fn q1_is_characters() {
        let t = QGramTokenizer::new(1);
        assert_eq!(t.tokenize("abc"), vec!["a", "b", "c"]);
    }

    #[test]
    fn padded_q1_empty() {
        let t = QGramTokenizer::padded(1, '#');
        assert_eq!(t.tokenize(""), Vec::<String>::new());
        assert_eq!(t.token_count(""), 0);
        assert_eq!(t.tokenize("a"), vec!["a"]);
    }

    #[test]
    fn qgram_count_formula() {
        assert_eq!(qgram_count(10, 3), 8);
        assert_eq!(qgram_count(3, 3), 1);
        assert_eq!(qgram_count(2, 3), 1);
        assert_eq!(qgram_count(1, 3), 1);
        assert_eq!(qgram_count(0, 3), 0);
        assert_eq!(qgram_count(0, 1), 0);
    }

    #[test]
    #[should_panic(expected = "q must be at least 1")]
    fn zero_q_panics() {
        QGramTokenizer::new(0);
    }

    #[test]
    fn count_matches_tokenize_exhaustively() {
        // Satellite property: count_for_len agrees exactly with the
        // tokenizer output length for every (len, q, pad) combination.
        for q in 1..=4usize {
            for pad in [false, true] {
                let t = if pad {
                    QGramTokenizer::padded(q, '#')
                } else {
                    QGramTokenizer::new(q)
                };
                for len in 0..=8usize {
                    let s: String = (0..len).map(|i| (b'a' + (i % 26) as u8) as char).collect();
                    assert_eq!(
                        t.tokenize(&s).len(),
                        t.count_for_len(len),
                        "len {len} q {q} pad {pad}"
                    );
                    assert_eq!(t.token_count(&s), t.count_for_len(len));
                }
            }
        }
    }

    #[test]
    fn duplicate_grams_preserved() {
        // "aaaa" has three identical 2-grams; multiset semantics keep all.
        let t = QGramTokenizer::new(2);
        assert_eq!(t.tokenize("aaaa"), vec!["aa", "aa", "aa"]);
    }

    #[test]
    fn paper_example_microsoft_corp() {
        // §2: "Microsoft Corporation" example uses 3-grams; "Microsoft Corp"
        // (14 chars) has 12 contiguous 3-grams.
        let t = QGramTokenizer::new(3);
        assert_eq!(t.tokenize("Microsoft Corp").len(), 12);
        // And the deletion neighbour has 11, matching Figure 1's norms.
        assert_eq!(t.tokenize("Mcrosoft Corp").len(), 11);
    }
}
