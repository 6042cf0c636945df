//! String tokenization and encoding utilities for set-similarity joins.
//!
//! The SSJoin operator (Chaudhuri, Ganti, Kaushik; ICDE 2006) compares values
//! through *sets* associated with them. This crate provides the standard ways
//! of mapping a string to a set that the paper uses:
//!
//! * [`QGramTokenizer`] — the set of all contiguous substrings of length `q`
//!   (optionally padded so that string boundaries are represented),
//! * [`WordTokenizer`] — the set of words partitioned by delimiters,
//! * [`ordinalize`] — the multiset-to-set conversion of §4.3.1 of the paper:
//!   the i-th occurrence of a token `t` becomes the pair `(t, i)` so that
//!   multiset intersection can be computed with plain equi-joins,
//! * [`Normalizer`] — case folding / punctuation stripping applied before
//!   tokenization,
//! * [`soundex`] — the Soundex phonetic code, one of the similarity notions
//!   the paper lists for person-name matching,
//! * [`Rows`] — a table of strings held once, as one text buffer plus `u32`
//!   row ends; [`AsRows`] lends it, a `[String]` or a `Vec<String>` as one
//!   [`RowsRef`] view, the form in which the joins take their rows.
//!
//! All tokenizers operate on `char` boundaries, so multi-byte UTF-8 input is
//! handled correctly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod multiset;
mod normalize;
mod qgram;
mod rows;
mod soundex;
mod words;

pub use multiset::{ordinalize, ordinalize_ref, OrdinalToken};
pub use normalize::{NormalizeConfig, Normalizer};
pub use qgram::{qgram_count, QGramTokenizer};
pub use rows::{AsRows, Rows, RowsOverflow, RowsRef};
pub use soundex::{soundex, soundex_tokens};
pub use words::WordTokenizer;

/// Maps a string to the (multi)set of tokens that represents it.
///
/// Implementations must be deterministic: the same input always produces the
/// same token sequence, in a stable order. Downstream code is free to treat
/// the output as a multiset.
///
/// Each tokenizer has one tokenizing loop, [`Tokenizer::for_each_token`],
/// which lends every token as a `&str`; [`Tokenizer::tokenize`] and
/// [`Tokenizer::token_count`] are defined through it. Callers that intern
/// tokens (the SSJoin input builder) visit them without allocating a
/// `String` per token.
pub trait Tokenizer {
    /// Call `f` on every token of `s`, in order. A token that is not a
    /// substring of `s` (lowercased, padded) is assembled in `scratch`, a
    /// caller-owned buffer reused across calls; its contents afterwards are
    /// unspecified.
    fn for_each_token(&self, s: &str, scratch: &mut String, f: &mut dyn FnMut(&str));

    /// Tokenize `s` into a sequence of owned tokens.
    fn tokenize(&self, s: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.for_each_token(s, &mut String::new(), &mut |t| out.push(t.to_owned()));
        out
    }

    /// The number of tokens `tokenize` would produce, counted without
    /// materializing them.
    fn token_count(&self, s: &str) -> usize {
        let mut n = 0;
        self.for_each_token(s, &mut String::new(), &mut |_| n += 1);
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_object_usable() {
        let tok: Box<dyn Tokenizer> = Box::new(WordTokenizer::default());
        assert_eq!(tok.tokenize("a b"), vec!["a", "b"]);
        assert_eq!(tok.token_count("a b"), 2);
    }
}
