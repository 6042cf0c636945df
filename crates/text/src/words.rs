//! Word tokenization.

use crate::Tokenizer;

/// Tokenizer splitting a string into words.
///
/// By default words are maximal runs of alphanumeric characters; everything
/// else (whitespace, punctuation) is a delimiter. A custom delimiter
/// predicate can be supplied with [`WordTokenizer::with_delimiters`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WordTokenizer {
    delimiters: DelimiterRule,
    lowercase: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum DelimiterRule {
    /// Split on anything that is not alphanumeric.
    NonAlphanumeric,
    /// Split on whitespace only.
    Whitespace,
    /// Split on an explicit character set.
    Chars(Vec<char>),
}

impl Default for WordTokenizer {
    fn default() -> Self {
        Self {
            delimiters: DelimiterRule::NonAlphanumeric,
            lowercase: false,
        }
    }
}

impl WordTokenizer {
    /// Tokenizer splitting on non-alphanumeric characters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tokenizer splitting on whitespace only (punctuation is kept inside
    /// tokens).
    pub fn whitespace() -> Self {
        Self {
            delimiters: DelimiterRule::Whitespace,
            lowercase: false,
        }
    }

    /// Tokenizer splitting on the given delimiter characters.
    pub fn with_delimiters(delims: &[char]) -> Self {
        Self {
            delimiters: DelimiterRule::Chars(delims.to_vec()),
            lowercase: false,
        }
    }

    /// Lowercase every token as it is produced.
    pub fn lowercased(mut self) -> Self {
        self.lowercase = true;
        self
    }

    fn is_delim(&self, c: char) -> bool {
        match &self.delimiters {
            DelimiterRule::NonAlphanumeric => !c.is_alphanumeric(),
            DelimiterRule::Whitespace => c.is_whitespace(),
            DelimiterRule::Chars(set) => set.contains(&c),
        }
    }

    /// The byte path for an ASCII `s`: on ASCII, `is_ascii_alphanumeric` and
    /// `to_ascii_lowercase` equal the `char` versions, so every token is a
    /// byte range of `s` — or of its lowercased copy in `scratch`, at the
    /// same offsets. Delimiters are tested on `s`, as the `char` path does.
    fn ascii_tokens(&self, s: &str, scratch: &mut String, f: &mut dyn FnMut(&str)) {
        let text = if self.lowercase {
            scratch.clear();
            scratch.push_str(s);
            scratch.make_ascii_lowercase();
            scratch.as_str()
        } else {
            s
        };
        let is_delim = |b: u8| match &self.delimiters {
            DelimiterRule::NonAlphanumeric => !b.is_ascii_alphanumeric(),
            DelimiterRule::Whitespace | DelimiterRule::Chars(_) => self.is_delim(char::from(b)),
        };
        let mut start = 0;
        for (i, &b) in s.as_bytes().iter().enumerate() {
            if is_delim(b) {
                if start < i {
                    f(&text[start..i]);
                }
                start = i + 1;
            }
        }
        if start < s.len() {
            f(&text[start..]);
        }
    }

    /// The `char` path, for any `s`: each token is assembled in `scratch`.
    fn char_tokens(&self, s: &str, scratch: &mut String, f: &mut dyn FnMut(&str)) {
        scratch.clear();
        for c in s.chars() {
            if self.is_delim(c) {
                if !scratch.is_empty() {
                    f(scratch);
                    scratch.clear();
                }
            } else if self.lowercase {
                scratch.extend(c.to_lowercase());
            } else {
                scratch.push(c);
            }
        }
        if !scratch.is_empty() {
            f(scratch);
        }
    }
}

impl Tokenizer for WordTokenizer {
    fn for_each_token(&self, s: &str, scratch: &mut String, f: &mut dyn FnMut(&str)) {
        if s.is_ascii() {
            self.ascii_tokens(s, scratch, f);
        } else {
            self.char_tokens(s, scratch, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_whitespace_and_punctuation() {
        let t = WordTokenizer::new();
        assert_eq!(t.tokenize("Microsoft Corp."), vec!["Microsoft", "Corp"]);
        assert_eq!(t.tokenize("148th Ave, NE"), vec!["148th", "Ave", "NE"]);
    }

    #[test]
    fn whitespace_only_keeps_punctuation() {
        let t = WordTokenizer::whitespace();
        assert_eq!(t.tokenize("Corp. Inc"), vec!["Corp.", "Inc"]);
    }

    #[test]
    fn custom_delimiters() {
        let t = WordTokenizer::with_delimiters(&[',', ';']);
        assert_eq!(t.tokenize("a,b;c d"), vec!["a", "b", "c d"]);
    }

    #[test]
    fn empty_and_all_delims() {
        let t = WordTokenizer::new();
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("  ,.;  ").is_empty());
    }

    #[test]
    fn lowercasing() {
        let t = WordTokenizer::new().lowercased();
        assert_eq!(t.tokenize("Microsoft CORP"), vec!["microsoft", "corp"]);
    }

    #[test]
    fn duplicates_preserved_in_order() {
        let t = WordTokenizer::new();
        assert_eq!(t.tokenize("a b a"), vec!["a", "b", "a"]);
    }

    #[test]
    fn unicode_words() {
        let t = WordTokenizer::new();
        assert_eq!(t.tokenize("café münchen"), vec!["café", "münchen"]);
    }
}
