//! Rows of text held once: one buffer of concatenated row text plus each
//! row's `u32` end offset ([`Rows`]), and the one borrowed view every layer
//! reads rows through ([`RowsRef`], obtained by [`AsRows`] from a [`Rows`],
//! a `[String]` or a `Vec<String>`).

use std::fmt;

/// The rows' text outgrew the `u32` offset space: a [`Rows`] holds at most
/// `u32::MAX` bytes of text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowsOverflow {
    /// The text length, in bytes, that did not fit.
    pub bytes: usize,
}

impl fmt::Display for RowsOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rows text of {} bytes exceeds the u32 offset space ({} bytes)",
            self.bytes,
            u32::MAX
        )
    }
}

impl std::error::Error for RowsOverflow {}

impl From<RowsOverflow> for std::io::Error {
    fn from(e: RowsOverflow) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Owned rows of text: every row's text concatenated into one `String`,
/// plus the `u32` offset where each row ends. A row costs its bytes and 4
/// more, with no allocation of its own.
///
/// A row is appended whole by [`Rows::push`], or piece by piece by
/// [`Rows::push_str`] and closed by [`Rows::end_row`]; until it is closed,
/// it is not one of the rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rows {
    text: String,
    /// Row `i` ends at `ends[i]` and starts where row `i − 1` ends.
    ends: Vec<u32>,
}

/// The end offset of a row whose text ends at byte `len` of the buffer, or
/// the overflow when `len` does not fit `u32`.
fn end_offset(len: usize) -> Result<u32, RowsOverflow> {
    u32::try_from(len).map_err(|_| RowsOverflow { bytes: len })
}

impl Rows {
    /// No rows.
    pub fn new() -> Self {
        Self::default()
    }

    /// No rows, with room for `bytes` of text and `rows` rows.
    pub fn with_capacity(bytes: usize, rows: usize) -> Self {
        Self {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(rows),
        }
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The text of row `i`.
    ///
    /// # Panics
    /// When `i >= self.len()`, as slice indexing does.
    pub fn get(&self, i: usize) -> &str {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p]);
        &self.text[start as usize..self.ends[i] as usize]
    }

    /// Every row, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + Clone + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Append `row`.
    ///
    /// # Errors
    /// [`RowsOverflow`] when the text would outgrow `u32::MAX` bytes; the
    /// rows are then unchanged.
    pub fn push(&mut self, row: &str) -> Result<(), RowsOverflow> {
        self.push_str(row);
        self.end_row()
    }

    /// Append `part` to the open row (the text after the last row).
    pub fn push_str(&mut self, part: &str) {
        self.text.push_str(part);
    }

    /// Close the open row: the text appended since the last row becomes
    /// row `len()`.
    ///
    /// # Errors
    /// [`RowsOverflow`] when the text has outgrown `u32::MAX` bytes; the
    /// open row's text is then dropped, so the rows are as before it.
    pub fn end_row(&mut self) -> Result<(), RowsOverflow> {
        match end_offset(self.text.len()) {
            Ok(end) => {
                self.ends.push(end);
                Ok(())
            }
            Err(e) => {
                self.truncate(self.len());
                Err(e)
            }
        }
    }

    /// Keep the first `len` rows (all of them when there are fewer) and
    /// drop the rest, the open row included.
    pub fn truncate(&mut self, len: usize) {
        self.ends.truncate(len);
        self.text
            .truncate(self.ends.last().map_or(0, |&end| end as usize));
    }
}

impl std::ops::Index<usize> for Rows {
    type Output = str;

    /// Row `i`, as [`Rows::get`].
    fn index(&self, i: usize) -> &str {
        self.get(i)
    }
}

/// Collects rows, one per item.
///
/// # Panics
/// When the text outgrows `u32::MAX` bytes, as a `Vec` panics when its
/// capacity overflows; [`Rows::push`] reports it as an error instead.
impl<S: AsRef<str>> FromIterator<S> for Rows {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        let mut rows = Rows::new();
        for row in iter {
            rows.push(row.as_ref())
                .expect("rows text exceeds u32::MAX bytes");
        }
        rows
    }
}

/// A borrowed table of rows: a [`Rows`] buffer or a slice of `String`s,
/// read the same way. It is `Copy`, so it can be handed to every worker of
/// a build or a join.
#[derive(Debug, Clone, Copy)]
pub struct RowsRef<'a>(Source<'a>);

#[derive(Debug, Clone, Copy)]
enum Source<'a> {
    Packed(&'a Rows),
    Strings(&'a [String]),
}

impl<'a> RowsRef<'a> {
    /// The number of rows.
    pub fn len(self) -> usize {
        match self.0 {
            Source::Packed(rows) => rows.len(),
            Source::Strings(rows) => rows.len(),
        }
    }

    /// True when there are no rows.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The text of row `i`.
    ///
    /// # Panics
    /// When `i >= self.len()`, as slice indexing does.
    pub fn get(self, i: usize) -> &'a str {
        match self.0 {
            Source::Packed(rows) => rows.get(i),
            Source::Strings(rows) => &rows[i],
        }
    }

    /// Every row, in order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = &'a str> + Clone {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// True when both views read the same table: the same [`Rows`], or the
    /// same slice of `String`s (a `Vec` and its full slice are the same
    /// table). Equal rows held twice are not the same table.
    pub fn same(self, other: RowsRef<'_>) -> bool {
        match (self.0, other.0) {
            (Source::Packed(a), Source::Packed(b)) => std::ptr::eq(a, b),
            (Source::Strings(a), Source::Strings(b)) => std::ptr::eq(a, b),
            _ => false,
        }
    }

    /// The rows copied into one buffer.
    ///
    /// # Errors
    /// [`RowsOverflow`] when their text exceeds `u32::MAX` bytes.
    pub fn to_rows(self) -> Result<Rows, RowsOverflow> {
        if let Source::Packed(rows) = self.0 {
            return Ok(rows.clone());
        }
        let bytes = self.iter().map(str::len).sum();
        end_offset(bytes)?;
        let mut rows = Rows::with_capacity(bytes, self.len());
        for row in self.iter() {
            rows.push(row)?;
        }
        Ok(rows)
    }
}

/// Anything that holds rows of text: [`Rows`], `[String]`, `Vec<String>`,
/// `[String; N]`, a [`RowsRef`], and a reference to any of them. The joins
/// take their rows through it, so each caller passes what it holds and no
/// row is copied.
pub trait AsRows {
    /// The rows, borrowed.
    fn as_rows(&self) -> RowsRef<'_>;
}

impl AsRows for Rows {
    fn as_rows(&self) -> RowsRef<'_> {
        RowsRef(Source::Packed(self))
    }
}

impl AsRows for [String] {
    fn as_rows(&self) -> RowsRef<'_> {
        RowsRef(Source::Strings(self))
    }
}

impl AsRows for Vec<String> {
    fn as_rows(&self) -> RowsRef<'_> {
        RowsRef(Source::Strings(self))
    }
}

impl<const N: usize> AsRows for [String; N] {
    fn as_rows(&self) -> RowsRef<'_> {
        RowsRef(Source::Strings(self))
    }
}

impl AsRows for RowsRef<'_> {
    fn as_rows(&self) -> RowsRef<'_> {
        *self
    }
}

impl<T: AsRows + ?Sized> AsRows for &T {
    fn as_rows(&self) -> RowsRef<'_> {
        (**self).as_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_hold_every_row_once() {
        let texts = ["", "abc", "", "caf\u{e9} \u{6771}\u{4eac}", "tab\there"];
        let rows: Rows = texts.iter().collect();
        assert_eq!(rows.len(), texts.len());
        assert!(rows.iter().eq(texts.iter().copied()));
        assert_eq!(&rows[3], texts[3]);
        assert!(Rows::new().is_empty());
        assert_eq!(Rows::new().iter().count(), 0);
    }

    #[test]
    fn an_open_row_is_not_a_row_until_it_ends() {
        let mut rows = Rows::new();
        rows.push("first").unwrap();
        rows.push_str("sec");
        rows.push_str("\u{f6}");
        rows.push_str("nd");
        assert_eq!(rows.len(), 1);
        rows.end_row().unwrap();
        assert_eq!(rows.get(1), "sec\u{f6}nd");
        rows.push_str("dropped");
        rows.truncate(1);
        rows.push("third").unwrap();
        assert!(rows.iter().eq(["first", "third"]));
    }

    /// The end offset of a row is checked against `u32` by its length
    /// alone, so the overflow is tested without 4 GiB of text.
    #[test]
    fn the_u32_end_offset_overflow_is_a_typed_error() {
        let last = u32::MAX as usize;
        assert_eq!(end_offset(last), Ok(u32::MAX));
        let err = end_offset(last + 1).unwrap_err();
        assert_eq!(err, RowsOverflow { bytes: last + 1 });
        assert!(err.to_string().contains("u32"), "{err}");
        let io = std::io::Error::from(err);
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn views_read_packed_rows_and_strings_alike() {
        let strings: Vec<String> = ["x", "", "y z"].iter().map(|s| s.to_string()).collect();
        let packed: Rows = strings.iter().collect();
        let (a, b) = (strings.as_rows(), packed.as_rows());
        assert_eq!(a.len(), b.len());
        assert!(a.iter().eq(b.iter()));
        assert_eq!(a.to_rows().unwrap(), packed);
        assert_eq!(b.to_rows().unwrap(), packed);
        assert_eq!(b.get(2), "y z");
    }

    #[test]
    fn same_is_identity_not_equality() {
        let strings: Vec<String> = vec!["a".into(), "b".into()];
        let copy = strings.clone();
        let packed: Rows = strings.iter().collect();
        let packed_copy = packed.clone();
        assert!(strings.as_rows().same(strings.as_rows()));
        assert!(strings.as_rows().same(strings[..].as_rows()));
        assert!(!strings.as_rows().same(strings[..1].as_rows()));
        assert!(!strings.as_rows().same(copy.as_rows()));
        assert!(packed.as_rows().same(packed.as_rows()));
        assert!(!packed.as_rows().same(packed_copy.as_rows()));
        assert!(!packed.as_rows().same(strings.as_rows()));
    }
}
