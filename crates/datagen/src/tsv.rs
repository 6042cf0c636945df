//! Minimal TSV persistence for generated corpora.
//!
//! Implemented in-repo (no external CSV dependency): tab-separated columns,
//! one record per line, with `\t`, `\n`, `\r` and `\\` escaped by one
//! allocation-free field writer ([`write_field`]).

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

use ssjoin_text::Rows;

/// Write `field` to `w` with `\\`, `\t`, `\n` and `\r` escaped, without
/// allocating: runs of plain bytes go out as slices of `field`. Every escaped
/// character is ASCII, so a run never splits a multi-byte UTF-8 sequence.
/// [`read_tsv`] reverses it.
pub fn write_field<W: Write>(w: &mut W, field: &str) -> io::Result<()> {
    let bytes = field.as_bytes();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escaped: &[u8] = match b {
            b'\\' => b"\\\\",
            b'\t' => b"\\t",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            _ => continue,
        };
        w.write_all(&bytes[start..i])?;
        w.write_all(escaped)?;
        start = i + 1;
    }
    w.write_all(&bytes[start..])
}

/// Reverse [`write_field`]'s escapes in `field`, handing the result to
/// `out` in pieces: runs of plain text as slices of `field`, and each
/// escaped character as its own piece. An unknown escape, and a trailing
/// lone backslash, are kept as they are. Every escape is ASCII, so a run
/// never splits a multi-byte character.
fn unescape_into(field: &str, mut out: impl FnMut(&str)) {
    let mut rest = field;
    while let Some(at) = rest.find('\\') {
        let escaped = match rest.as_bytes().get(at + 1) {
            Some(b't') => "\t",
            Some(b'n') => "\n",
            Some(b'r') => "\r",
            Some(b'\\') => "\\",
            _ => {
                out(&rest[..=at]);
                rest = &rest[at + 1..];
                continue;
            }
        };
        out(&rest[..at]);
        out(escaped);
        rest = &rest[at + 2..];
    }
    out(rest);
}

/// Reverse [`write_field`]'s escapes; an unknown escape is kept as is.
fn unescape(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    unescape_into(field, |part| out.push_str(part));
    out
}

/// Write rows of string fields as TSV: fields escaped by [`write_field`],
/// separated by tabs, one row per line.
pub fn write_tsv<P: AsRef<Path>>(path: P, rows: &[Vec<String>]) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    for row in rows {
        for (i, field) in row.iter().enumerate() {
            if i > 0 {
                w.write_all(b"\t")?;
            }
            write_field(&mut w, field)?;
        }
        w.write_all(b"\n")?;
    }
    w.flush()
}

/// Read TSV rows written by [`write_tsv`].
pub fn read_tsv<P: AsRef<Path>>(path: P) -> io::Result<Vec<Vec<String>>> {
    let r = BufReader::new(File::open(path)?);
    let mut rows = Vec::new();
    for line in r.lines() {
        let line = line?;
        rows.push(line.split('\t').map(unescape).collect());
    }
    Ok(rows)
}

/// The first column of every row of a TSV file, as one [`Rows`] buffer:
/// lines pass through one reused buffer, and column 0 is unescaped straight
/// into the rows' text, so no `String` per row exists. Equals
/// `read_tsv(path)` with each row cut to its first field — a line ends at
/// `\n` or `\r\n`, an empty line is the field `""`, and invalid UTF-8
/// anywhere in a line is an [`io::ErrorKind::InvalidData`] error, as is
/// column text beyond the rows' `u32` offsets ([`ssjoin_text::RowsOverflow`]).
pub fn read_first_column<P: AsRef<Path>>(path: P) -> io::Result<Rows> {
    let file = File::open(path)?;
    // Column 0 is at most the file's bytes, and a `Rows` at most
    // `u32::MAX` of them; pages reserved past the text's end are never
    // touched.
    let bytes = file
        .metadata()
        .map_or(0, |m| m.len().min(u64::from(u32::MAX)));
    let bytes = usize::try_from(bytes).unwrap_or(0);
    let mut r = BufReader::new(file);
    let mut line = Vec::new();
    let mut column = Rows::with_capacity(bytes, 0);
    while r.read_until(b'\n', &mut line)? > 0 {
        if line.last() == Some(&b'\n') {
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
        }
        let text = std::str::from_utf8(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let field = text.split('\t').next().unwrap_or_default();
        unescape_into(field, |part| column.push_str(part));
        column.end_row()?;
        line.clear();
    }
    Ok(column)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_special_chars() {
        let dir = std::env::temp_dir().join("ssjoin_tsv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.tsv");
        let rows = vec![
            vec!["plain".to_string(), "with\ttab".to_string()],
            vec!["with\nnewline".to_string(), "back\\slash".to_string()],
            vec!["".to_string(), "end".to_string()],
        ];
        write_tsv(&path, &rows).unwrap();
        let back = read_tsv(&path).unwrap();
        assert_eq!(back, rows);
        std::fs::remove_file(&path).ok();
    }

    fn escaped(field: &str) -> String {
        let mut out = Vec::new();
        write_field(&mut out, field).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn escape_unescape_inverse() {
        for s in ["", "abc", "a\tb", "a\nb", "a\\b", "\\t", "mixed\t\n\\all"] {
            assert_eq!(unescape(&escaped(s)), s, "{s:?}");
        }
        assert_eq!(escaped("a\tb\\c\r\nd"), "a\\tb\\\\c\\r\\nd");
    }

    #[test]
    fn streamed_rows_round_trip_and_equal_write_tsv() {
        let dir = std::env::temp_dir().join("ssjoin_tsv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let (streamed, batch) = (dir.join("streamed.tsv"), dir.join("batch.tsv"));
        let rows = vec![
            vec!["back\\slash".to_string(), "tab\there".to_string()],
            vec!["new\nline".to_string(), "carriage\rreturn".to_string()],
            vec!["café ü 東京 🦀".to_string(), "\\t\t\\n\n\\\\".to_string()],
            vec!["".to_string(), "".to_string()],
        ];
        let mut w = BufWriter::new(File::create(&streamed).unwrap());
        for row in &rows {
            write_field(&mut w, &row[0]).unwrap();
            w.write_all(b"\t").unwrap();
            write_field(&mut w, &row[1]).unwrap();
            w.write_all(b"\n").unwrap();
        }
        w.flush().unwrap();
        drop(w);
        write_tsv(&batch, &rows).unwrap();
        assert_eq!(read_tsv(&streamed).unwrap(), rows);
        assert_eq!(
            std::fs::read(&streamed).unwrap(),
            std::fs::read(&batch).unwrap()
        );
        std::fs::remove_file(&streamed).ok();
        std::fs::remove_file(&batch).ok();
    }

    #[test]
    fn unknown_escape_preserved() {
        assert_eq!(unescape("a\\xb"), "a\\xb");
        assert_eq!(unescape("trailing\\"), "trailing\\");
    }

    #[test]
    fn missing_file_errors() {
        assert!(read_tsv("/nonexistent/definitely/missing.tsv").is_err());
        assert!(read_first_column("/nonexistent/definitely/missing.tsv").is_err());
    }

    /// Malformed and edge-case files: the streaming column-0 reader equals
    /// `read_tsv(..)[i][0]` on each.
    #[test]
    fn first_column_matches_read_tsv() {
        let dir = std::env::temp_dir().join("ssjoin_tsv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("first_column_{}.tsv", std::process::id()));
        let cases: &[&[u8]] = &[
            b"",
            b"\n",
            b"\n\n\n",
            b"a\r\nb\r\n",
            b"crlf\r\nlf\nno final newline",
            b"lone\rcr\r\nend\r",
            b"a\n\nb\n\n",
            b"tab\\there\tx\nnew\\nline\ty\nback\\\\slash\tz\n",
            b"trailing\\\tunknown\\q\n",
            b"one\nc0\tc1\tc2\tc3\tc4\n\tempty first\n",
            "caf\u{e9}\t\u{130}stanbul\nSTRASSE\n".as_bytes(),
        ];
        for &case in cases {
            std::fs::write(&path, case).unwrap();
            let expect: Vec<String> = read_tsv(&path)
                .unwrap()
                .into_iter()
                .map(|row| row[0].clone())
                .collect();
            let column = read_first_column(&path).unwrap();
            assert!(column.iter().eq(&expect), "{case:?}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// Invalid UTF-8 — in column 0 or a later column, on the first line or
    /// after valid ones — is an `InvalidData` error, as in `read_tsv`.
    #[test]
    fn first_column_rejects_invalid_utf8() {
        let dir = std::env::temp_dir().join("ssjoin_tsv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("invalid_utf8_{}.tsv", std::process::id()));
        let cases: &[&[u8]] = &[
            b"\xff\n",
            b"ok\n\xc3\x28\tx\n",
            b"ok\tcolumn one \xe2\x82\n",
            b"truncated at eof \xe2",
        ];
        for &case in cases {
            std::fs::write(&path, case).unwrap();
            let err = read_first_column(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{case:?}");
            assert_eq!(
                read_tsv(&path).unwrap_err().kind(),
                io::ErrorKind::InvalidData
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
