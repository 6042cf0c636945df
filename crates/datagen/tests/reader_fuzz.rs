//! The column-0 reader against `read_tsv`, on seeded files and on byte
//! mutations of them. Each file holds rows of escaped and raw fields: tabs,
//! `\n`, `\r`, backslashes (a lone one at a field's end too), empty fields
//! and non-ASCII text, with LF or CRLF line ends and, at times, a last line
//! without a newline. Mutations flip, insert and delete bytes and cut the
//! file short, which makes some files invalid UTF-8.
//!
//! On every file `read_tsv` reads, `read_first_column` must return its
//! column 0 row for row; on every file it rejects, `read_first_column` must
//! return an `io::Error` of the same kind. It must never panic. (The `u32`
//! end-offset overflow is checked, by its length alone, in `ssjoin-text`'s
//! `rows` tests.)

use ssjoin_datagen::{read_first_column, read_tsv, write_field};
use ssjoin_prng::{Rng, StdRng};
use std::io;

/// The pieces a field is made of.
const PIECES: &[&str] = &[
    "a",
    "main st",
    " ",
    "",
    "\t",
    "\n",
    "\r",
    "\r\n",
    "\\",
    "\\t",
    "\\n",
    "\\r",
    "\\\\",
    "\\q",
    "caf\u{e9}",
    "\u{6771}\u{4eac}",
    "\u{130}",
    "\u{1f980}",
];

/// Bytes a mutation inserts or writes: separators, escapes, and bytes that
/// start or continue a multi-byte sequence.
const NOISE: &[u8] = &[
    b'\t', b'\n', b'\r', b'\\', b't', 0x80, 0xbf, 0xc3, 0xe2, 0xf0, 0xff,
];

fn text(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..6usize))
        .map(|_| PIECES[rng.gen_index(PIECES.len())])
        .collect()
}

/// A file of up to 12 rows. A field is escaped by `write_field` or written
/// raw, so raw tabs, newlines and backslashes (a trailing lone one
/// included) reach the reader too.
fn file(rng: &mut StdRng) -> Vec<u8> {
    let mut out = Vec::new();
    let rows = rng.gen_range(0..13usize);
    let crlf = rng.gen_bool(0.5);
    for row in 0..rows {
        for f in 0..rng.gen_range(1..5usize) {
            if f > 0 {
                out.push(b'\t');
            }
            let field = text(rng);
            if rng.gen_bool(0.7) {
                write_field(&mut out, &field).unwrap();
            } else {
                out.extend_from_slice(field.as_bytes());
            }
        }
        if row + 1 < rows || rng.gen_bool(0.7) {
            out.extend_from_slice(if crlf { b"\r\n" } else { b"\n" });
        }
    }
    out
}

/// One to four byte mutations: overwrite, insert, delete, or cut the file
/// short.
fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    for _ in 0..rng.gen_range(1..5usize) {
        let noise = NOISE[rng.gen_index(NOISE.len())];
        let at = rng.gen_range(0..bytes.len() + 1);
        match rng.gen_range(0..4u32) {
            0 if at < bytes.len() => bytes[at] = noise,
            1 => bytes.insert(at, noise),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.truncate(at),
        }
    }
}

#[test]
fn first_column_equals_read_tsv_on_seeded_and_mutated_files() {
    let dir = std::env::temp_dir().join(format!("ssjoin_reader_fuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("case.tsv");
    let mut rng = StdRng::seed_from_u64(0x07ea_de25);
    let (mut valid, mut invalid, mut rows) = (0, 0, 0);
    for case in 0..1500 {
        let mut bytes = file(&mut rng);
        if case % 2 == 1 {
            mutate(&mut rng, &mut bytes);
        }
        std::fs::write(&path, &bytes).unwrap();
        let read = read_first_column(&path);
        match read_tsv(&path) {
            Ok(table) => {
                let column = read.unwrap_or_else(|e| panic!("{bytes:?}: {e}"));
                assert_eq!(column.len(), table.len(), "{bytes:?}");
                let expect = table.iter().map(|row| row[0].as_str());
                assert!(column.iter().eq(expect), "{bytes:?}");
                valid += 1;
                rows += table.len();
            }
            Err(e) => {
                let err = read.err().unwrap_or_else(|| panic!("accepted {bytes:?}"));
                assert_eq!(err.kind(), e.kind(), "{bytes:?}");
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bytes:?}");
                invalid += 1;
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    // Both outcomes are exercised, over thousands of rows.
    assert!(
        valid >= 800 && invalid >= 100,
        "{valid} valid, {invalid} invalid"
    );
    assert!(rows >= 5000, "{rows} rows");
}
