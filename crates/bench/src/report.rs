//! Markdown-style table rendering and machine-readable JSON reports for the
//! experiment harness.

use std::io::Write;
use std::time::Duration;

/// A simple text table with a title, printed in GitHub-markdown style.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n### {}\n\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&fmt_row(&self.header));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("| {} |\n", sep.join(" | ")));
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Render as a JSON object `{"title": .., "header": [..], "rows": [[..]]}`.
    pub fn to_json(&self) -> String {
        let header: Vec<String> = self.header.iter().map(|h| json_string(h)).collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| {
                let cells: Vec<String> = row.iter().map(|c| json_string(c)).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        format!(
            "{{\"title\":{},\"header\":[{}],\"rows\":[{}]}}",
            json_string(&self.title),
            header.join(","),
            rows.join(",")
        )
    }
}

/// Escape a string as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Collects every table and scalar metric an experiment run produces and can
/// serialize the whole run as one JSON document (`BENCH_1.json`) for CI
/// artifact consumption — no serde, plain string assembly.
#[derive(Debug, Default)]
pub struct Report {
    emit_json: bool,
    tables: Vec<Table>,
    /// `(key, already-serialized JSON value)` pairs, in insertion order.
    metrics: Vec<(String, String)>,
}

impl Report {
    /// New report; when `emit_json` is false, tables are printed but not
    /// retained.
    pub fn new(emit_json: bool) -> Self {
        Self {
            emit_json,
            tables: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Print a table to stdout and (when JSON is enabled) retain it.
    pub fn table(&mut self, t: Table) {
        t.print();
        if self.emit_json {
            self.tables.push(t);
        }
    }

    /// Record a named floating-point metric.
    pub fn metric_f64(&mut self, key: impl Into<String>, value: f64) {
        let rendered = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.metrics.push((key.into(), rendered));
    }

    /// Record a named integer metric.
    pub fn metric_u64(&mut self, key: impl Into<String>, value: u64) {
        self.metrics.push((key.into(), value.to_string()));
    }

    /// Record a named string metric.
    pub fn metric_str(&mut self, key: impl Into<String>, value: &str) {
        self.metrics.push((key.into(), json_string(value)));
    }

    /// Serialize the report as a JSON document. The header carries the host
    /// topology (see [`host_parallelism`]) so single-core snapshots — like
    /// the PR 6 ablation-shard run — are self-describing.
    pub fn to_json(&self, scale: f64) -> String {
        let tables: Vec<String> = self.tables.iter().map(Table::to_json).collect();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("{}:{}", json_string(k), v))
            .collect();
        let cores = host_parallelism();
        format!(
            "{{\"schema\":\"ssjoin-bench/1\",\"scale\":{scale},\
             \"host\":{{\"available_parallelism\":{cores}}},\
             \"metrics\":{{{}}},\"tables\":[{}]}}\n",
            metrics.join(","),
            tables.join(",")
        )
    }

    /// Write the JSON document to `path` when JSON emission is enabled.
    /// Returns whether a file was written.
    pub fn write_json(&self, path: &str, scale: f64) -> std::io::Result<bool> {
        if !self.emit_json {
            return Ok(false);
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_json(scale).as_bytes())?;
        Ok(true)
    }
}

/// The host's `available_parallelism` (1 when the probe fails). The core
/// executors run every requested worker, so a run that requested more
/// workers than this shared these cores among them.
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Milliseconds with two decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1000.0)
}

/// Integer with thousands separators.
pub fn count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("### Demo"));
        assert!(s.contains("| long-name | 12345 |"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(Duration::from_millis(1500)), "1500.00");
        assert_eq!(count(1234567), "1,234,567");
        assert_eq!(count(42), "42");
        assert_eq!(count(0), "0");
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn table_to_json_roundtrip_shape() {
        let mut t = Table::new("T \"quoted\"", &["a", "b"]);
        t.row(vec!["1".into(), "x,y".into()]);
        let j = t.to_json();
        assert_eq!(
            j,
            "{\"title\":\"T \\\"quoted\\\"\",\"header\":[\"a\",\"b\"],\"rows\":[[\"1\",\"x,y\"]]}"
        );
    }

    #[test]
    fn report_serializes_metrics_and_tables() {
        let mut r = Report::new(true);
        let mut t = Table::new("demo", &["k"]);
        t.row(vec!["v".into()]);
        r.table(t);
        r.metric_f64("speedup", 2.5);
        r.metric_u64("prunes", 7);
        r.metric_str("status", "ok");
        r.metric_f64("bad", f64::NAN);
        let j = r.to_json(0.5);
        assert!(j.starts_with("{\"schema\":\"ssjoin-bench/1\",\"scale\":0.5,"));
        let cores = host_parallelism();
        assert!(j.contains(&format!("\"host\":{{\"available_parallelism\":{cores}}}")));
        assert!(j.contains("\"speedup\":2.5"));
        assert!(j.contains("\"prunes\":7"));
        assert!(j.contains("\"status\":\"ok\""));
        assert!(j.contains("\"bad\":null"));
        assert!(j.contains("\"title\":\"demo\""));
        assert!(j.ends_with("\n"));
    }

    #[test]
    fn report_without_json_retains_nothing() {
        let mut r = Report::new(false);
        r.table(Table::new("x", &["a"]));
        assert!(!r
            .write_json("/nonexistent/should-not-write.json", 1.0)
            .unwrap());
    }
}
