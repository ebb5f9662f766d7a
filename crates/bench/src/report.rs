//! Machine-readable harness output (`--json`).
//!
//! Every bench binary prints its human-readable tables as before; when
//! invoked with `--json` it *additionally* writes `BENCH_<name>.json` to
//! the current directory so results can be diffed, plotted, or checked in
//! CI without scraping the text tables. `--quick`, read from the same
//! arguments, asks a harness for its shrunk CI smoke workload. The file is
//! a single JSON object:
//!
//! ```json
//! {
//!   "bench": "fig3_locate",
//!   "title": "…",
//!   "scalars": { "fanout": 16, … },
//!   "tables": { "rows": { "header": […], "rows": [{col: cell, …}, …] } },
//!   "notes": ["…"]
//! }
//! ```
//!
//! Table cells stay exactly the formatted strings the text renderer shows,
//! so the JSON is a faithful record of the printed run, not a second
//! computation that could drift.

use clio_obs::json::Value;

/// Collects one binary's results and emits them as `BENCH_<name>.json`
/// when `--json` was passed on the command line.
pub struct Report {
    name: String,
    title: String,
    scalars: Vec<(String, Value)>,
    tables: Vec<(String, Value)>,
    notes: Vec<Value>,
    json: bool,
    quick: bool,
}

impl Report {
    /// Creates a report for the binary `name`, reading `--json` and
    /// `--quick` from the process arguments.
    #[must_use]
    pub fn new(name: &str, title: &str) -> Report {
        Report::from_args(name, title, std::env::args().skip(1))
    }

    /// As [`Report::new`], but with explicit arguments (for tests).
    pub fn from_args(name: &str, title: &str, args: impl IntoIterator<Item = String>) -> Report {
        let (mut json, mut quick) = (false, false);
        for a in args {
            json |= a == "--json";
            quick |= a == "--quick";
        }
        Report {
            name: name.to_owned(),
            title: title.to_owned(),
            scalars: Vec::new(),
            tables: Vec::new(),
            notes: Vec::new(),
            json,
            quick,
        }
    }

    /// Whether `--json` was requested.
    #[must_use]
    pub fn json_enabled(&self) -> bool {
        self.json
    }

    /// Whether `--quick` (the shrunk smoke workload) was requested.
    #[must_use]
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// Records a named scalar result.
    pub fn scalar(&mut self, key: &str, value: impl Into<Value>) {
        self.scalars.push((key.to_owned(), value.into()));
    }

    /// Records a table under `key`: the header verbatim, plus one object
    /// per row mapping each column name to its (formatted) cell.
    pub fn table(&mut self, key: &str, header: &[&str], rows: &[Vec<String>]) {
        let header_v = Value::Arr(header.iter().map(|h| Value::from(*h)).collect());
        let rows_v = Value::Arr(
            rows.iter()
                .map(|row| {
                    Value::Obj(
                        header
                            .iter()
                            .zip(row.iter())
                            .map(|(h, cell)| ((*h).to_owned(), Value::from(cell.clone())))
                            .collect(),
                    )
                })
                .collect(),
        );
        self.tables.push((
            key.to_owned(),
            Value::obj(vec![("header", header_v), ("rows", rows_v)]),
        ));
    }

    /// Records a free-form interpretation note.
    pub fn note(&mut self, text: &str) {
        self.notes.push(Value::from(text));
    }

    /// The report as a JSON value (regardless of the `--json` flag).
    #[must_use]
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("bench", Value::from(self.name.clone())),
            ("title", Value::from(self.title.clone())),
            ("scalars", Value::Obj(self.scalars.clone())),
            ("tables", Value::Obj(self.tables.clone())),
            ("notes", Value::Arr(self.notes.clone())),
        ])
    }

    /// Writes `BENCH_<name>.json` to the current directory if `--json` was
    /// requested; a no-op otherwise. Panics on I/O failure — in a harness,
    /// silently losing the requested output is worse than dying.
    pub fn emit(&self) {
        if !self.json {
            return;
        }
        let path = format!("BENCH_{}.json", self.name);
        let mut body = self.to_json().encode_pretty();
        body.push('\n');
        std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("\n[--json] wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_detection() {
        let on = Report::from_args("x", "t", vec!["--json".to_owned()]);
        assert!(on.json_enabled());
        let off = Report::from_args("x", "t", Vec::new());
        assert!(!off.json_enabled());
        assert!(!off.quick());
        let quick = Report::from_args("x", "t", vec!["--quick".to_owned()]);
        assert!(quick.quick());
        assert!(!quick.json_enabled());
    }

    #[test]
    fn json_round_trips_through_the_decoder() {
        let mut r = Report::from_args("demo", "a demo", vec!["--json".to_owned()]);
        r.scalar("fanout", 16u64);
        r.scalar("ratio", 0.5f64);
        r.table(
            "rows",
            &["n", "cost"],
            &[
                vec!["4".into(), "2.00".into()],
                vec!["8".into(), "1.50".into()],
            ],
        );
        r.note("shape holds");
        let v = clio_obs::json::parse(&r.to_json().encode_pretty()).expect("own output parses");
        assert_eq!(v.get("bench").and_then(Value::as_str), Some("demo"));
        assert_eq!(
            v.get("scalars")
                .and_then(|s| s.get("fanout"))
                .and_then(Value::as_i64),
            Some(16)
        );
        let rows = v
            .get("tables")
            .and_then(|t| t.get("rows"))
            .and_then(|t| t.get("rows"))
            .and_then(Value::as_arr)
            .expect("rows array");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("cost").and_then(Value::as_str), Some("1.50"));
    }
}
