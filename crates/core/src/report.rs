//! Plain-text, CSV, and JSON rendering.
//!
//! Every experiment renders its data through [`TextTable`] so the
//! engine's text artifacts hold the same rows the paper's tables and
//! figure series contain, in a form that diffs cleanly run-to-run.
//! Structured outputs (the engine's run reports) go through [`Json`],
//! a deterministic, insertion-ordered JSON value: the same data always
//! serializes to the same bytes, which is what makes "bit-identical
//! reports at any worker count" a checkable contract.

/// A simple column-aligned text table.
///
/// # Example
///
/// ```
/// use chipletqc::report::TextTable;
///
/// let mut t = TextTable::new(["size", "yield"]);
/// t.row(["100", "0.11"]);
/// t.row(["10", "0.85"]);
/// let s = t.to_string();
/// assert!(s.contains("size"));
/// assert!(s.lines().count() >= 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> TextTable {
        TextTable { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells for {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders as comma-separated values (headers first). Cells
    /// containing commas or quotes are quoted.
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(|h| escape(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let render_row =
            |f: &mut std::fmt::Formatter<'_>, cells: &[String]| -> std::fmt::Result {
                let mut line = String::new();
                for (w, cell) in widths.iter().zip(cells) {
                    line.push_str(&format!("{cell:>w$}  "));
                }
                writeln!(f, "{}", line.trim_end())
            };
        render_row(f, &self.headers)?;
        let total: usize = widths.iter().map(|w| w + 2).sum::<usize>().saturating_sub(2);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            render_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats an optional ratio, using the paper's "X" marker for
/// undefined ratios (0 %-yield monolithic counterparts ⇒ unbounded MCM
/// advantage).
pub fn fmt_ratio(ratio: Option<f64>) -> String {
    match ratio {
        Some(r) => format!("{r:.4}"),
        None => "X".to_string(),
    }
}

/// Formats a yield fraction with sensible precision.
pub fn fmt_yield(y: f64) -> String {
    format!("{y:.4}")
}

/// A deterministic JSON value.
///
/// Objects preserve insertion order (no hash-map iteration order leaks
/// into the output), and numbers serialize through Rust's shortest
/// round-trip float formatting, so serialization is a pure function of
/// the value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values serialize as `null`).
    Num(f64),
    /// An exact integer (covers the full `u64`/`i64` ranges, which
    /// `f64` cannot represent beyond 2⁵³ — seeds are `u64`).
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
    /// Pre-rendered JSON text, spliced into the output verbatim
    /// (compact mode) or re-indented line-by-line (pretty mode).
    ///
    /// The text must be what [`Json::to_json`]/[`Json::to_json_pretty`]
    /// would have produced for the value at nesting level 0 (pretty
    /// text without the trailing newline). Re-indenting prepends the
    /// enclosing level's padding to every continuation line, which is
    /// exactly the recursive writer's output for the same value — this
    /// is what lets a merger splice serialized fragments from another
    /// process into a byte-identical document.
    Raw(String),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds or replaces a key in an object (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => {
                let value = value.into();
                if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                    slot.1 = value;
                } else {
                    fields.push((key.to_string(), value));
                }
            }
            other => panic!("Json::field on non-object {other:?}"),
        }
        self
    }

    /// Serializes to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Serializes with two-space indentation.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        let (open_pad, close_pad, item_sep): (String, String, &str) = match indent {
            Some(level) => (
                format!("\n{}", "  ".repeat(level + 1)),
                format!("\n{}", "  ".repeat(level)),
                ",",
            ),
            None => (String::new(), String::new(), ","),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // Integral values print without a trailing ".0".
                    if *n == n.trunc() && n.abs() < 1e15 {
                        out.push_str(&format!("{}", *n as i64));
                    } else {
                        out.push_str(&format!("{n}"));
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Str(s) => write_escaped(out, s),
            Json::Raw(text) => match indent {
                // Level-0 pretty text indents continuation lines by
                // two spaces per nesting level below the root; at
                // splice level `level` every line sits `level` levels
                // deeper, so each embedded newline gains that padding.
                Some(level) if level > 0 => {
                    out.push_str(&text.replace('\n', &format!("\n{}", "  ".repeat(level))));
                }
                _ => out.push_str(text),
            },
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(item_sep);
                    }
                    out.push_str(&open_pad);
                    item.write(out, indent.map(|l| l + 1));
                }
                out.push_str(&close_pad);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(item_sep);
                    }
                    out.push_str(&open_pad);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent.map(|l| l + 1));
                }
                out.push_str(&close_pad);
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
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
}

impl From<bool> for Json {
    fn from(value: bool) -> Json {
        Json::Bool(value)
    }
}

impl From<f64> for Json {
    fn from(value: f64) -> Json {
        Json::Num(value)
    }
}

impl From<usize> for Json {
    fn from(value: usize) -> Json {
        Json::Int(value as i128)
    }
}

impl From<u64> for Json {
    fn from(value: u64) -> Json {
        Json::Int(i128::from(value))
    }
}

impl From<i64> for Json {
    fn from(value: i64) -> Json {
        Json::Int(i128::from(value))
    }
}

impl From<&str> for Json {
    fn from(value: &str) -> Json {
        Json::Str(value.to_string())
    }
}

impl From<String> for Json {
    fn from(value: String) -> Json {
        Json::Str(value)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(value: Option<T>) -> Json {
        value.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(value: Vec<T>) -> Json {
        Json::Arr(value.into_iter().map(Into::into).collect())
    }
}

impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligns_columns() {
        let mut t = TextTable::new(["a", "verylongheader"]);
        t.row(["1", "2"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("verylongheader"));
        assert!(lines[1].starts_with('-'));
    }

    #[test]
    #[should_panic(expected = "cells for")]
    fn rejects_ragged_rows() {
        TextTable::new(["a", "b"]).row(["only one"]);
    }

    #[test]
    fn csv_escapes() {
        let mut t = TextTable::new(["name", "value"]);
        t.row(["with,comma", "with\"quote"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"with,comma\""));
        assert!(csv.contains("\"with\"\"quote\""));
        assert_eq!(csv.lines().count(), 2);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(fmt_ratio(Some(0.815)), "0.8150");
        assert_eq!(fmt_ratio(None), "X");
        assert_eq!(fmt_yield(0.11), "0.1100");
    }

    #[test]
    fn num_rows_counts() {
        let mut t = TextTable::new(["x"]);
        t.row(["1"]).row(["2"]);
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    fn json_serializes_deterministically() {
        let value = Json::obj()
            .field("name", "fig8")
            .field("ratio", 0.815)
            .field("count", 102usize)
            .field("missing", Json::Null)
            .field("flags", vec![true, false])
            .field("nested", Json::obj().field("x", 1.5));
        let compact = value.to_json();
        assert_eq!(
            compact,
            r#"{"name":"fig8","ratio":0.815,"count":102,"missing":null,"flags":[true,false],"nested":{"x":1.5}}"#
        );
        assert_eq!(value.to_json(), compact, "serialization is pure");
        let pretty = value.to_json_pretty();
        assert!(pretty.contains("\n  \"name\": \"fig8\""));
    }

    #[test]
    fn raw_splices_byte_identically_to_direct_serialization() {
        // A fragment with every shape that affects layout: nested
        // objects/arrays, empties, strings with escapes, numbers.
        let fragment = Json::obj()
            .field("mean", 0.815)
            .field("rows", vec![1.0, 2.5])
            .field("empty_obj", Json::obj())
            .field("empty_arr", Json::Arr(vec![]))
            .field("label", "a\"b\nc")
            .field("nested", Json::obj().field("deep", Json::obj().field("x", 1.0)));
        // Documents embedding the fragment directly vs as level-0
        // pretty text spliced through Raw, at several nesting depths.
        let direct = Json::obj()
            .field("top", fragment.clone())
            .field("deeper", Json::obj().field("inner", fragment.clone()))
            .field("in_arr", Json::Arr(vec![fragment.clone()]));
        let mut pretty0 = String::new();
        fragment.write(&mut pretty0, Some(0));
        let raw = || Json::Raw(pretty0.clone());
        let spliced = Json::obj()
            .field("top", raw())
            .field("deeper", Json::obj().field("inner", raw()))
            .field("in_arr", Json::Arr(vec![raw()]));
        assert_eq!(spliced.to_json_pretty(), direct.to_json_pretty());
        // Compact mode splices the text verbatim.
        assert_eq!(Json::Raw("[1,2]".into()).to_json(), "[1,2]");
    }

    #[test]
    fn json_escapes_and_field_replaces() {
        let v = Json::obj().field("k", "a\"b\\c\nd\te\u{1}").field("k", "replaced");
        assert_eq!(v.to_json(), r#"{"k":"replaced"}"#);
        let s = Json::Str("a\"b\\c\nd\te\u{1}".into()).to_json();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert_eq!(Json::Num(f64::NAN).to_json(), "null");
        assert_eq!(Json::Num(3.0).to_json(), "3");
        assert_eq!(Json::Arr(vec![]).to_json(), "[]");
        assert_eq!(Json::obj().to_json(), "{}");
        assert_eq!(Json::from(Some(2.5)).to_json(), "2.5");
        assert_eq!(Json::from(None::<f64>).to_json(), "null");
        // Integers above 2^53 survive exactly (seeds are u64).
        assert_eq!(Json::from(9_007_199_254_740_993_u64).to_json(), "9007199254740993");
        assert_eq!(Json::from(u64::MAX).to_json(), "18446744073709551615");
        assert_eq!(Json::from(-42_i64).to_json(), "-42");
    }
}
