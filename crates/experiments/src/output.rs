//! Experiment result containers and renderers (markdown / CSV / JSON).
//!
//! JSON encoding/decoding rides the workspace serialization layer
//! ([`osn_serde`]): the containers implement [`ToValue`] / [`FromValue`]
//! and render through the pretty writer, whose layout is byte-identical to
//! the hand-rolled writer that used to live in this module — existing
//! artifacts (`BENCH_walkers.json`, recorded `repro` baselines) parse and
//! re-emit unchanged.

use osn_serde::{FromValue, ToValue, Value};

/// One labeled curve: `(x, y)` pairs (a line in one of the paper's plots,
/// or a column group in a table).
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Legend label (e.g. `"CNRW"`).
    pub label: String,
    /// X coordinates (query cost, graph size, node rank, …).
    pub x: Vec<f64>,
    /// Y values (relative error, KL divergence, probability, …).
    pub y: Vec<f64>,
}

impl Series {
    /// Build a series, checking lengths agree.
    ///
    /// # Panics
    /// Panics if `x` and `y` lengths differ.
    pub fn new(label: impl Into<String>, x: Vec<f64>, y: Vec<f64>) -> Self {
        assert_eq!(x.len(), y.len(), "series coordinate length mismatch");
        Series {
            label: label.into(),
            x,
            y,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// Mean of the y values (NaN when empty).
    pub fn mean_y(&self) -> f64 {
        if self.y.is_empty() {
            return f64::NAN;
        }
        self.y.iter().sum::<f64>() / self.y.len() as f64
    }

    /// Area-under-curve by trapezoid rule — a single-number summary used to
    /// compare algorithms across a whole budget sweep ("lower error curve").
    pub fn auc(&self) -> f64 {
        if self.len() < 2 {
            return 0.0;
        }
        self.x
            .windows(2)
            .zip(self.y.windows(2))
            .map(|(xs, ys)| (xs[1] - xs[0]) * (ys[0] + ys[1]) / 2.0)
            .sum()
    }
}

/// A complete experiment artifact: identifier, axis names, all series.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentResult {
    /// Identifier matching the paper ("fig6", "table1", …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// All curves.
    pub series: Vec<Series>,
    /// Free-form notes: parameters, substitutions, caveats.
    pub notes: Vec<String>,
}

impl ExperimentResult {
    /// New result shell.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        ExperimentResult {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a series (builder style).
    #[must_use]
    pub fn with_series(mut self, s: Series) -> Self {
        self.series.push(s);
        self
    }

    /// Append a note (builder style).
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Find a series by label.
    pub fn series_by_label(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Render as a GitHub-flavored markdown table: one row per x value, one
    /// column per series.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        for note in &self.notes {
            out.push_str(&format!("> {note}\n"));
        }
        if !self.notes.is_empty() {
            out.push('\n');
        }
        if self.series.is_empty() {
            out.push_str("(no data)\n");
            return out;
        }
        // Header.
        out.push_str(&format!("| {} |", self.x_label));
        for s in &self.series {
            out.push_str(&format!(" {} |", s.label));
        }
        out.push('\n');
        out.push_str("|---|");
        for _ in &self.series {
            out.push_str("---|");
        }
        out.push('\n');
        // Rows, keyed by the union of x values in order of first series.
        let xs = &self.series[0].x;
        for (i, &x) in xs.iter().enumerate() {
            out.push_str(&format!("| {} |", trim_float(x)));
            for s in &self.series {
                match s.y.get(i) {
                    Some(&y) => out.push_str(&format!(" {} |", format_sig(y))),
                    None => out.push_str(" — |"),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Render as CSV: `x,label1,label2,...` header then one row per x.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label.replace(',', ";"));
        for s in &self.series {
            out.push(',');
            out.push_str(&s.label.replace(',', ";"));
        }
        out.push('\n');
        if let Some(first) = self.series.first() {
            for (i, &x) in first.x.iter().enumerate() {
                out.push_str(&format!("{x}"));
                for s in &self.series {
                    out.push(',');
                    if let Some(&y) = s.y.get(i) {
                        out.push_str(&format!("{y}"));
                    }
                }
                out.push('\n');
            }
        }
        out
    }

    /// Serialize to pretty JSON (via [`osn_serde`]'s pretty writer, whose
    /// layout matches this module's historical hand-rolled format byte for
    /// byte).
    pub fn to_json(&self) -> String {
        self.to_value().to_pretty()
    }

    /// Parse the JSON produced by [`to_json`](Self::to_json).
    ///
    /// # Errors
    /// Returns a human-readable message when `input` is not a well-formed
    /// experiment-result document.
    pub fn from_json(input: &str) -> Result<Self, String> {
        let value = Value::parse(input).map_err(|e| e.to_string())?;
        Self::from_value(&value)
    }
}

impl ToValue for Series {
    fn to_value(&self) -> Value {
        Value::obj([
            ("label", self.label.to_value()),
            ("x", self.x.to_value()),
            ("y", self.y.to_value()),
        ])
    }
}

impl FromValue for Series {
    fn from_value(value: &Value) -> Result<Self, String> {
        let x: Vec<f64> = value.field("x")?.decode()?;
        let y: Vec<f64> = value.field("y")?.decode()?;
        if x.len() != y.len() {
            return Err("series coordinate length mismatch".into());
        }
        Ok(Series {
            label: value.field("label")?.decode()?,
            x,
            y,
        })
    }
}

impl ToValue for ExperimentResult {
    fn to_value(&self) -> Value {
        Value::obj([
            ("id", self.id.to_value()),
            ("title", self.title.to_value()),
            ("x_label", self.x_label.to_value()),
            ("y_label", self.y_label.to_value()),
            ("series", self.series.to_value()),
            ("notes", self.notes.to_value()),
        ])
    }
}

impl FromValue for ExperimentResult {
    fn from_value(value: &Value) -> Result<Self, String> {
        Ok(ExperimentResult {
            id: value.field("id")?.decode()?,
            title: value.field("title")?.decode()?,
            x_label: value.field("x_label")?.decode()?,
            y_label: value.field("y_label")?.decode()?,
            series: value.field("series")?.decode()?,
            notes: value.field("notes")?.decode()?,
        })
    }
}

/// Format with 4 significant digits (plot-legible, diff-stable).
fn format_sig(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    if !v.is_finite() {
        return format!("{v}");
    }
    let magnitude = v.abs().log10().floor() as i32;
    let decimals = (3 - magnitude).clamp(0, 10) as usize;
    format!("{v:.decimals$}")
}

fn trim_float(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentResult {
        ExperimentResult::new("figX", "Demo", "Query Cost", "Relative Error")
            .with_series(Series::new("SRW", vec![20.0, 40.0], vec![0.5, 0.25]))
            .with_series(Series::new("CNRW", vec![20.0, 40.0], vec![0.4, 0.125]))
            .with_note("synthetic demo data")
    }

    #[test]
    fn markdown_contains_everything() {
        let md = sample().to_markdown();
        assert!(md.contains("figX"));
        assert!(md.contains("| Query Cost | SRW | CNRW |"));
        assert!(md.contains("| 20 |"));
        assert!(md.contains("0.5000"));
        assert!(md.contains("> synthetic demo data"));
    }

    #[test]
    fn csv_roundtrip_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "Query Cost,SRW,CNRW");
        assert!(lines[1].starts_with("20,"));
    }

    #[test]
    fn json_roundtrip() {
        let r = sample();
        let back = ExperimentResult::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn json_roundtrip_hostile_content() {
        let r = ExperimentResult::new("fig\"X\"", "Demo \\ Δ", "x\nlabel", "y\tlabel")
            .with_series(Series::new(
                "divérging",
                vec![0.0, 1.5, -2.0],
                vec![f64::INFINITY, f64::NEG_INFINITY, 1e-9],
            ))
            .with_note("note with \"quotes\" and unicode: π ≈ 3.14159");
        let back = ExperimentResult::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn json_rejects_malformed() {
        assert!(ExperimentResult::from_json("").is_err());
        assert!(ExperimentResult::from_json("{}").is_err());
        assert!(ExperimentResult::from_json("[1, 2").is_err());
        let good = sample().to_json();
        assert!(ExperimentResult::from_json(&good[..good.len() - 1]).is_err());
    }

    #[test]
    fn series_auc() {
        let s = Series::new("x", vec![0.0, 1.0, 2.0], vec![1.0, 1.0, 1.0]);
        assert!((s.auc() - 2.0).abs() < 1e-12);
        let s = Series::new("x", vec![0.0, 2.0], vec![0.0, 2.0]);
        assert!((s.auc() - 2.0).abs() < 1e-12);
        assert_eq!(Series::new("e", vec![1.0], vec![1.0]).auc(), 0.0);
    }

    #[test]
    fn series_stats() {
        let s = Series::new("x", vec![1.0, 2.0], vec![3.0, 5.0]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!((s.mean_y() - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn series_validates_lengths() {
        let _ = Series::new("bad", vec![1.0], vec![]);
    }

    #[test]
    fn lookup_by_label() {
        let r = sample();
        assert!(r.series_by_label("SRW").is_some());
        assert!(r.series_by_label("nope").is_none());
    }

    #[test]
    fn format_sig_behaviour() {
        assert_eq!(format_sig(0.0), "0");
        assert_eq!(format_sig(0.5), "0.5000");
        assert_eq!(format_sig(12345.6), "12346");
        assert_eq!(format_sig(f64::INFINITY), "inf");
    }
}
