//! Minimal ASCII charting over the JSON artifacts the experiments save,
//! so regenerated figures can be eyeballed without external plotting.

use std::path::Path;

/// Renders a horizontal bar of `value` against `max` in `width` cells.
///
/// # Example
///
/// ```
/// assert_eq!(aegis_bench::chart::bar(0.5, 1.0, 8), "████");
/// assert_eq!(aegis_bench::chart::bar(0.0, 1.0, 8), "");
/// ```
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if !(value.is_finite() && max.is_finite()) || max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let cells = ((value / max) * width as f64)
        .round()
        .clamp(0.0, width as f64) as usize;
    "█".repeat(cells)
}

/// Parses a numeric cell produced by the experiment tables: plain floats,
/// percentages (`12.34%`), signed percentages, scientific notation, or
/// `2^±k` budget labels.
pub fn parse_cell(cell: &str) -> Option<f64> {
    let t = cell.trim();
    if let Some(rest) = t.strip_prefix("2^") {
        return rest.parse::<f64>().ok().map(|e| 2f64.powf(e));
    }
    let t = t.trim_end_matches('%').trim_end_matches('x');
    t.parse::<f64>().ok()
}

/// Renders one saved artifact (an array of column→cell objects) as a bar
/// chart over its numeric columns, using the first column as the row
/// label. Returns `None` if the file is not a table artifact.
pub fn render_artifact(json: &str, width: usize) -> Option<String> {
    let rows: Vec<serde_json::Map<String, serde_json::Value>> = serde_json::from_str(json).ok()?;
    let first = rows.first()?;
    // Stable column order: label column first, then numeric columns
    // sorted by name (the JSON objects lost insertion order).
    let mut columns: Vec<&String> = first.keys().collect();
    columns.sort();
    let label_col = columns
        .iter()
        .find(|c| {
            rows.iter()
                .any(|r| parse_cell(r[**c].as_str().unwrap_or("")).is_none())
        })
        .copied()
        .or_else(|| columns.first().copied())?;
    let numeric: Vec<&String> = columns
        .iter()
        .filter(|c| **c != label_col)
        .copied()
        .collect();

    let mut out = String::new();
    for col in &numeric {
        let values: Vec<f64> = rows
            .iter()
            .map(|r| parse_cell(r[*col].as_str().unwrap_or("")).unwrap_or(0.0))
            .collect();
        let max = values.iter().copied().fold(0.0f64, f64::max);
        out.push_str(&format!("  {col}\n"));
        for (row, &v) in rows.iter().zip(&values) {
            let label = row[label_col].as_str().unwrap_or("?");
            out.push_str(&format!(
                "    {label:>12} {:<width$} {}\n",
                bar(v, max, width),
                row[*col].as_str().unwrap_or(""),
                width = width
            ));
        }
    }
    Some(out)
}

/// Renders every artifact in `dir` to stdout.
///
/// # Errors
///
/// Returns an I/O error string when the directory cannot be read.
pub fn render_dir(dir: &Path, width: usize) -> Result<(), String> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    for path in entries {
        let Ok(json) = std::fs::read_to_string(&path) else {
            continue;
        };
        if let Some(chart) = render_artifact(&json, width) {
            println!(
                "== {} ==",
                path.file_stem().unwrap_or_default().to_string_lossy()
            );
            print!("{chart}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale_and_clamp() {
        assert_eq!(bar(1.0, 1.0, 4), "████");
        assert_eq!(bar(2.0, 1.0, 4), "████"); // clamped
        assert_eq!(bar(0.25, 1.0, 4), "█");
        assert_eq!(bar(-1.0, 1.0, 4), "");
        assert_eq!(bar(1.0, 0.0, 4), "");
        assert_eq!(bar(f64::NAN, 1.0, 4), "");
    }

    #[test]
    fn cells_parse_every_table_format() {
        assert_eq!(parse_cell("12.34%"), Some(12.34));
        assert_eq!(parse_cell("+3.24%"), Some(3.24));
        assert_eq!(parse_cell("2^-3"), Some(0.125));
        assert_eq!(parse_cell("2^+3"), Some(8.0));
        assert_eq!(parse_cell("1.86x"), Some(1.86));
        assert_eq!(parse_cell("3.5e2"), Some(350.0));
        assert_eq!(parse_cell("laplace"), None);
    }

    #[test]
    fn artifact_rendering_produces_bars_per_numeric_column() {
        let json = r#"[
            {"eps": "2^-3", "laplace acc": "2.22%", "dstar acc": "2.22%"},
            {"eps": "2^+3", "laplace acc": "24.44%", "dstar acc": "3.11%"}
        ]"#;
        let chart = render_artifact(json, 10).expect("renders");
        // eps parses numerically, so the label column must be one of the
        // accuracy columns? No: every column parses here except none —
        // all parse. The first sorted column becomes the label.
        assert!(chart.contains("█"), "{chart}");
        assert!(chart.lines().count() >= 4, "{chart}");
    }

    #[test]
    fn artifact_with_text_labels_uses_them() {
        let json = r#"[
            {"defense": "laplace eps=2^0", "key accuracy": "92.19%"},
            {"defense": "dstar eps=2^3", "key accuracy": "27.34%"}
        ]"#;
        let chart = render_artifact(json, 10).unwrap();
        assert!(chart.contains("laplace eps=2^0"), "{chart}");
        assert!(chart.contains("key accuracy"), "{chart}");
    }

    #[test]
    fn non_table_json_is_skipped() {
        assert!(render_artifact("{\"not\": \"a table\"}", 10).is_none());
        assert!(render_artifact("junk", 10).is_none());
    }
}
