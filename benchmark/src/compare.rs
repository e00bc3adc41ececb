//! `compare BASE CAND`: per (workload, metric), both sides' medians and
//! quartiles over their result files, and a verdict for each end-to-end
//! metric under its bound from `BENCHMARK.json`.

use crate::metrics::END_TO_END;
use crate::stats::{quartiles, verdict, Verdict};
use crate::workload::Kind;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

/// `(workload, trace, metric)` → values, one per result file.
type Values = BTreeMap<(String, u64, String), Vec<f64>>;

pub fn main(args: &[String]) -> ExitCode {
    let [base, cand] = args else {
        eprintln!("usage: compare <BASELINE_DIR> <CANDIDATE_DIR>");
        return ExitCode::from(2);
    };
    let loaded = (load(Path::new(base)), load(Path::new(cand)), bounds());
    let (base, cand, bounds) = match loaded {
        (Ok(b), Ok(c), Ok(bounds)) => (b, c, bounds),
        (b, c, bounds) => {
            for e in [b.err(), c.err(), bounds.err()].into_iter().flatten() {
                eprintln!("error: {e}");
            }
            return ExitCode::from(2);
        }
    };
    let mut worse = 0;
    println!(
        "{:<16} {:<34} {:>28} {:>28} {:>8}  verdict",
        "workload", "metric", "baseline median [q1, q3] n", "candidate median [q1, q3] n", "change"
    );
    for kind in Kind::ALL {
        let w = kind.name().to_string();
        for m in &END_TO_END {
            let key = (w.clone(), 0, m.name.to_string());
            let (Some(b), Some(c)) = (base.get(&key), cand.get(&key)) else {
                continue;
            };
            let v = verdict(b, c, bounds[m.name], m.lower_is_better);
            worse += usize::from(v == Verdict::Worse);
            println!("{}", row(&w, m.name, b, c, v.label()));
        }
        for ((kw, trace, name), b) in base.range((w.clone(), 1, String::new())..) {
            if *kw != w || *trace != 1 {
                break;
            }
            if let Some(c) = cand.get(&(w.clone(), 1, name.clone())) {
                println!("{}", row(&w, name, b, c, "(per-layer)"));
            }
        }
    }
    if worse > 0 {
        println!("{worse} metric(s) worse beyond their bound");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn row(workload: &str, metric: &str, b: &[f64], c: &[f64], verdict: &str) -> String {
    let cell = |xs: &[f64]| {
        let (q1, q2, q3) = quartiles(xs);
        format!("{q2:.4} [{q1:.4}, {q3:.4}] {}", xs.len())
    };
    let (_, bm, _) = quartiles(b);
    let (_, cm, _) = quartiles(c);
    let change = if bm != 0.0 {
        format!("{:+.1}%", 100.0 * (cm - bm) / bm.abs())
    } else {
        "-".into()
    };
    format!(
        "{workload:<16} {metric:<34} {:>28} {:>28} {change:>8}  {verdict}",
        cell(b),
        cell(c)
    )
}

/// Reads every result file (`run --out DIR`) in `dir`.
fn load(dir: &Path) -> Result<Values, String> {
    let mut out = Values::new();
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|x| x != "json") {
            continue;
        }
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let file: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let (Some(w), Some(trace), Some(metrics)) = (
            file["workload"].as_str(),
            file["trace"].as_u64(),
            file["result"]["metrics"].as_object(),
        ) else {
            continue;
        };
        for (name, m) in metrics.iter() {
            if let Some(v) = m["value"].as_f64() {
                out.entry((w.to_string(), trace, name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// End-to-end bounds from `BENCHMARK.json` at the repository root.
fn bounds() -> Result<BTreeMap<&'static str, f64>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    END_TO_END
        .iter()
        .map(|m| {
            spec["end_to_end"]
                .as_array()
                .and_then(|ms| ms.iter().find(|x| x["name"].as_str() == Some(m.name)))
                .and_then(|x| x["bound"].as_f64())
                .map(|b| (m.name, b))
                .ok_or_else(|| format!("{path}: no bound for {}", m.name))
        })
        .collect()
}
