//! The one writer of the checked-in `BENCH_*.json` files.
//!
//! Every file has one shape, `{bench, workload, available_parallelism,
//! rows}`, in long format: each row is one metric of one measured path,
//! `{id, layer, metric, value, unit, better, attacks?, min?, max?}`,
//! keyed by `(id, metric)`. `better` is `higher` or `lower`, the
//! repository benchmark's vocabulary; `attacks` names the benchmark
//! per-layer metric whose share the path is (e.g. `fleet.quiet_step_pct`);
//! `min`/`max` are the fastest and slowest sample of a criterion row.
//! [`BenchFile::check`] rejects a repeated `(id, metric)` or a
//! non-finite number before anything is written; `scripts/bench_diff.sh`
//! checks the committed shape again and gates every row whose unit is
//! not `ns`.

use criterion::Sampled;
use serde_json::{Map, Value};

/// `(metric, value, unit, better)` of one row.
pub type Metric = (&'static str, f64, &'static str, &'static str);

struct Row {
    id: String,
    layer: &'static str,
    metric: Metric,
    attacks: Option<&'static str>,
    spread: Option<(f64, f64)>,
}

impl Row {
    fn to_json(&self) -> Value {
        let (metric, value, unit, better) = self.metric;
        let fields = [
            ("id", Some(Value::from(self.id.as_str()))),
            ("layer", Some(Value::from(self.layer))),
            ("metric", Some(Value::from(metric))),
            ("value", Some(Value::from(value))),
            ("unit", Some(Value::from(unit))),
            ("better", Some(Value::from(better))),
            ("attacks", self.attacks.map(Value::from)),
            ("min", self.spread.map(|(min, _)| Value::from(min))),
            ("max", self.spread.map(|(_, max)| Value::from(max))),
        ];
        let present = fields
            .into_iter()
            .filter_map(|(key, v)| Some((key.to_string(), v?)));
        Value::Object(present.collect())
    }
}

/// The rows of one bench run, written as one `BENCH_*.json` file.
pub struct BenchFile {
    bench: &'static str,
    workload: String,
    rows: Vec<Row>,
}

impl BenchFile {
    pub fn new(bench: &'static str, workload: impl Into<String>) -> BenchFile {
        BenchFile {
            bench,
            workload: workload.into(),
            rows: Vec::new(),
        }
    }

    /// Adds the `metrics` of `id`, a path in `layer` that `attacks` a
    /// benchmark metric.
    pub fn push(
        &mut self,
        id: impl Into<String>,
        layer: &'static str,
        attacks: Option<&'static str>,
        metrics: &[Metric],
    ) {
        let id = id.into();
        for &metric in metrics {
            self.rows.push(Row {
                id: id.clone(),
                layer,
                metric,
                attacks,
                spread: None,
            });
        }
    }

    /// Adds a `median_ns` row with its sample spread for every criterion
    /// result whose id starts with `prefix`.
    pub fn sampled(
        &mut self,
        results: &[Sampled],
        prefix: &str,
        layer: &'static str,
        attacks: Option<&'static str>,
    ) {
        for s in results.iter().filter(|s| s.id.starts_with(prefix)) {
            let median = ("median_ns", s.median_ns, "ns", "lower");
            self.push(&s.id, layer, attacks, &[median]);
            self.rows.last_mut().expect("just pushed").spread = Some((s.min_ns, s.max_ns));
        }
    }

    /// Adds `metric` of `id`, a rate or a ratio (so higher is better)
    /// that `f` computes from the medians of the `inputs` ids, and
    /// returns it. The row takes the first input's layer and attacked
    /// metric. When an input did not run (a filtered run) nothing is
    /// added and `None` comes back.
    pub fn derive(
        &mut self,
        id: impl Into<String>,
        metric: &'static str,
        unit: &'static str,
        inputs: &[impl AsRef<str>],
        f: impl FnOnce(&[f64]) -> f64,
    ) -> Option<f64> {
        let sources = inputs
            .iter()
            .map(|input| {
                let input = input.as_ref();
                self.rows
                    .iter()
                    .find(|r| r.id == input && r.metric.0 == "median_ns")
            })
            .collect::<Option<Vec<&Row>>>()?;
        let (layer, attacks) = (sources[0].layer, sources[0].attacks);
        let value = f(&sources.iter().map(|r| r.metric.1).collect::<Vec<_>>());
        self.push(id, layer, attacks, &[(metric, value, unit, "higher")]);
        Some(value)
    }

    /// Rejects a repeated `(id, metric)` and a non-finite value or
    /// spread, naming the first offending row. [`BenchFile::write`] runs
    /// it first; a smoke pass runs it instead of writing.
    pub fn check(&self) -> Result<(), String> {
        let mut seen = std::collections::BTreeSet::new();
        for r in &self.rows {
            let (metric, value, ..) = r.metric;
            if !seen.insert((r.id.as_str(), metric)) {
                return Err(format!("row ({}, {metric}) is repeated", r.id));
            }
            let (min, max) = r.spread.unwrap_or((value, value));
            if ![value, min, max].iter().all(|v| v.is_finite()) {
                return Err(format!(
                    "row ({}, {metric}) is not finite: {value} [{min}, {max}]",
                    r.id
                ));
            }
        }
        Ok(())
    }

    /// Checks the rows ([`BenchFile::check`]), prints every one, then
    /// writes them to `path` unless a criterion filter is set: a
    /// filtered run measured only some paths, and its file would drop
    /// the others.
    ///
    /// # Panics
    ///
    /// When the check fails; nothing is printed or written then.
    pub fn write(self, path: &str) {
        if let Err(e) = self.check() {
            panic!("{path} not written: {e}");
        }
        for r in &self.rows {
            let (metric, value, unit, _) = r.metric;
            println!("{:<52} {metric:<18} {value:>16.4} {unit}", r.id);
        }
        if let Some(f) = filter() {
            eprintln!("[filter {f:?} set: {path} left as it was]");
            return;
        }
        let parallelism = std::thread::available_parallelism().ok();
        let mut file = Map::new();
        file.insert("bench".to_string(), Value::from(self.bench));
        file.insert("workload".to_string(), Value::from(self.workload));
        file.insert(
            "available_parallelism".to_string(),
            parallelism.map_or(Value::Null, |n| Value::from(n.get())),
        );
        let rows = self.rows.iter().map(Row::to_json).collect();
        file.insert("rows".to_string(), Value::Array(rows));
        let json = serde_json::to_string_pretty(&Value::Object(file))
            .expect("bench rows always serialize");
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("[wrote {path}]"),
            Err(e) => eprintln!("warning: cannot write {path}: {e}"),
        }
    }
}

/// This run's criterion filter (`cargo bench --bench <name> -- <filter>`):
/// the first argument that is not a flag, read as criterion reads it.
pub fn filter() -> Option<String> {
    std::env::args().skip(1).find(|a| !a.starts_with('-'))
}
