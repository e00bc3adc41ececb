//! The fixed metric set: end-to-end metrics every untraced run reports,
//! and per-layer metrics every traced run reports (zero where the
//! workload bypasses the layer). `BENCHMARK.json` lists the same names.

use crate::stats::{median, quantile, tail_percentile};
use crate::trace::{min_coverage, roots, self_times_ns};
use crate::workload::{ChildReport, OBS_SPANS};
use aegis_bench::experiments::EXPERIMENTS;
use std::collections::BTreeMap;

/// An end-to-end metric.
pub struct Metric {
    /// Name in results and `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Direction of improvement.
    pub lower_is_better: bool,
}

/// What a user of each workload waits for: the median latency of one
/// workload op, ops completed per second, set-up time, and peak memory.
pub const END_TO_END: [Metric; 4] = [
    Metric {
        name: "op_p50_ms",
        unit: "ms",
        lower_is_better: true,
    },
    Metric {
        name: "ops_per_s",
        unit: "1/s",
        lower_is_better: false,
    },
    Metric {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
    },
    Metric {
        name: "peak_rss_mb",
        unit: "MB",
        lower_is_better: true,
    },
];

/// Span names (benchmark spans around layer calls) whose self time is
/// reported as a share of op wall time, as `<name>_pct`.
const OP_SPANS: [&str; 18] = [
    "microarch.host_new",
    "microarch.core_new",
    "profiler.warmup",
    "profiler.rank",
    "fuzzer.run",
    "fuzzer.cover",
    "obfuscator.calibrate",
    "sev.collect_clean",
    "sev.collect_defended",
    "attack.train",
    "attack.score",
    "sev.measure_run",
    "fleet.deploy",
    "fleet.quiet_step",
    "fleet.event_step",
    "fleet.probe",
    "fleet.shutdown",
    "fleet.xt_table",
];

/// Set-up steps reported as a share of set-up time, as
/// `setup.<step>_pct`.
const SETUP_STEPS: [&str; 4] = ["catalogs", "host_new", "plans", "warmup_op"];

/// Every per-layer metric with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("trace.coverage_pct".into(), "%"),
        ("trace.overhead_pct".into(), "%"),
        ("bench.glue_pct".into(), "%"),
        ("setup.glue_pct".into(), "%"),
    ];
    out.extend(SETUP_STEPS.iter().map(|s| (format!("setup.{s}_pct"), "%")));
    out.extend(OP_SPANS.iter().map(|s| (format!("{s}_pct"), "%")));
    for (id, _) in EXPERIMENTS {
        out.push((format!("repro.{id}_pct"), "%"));
        out.push((format!("repro.{id}_warm_pct"), "%"));
    }
    for (name, unit) in [
        ("fuzzer.gadgets_per_plan", "count"),
        ("fuzzer.confirm_ratio", "ratio"),
        ("sev.traces_per_s", "1/s"),
        ("sev.sim_speed", "x"),
        ("obfuscator.defense_cost_pct", "%"),
        ("attack.clean_acc", "fraction"),
        ("attack.defended_acc", "fraction"),
        ("sev.overhead_pct", "%"),
        ("fleet.event_step_ratio", "x"),
        ("fleet.step_tail_ratio", "x"),
        ("fleet.crashes", "count"),
        ("fleet.degrades", "count"),
        ("fleet.evacuations", "count"),
        ("fleet.tenants_protected", "count"),
        ("store.ledger_kb", "KB"),
        ("store.cold_misses", "count"),
        ("store.cold_puts", "count"),
        ("store.warm_hits", "count"),
        ("store.warm_misses", "count"),
        ("store.cache_mb", "MB"),
        ("repro.warm_speedup", "x"),
    ] {
        out.push((name.into(), unit));
    }
    out.extend(OBS_SPANS.iter().map(|s| (format!("obs.{s}_pct"), "%")));
    out.push(("obs.obfuscator.intervals".into(), "count"));
    out.push(("obs.par.units".into(), "count"));
    out.push(("obs.par.idle_pct".into(), "%"));
    out
}

/// What the parent knows besides the traced children's reports.
pub struct TracedInputs<'a> {
    /// Traced children (for repro: the cold pass, then the warm pass).
    pub traced: &'a [ChildReport],
    /// Median op latency of the untraced and traced measurements.
    pub untraced_p50_s: f64,
    pub traced_p50_s: f64,
    /// Artifact-cache size after the traced cold pass (repro only).
    pub cache_bytes: u64,
    /// Untraced cold and warm pass walls (repro only).
    pub repro_walls: Option<(f64, f64)>,
    /// Worker threads the children ran with.
    pub threads: usize,
}

/// Derives every per-layer metric; names absent from this workload
/// read 0.
pub fn derive_per_layer(inp: &TracedInputs) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = per_layer().into_iter().map(|(n, _)| (n, 0.0)).collect();
    let mut set = |name: &str, v: f64| {
        let slot = m
            .get_mut(name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        *slot = if v.is_finite() { v } else { 0.0 };
    };

    let (mut op_self, mut op_wall) = (BTreeMap::new(), 0.0);
    let (mut setup_parts, mut setup_wall) = (BTreeMap::new(), 0.0);
    let mut coverage: f64 = 1.0;
    let mut layer: BTreeMap<String, f64> = BTreeMap::new();
    let mut obs: BTreeMap<String, f64> = BTreeMap::new();
    for r in inp.traced {
        let selfs = self_times_ns(&r.spans);
        let root_of = roots(&r.spans);
        for (i, s) in r.spans.iter().enumerate() {
            let secs = selfs[i] as f64 / 1e9;
            let dur = s.duration_ns() as f64 / 1e9;
            match r.spans[root_of[i]].name.as_str() {
                "op" => {
                    *op_self.entry(s.name.clone()).or_insert(0.0) += secs;
                    if s.parent.is_none() {
                        op_wall += dur;
                    }
                }
                "setup" => match s.parent {
                    None => {
                        setup_wall += dur;
                        *setup_parts.entry("glue".to_string()).or_insert(0.0) += secs;
                    }
                    Some(p) if p == root_of[i] => {
                        let step = s.name.trim_start_matches("setup.").to_string();
                        *setup_parts.entry(step).or_insert(0.0) += dur;
                    }
                    Some(_) => {}
                },
                _ => {}
            }
        }
        coverage = coverage.min(min_coverage(&r.spans, "op"));
        for (k, v) in &r.layer {
            *layer.entry(k.clone()).or_insert(0.0) += v;
        }
        for (k, v) in &r.obs {
            *obs.entry(k.clone()).or_insert(0.0) += v;
        }
    }
    let pct = |part: f64, whole: f64| 100.0 * part / whole;
    let get = |map: &BTreeMap<String, f64>, k: &str| map.get(k).copied().unwrap_or(0.0);

    set("trace.coverage_pct", 100.0 * coverage);
    set(
        "trace.overhead_pct",
        pct(inp.traced_p50_s - inp.untraced_p50_s, inp.untraced_p50_s),
    );
    set("bench.glue_pct", pct(get(&op_self, "op"), op_wall));
    for (step, secs) in &setup_parts {
        set(&format!("setup.{step}_pct"), pct(*secs, setup_wall));
    }
    for (name, secs) in &op_self {
        if name != "op" {
            set(&format!("{name}_pct"), pct(*secs, op_wall));
        }
    }

    let plans = get(&layer, "fuzzer.plans");
    set(
        "fuzzer.gadgets_per_plan",
        get(&layer, "fuzzer.gadgets_tested") / plans,
    );
    set(
        "fuzzer.confirm_ratio",
        get(&layer, "fuzzer.confirmed") / get(&layer, "fuzzer.gadgets_tested"),
    );
    let clean_s = get(&op_self, "sev.collect_clean");
    let defended_s = get(&op_self, "sev.collect_defended");
    set(
        "sev.traces_per_s",
        get(&layer, "sev.traces") / (clean_s + defended_s),
    );
    set(
        "sev.sim_speed",
        get(&layer, "sev.sim_s") / (clean_s + defended_s),
    );
    set(
        "obfuscator.defense_cost_pct",
        pct(defended_s - clean_s, clean_s),
    );
    let evals = get(&layer, "eval.ops");
    for name in [
        "attack.clean_acc",
        "attack.defended_acc",
        "sev.overhead_pct",
    ] {
        set(name, get(&layer, name) / evals);
    }

    let mean_step = |kind: &str| get(&layer, &format!("{kind}_s")) / get(&layer, kind);
    set(
        "fleet.event_step_ratio",
        mean_step("fleet.event_steps") / mean_step("fleet.quiet_steps"),
    );
    let fleets = get(&layer, "fleet.fleets");
    if let Some(r) = inp.traced.first().filter(|_| fleets > 0.0) {
        if let Some(p) = tail_percentile(r.samples_s.len()) {
            set(
                "fleet.step_tail_ratio",
                quantile(&r.samples_s, p) / median(&r.samples_s),
            );
        }
    }
    for name in [
        "fleet.crashes",
        "fleet.degrades",
        "fleet.evacuations",
        "fleet.tenants_protected",
    ] {
        set(name, get(&layer, name) / fleets);
    }
    set(
        "store.ledger_kb",
        get(&layer, "store.ledger_bytes") / fleets / 1024.0,
    );

    if let (Some((cold_s, warm_s)), [cold, warm, ..]) = (inp.repro_walls, inp.traced) {
        set("store.cold_misses", get(&cold.obs, "cache.miss"));
        set("store.cold_puts", get(&cold.obs, "cache.store"));
        set("store.warm_hits", get(&warm.obs, "cache.hit"));
        set("store.warm_misses", get(&warm.obs, "cache.miss"));
        set("repro.warm_speedup", cold_s / warm_s);
    }
    set("store.cache_mb", inp.cache_bytes as f64 / (1024.0 * 1024.0));

    for name in OBS_SPANS {
        set(&format!("obs.{name}_pct"), pct(get(&obs, name), op_wall));
    }
    set(
        "obs.obfuscator.intervals",
        get(&obs, "obfuscator.intervals"),
    );
    set("obs.par.units", get(&obs, "par.units"));
    set(
        "obs.par.idle_pct",
        pct(get(&obs, "par.worker.idle_s"), inp.threads as f64 * op_wall),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// metrics this crate reports, with the same units and directions.
    #[test]
    fn benchmark_json_lists_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let e2e: Vec<(String, String, String)> = spec["end_to_end"]
            .as_array()
            .expect("end_to_end list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                    m["better"].as_str().unwrap().to_string(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String)> = END_TO_END
            .iter()
            .map(|m| {
                let better = if m.lower_is_better { "lower" } else { "higher" };
                (m.name.into(), m.unit.into(), better.into())
            })
            .collect();
        assert_eq!(e2e, ours);
        let layers: Vec<(String, String)> = spec["per_layer"]
            .as_array()
            .expect("per_layer list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                )
            })
            .collect();
        let ours: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(layers, ours);
    }

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        assert!(names.len() <= 128);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
    }
}
