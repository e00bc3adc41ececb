//! The observability contract of the workspace: recording is strictly
//! write-only from the simulation's point of view (`AEGIS_OBS=full`
//! produces bit-identical results to `off`), recoverable failures
//! surface as events rather than panics, and the JSONL run log validates
//! against the golden schema in `tests/golden/obs_event_schema.json`.
//!
//! All tests mutate the process-global observability state (level,
//! sink, `AEGIS_OBS_DIR`), so they serialize through [`OBS_STATE`].

use aegis::faults::FaultPlan;
use aegis::microarch::{MicroArch, OriginFilter};
use aegis::obs::{self, ObsLevel};
use aegis::par::{set_threads, ArtifactCache, ArtifactKey};
use aegis::sev::{Host, PlanSource, Probe, SevMode};
use aegis::workloads::{MixSpec, Segment, WebsiteCatalog, WorkloadPlan};
use aegis::{CollectConfig, Collector};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

static OBS_STATE: Mutex<()> = Mutex::new(());

fn obs_guard() -> std::sync::MutexGuard<'static, ()> {
    OBS_STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aegis-obs-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Restores pristine global observability state and scratch dirs.
fn teardown(dirs: &[&PathBuf]) {
    obs::set_level(None);
    obs::reset();
    std::env::remove_var("AEGIS_OBS_DIR");
    std::env::remove_var("AEGIS_OBS_RUN_ID");
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn collect_once() -> aegis::attack::Dataset {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 5);
    let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
    let core = host.core_of(vm, 0).unwrap();
    let app = WebsiteCatalog::new(3);
    let events = host.core(core).catalog().attack_events();
    let cfg = CollectConfig {
        traces_per_secret: 2,
        window_ns: 80_000_000,
        interval_ns: 2_000_000,
        pool: 12,
        seed: 11,
        per_secret_noise: false,
    };
    Collector::for_traces(cfg)
        .dataset(&host, vm, 0, &app, &events, None)
        .unwrap()
}

#[test]
fn full_observability_leaves_collector_dataset_bit_identical() {
    let _guard = obs_guard();
    let dir = temp_dir("determinism");
    std::env::set_var("AEGIS_OBS_DIR", &dir);
    obs::reset();

    obs::set_level(Some(ObsLevel::Off));
    let off = collect_once();
    obs::set_level(Some(ObsLevel::Full));
    let full = collect_once();

    teardown(&[&dir]);
    assert!(!off.samples.is_empty());
    assert_eq!(off, full, "observability level leaked into the dataset");
}

#[test]
fn corrupt_cache_entry_surfaces_as_event_not_panic() {
    let _guard = obs_guard();
    let obs_dir = temp_dir("corrupt-log");
    let cache_dir = temp_dir("corrupt-cache");
    std::env::set_var("AEGIS_OBS_DIR", &obs_dir);
    std::env::set_var("AEGIS_OBS_RUN_ID", "corrupt-test");
    obs::reset();
    obs::set_level(Some(ObsLevel::Full));

    let cache = ArtifactCache::new(&cache_dir);
    let key = ArtifactKey::raw("demo", 3);
    cache.put_json(&key, &vec![1u64, 2]).unwrap();
    std::fs::write(cache.json_path(&key), "{definitely not json").unwrap();

    let before = obs::snapshot();
    let hit = cache.get_json::<Vec<u64>>(&key);
    assert!(hit.is_none(), "a corrupt artifact must read as a miss");
    let delta = obs::snapshot().since(&before);
    assert_eq!(delta.counter("cache.corrupt"), 1.0);
    assert_eq!(delta.counter("cache.hit"), 0.0);

    obs::flush();
    let log = obs::current_run_log().expect("full level opened a run log");
    let text = std::fs::read_to_string(&log).unwrap();
    let corrupt_events: Vec<Value> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("run-log line is JSON"))
        .filter(|v: &Value| v.get("name").and_then(Value::as_str) == Some("cache.corrupt"))
        .collect();
    assert_eq!(corrupt_events.len(), 1);
    assert_eq!(
        corrupt_events[0].get("cache_kind").and_then(Value::as_str),
        Some("demo")
    );

    teardown(&[&obs_dir, &cache_dir]);
}

fn matches_type(value: &Value, ty: &str) -> bool {
    match ty {
        "number" => value.as_f64().is_some(),
        "string" => value.as_str().is_some(),
        other => panic!("golden schema uses unsupported type {other:?}"),
    }
}

#[test]
fn run_log_validates_against_golden_schema() {
    let _guard = obs_guard();
    let obs_dir = temp_dir("schema-log");
    let cache_dir = temp_dir("schema-cache");
    std::env::set_var("AEGIS_OBS_DIR", &obs_dir);
    std::env::set_var("AEGIS_OBS_RUN_ID", "schema-test");
    obs::reset();
    obs::set_level(Some(ObsLevel::Full));

    // Produce every event kind: spans and worker stats via a collection,
    // a plain event via a cache miss, and a fault event as an injected
    // fault reports it (the run itself is fault-free).
    collect_once();
    assert!(ArtifactCache::new(&cache_dir)
        .get_json::<Vec<u64>>(&ArtifactKey::raw("absent", 1))
        .is_none());
    aegis::faults::report("schema_test", "emit", &[("tick", 1)]);
    obs::flush();
    let log = obs::current_run_log().expect("full level opened a run log");
    let text = std::fs::read_to_string(&log).unwrap();

    let schema_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("obs_event_schema.json");
    let schema: Value =
        serde_json::from_str(&std::fs::read_to_string(schema_path).unwrap()).unwrap();
    let required = schema.get("required").and_then(Value::as_object).unwrap();
    let kinds = schema.get("kinds").and_then(Value::as_object).unwrap();

    let mut seen_kinds = std::collections::BTreeSet::new();
    let mut last_seq = None;
    for line in text.lines() {
        let v: Value = serde_json::from_str(line).expect("run-log line is JSON");
        for (field, ty) in required.iter() {
            let value = v
                .get(field)
                .unwrap_or_else(|| panic!("missing required field {field:?} in {line}"));
            assert!(
                matches_type(value, ty.as_str().unwrap()),
                "field {field:?} has wrong type in {line}"
            );
        }
        let kind = v.get("kind").and_then(Value::as_str).unwrap();
        let kind_schema = kinds
            .get(kind)
            .unwrap_or_else(|| panic!("kind {kind:?} not in the golden schema"));
        for (field, ty) in kind_schema.as_object().unwrap().iter() {
            let value = v
                .get(field)
                .unwrap_or_else(|| panic!("kind {kind}: missing field {field:?} in {line}"));
            assert!(
                matches_type(value, ty.as_str().unwrap()),
                "kind {kind}: field {field:?} has wrong type in {line}"
            );
        }
        // seq is a strictly increasing per-run sequence number.
        let seq = v.get("seq").and_then(Value::as_u64).unwrap();
        if let Some(prev) = last_seq {
            assert_eq!(seq, prev + 1, "seq must increase by one per line");
        }
        last_seq = Some(seq);
        seen_kinds.insert(kind.to_string());
    }
    assert!(
        seen_kinds.contains("span"),
        "no span events in {seen_kinds:?}"
    );
    assert!(
        seen_kinds.contains("worker"),
        "no worker events in {seen_kinds:?}"
    );
    assert!(
        seen_kinds.contains("event"),
        "no plain events in {seen_kinds:?}"
    );
    assert!(
        seen_kinds.contains("fault"),
        "no fault events in {seen_kinds:?}"
    );

    teardown(&[&obs_dir, &cache_dir]);
}

#[test]
fn summary_renders_span_table_after_a_run() {
    let _guard = obs_guard();
    let dir = temp_dir("summary");
    std::env::set_var("AEGIS_OBS_DIR", &dir);
    obs::reset();
    obs::set_level(Some(ObsLevel::Summary));

    collect_once();
    let summary = obs::render_summary(&obs::snapshot());
    assert!(
        summary.contains("collect.dataset"),
        "summary should list the collection span:\n{summary}"
    );

    teardown(&[&dir]);
}

/// Fault counters count each injected fault once whether the profiler's
/// probes run as lanes (`Host::record_probes`) or as the attach + record
/// loop, both when every probe opens after retries and when the first
/// probe's open fails.
#[test]
fn probe_lanes_count_each_program_fault_once() {
    let _guard = obs_guard();
    obs::reset();
    obs::set_level(Some(ObsLevel::Summary));
    // Two workers, so the probes really run as lanes.
    set_threads(2);
    let fault_counters = |record: &mut dyn FnMut()| {
        let before = obs::snapshot();
        record();
        let mut delta = obs::snapshot().since(&before).counters;
        delta.retain(|name, n| name.starts_with("faults.") && *n > 0.0);
        delta
    };
    let mut outcomes = Vec::new();
    for pmc_program_fail in [0.4, 0.9] {
        let plan = FaultPlan {
            pmc_program_fail,
            ..FaultPlan::smoke()
        };
        let twin = || {
            let mut host = Host::with_faults(MicroArch::AmdEpyc7252, 2, 5, plan);
            let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
            (host, vm)
        };
        let (mut lanes, vm) = twin();
        let (mut looped, _) = twin();
        let core = lanes.core_of(vm, 0).unwrap();
        let events = lanes.core(core).catalog().attack_events();
        let probes = || {
            (0..4u32).map(|i| {
                let mut spec = MixSpec::idle();
                spec.uops_per_us = 200.0 + 150.0 * f64::from(i);
                let mut app = WorkloadPlan::new();
                app.push(Segment::new(1 << 40, spec.build()));
                Probe {
                    source: PlanSource::new(app),
                    events: &events,
                    interval_ns: 1_000_000,
                    duration_ns: 6_000_000,
                }
            })
        };
        let mut failed = false;
        let got = fault_counters(&mut || {
            failed = lanes
                .record_probes(vm, 0, OriginFilter::Any, probes(), drop)
                .is_err();
        });
        let want = fault_counters(&mut || {
            for p in probes() {
                looped.attach_app(vm, 0, Box::new(p.source)).unwrap();
                let traced = looped.record_trace(
                    &[core],
                    p.events,
                    OriginFilter::Any,
                    p.interval_ns,
                    p.duration_ns,
                );
                if traced.is_err() {
                    break;
                }
            }
        });
        outcomes.push((pmc_program_fail, failed, got, want));
    }
    set_threads(0);
    teardown(&[]);
    assert_eq!(
        outcomes.iter().map(|o| o.1).collect::<Vec<_>>(),
        [false, true],
        "one plan must let every probe open, the other fail the first"
    );
    for (rate, _, got, want) in outcomes {
        assert!(
            want.get("faults.pmc_program.fail").copied().unwrap_or(0.0) > 0.0,
            "programming must fail under rate {rate}: {want:?}"
        );
        assert_eq!(
            got.get("faults.pmc_program.fail"),
            want.get("faults.pmc_program.fail"),
            "probe lanes and the loop count programming faults differently (rate {rate})"
        );
        assert_eq!(
            got, want,
            "probe lanes and the loop count faults differently (rate {rate})"
        );
    }
}
