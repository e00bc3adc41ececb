//! The event fuzzer's measurement plane: `fuzz_path/vectorized` records
//! each candidate's measurement session once and evaluates every event
//! against the recorded traces through the dense response matrix, on
//! one worker.
//!
//! Writes `BENCH_kernel.json`. `AEGIS_BENCH_SMOKE=1` runs the workload
//! once without criterion sampling so CI can smoke-test the bench
//! without burning minutes.

use aegis::fuzzer::{EventFuzzer, FuzzOutcome, FuzzerConfig};
use aegis::microarch::{Core, EventId, InterferenceConfig, MicroArch};
use aegis::par::{set_threads, ArtifactCache};
use aegis_isa::{IsaCatalog, Vendor};
use criterion::{black_box, Criterion};

/// Paper-faithful sweep width: the fuzzer in the source paper tests 137
/// hardware events on AMD Zen (Table III); the recording pass amortizes
/// across exactly this axis.
const N_EVENTS: usize = 137;
const CANDIDATES: usize = 40;

fn fuzz_config() -> FuzzerConfig {
    FuzzerConfig {
        candidates_per_event: CANDIDATES,
        confirm_reps: 10,
        ..FuzzerConfig::default()
    }
}

fn setup() -> (std::sync::Arc<IsaCatalog>, Core, Vec<EventId>) {
    let isa = IsaCatalog::shared(Vendor::Amd, 7);
    let mut core = Core::new(MicroArch::AmdEpyc7252, 7);
    core.set_interference(InterferenceConfig::isolated());
    let events: Vec<EventId> = core
        .catalog()
        .guest_visible_ids()
        .into_iter()
        .take(N_EVENTS)
        .collect();
    (isa, core, events)
}

/// Pre-warmed cleanup cache: cleanup is deterministic, so a warm cache
/// keeps its cost out of the measurement.
fn warm_cache(dir: &std::path::Path) -> ArtifactCache {
    let cache = ArtifactCache::new(dir);
    let (isa, mut core, events) = setup();
    let fuzzer = EventFuzzer::with_cache(fuzz_config(), ArtifactCache::new(dir));
    let _ = fuzzer.run(&isa, &mut core, &events[..1]);
    cache
}

fn run_path(cache_dir: &std::path::Path) -> FuzzOutcome {
    let (isa, mut core, events) = setup();
    let fuzzer = EventFuzzer::with_cache(fuzz_config(), ArtifactCache::new(cache_dir));
    fuzzer.run(&isa, &mut core, &events)
}

fn bench_paths(c: &mut Criterion, cache_dir: &std::path::Path) {
    let mut g = c.benchmark_group("fuzz_path");
    g.sample_size(5);
    g.bench_function("vectorized", |b| {
        b.iter(|| black_box(run_path(cache_dir).report.gadgets_tested));
    });
    g.finish();
}

fn main() {
    let tmp = std::env::temp_dir().join(format!("aegis-kernel-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = warm_cache(&tmp);

    set_threads(1);
    if std::env::var("AEGIS_BENCH_SMOKE").as_deref() == Ok("1") {
        // One iteration, no criterion sampling: proves the bench compiles
        // and the pipeline tests every candidate for every event.
        let outcome = run_path(&tmp);
        assert_eq!(outcome.report.gadgets_tested, N_EVENTS * CANDIDATES);
        let _ = std::fs::remove_dir_all(&tmp);
        eprintln!("[measurement_kernel smoke OK]");
        return;
    }

    let mut criterion = Criterion::default().configure_from_args();
    bench_paths(&mut criterion, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);

    let rows: Vec<serde_json::Value> = criterion
        .results()
        .iter()
        .map(|s| {
            let mut row = serde_json::Map::new();
            let ok = "bench fields always serialize";
            row.insert("id".to_string(), serde_json::to_value(&s.id).expect(ok));
            row.insert(
                "median_ns".to_string(),
                serde_json::to_value(s.median_ns).expect(ok),
            );
            row.insert("min_ns".to_string(), serde_json::to_value(s.min_ns).expect(ok));
            row.insert("max_ns".to_string(), serde_json::to_value(s.max_ns).expect(ok));
            serde_json::Value::Object(row)
        })
        .collect();
    let mut out = serde_json::Map::new();
    out.insert(
        "workload".to_string(),
        serde_json::Value::String(format!(
            "{N_EVENTS} events x {CANDIDATES} candidates, confirm_reps 10, warm cleanup cache"
        )),
    );
    out.insert("rows".to_string(), serde_json::Value::Array(rows));
    let json = serde_json::to_string_pretty(&serde_json::Value::Object(out))
        .expect("bench rows always serialize");
    match std::fs::write("BENCH_kernel.json", json) {
        Ok(()) => eprintln!("[wrote BENCH_kernel.json]"),
        Err(e) => eprintln!("warning: cannot write BENCH_kernel.json: {e}"),
    }
}
