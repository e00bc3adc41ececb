//! The event fuzzer's measurement plane: `fuzz_path/vectorized` records
//! each candidate's measurement session once and evaluates every event
//! against the recorded traces through the dense response matrix, on
//! one worker.
//!
//! Writes `BENCH_kernel.json`: the median and the gadgets tested per
//! second. `AEGIS_BENCH_SMOKE=1` times the workload once without
//! criterion sampling and builds and checks the same rows from that run,
//! writing nothing, so CI can smoke-test the bench without burning
//! minutes.

mod common;

use aegis::fuzzer::{EventFuzzer, FuzzOutcome, FuzzerConfig};
use aegis::microarch::{Core, EventId, InterferenceConfig, MicroArch};
use aegis::par::{set_threads, ArtifactCache};
use aegis_isa::{IsaCatalog, Vendor};
use common::BenchFile;
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
        // One timed run, no criterion sampling: proves the bench compiles,
        // the pipeline tests every candidate for every event, and the
        // rows build and pass the writer's check (not written).
        let started = std::time::Instant::now();
        let outcome = run_path(&tmp);
        let median_ns = started.elapsed().as_nanos() as f64;
        let _ = std::fs::remove_dir_all(&tmp);
        assert_eq!(outcome.report.gadgets_tested, N_EVENTS * CANDIDATES);
        let mut rows = BenchFile::new("measurement_kernel", "smoke");
        rows.push(
            "fuzz_path/vectorized",
            "fuzzer",
            Some("fuzzer.run_pct"),
            &[("median_ns", median_ns, "ns", "lower")],
        );
        derive_rates(&mut rows);
        rows.check().expect("smoke rows are well formed");
        eprintln!("[measurement_kernel smoke OK]");
        return;
    }

    let mut criterion = Criterion::default().configure_from_args();
    bench_paths(&mut criterion, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);

    let mut out = BenchFile::new(
        "measurement_kernel",
        format!("{N_EVENTS} events x {CANDIDATES} candidates, confirm_reps 10, warm cleanup cache"),
    );
    out.sampled(
        criterion.results(),
        "fuzz_path/",
        "fuzzer",
        Some("fuzzer.run_pct"),
    );
    derive_rates(&mut out);
    out.write("BENCH_kernel.json");
}

/// Derives the gadgets tested per second from the `median_ns` row.
fn derive_rates(out: &mut BenchFile) {
    out.derive(
        "fuzz_path/vectorized",
        "gadgets_per_sec",
        "1/s",
        &["fuzz_path/vectorized"],
        |m| (N_EVENTS * CANDIDATES) as f64 / (m[0] * 1e-9),
    );
}
