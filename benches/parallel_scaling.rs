//! Scaling of the deterministic parallel execution layer: the same
//! workload at 1 / 2 / 4 / 8 workers. On a multi-core machine the wide
//! configurations approach linear speedup; on a single hardware thread
//! they cost only the scheduling overhead — and in every case the results
//! are bit-identical, which `tests/parallel_determinism.rs` enforces.
//!
//! Writes `BENCH_parallel.json`: each configuration's median and its
//! speedup over one worker.

mod common;

use aegis::fuzzer::{EventFuzzer, FuzzerConfig};
use aegis::microarch::{named, Core, InterferenceConfig, MicroArch};
use aegis::par::{set_threads, ArtifactCache};
use aegis::sev::{Host, SevMode};
use aegis::workloads::WebsiteCatalog;
use aegis::{CollectConfig, Collector};
use aegis_isa::{IsaCatalog, Vendor};
use common::BenchFile;
use criterion::{black_box, Criterion};

const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn bench_collect(c: &mut Criterion) {
    let cfg = CollectConfig {
        traces_per_secret: 2,
        window_ns: 60_000_000,
        interval_ns: 2_000_000,
        pool: 20,
        seed: 11,
        per_secret_noise: false,
    };
    let mut g = c.benchmark_group("collect_dataset");
    g.sample_size(3);
    for workers in WORKERS {
        g.bench_function(&format!("workers-{workers}"), |b| {
            set_threads(workers);
            b.iter(|| {
                let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 5);
                let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
                let core = host.core_of(vm, 0).unwrap();
                let app = WebsiteCatalog::new(3);
                let events = host.core(core).catalog().attack_events();
                black_box(
                    Collector::for_traces(cfg)
                        .dataset(&host, vm, 0, &app, &events, None)
                        .unwrap()
                        .samples
                        .rows(),
                )
            });
        });
    }
    g.finish();
}

fn bench_fuzz(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_fuzzing");
    g.sample_size(3);
    for workers in WORKERS {
        g.bench_function(&format!("workers-{workers}"), |b| {
            set_threads(workers);
            b.iter(|| {
                // Process-shared catalogs: per-iteration (and per-worker)
                // reconstruction is what used to flatline this group.
                let catalog = IsaCatalog::shared(Vendor::Amd, 7);
                let mut core = Core::new(MicroArch::AmdEpyc7252, 7);
                core.set_interference(InterferenceConfig::isolated());
                let events = [
                    core.catalog().lookup(named::RETIRED_UOPS).unwrap(),
                    core.catalog()
                        .lookup(named::DATA_CACHE_REFILLS_FROM_SYSTEM)
                        .unwrap(),
                ];
                let fuzzer = EventFuzzer::with_cache(
                    FuzzerConfig {
                        candidates_per_event: 60,
                        confirm_reps: 10,
                        ..FuzzerConfig::default()
                    },
                    ArtifactCache::disabled(),
                );
                black_box(fuzzer.run(&catalog, &mut core, &events).report.gadgets_tested)
            });
        });
    }
    g.finish();
}

fn main() {
    if std::env::var("AEGIS_BENCH_SMOKE").as_deref() == Ok("1") {
        // One iteration per workload, no criterion sampling or JSON
        // refresh: proves the bench compiles and runs in tier-1 CI.
        set_threads(2);
        let catalog = IsaCatalog::shared(Vendor::Amd, 7);
        let mut core = Core::new(MicroArch::AmdEpyc7252, 7);
        core.set_interference(InterferenceConfig::isolated());
        let ev = core.catalog().lookup(named::RETIRED_UOPS).unwrap();
        let fuzzer = EventFuzzer::with_cache(
            FuzzerConfig {
                candidates_per_event: 30,
                confirm_reps: 10,
                ..FuzzerConfig::default()
            },
            ArtifactCache::disabled(),
        );
        let out = fuzzer.run(&catalog, &mut core, &[ev]);
        set_threads(1);
        assert_eq!(out.report.gadgets_tested, 30);
        eprintln!("[parallel_scaling smoke OK]");
        return;
    }

    let mut criterion = Criterion::default().configure_from_args();
    bench_collect(&mut criterion);
    bench_fuzz(&mut criterion);
    set_threads(1);

    let mut out = BenchFile::new(
        "parallel_scaling",
        "one website dataset collected, and 2 events x 60 candidates fuzzed, at 1/2/4/8 workers",
    );
    let results = criterion.results();
    for (group, attacks) in [
        ("collect_dataset/", "sev.collect_clean_pct"),
        ("event_fuzzing/", "fuzzer.run_pct"),
    ] {
        out.sampled(results, group, "par", Some(attacks));
    }
    for s in results {
        let one = format!("{}1", s.id.trim_end_matches(|c: char| c.is_ascii_digit()));
        out.derive(&s.id, "speedup_vs_1_worker", "x", &[&one, &s.id], |m| {
            m[0] / m[1]
        });
    }
    out.write("BENCH_parallel.json");
}
