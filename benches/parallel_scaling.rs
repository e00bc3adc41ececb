//! Scaling of the deterministic parallel execution layer: the same
//! workload at 1 / 2 / 4 / 8 workers. On a multi-core machine the wide
//! configurations approach linear speedup; on a single hardware thread
//! they cost only the scheduling overhead — and in every case the results
//! are bit-identical, which `tests/parallel_determinism.rs` enforces.
//!
//! Writes `BENCH_parallel.json`: each configuration's median and its
//! speedup over one worker. Only dataset collection is measured: the
//! event fuzzer's pool, at bench size, ran slower with more workers
//! even on two vCPUs, so its rows measured pool overhead, not scaling.

mod common;

use aegis::microarch::MicroArch;
use aegis::par::set_threads;
use aegis::sev::{Host, SevMode};
use aegis::workloads::WebsiteCatalog;
use aegis::{CollectConfig, Collector};
use common::BenchFile;
use criterion::{black_box, Criterion};

const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// One website dataset (45 sites × 2 traces) on a fresh host: the rows
/// collected.
fn collect_once() -> usize {
    let cfg = CollectConfig {
        traces_per_secret: 2,
        window_ns: 60_000_000,
        interval_ns: 2_000_000,
        pool: 20,
        seed: 11,
        per_secret_noise: false,
    };
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, 5);
    let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
    let core = host.core_of(vm, 0).unwrap();
    let app = WebsiteCatalog::new(3);
    let events = host.core(core).catalog().attack_events();
    Collector::for_traces(cfg)
        .dataset(&host, vm, 0, &app, &events, None)
        .unwrap()
        .samples
        .rows()
}

fn bench_collect(c: &mut Criterion) {
    let mut g = c.benchmark_group("collect_dataset");
    g.sample_size(3);
    for workers in WORKERS {
        g.bench_function(&format!("workers-{workers}"), |b| {
            set_threads(workers);
            b.iter(|| black_box(collect_once()));
        });
    }
    g.finish();
}

fn main() {
    if std::env::var("AEGIS_BENCH_SMOKE").as_deref() == Ok("1") {
        // One collection on a two-worker pool, no criterion sampling or
        // JSON refresh: proves the bench compiles and runs in tier-1 CI.
        set_threads(2);
        let rows = collect_once();
        set_threads(1);
        assert_eq!(rows, 90);
        eprintln!("[parallel_scaling smoke OK]");
        return;
    }

    let mut criterion = Criterion::default().configure_from_args();
    bench_collect(&mut criterion);
    set_threads(1);

    let mut out = BenchFile::new(
        "parallel_scaling",
        "one website dataset collected at 1/2/4/8 workers",
    );
    let results = criterion.results();
    out.sampled(
        results,
        "collect_dataset/",
        "par",
        Some("sev.collect_clean_pct"),
    );
    for s in results {
        let one = format!("{}1", s.id.trim_end_matches(|c: char| c.is_ascii_digit()));
        out.derive(&s.id, "speedup_vs_1_worker", "x", &[&one, &s.id], |m| {
            m[0] / m[1]
        });
    }
    out.write("BENCH_parallel.json");
}
