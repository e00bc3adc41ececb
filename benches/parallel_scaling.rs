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

/// Derives each measured width's `speedup_vs_1_worker` from the
/// `median_ns` rows; a width whose row is missing (a filtered run) gets
/// none.
fn derive_speedups(out: &mut BenchFile) {
    for workers in WORKERS {
        let id = format!("collect_dataset/workers-{workers}");
        out.derive(
            &id,
            "speedup_vs_1_worker",
            "x",
            &["collect_dataset/workers-1", &id],
            |m| m[0] / m[1],
        );
    }
}

fn main() {
    if std::env::var("AEGIS_BENCH_SMOKE").as_deref() == Ok("1") {
        // One collection at one worker and one at two, no criterion
        // sampling: their rows and the derived speedup are built and
        // checked, not written. Proves the bench runs end to end in
        // tier-1 CI.
        let mut rows = BenchFile::new("parallel_scaling", "smoke");
        for workers in [1, 2] {
            set_threads(workers);
            let started = std::time::Instant::now();
            assert_eq!(collect_once(), 90);
            let median_ns = started.elapsed().as_nanos() as f64;
            rows.push(
                format!("collect_dataset/workers-{workers}"),
                "par",
                Some("sev.collect_clean_pct"),
                &[("median_ns", median_ns, "ns", "lower")],
            );
        }
        set_threads(1);
        derive_speedups(&mut rows);
        rows.check().expect("smoke rows are well formed");
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
    out.sampled(
        criterion.results(),
        "collect_dataset/",
        "par",
        Some("sev.collect_clean_pct"),
    );
    derive_speedups(&mut out);
    out.write("BENCH_parallel.json");
}
