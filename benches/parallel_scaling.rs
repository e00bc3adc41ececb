//! Scaling of the deterministic parallel execution layer: the same
//! workload at 1 / 2 / 4 / 8 workers. On a multi-core machine the wide
//! configurations approach linear speedup; on a single hardware thread
//! they cost only the scheduling overhead — and in every case the results
//! are bit-identical, which `tests/parallel_determinism.rs` enforces.
//!
//! Writes `BENCH_parallel.json`: each configuration's median and its
//! speedup over one worker, for dataset collection at 1 / 2 / 4 / 8
//! workers and for the profiler's event ranking (`rank_events` on dnn at
//! the `aegis offline` settings) at 1 and 2. The event fuzzer is not
//! measured: its pool, at bench size, ran slower with more workers even
//! on two vCPUs, so its rows measured pool overhead, not scaling.

mod common;

use aegis::microarch::{EventId, MicroArch};
use aegis::par::set_threads;
use aegis::profiler::{rank_events, warmup_profile, RankConfig, WarmupConfig};
use aegis::sev::{Host, SevMode};
use aegis::workloads::{DnnZoo, WebsiteCatalog};
use aegis::{CollectConfig, Collector};
use common::BenchFile;
use criterion::{black_box, Criterion};

const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Worker counts of the ranking rows.
const RANK_WORKERS: [usize; 2] = [1, 2];

/// Events the ranking rows rank: the first warm-up survivors.
const RANKED_EVENTS: usize = 16;

/// The profiler settings `aegis offline` uses (without `--thorough`).
const SEED: u64 = 7;
const WARMUP: WarmupConfig = WarmupConfig {
    probe_ns: 3_000_000,
    passes: 3,
    rel_threshold: 0.5,
    abs_threshold: 25.0,
    seed: SEED,
};
const RANK: RankConfig = RankConfig {
    reps_per_secret: 2,
    window_ns: 80_000_000,
    interval_ns: 10_000_000,
    seed: SEED,
};

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

/// A fresh template host with one single-vCPU VM, as `aegis offline`
/// builds it.
fn template_host() -> (Host, aegis::sev::VmId) {
    let mut host = Host::new(MicroArch::AmdEpyc7252, 2, SEED);
    let vm = host.launch_vm(1, SevMode::SevSnp).unwrap();
    (host, vm)
}

/// The first [`RANKED_EVENTS`] events that survive dnn's warm-up.
fn ranked_events() -> Vec<EventId> {
    let (mut host, vm) = template_host();
    let warm = warmup_profile(&mut host, vm, 0, &DnnZoo::new(SEED), &WARMUP).unwrap();
    warm.vulnerable[..RANKED_EVENTS].to_vec()
}

/// Ranks `events` for dnn on a fresh template host: the rankings made.
fn rank_once(events: &[EventId]) -> usize {
    let (mut host, vm) = template_host();
    rank_events(&mut host, vm, 0, &DnnZoo::new(SEED), events, &RANK)
        .unwrap()
        .len()
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

fn bench_rank(c: &mut Criterion, events: &[EventId]) {
    let mut g = c.benchmark_group("profile_rank");
    g.sample_size(3);
    for workers in RANK_WORKERS {
        g.bench_function(&format!("workers-{workers}"), |b| {
            set_threads(workers);
            b.iter(|| black_box(rank_once(events)));
        });
    }
    g.finish();
}

/// Derives each measured width's `speedup_vs_1_worker` from the
/// `median_ns` rows of `group`; a width whose row is missing (a filtered
/// run) gets none.
fn derive_speedups(out: &mut BenchFile, group: &str, widths: &[usize]) {
    let base = format!("{group}/workers-1");
    for workers in widths {
        let id = format!("{group}/workers-{workers}");
        out.derive(&id, "speedup_vs_1_worker", "x", &[&base, &id], |m| {
            m[0] / m[1]
        });
    }
}

fn main() {
    let events = ranked_events();
    if std::env::var("AEGIS_BENCH_SMOKE").as_deref() == Ok("1") {
        // One collection and one ranking at one worker and at two, no
        // criterion sampling: their rows and the derived speedups are
        // built and checked, not written. Proves the bench runs end to
        // end in tier-1 CI.
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
            let started = std::time::Instant::now();
            assert_eq!(rank_once(&events), RANKED_EVENTS);
            let median_ns = started.elapsed().as_nanos() as f64;
            rows.push(
                format!("profile_rank/workers-{workers}"),
                "profiler",
                Some("profiler.rank_pct"),
                &[("median_ns", median_ns, "ns", "lower")],
            );
        }
        set_threads(1);
        derive_speedups(&mut rows, "collect_dataset", &[1, 2]);
        derive_speedups(&mut rows, "profile_rank", &RANK_WORKERS);
        rows.check().expect("smoke rows are well formed");
        eprintln!("[parallel_scaling smoke OK]");
        return;
    }

    let mut criterion = Criterion::default().configure_from_args();
    bench_collect(&mut criterion);
    bench_rank(&mut criterion, &events);
    set_threads(1);

    let mut out = BenchFile::new(
        "parallel_scaling",
        format!(
            "one website dataset collected at 1/2/4/8 workers; dnn's first \
             {RANKED_EVENTS} warm-up survivors ranked at 1/2 workers"
        ),
    );
    let results = criterion.results();
    out.sampled(
        results,
        "collect_dataset/",
        "par",
        Some("sev.collect_clean_pct"),
    );
    out.sampled(
        results,
        "profile_rank/",
        "profiler",
        Some("profiler.rank_pct"),
    );
    derive_speedups(&mut out, "collect_dataset", &WORKERS);
    derive_speedups(&mut out, "profile_rank", &RANK_WORKERS);
    out.write("BENCH_parallel.json");
}
