//! Lane-batched trace recording versus one core per session.
//!
//! One "session" is the fuzzer's per-candidate recording protocol: clone
//! the post-cleanup template core, reseed it for the candidate, and run
//! `reps` generation windows, `R` cold + `R` hot confirmation windows,
//! and `reps` reorder-recheck windows between serializing fences. The
//! scalar path drives each session through its own [`Core`] (a one-lane
//! engine) with the per-step activity log and end-of-session re-fold of
//! the scalar [`TraceRecorder`]; the batched path drives the same
//! sessions as lanes of one [`CoreBatch`] through a
//! [`BatchTraceRecorder`], folding window sums in place with no log. Both produce bit-identical [`RecordedTrace`]s —
//! asserted on every run — so the comparison is pure execution cost.
//!
//! Each bench function is measured in a pristine child process (the
//! binary re-execs itself with `AEGIS_BENCH_ONE=<id>`) so no path is
//! charged for allocator or cache state left behind by another path's
//! sampling. Writes `BENCH_core.json` with sessions/sec for the scalar
//! path and the batched path at lane widths 1/8/32/128; widths above
//! [`CoreBatch::TILE_LANES`] are tiled into cache-sized lane blocks
//! (see [`record_batched`]). `AEGIS_BENCH_SMOKE=1` runs one pass of each
//! path without sampling.

use aegis::fuzzer::{BatchTraceRecorder, RecordedTrace, TraceRecorder};
use aegis::microarch::{Core, CoreBatch, InterferenceConfig, MicroArch};
use aegis::par::derive_seed;
use aegis_isa::{InstrId, IsaCatalog, Vendor, WellKnown};
use criterion::{black_box, Criterion};

/// Total sessions per measured iteration (divisible by every lane width).
const SESSIONS: usize = 128;
/// Lane widths the batched path is swept across.
const LANE_WIDTHS: [usize; 4] = [1, 8, 32, 128];
/// Generation / reorder repetitions (the paper's `reps = 10`).
const REPS: usize = 10;
/// Confirmation repetitions (the paper's `R = 20`).
const R: usize = 20;
/// Session-seed stream tag (bench-local; any constant works).
const STREAM: u64 = 0xbe7c;

fn setup() -> (IsaCatalog, Core) {
    let catalog = IsaCatalog::synthetic(Vendor::Amd, 7);
    let mut core = Core::new(MicroArch::AmdEpyc7252, 7);
    core.set_interference(InterferenceConfig::isolated());
    (catalog, core)
}

fn session_seed(idx: usize) -> u64 {
    derive_seed(7, STREAM, idx as u64)
}

/// The window schedule of one candidate session, applied through any
/// recorder with a `window` method via the two sequences.
fn gadget_seqs() -> ([InstrId; 2], [InstrId; 1]) {
    (
        [WellKnown::Clflush.id(), WellKnown::Load64.id()],
        [WellKnown::Clflush.id()],
    )
}

/// Records `SESSIONS` sessions object-at-a-time: fresh core clone +
/// reseed + per-step activity log per session (the scalar reference).
fn record_scalar(catalog: &IsaCatalog, template: &Core) -> Vec<RecordedTrace> {
    let (full, reset) = gadget_seqs();
    (0..SESSIONS)
        .map(|idx| {
            let mut session = template.clone();
            session.reseed(session_seed(idx));
            let mut rec = TraceRecorder::begin(&mut session, catalog);
            for _ in 0..REPS {
                rec.window(&full);
            }
            for _ in 0..R {
                rec.window(&reset);
            }
            for _ in 0..R {
                rec.window(&full);
            }
            for _ in 0..REPS {
                rec.window(&full);
            }
            rec.finish()
        })
        .collect()
}

/// Records the same `SESSIONS` sessions as lanes of a reused `CoreBatch`,
/// `width` lanes at a time. Widths above [`CoreBatch::TILE_LANES`] are
/// recorded as consecutive `TILE_LANES`-lane tiles: a 128-lane group's
/// working set (counters × lanes, struct-of-arrays) spills the private
/// caches and every window re-misses it, which is the batched-128 cache
/// debt BENCH_core.json used to show. Tiling keeps each block
/// cache-resident; the trace stream is identical because lanes never
/// interact.
fn record_batched(
    catalog: &IsaCatalog,
    template: &Core,
    arena: &mut Option<CoreBatch>,
    width: usize,
) -> Vec<RecordedTrace> {
    let (full, reset) = gadget_seqs();
    let tile = width.min(CoreBatch::TILE_LANES);
    let mut traces = Vec::with_capacity(SESSIONS);
    let mut done = 0;
    while done < SESSIONS {
        let n = tile.min(SESSIONS - done);
        let seeds: Vec<u64> = (done..done + n).map(session_seed).collect();
        match arena {
            Some(batch) => batch.reset_from_core_state(template, n),
            None => *arena = Some(CoreBatch::from_core_state(template, n)),
        }
        let batch = arena.as_mut().expect("arena just filled");
        for (lane, &seed) in seeds.iter().enumerate() {
            batch.reseed(lane, seed);
        }
        let full_seqs: Vec<&[InstrId]> = vec![&full; n];
        let reset_seqs: Vec<&[InstrId]> = vec![&reset; n];
        let mut rec = BatchTraceRecorder::begin(batch, catalog);
        for _ in 0..REPS {
            rec.window(&full_seqs);
        }
        for _ in 0..R {
            rec.window(&reset_seqs);
        }
        for _ in 0..R {
            rec.window(&full_seqs);
        }
        for _ in 0..REPS {
            rec.window(&full_seqs);
        }
        traces.append(&mut rec.finish());
        done += n;
    }
    traces
}

fn main() {
    // Every measurement runs in a *pristine child process*: one bench
    // function per re-exec of this binary, selected by AEGIS_BENCH_ONE.
    // Sampling all paths from one process instead measures whatever
    // allocator-placement and cache-aliasing debt the previous paths'
    // churn left behind — observed here as a stable ~3x penalty on the
    // cache-dense batched path once a few hundred prior sessions had run
    // in-process. Per-process isolation gives the scalar and batched
    // paths identical, reproducible conditions; each child still warms
    // its own working set with one untimed pass before sampling.
    if let Ok(id) = std::env::var("AEGIS_BENCH_ONE") {
        run_on_bench_thread(move || child_main(&id));
        return;
    }
    run_on_bench_thread(parent_main);
}

/// Runs `f` on a spawned worker thread: the process's initial stack
/// penalizes the cache-dense batched path (stack/heap aliasing), which a
/// fresh thread stack avoids — identically for both paths.
fn run_on_bench_thread<F: FnOnce() + Send>(f: F) {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("bench".into())
            .spawn_scoped(s, f)
            .expect("spawn bench thread")
            .join()
            .expect("bench thread panicked");
    });
}

/// Measures exactly one bench id in this (pristine) process and prints a
/// machine-readable result line on stdout for the parent to collect.
fn child_main(id: &str) {
    let (catalog, template) = setup();
    let mut criterion = Criterion::default();
    {
        let mut g = criterion.benchmark_group("core_kernel");
        g.sample_size(10);
        if id == "scalar" {
            black_box(record_scalar(&catalog, &template).len()); // untimed warmup
            g.bench_function("scalar", |b| {
                b.iter(|| black_box(record_scalar(&catalog, &template).len()));
            });
        } else if let Some(width) = id
            .strip_prefix("batched-")
            .and_then(|w| w.parse::<usize>().ok())
        {
            let mut arena = None;
            black_box(record_batched(&catalog, &template, &mut arena, width).len());
            g.bench_function(id, |b| {
                b.iter(|| black_box(record_batched(&catalog, &template, &mut arena, width).len()));
            });
        } else {
            panic!("unknown bench id {id:?}");
        }
        g.finish();
    }
    let sampled = &criterion.results()[0];
    println!(
        "AEGIS_NS {} {} {}",
        sampled.median_ns, sampled.min_ns, sampled.max_ns
    );
}

/// Asserts the scalar-reference invariant, then re-execs this binary once
/// per bench function and merges the children's medians into
/// `BENCH_core.json`.
fn parent_main() {
    let (catalog, template) = setup();

    // The scalar-reference invariant, asserted on every run (smoke and
    // sampled alike): the two paths being compared produce bit-identical
    // traces, so the benchmark measures execution cost and nothing else.
    let reference = record_scalar(&catalog, &template);
    for width in LANE_WIDTHS {
        let mut arena = None;
        let batched = record_batched(&catalog, &template, &mut arena, width);
        assert_eq!(reference, batched, "lane width {width} diverged");
    }

    if std::env::var("AEGIS_BENCH_SMOKE").as_deref() == Ok("1") {
        eprintln!("[core_kernel smoke OK]");
        return;
    }

    // `cargo bench -- <substring>` filters like the criterion shim does.
    let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let exe = std::env::current_exe().expect("bench binary path");
    let mut results: Vec<(String, f64)> = Vec::new();
    let ids: Vec<String> = std::iter::once("scalar".to_string())
        .chain(LANE_WIDTHS.iter().map(|w| format!("batched-{w}")))
        .collect();
    for id in &ids {
        let full_id = format!("core_kernel/{id}");
        if let Some(f) = &filter {
            if !full_id.contains(f.as_str()) {
                continue;
            }
        }
        let out = std::process::Command::new(&exe)
            .env("AEGIS_BENCH_ONE", id)
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn bench child");
        assert!(out.status.success(), "bench child {id} failed");
        let stdout = String::from_utf8_lossy(&out.stdout);
        for line in stdout.lines().filter(|l| !l.starts_with("AEGIS_NS ")) {
            println!("{line}");
        }
        let median_ns = stdout
            .lines()
            .find_map(|l| l.strip_prefix("AEGIS_NS "))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or_else(|| panic!("bench child {id} reported no result"));
        results.push((full_id, median_ns));
    }

    let median_of = |id: &str| {
        results
            .iter()
            .find(|(rid, _)| rid == id)
            .map(|&(_, ns)| ns)
            .unwrap_or(0.0)
    };
    let sessions_per_sec = |median_ns: f64| {
        if median_ns > 0.0 {
            SESSIONS as f64 / (median_ns * 1e-9)
        } else {
            0.0
        }
    };
    let scalar_ns = median_of("core_kernel/scalar");
    let ok = "bench fields always serialize";
    let mut rows: Vec<serde_json::Value> = Vec::new();
    let mut push_row = |id: String, median_ns: f64, speedup: f64| {
        let mut row = serde_json::Map::new();
        row.insert("id".to_string(), serde_json::Value::String(id));
        row.insert(
            "median_ns".to_string(),
            serde_json::to_value(median_ns).expect(ok),
        );
        row.insert(
            "sessions_per_sec".to_string(),
            serde_json::to_value(sessions_per_sec(median_ns)).expect(ok),
        );
        row.insert(
            "speedup_vs_scalar".to_string(),
            serde_json::to_value(speedup).expect(ok),
        );
        rows.push(serde_json::Value::Object(row));
    };
    push_row("core_kernel/scalar".to_string(), scalar_ns, 1.0);
    for width in LANE_WIDTHS {
        let ns = median_of(&format!("core_kernel/batched-{width}"));
        let speedup = if ns > 0.0 { scalar_ns / ns } else { 0.0 };
        // Tiling must hold the full-width rate: widths at or above the
        // tile size may not fall back into the cache-debt regime.
        if width >= CoreBatch::TILE_LANES {
            assert!(
                speedup >= 6.0,
                "tiled batching must beat scalar ≥ 6x at width {width} \
                 (got {speedup:.2}x)"
            );
        }
        push_row(format!("core_kernel/batched-{width}"), ns, speedup);
    }

    let mut out = serde_json::Map::new();
    out.insert(
        "workload".to_string(),
        serde_json::Value::String(format!(
            "{SESSIONS} recording sessions of {} windows each \
             (reps {REPS}, R {R}, clflush+load gadget), bit-equal traces \
             asserted before timing",
            2 * REPS + 2 * R
        )),
    );
    out.insert("rows".to_string(), serde_json::Value::Array(rows));
    let json = serde_json::to_string_pretty(&serde_json::Value::Object(out))
        .expect("bench rows always serialize");
    match std::fs::write("BENCH_core.json", json) {
        Ok(()) => eprintln!("[wrote BENCH_core.json]"),
        Err(e) => eprintln!("warning: cannot write BENCH_core.json: {e}"),
    }
}
